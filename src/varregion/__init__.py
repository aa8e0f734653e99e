"""Variability regions of log f' for disk-subordination function classes."""

from .extremal import (
    ConvergenceError,
    ExtremalSpec,
    QuadratureConfig,
    closed_form_a0,
    extremal_fprime,
    extremal_value,
    fprime_segment_integral,
)
from .region import (
    BoundaryCurve,
    Disk,
    EvalPoint,
    JanowskiParams,
    Verdict,
    boundary_curve,
    boundary_point,
    equivalent_disk_param,
    janowski_disk,
    majorant_q,
    mobius_delta,
    mobius_delta_inv,
    pullback_modulus,
    region_point,
    singleton_value,
    variability_disk,
)
from .sampler import (
    ConstrainedSchwarz,
    inner_eval,
    member_log_fprime,
    omega_eval,
    special_curvature,
)
from .verify import (
    DEFAULT_COVERAGE_CASES,
    DEFAULT_LAMBDAS,
    DEFAULT_PARAM_SETS,
    DEFAULT_Z0S,
    SUITE_NAMES,
    VerificationReport,
    check_convexity,
    check_corollary0,
    check_coverage,
    check_halfplane_univalence,
    check_prop1,
    check_rotation,
    check_strict_inclusion,
    check_unit_lambda,
    run_suite,
)

__version__ = "0.1.0"
