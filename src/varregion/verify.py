"""Executable verification suites for the region identities and inequalities.

Each suite samples exact class members and checks one closed-form claim
against them: the disk inequality for the pullback, its lambda = 0 corollary,
the |lambda| = 1 collapse, rotation equivariance of membership verdicts, the
coverage identity between the member image and the parametrized disk image,
convexity/simplicity of boundary polygons (turns of one sign and a total
turning of +-2 pi), the strict-inclusion curvature witness, and the half-plane
bound Re f' > 1/2 for A = 0.

Violations are hard failures against tolerances, reported as structured
:class:`VerificationReport` records.  All suites are deterministic functions
of their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .region import (
    VERDICTS,
    BoundaryCurve,
    EvalPoint,
    JanowskiParams,
    boundary_curve,
    boundary_point,
    classify,
    equivalent_disk_param,
    janowski_disk,
    region_point,
    singleton_value,
    variability_disk,
)
from .sampler import (
    ConstrainedSchwarz,
    InnerBatch,
    constant_inners,
    member_log_fprime,
    sample_members,
    special_curvature,
)

__all__ = [
    "VerificationReport",
    "DEFAULT_PARAM_SETS",
    "DEFAULT_LAMBDAS",
    "DEFAULT_Z0S",
    "check_prop1",
    "check_corollary0",
    "check_unit_lambda",
    "check_rotation",
    "check_coverage",
    "check_convexity_and_jordan",
    "check_strict_inclusion",
    "check_halfplane_univalence",
    "SUITE_NAMES",
    "run_suite",
    "run_suites",
]

DEFAULT_PARAM_SETS: tuple[JanowskiParams, ...] = (
    JanowskiParams(0.0, 0.5),
    JanowskiParams(-0.5, 0.5),
    JanowskiParams(-1.0, 1.0),
    JanowskiParams(0.3, 0.7),
    JanowskiParams(-0.9, -0.1),
)
DEFAULT_LAMBDAS: tuple[float, ...] = (0.0, 0.3, 0.5, 0.9)
DEFAULT_Z0S: tuple[complex, ...] = (0.5, 0.3 + 0.4j, -0.7, 0.1j)

_MAX_WITNESSES = 20


@dataclass
class VerificationReport:
    """Outcome of one suite; passed iff max_violation <= tolerance."""

    suite_name: str
    parameter_sets: int
    samples: int
    max_violation: float
    tolerance: float
    passed: bool
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite_name": self.suite_name,
            "parameter_sets": self.parameter_sets,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "witnesses": self.witnesses,
            "extra": self.extra,
        }


class _Tally:
    """Accumulates per-sample violations and failure witnesses."""

    def __init__(self, tol: float):
        self.tol = tol
        self.max_violation = -np.inf
        self.samples = 0
        self.witnesses: list[dict[str, Any]] = []

    def add(self, violation: float, inputs: dict[str, Any], observed: Any) -> None:
        """Record one sample."""
        self.add_many([violation], lambda k: (inputs, observed))

    def add_many(self, violations, witness: Callable[[int], tuple[dict[str, Any], Any]]) -> None:
        """Record an array of violations; witness(k) gives (inputs, observed) of sample k.

        witness is called only for the first violators that still fit, in order.
        A NaN violation fails: it is a witness and max_violation becomes NaN.
        """
        v = np.asarray(violations, dtype=float).ravel()
        self.samples += v.size
        self.max_violation = float(np.maximum.reduce(v, initial=self.max_violation))
        room = max(0, _MAX_WITNESSES - len(self.witnesses))
        for k in np.flatnonzero(~(v <= self.tol))[:room].tolist():
            inputs, observed = witness(k)
            self.witnesses.append({"inputs": inputs, "observed": observed})

    def report(self, suite_name: str, parameter_sets: int, **extra: Any) -> VerificationReport:
        max_v = 0.0 if self.samples == 0 else self.max_violation
        return VerificationReport(
            suite_name=suite_name,
            parameter_sets=parameter_sets,
            samples=self.samples,
            max_violation=max_v,
            tolerance=self.tol,
            passed=max_v <= self.tol,
            witnesses=self.witnesses,
            extra=extra,
        )


def _cstr(w: complex) -> str:
    w = complex(w)
    return f"{w.real:.17g}{w.imag:+.17g}j"


def _members_with_probes(seed: int, n: int) -> InnerBatch:
    """Rows 0..n-1 of the member stream of seed, every eighth one an extremal probe."""
    members = sample_members(seed, n)
    i = np.arange(n)
    probe = i % 8 == 7
    # on-circle probe: constant unimodular inner reproduces the extremal family
    # and must sit exactly on the boundary circle
    circle = constant_inners(np.exp(1j * (2.0 * np.pi * (i / max(n, 1)) - np.pi)))
    return InnerBatch(np.where(probe, circle.lead, members.lead), members.zeros, members.mask & ~probe)


def check_prop1(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    z0s: Sequence[complex] = DEFAULT_Z0S,
    n_samples: int = 40,
    tol: float = 1e-9,
    seed: int = 0,
) -> VerificationReport:
    """Members' pullback (f')^(B/(A-B)) stays in the closed disk D(c, r)."""
    tally = _Tally(tol)
    members = _members_with_probes(seed, n_samples)
    for params in param_sets:
        for lam in lambdas:
            s = ConstrainedSchwarz(members, lam)
            for z0 in z0s:
                if z0 == 0:
                    continue
                disk = variability_disk(EvalPoint(z0, lam), params)
                pullback = np.exp(member_log_fprime(s, params, z0) / params.exponent)
                violation = np.abs(pullback - disk.center) - disk.radius
                inputs = {"A": params.A, "B": params.B, "lambda": lam, "z0": _cstr(z0)}
                tally.add_many(violation, lambda k: (inputs, {
                    "pullback": _cstr(pullback[k]), "distance_minus_r": float(violation[k])}))
    return tally.report("prop1", len(param_sets))


def check_corollary0(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    z0s: Sequence[complex] = DEFAULT_Z0S,
    n_samples: int = 40,
    tol: float = 1e-9,
    seed: int = 0,
) -> VerificationReport:
    """lambda = 0 estimate |(f')^(B/(A-B)) - 1| <= |B||z|^2, sharp for unimodular psi."""
    tally = _Tally(tol)
    members = ConstrainedSchwarz(_members_with_probes(seed, n_samples), lam=0.0)
    phis = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    sharp = ConstrainedSchwarz(constant_inners(np.exp(1j * phis)), lam=0.0)
    for params in param_sets:
        for z0 in z0s:
            bound = abs(params.B) * abs(z0) ** 2
            inputs = {"A": params.A, "B": params.B, "z0": _cstr(z0)}
            lhs = np.abs(np.exp(member_log_fprime(members, params, z0) / params.exponent) - 1.0)
            tally.add_many(lhs - bound, lambda k: (
                inputs, {"lhs": float(lhs[k]), "bound": float(bound)}))
            # sharpness probes: equality up to roundoff
            lhs_sharp = np.abs(np.exp(member_log_fprime(sharp, params, z0) / params.exponent) - 1.0)
            tally.add_many(np.abs(lhs_sharp - bound), lambda k: (
                dict(inputs, sharp_phi=float(phis[k])),
                {"lhs": float(lhs_sharp[k]), "bound": float(bound)}))
    return tally.report("corollary0", len(param_sets))


def check_unit_lambda(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    z0s: Sequence[complex] = DEFAULT_Z0S,
    tol: float = 1e-9,
    k_max: int = 40,
) -> VerificationReport:
    """|lambda| = 1 collapse: r -> 0 monotonically and the disk converges to the singleton."""
    tally = _Tally(tol)
    for params in param_sets:
        for z0 in z0s:
            if z0 == 0:
                target = singleton_value(EvalPoint(0.0, 1.0), params)
                tally.add(abs(target), {"z0": "0"}, {"singleton": _cstr(target)})
                continue
            target = singleton_value(EvalPoint(z0, 1.0), params)
            radii = []
            for k in range(1, k_max + 1):
                lam_k = 1.0 - 2.0**-k
                point = EvalPoint(z0, lam_k)
                radii.append(variability_disk(point, params).radius)
                if k == k_max:
                    for a in (0.0, 1.0, -1.0, 1j):
                        d = abs(region_point(a, point, params) - target)
                        tally.add(
                            d,
                            {"A": params.A, "B": params.B, "z0": _cstr(z0), "k": k, "a": _cstr(a)},
                            {"distance_to_singleton": float(d)},
                        )
            drops = np.diff(radii)
            tally.add(
                float(np.max(drops)),
                {"A": params.A, "B": params.B, "z0": _cstr(z0)},
                {"max_radius_increase": float(np.max(drops))},
            )
            # rotation consistency of the collapsed value for unimodular lambda
            for phi in (0.0, 1.0, 2.5):
                u = np.exp(1j * phi)
                lhs = singleton_value(EvalPoint(z0, u), params)
                rhs = singleton_value(EvalPoint(u * z0, 1.0), params)
                tally.add(
                    abs(lhs - rhs),
                    {"A": params.A, "B": params.B, "z0": _cstr(z0), "phi": phi},
                    {"lhs": _cstr(lhs), "rhs": _cstr(rhs)},
                )
    return tally.report("unit-lambda", len(param_sets))


def _rotation_test_values(
    params: JanowskiParams, z0: complex, lam: float, thetas: np.ndarray, members: InnerBatch
) -> np.ndarray:
    """Mix of attainable, boundary and exterior values for the frame (z0, lam).

    Row i is a member value, a boundary value at thetas[i] and an exterior value
    at thetas[i] in turn, by i % 3.
    """
    point = EvalPoint(z0, lam)
    disk = variability_disk(point, params)
    values = np.empty(thetas.size, complex)
    values[0::3] = member_log_fprime(ConstrainedSchwarz(members[0::3], lam), params, z0)
    values[1::3] = boundary_point(thetas[1::3], point, params)
    th = thetas[2::3]
    w_pre = disk.center + 1.2 * disk.radius * np.exp(1j * th)
    w_pre = np.where(w_pre.real <= 1e-6, disk.center + 1.05 * disk.radius * np.exp(1j * th), w_pre)
    values[2::3] = params.exponent * np.log(w_pre)
    return values


def check_rotation(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    z0s: Sequence[complex] = (0.5, 0.3 + 0.4j),
    lambdas: Sequence[float] = (0.3, 0.5),
    n_rotations: int = 16,
    n_samples: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
) -> VerificationReport:
    """Verdicts agree between frames (e^{i theta} z0, lambda) and (z0, lambda e^{i theta})."""
    tally = _Tally(tol)
    turns = 2.0 * np.pi * np.arange(n_rotations) / n_rotations
    per_frame = max(1, n_samples // (len(z0s) * len(lambdas)))
    thetas = np.random.default_rng((seed, 777)).uniform(-np.pi, np.pi, size=per_frame)
    members = sample_members(seed, per_frame)
    for params in param_sets:
        for z0 in z0s:
            for lam in lambdas:
                for th in turns:
                    rot = np.exp(1j * th)
                    ws = _rotation_test_values(params, rot * z0, lam, thetas, members)
                    _, v1 = classify(ws, EvalPoint(rot * z0, lam), params, tol)
                    _, v2 = classify(ws, EvalPoint(z0, lam * rot), params, tol)
                    inputs = {"A": params.A, "B": params.B, "z0": _cstr(z0), "lambda": lam,
                              "theta": float(th)}
                    tally.add_many((v1 != v2).astype(float), lambda k: (
                        dict(inputs, w=_cstr(ws[k])),
                        {"rotated_point": VERDICTS[v1[k]].value,
                         "rotated_lambda": VERDICTS[v2[k]].value}))
    return tally.report("rotation", len(param_sets))


def _polar_grid(n: int) -> np.ndarray:
    """n x n polar grid of the closed unit disk, radius 0 and 1 included."""
    rho = np.linspace(0.0, 1.0, n)
    phi = 2.0 * np.pi * np.arange(n) / n
    return (rho[:, None] * np.exp(1j * phi)[None, :]).ravel()


def check_coverage(
    point: EvalPoint,
    params: JanowskiParams,
    grid_n: int = 128,
    tol: float = 1e-8,
) -> VerificationReport:
    """Member image of constant inners equals the parametrized disk image.

    The two point sets sample the same region along matched grids (the disk
    parameter a(k) is the Mobius image of the inner constant k), so the largest
    gap max_k |m_k - r_k| between matched points is pure numerical noise.  It
    bounds the Hausdorff distance in both directions, so it is what is gated.
    """
    tally = _Tally(tol)
    ks = _polar_grid(grid_n)
    s = ConstrainedSchwarz(constant_inners(ks), point.lam)
    member_vals = member_log_fprime(s, params, point.z0)
    region_vals = region_point(equivalent_disk_param(ks, point, params), point, params)
    h = float(np.max(np.abs(member_vals - region_vals)))
    tally.add(
        h,
        {"A": params.A, "B": params.B, "z0": _cstr(point.z0), "lambda": _cstr(point.lam),
         "grid_n": grid_n},
        {"hausdorff": h},
    )
    return tally.report(
        "coverage", 1, hausdorff_member_to_region=h, hausdorff_region_to_member=h
    )


def check_convexity_and_jordan(curve: BoundaryCurve, tol: float = 1e-10) -> VerificationReport:
    """Single-signed turning plus a total turning of one full turn in that sense.

    By Hopf's Umlaufsatz for polygons, a closed polygon whose turns all have one
    sign is convex and simple exactly when its exterior angles sum to +-2 pi.
    """
    n = len(curve)
    if n < 16:
        raise ValueError(f"require at least 16 curve samples, got {n}")
    pts = curve.as_points()
    if float(np.max(np.ptp(pts, axis=0))) <= 1e-15:
        raise ValueError("degenerate curve (zero radius) is not a Jordan curve")
    tally = _Tally(tol)

    # repeated points turn nothing: turns are taken between consecutive non-zero edges
    e = np.roll(pts, -1, axis=0) - pts
    e = e[np.any(e != 0.0, axis=1)]
    f = np.roll(e, -1, axis=0)
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    sign = 1.0 if cross[np.argmax(np.abs(cross))] >= 0 else -1.0
    worst = float(np.max(-sign * cross))
    tally.add(worst, {"check": "convexity"}, {"opposite_sign_excess": worst})

    turns = np.arctan2(cross, np.sum(e * f, axis=1))
    winding = float(np.rint(np.sum(turns) / (2.0 * np.pi)))
    tally.add(abs(winding - sign), {"check": "jordan"}, {"turning_number": winding})
    return tally.report("convexity", 1, n_samples_on_curve=n)


def run_convexity_default(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    z0s: Sequence[complex] = DEFAULT_Z0S,
    n: int = 256,
    tol: float = 1e-10,
) -> VerificationReport:
    """check_convexity_and_jordan over every computed default boundary curve."""
    tally = _Tally(tol)
    curves = 0
    for params in param_sets:
        for lam in lambdas:
            for z0 in z0s:
                if z0 == 0:
                    continue
                curve = boundary_curve(EvalPoint(z0, lam), params, n)
                sub = check_convexity_and_jordan(curve, tol)
                curves += 1
                tally.add(
                    sub.max_violation,
                    {"A": params.A, "B": params.B, "lambda": lam, "z0": _cstr(z0)},
                    {"max_violation": sub.max_violation},
                )
    return tally.report("convexity", len(param_sets), curves=curves)


def check_strict_inclusion(
    params: JanowskiParams,
    tol: float = 1e-9,
    z_grid: np.ndarray | None = None,
) -> VerificationReport:
    """Find real z in (0,1) whose special curvature exits the convex-class disk."""
    if params.B >= 1.0:
        raise ValueError("strict-inclusion witness needs B < 1 (disk case)")
    zs = z_grid if z_grid is not None else np.linspace(0.5, 0.999, 200)
    disk = janowski_disk(params)
    kappa = special_curvature(params, zs.astype(complex))
    dist = np.abs(kappa - disk.center) - disk.radius
    i = int(np.argmax(dist))
    best = float(dist[i])
    tally = _Tally(tol)
    # violation is negative precisely when a witness outside the disk exists
    tally.add(
        -best,
        {"A": params.A, "B": params.B},
        {"witness_z": float(zs[i]), "distance_outside": best},
    )
    return tally.report(
        "inclusion", 1, witness_z=float(zs[i]), distance_outside=best,
        limit_value=float((1.0 + 2.0 * params.A - params.B) / (1.0 + params.B)),
        left_endpoint=float((1.0 + params.A) / (1.0 + params.B)),
    )


def run_inclusion_default(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    tol: float = 1e-9,
) -> VerificationReport:
    """Strict-inclusion witnesses for every default pair with B < 1."""
    tally = _Tally(tol)
    details = []
    pairs = [p for p in param_sets if p.B < 1.0]
    for params in pairs:
        sub = check_strict_inclusion(params, tol)
        details.append(sub.extra)
        tally.add(
            sub.max_violation,
            {"A": params.A, "B": params.B},
            sub.extra,
        )
    return tally.report("inclusion", len(pairs), witnesses_found=details)


def check_halfplane_univalence(
    Bs: Sequence[float] = (0.25, 0.5, 1.0),
    n_samples: int = 60,
    tol: float = 1e-9,
    seed: int = 0,
) -> VerificationReport:
    """A = 0 members satisfy Re f' > 1/2 on the disk (univalence via Re f' > 0)."""
    tally = _Tally(tol)
    zgrid = 0.95 * _polar_grid(12)[:, None]  # grid points x members
    members = _members_with_probes(seed, n_samples)
    min_re = {}
    for B in Bs:
        params = JanowskiParams(0.0, B)
        lo = np.inf
        for lam in (0.0, 0.3, 0.5 + 0.2j):
            fprime = np.exp(member_log_fprime(ConstrainedSchwarz(members, lam), params, zgrid))
            lo = min(lo, float(np.min(fprime.real, initial=np.inf)))
        # the infimum is approached by the collapsed lambda = 1 member with
        # omega(z) = z: f'(x) = (1 + B x)^(-1) -> 1/(1 + B) as x -> 1
        edge = float(np.real((1.0 + B * 0.999999) ** (-1.0)))
        lo = min(lo, edge)
        min_re[f"B={B}"] = lo
        tally.add(0.5 - lo, {"B": B}, {"min_re_fprime": lo})
    return tally.report("halfplane", len(Bs), min_re_fprime=min_re)


def _default_coverage(tol: float = 1e-8, seed: int = 0) -> VerificationReport:
    tally = _Tally(tol)
    combos = [
        (params, EvalPoint(0.5, 0.5)) for params in DEFAULT_PARAM_SETS
    ] + [(DEFAULT_PARAM_SETS[0], EvalPoint(0.3 + 0.4j, 0.3))]
    d_pairs = []
    for params, point in combos:
        sub = check_coverage(point, params, grid_n=96, tol=tol)
        d_pairs.append(sub.extra)
        tally.add(
            sub.max_violation,
            {"A": params.A, "B": params.B, "z0": _cstr(point.z0), "lambda": _cstr(point.lam)},
            sub.extra,
        )
    return tally.report("coverage", len(combos), per_combo=d_pairs)


_SUITES: dict[str, Callable[[int, float], VerificationReport]] = {
    "prop1": lambda seed, tol: check_prop1(tol=tol, seed=seed),
    "corollary0": lambda seed, tol: check_corollary0(tol=tol, seed=seed),
    "unit-lambda": lambda seed, tol: check_unit_lambda(tol=tol),
    "rotation": lambda seed, tol: check_rotation(tol=tol, seed=seed),
    "coverage": lambda seed, tol: _default_coverage(seed=seed),
    "convexity": lambda seed, tol: run_convexity_default(),
    "inclusion": lambda seed, tol: run_inclusion_default(tol=tol),
    "halfplane": lambda seed, tol: check_halfplane_univalence(tol=tol, seed=seed),
}
SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Run one named suite on the default grids."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name](seed, tol)


def run_suites(names: Sequence[str], seed: int = 0, tol: float = 1e-9) -> list[VerificationReport]:
    return [run_suite(n, seed=seed, tol=tol) for n in names]
