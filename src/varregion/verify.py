"""Executable verification suites for the region identities and inequalities.

Each suite samples exact class members and checks one closed-form claim
against them: the disk inequality for the pullback, its lambda = 0 corollary,
the |lambda| = 1 collapse, rotation equivariance of membership verdicts, the
coverage identity between the member image and the parametrized disk image,
convexity/simplicity of boundary polygons (turns of one sign and a total
turning of +-2 pi), the strict-inclusion curvature witness, and the half-plane
bound Re f' > 1/2 for A = 0.

Violations are hard failures against tolerances.  Each suite returns its
report as the dict that ``varregion verify`` prints, with the keys suite_name,
parameter_sets, samples, max_violation, tolerance, passed, witnesses and
extra, in that order.  All suites are deterministic functions of their seed.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ._suite_names import SUITE_NAMES
from .region import (
    VERDICTS,
    EvalPoint,
    JanowskiParams,
    _boundary_values,
    _classify,
    _disk,
    _log1p,
    _require_disk,
    _unit_circle_grid,
    equivalent_disk_param,
    janowski_disk,
    log_fprime,
    region_point,
    singleton_value,
    variability_disk,
)
from .sampler import (
    InnerBatch,
    constant_inners,
    omega_eval,
    sample_members,
    special_curvature,
)

__all__ = [
    "DEFAULT_PARAM_SETS",
    "DEFAULT_LAMBDAS",
    "DEFAULT_Z0S",
    "DEFAULT_COVERAGE_CASES",
    "check_prop1",
    "check_corollary0",
    "check_unit_lambda",
    "check_rotation",
    "check_coverage",
    "check_convexity",
    "check_strict_inclusion",
    "check_halfplane_univalence",
    "SUITE_NAMES",
    "run_suite",
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
DEFAULT_COVERAGE_CASES: tuple[tuple[JanowskiParams, EvalPoint], ...] = (
    *((params, EvalPoint(0.5, 0.5)) for params in DEFAULT_PARAM_SETS),
    (DEFAULT_PARAM_SETS[0], EvalPoint(0.3 + 0.4j, 0.3)),
)
# the strict-inclusion witness needs the disk case B < 1
_INCLUSION_PARAM_SETS = tuple(p for p in DEFAULT_PARAM_SETS if p.B < 1.0)

_MAX_WITNESSES = 20
_K_MAX = 40  # unit-lambda approaches |lambda| = 1 through 1 - 2^-k, k = 1.._K_MAX


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

    def report(self, suite_name: str, parameter_sets: int, **extra: Any) -> dict[str, Any]:
        """The suite's report; passed iff max_violation <= tolerance.  The witnesses list is the tally's own."""
        max_v = 0.0 if self.samples == 0 else self.max_violation
        return {"suite_name": suite_name, "parameter_sets": parameter_sets, "samples": self.samples,
                "max_violation": max_v, "tolerance": self.tol, "passed": max_v <= self.tol,
                "witnesses": self.witnesses, "extra": extra}


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
) -> dict[str, Any]:
    """Members' pullback (f')^(B/(A-B)) stays in the closed disk D(c, r)."""
    tally = _Tally(tol)
    zs = [z0 for z0 in z0s if z0 != 0]
    # one (lambda, z0, member) grid of Schwarz values serves every parameter set
    omega = omega_eval(_members_with_probes(seed, n_samples), np.array(lambdas, complex)[:, None, None],
                       np.array(zs, dtype=complex)[:, None])
    for params in param_sets:
        disks = [variability_disk(EvalPoint(z0, lam), params) for lam in lambdas for z0 in zs]
        center = np.array([d.center for d in disks], dtype=complex).reshape(omega.shape[:2] + (1,))
        radius = np.array([d.radius for d in disks], dtype=float).reshape(omega.shape[:2] + (1,))
        pullback = np.exp(params.B / (params.A - params.B) * log_fprime(omega, params))
        distance = np.abs(pullback - center) - radius
        # the on-circle probes must sit on the circle: a radius too large fails them too
        violation = distance.copy()
        violation[..., 7::8] = np.abs(distance[..., 7::8])

        def witness(k):
            i, t, j = np.unravel_index(k, violation.shape)
            return ({"A": params.A, "B": params.B, "lambda": lambdas[i], "z0": _cstr(zs[t])},
                    {"pullback": _cstr(pullback[i, t, j]), "distance_minus_r": float(distance[i, t, j])})

        tally.add_many(violation, witness)
    return tally.report("prop1", len(param_sets))


def check_corollary0(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    z0s: Sequence[complex] = DEFAULT_Z0S,
    n_samples: int = 40,
    tol: float = 1e-9,
    seed: int = 0,
) -> dict[str, Any]:
    """lambda = 0 estimate |(f')^(B/(A-B)) - 1| <= |B||z|^2, sharp for unimodular psi."""
    tally = _Tally(tol)
    phis = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    z0_col = np.array(z0s, dtype=complex)[:, None]
    # row t: the members at z0s[t], then the sharpness probes (equality up to roundoff)
    omega = np.concatenate([omega_eval(inners, 0.0, z0_col) for inners in (
        _members_with_probes(seed, n_samples), constant_inners(np.exp(1j * phis)))], axis=1)
    for params in param_sets:
        bound = np.array([abs(params.B) * abs(z0) ** 2 for z0 in z0s], dtype=float)[:, None]
        lhs = np.abs(np.exp(params.B / (params.A - params.B) * log_fprime(omega, params)) - 1.0)
        violation = lhs - bound
        violation[:, n_samples:] = np.abs(violation[:, n_samples:])

        def witness(k):
            t, j = divmod(k, lhs.shape[1])
            inputs = {"A": params.A, "B": params.B, "z0": _cstr(z0s[t])}
            if j >= n_samples:
                inputs["sharp_phi"] = float(phis[j - n_samples])
            return inputs, {"lhs": float(lhs[t, j]), "bound": float(bound[t, 0])}

        tally.add_many(violation, witness)
    return tally.report("corollary0", len(param_sets))


def check_unit_lambda(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    z0s: Sequence[complex] = DEFAULT_Z0S,
    tol: float = 1e-9,
) -> dict[str, Any]:
    """|lambda| = 1 collapse: r -> 0 monotonically and the disk converges to the singleton.

    The singleton at each unimodular lambda = u of three is paired with the
    value at the center of the disk at lambda = u (1 - 2^-_K_MAX), so a fault
    that turns complex lambda shows.
    """
    tally = _Tally(tol)
    a_values = (0.0, 1.0, -1.0, 1j)
    phis = (0.0, 1.0, 2.5)
    units = np.exp(1j * np.array(phis))
    # the zeta-disks of the ladder 1 - 2^-k and of the lambdas u (1 - 2^-_K_MAX) depend on z0 alone:
    # one _disk call per z0 gives its largest radius step and the Schwarz values at the centers
    lams = np.concatenate((1.0 - np.ldexp(1.0, -np.arange(1, _K_MAX + 1)), units * (1.0 - 2.0**-_K_MAX)))
    max_increases, centers = {}, {}
    for z0 in z0s:
        if z0 != 0:
            center, radius = _disk(z0, lams)
            max_increases[z0], centers[z0] = float(np.max(np.diff(radius[:_K_MAX]))), z0 * center[_K_MAX:]
    for params in param_sets:
        center_values = dict(zip(centers, log_fprime(np.array(list(centers.values())), params).tolist()))
        for z0 in z0s:
            if z0 == 0:
                target = singleton_value(EvalPoint(0.0, 1.0), params)
                tally.add(abs(target), {"z0": "0"}, {"singleton": _cstr(target)})
                continue
            target = singleton_value(EvalPoint(z0, 1.0), params)
            values = region_point(np.array(a_values), EvalPoint(z0, 1.0 - 2.0**-_K_MAX), params)
            # Python abs: numpy's complex modulus can differ in the last bit
            dists = [abs(w - target) for w in values.tolist()]
            max_increase = max_increases[z0]
            pairs = [(singleton_value(EvalPoint(z0, u), params), center)
                     for u, center in zip(units.tolist(), center_values[z0])]
            inputs = {"A": params.A, "B": params.B, "z0": _cstr(z0)}
            tally.add_many(dists, lambda k: (
                dict(inputs, k=_K_MAX, a=_cstr(a_values[k])), {"distance_to_singleton": dists[k]}))
            tally.add(max_increase, inputs, {"max_radius_increase": max_increase})
            tally.add_many([abs(lhs - rhs) for lhs, rhs in pairs], lambda k: (
                dict(inputs, phi=phis[k]), {"lhs": _cstr(pairs[k][0]), "rhs": _cstr(pairs[k][1])}))
    return tally.report("unit-lambda", len(param_sets))


def check_rotation(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    z0s: Sequence[complex] = (0.5, 0.3 + 0.4j),
    lambdas: Sequence[float] = (0.3, 0.5),
    n_rotations: int = 16,
    n_samples: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
) -> dict[str, Any]:
    """Verdicts agree between frames (e^{i theta} z0, lambda) and (z0, lambda e^{i theta}).

    Each frame is tested on a mix of values attainable, on the boundary and
    outside in the rotated-point frame: sample j is a member value, a boundary
    value at thetas[j] and an exterior value at thetas[j] in turn, by j % 3.
    The frames of one parameter set are evaluated at once on a (z0, lambda,
    turn, sample) grid, and both frames of it in one _classify call, the
    rotated point first on a leading axis.
    """
    tally = _Tally(tol)
    for z0 in z0s:
        for lam in lambdas:
            _require_disk(EvalPoint(z0, lam))
    turns = 2.0 * np.pi * np.arange(n_rotations) / n_rotations
    rots = np.exp(1j * turns)[:, None]
    per_frame = max(1, n_samples // (len(z0s) * len(lambdas)))
    thetas = np.random.default_rng((seed, 777)).uniform(-np.pi, np.pi, size=per_frame)
    circle = np.exp(1j * thetas)
    z0 = np.array(z0s, complex)[:, None, None, None]
    lam = np.array(lambdas, complex)[:, None, None]
    z0_rot = rots * z0
    frame_z0 = np.stack(np.broadcast_arrays(z0_rot, z0))
    frame_lam = np.stack(np.broadcast_arrays(lam, lam * rots))[:, None]
    omega = omega_eval(sample_members(seed, per_frame)[0::3], lam, z0_rot)
    center, radius = _disk(z0_rot, lam)  # exterior values: omega = z0 zeta, zeta 1.2 radii from the center
    far = z0_rot * (center + 1.2 * radius * circle[2::3])
    for params in param_sets:
        ws = np.empty(omega.shape[:3] + (per_frame,), complex)
        ws[..., 0::3] = log_fprime(omega, params)
        ws[..., 1::3] = _boundary_values(circle[1::3], z0_rot, lam, params)
        ws[..., 2::3] = log_fprime(far, params)
        _, (v1, v2) = _classify(ws, frame_z0, frame_lam, params, tol)

        def witness(k):
            i, l, t, j = np.unravel_index(k, ws.shape)
            return ({"A": params.A, "B": params.B, "z0": _cstr(z0s[i]), "lambda": lambdas[l],
                     "theta": float(turns[t]), "w": _cstr(ws[i, l, t, j])},
                    {"rotated_point": VERDICTS[v1[i, l, t, j]].value,
                     "rotated_lambda": VERDICTS[v2[i, l, t, j]].value})

        tally.add_many(v1 != v2, witness)
    return tally.report("rotation", len(param_sets))


def _polar_grid(n: int) -> np.ndarray:
    """n x n polar grid of the closed unit disk, radius 0 and 1 included."""
    rho = np.linspace(0.0, 1.0, n)
    phi = 2.0 * np.pi * np.arange(n) / n
    return (rho[:, None] * np.exp(1j * phi)[None, :]).ravel()


def check_coverage(
    cases: Sequence[tuple[JanowskiParams, EvalPoint]] = DEFAULT_COVERAGE_CASES,
    grid_n: int = 96,
    tol: float = 1e-8,
) -> dict[str, Any]:
    """Member image of constant inners equals the parametrized disk image, per (params, point).

    The two point sets sample the same region along matched grids (the disk
    parameter a(k) is the Mobius image of the inner constant k), so the largest
    gap max_k |m_k - r_k| between matched points is pure numerical noise.  It
    bounds the Hausdorff distance in both directions, so it is what is gated.
    Member values come from the class's own formula ((A - B)/B) Log(1 + B omega),
    not from log_fprime, which region_point calls: a fault in that map shows.
    """
    tally = _Tally(tol)
    ks = _polar_grid(grid_n)
    inners = constant_inners(ks)
    per_combo = []
    omega_at = disk_param_at = None
    for params, point in cases:
        # omega depends on the point alone and a(k) on the point and the sign of B:
        # each is formed again only when that changes from the case before
        if point != omega_at:
            omega_at, omega = point, omega_eval(inners, point.lam, point.z0)
        if (point, params.B > 0.0) != disk_param_at:
            disk_param_at, disk_param = (point, params.B > 0.0), equivalent_disk_param(ks, point, params)
        member_vals = (params.A - params.B) / params.B * _log1p(params.B * omega)
        region_vals = region_point(disk_param, point, params)
        h = float(np.max(np.abs(member_vals - region_vals)))
        gaps = {"hausdorff_member_to_region": h, "hausdorff_region_to_member": h}
        per_combo.append(gaps)
        tally.add(h, {"A": params.A, "B": params.B, "z0": _cstr(point.z0), "lambda": _cstr(point.lam)},
                  gaps)
    return tally.report("coverage", len(cases), per_combo=per_combo)


def _turning(values: np.ndarray):
    """Per row of an (m, n) array of closed polygons: the sense of its largest turn,
    its largest turn against that sense (cross product of consecutive edges), and
    its total turning in full turns.

    By Hopf's Umlaufsatz for polygons, a closed polygon whose turns all have one
    sign is convex and simple exactly when its exterior angles sum to +-2 pi, so
    a row passes when its worst turn is within tolerance and its total turning
    equals its sign.  Repeated points turn nothing: each row's non-zero edges
    move to its front, in order, and turns are taken between consecutive ones.
    """
    n = values.shape[-1]
    if n < 16:
        raise ValueError(f"require at least 16 curve samples, got {n}")
    if np.any(np.maximum(np.ptp(values.real, axis=-1), np.ptp(values.imag, axis=-1)) <= 1e-15):
        raise ValueError("degenerate curve (zero radius) is not a Jordan curve")
    e = np.roll(values, -1, axis=-1) - values
    i, edges = np.arange(n), np.count_nonzero(e, axis=-1)[:, None]
    if np.any(edges < n):  # some row has a zero edge: reorder every row
        e = np.take_along_axis(e, np.argsort(e == 0.0, axis=-1, kind="stable"), -1)
    f = np.take_along_axis(e, np.where(i + 1 < edges, i + 1, 0), -1)
    cross = e.real * f.imag - e.imag * f.real
    sign = np.where(cross[np.arange(len(cross)), np.argmax(np.abs(cross), axis=-1)] >= 0, 1.0, -1.0)
    worst = np.max(np.where(i < edges, -sign[:, None] * cross, -np.inf), axis=-1)
    turns = np.where(i < edges, np.arctan2(cross, e.real * f.real + e.imag * f.imag), 0.0)
    return sign, worst, np.rint(np.sum(turns, axis=-1) / (2.0 * np.pi))


def check_convexity(
    param_sets: Sequence[JanowskiParams] = DEFAULT_PARAM_SETS,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    z0s: Sequence[complex] = DEFAULT_Z0S,
    n: int = 256,
    tol: float = 1e-10,
) -> dict[str, Any]:
    """Every default boundary curve turns one way, by one full turn (see _turning)."""
    tally = _Tally(tol)
    zs = [z0 for z0 in z0s if z0 != 0]
    cells = [(lam, EvalPoint(z0, lam)) for lam in lambdas for z0 in zs]
    z0_col = np.array(zs, dtype=complex)[:, None]
    lam = np.array(lambdas, complex)[:, None, None]
    k = _unit_circle_grid(n)
    for params in param_sets:
        # the curves of one parameter set are the rows of one (lambda x z0, n) array
        values = _boundary_values(k, z0_col, lam, params).reshape(-1, n)
        sign, worst, winding = _turning(values)
        # a curve's violation is the larger of its two checks
        violation = np.maximum(worst, np.abs(winding - sign))
        tally.add_many(violation, lambda c: (
            {"A": params.A, "B": params.B, "lambda": cells[c][0], "z0": _cstr(cells[c][1].z0)},
            {"max_violation": float(violation[c])}))
    return tally.report("convexity", len(param_sets), curves=tally.samples)


def check_strict_inclusion(
    param_sets: Sequence[JanowskiParams] = _INCLUSION_PARAM_SETS,
    tol: float = 1e-9,
) -> dict[str, Any]:
    """Per pair, find real z in (0,1) whose special curvature exits the convex-class disk."""
    if any(params.B >= 1.0 for params in param_sets):
        raise ValueError("strict-inclusion witness needs B < 1 (disk case)")
    tally = _Tally(tol)
    zs = np.linspace(0.5, 0.999, 200)
    found = []
    for params in param_sets:
        disk = janowski_disk(params)
        dist = np.abs(special_curvature(params, zs.astype(complex)) - disk.center) - disk.radius
        i = int(np.argmax(dist))
        witness = {
            "witness_z": float(zs[i]), "distance_outside": float(dist[i]),
            "limit_value": float((1.0 + 2.0 * params.A - params.B) / (1.0 + params.B)),
            "left_endpoint": float((1.0 + params.A) / (1.0 + params.B)),
        }
        found.append(witness)
        # violation is negative precisely when a witness outside the disk exists
        tally.add(-witness["distance_outside"], {"A": params.A, "B": params.B}, witness)
    return tally.report("inclusion", len(param_sets), witnesses_found=found)


def check_halfplane_univalence(
    Bs: Sequence[float] = (0.25, 0.5, 1.0),
    n_samples: int = 60,
    tol: float = 1e-9,
    seed: int = 0,
) -> dict[str, Any]:
    """A = 0 members satisfy Re f' > 1/2 on the disk (univalence via Re f' > 0).

    Each member point is also gated on its own bound Re f'(z) >= 1/(1 + |B| rho(z)):
    Schwarz-Pick gives |omega(z)| <= rho(z) = |z| (|z| + |lambda|)/(1 + |lambda| |z|),
    and Re 1/(1 + w) >= 1/(1 + rho) on |w| <= rho.  A suite violation is the
    larger of 1/2 - min Re f' and the largest excess of a bound over its member.
    """
    tally = _Tally(tol)
    zgrid = 0.95 * _polar_grid(12)[:, None]  # grid points x members
    lambdas = (0.0, 0.3, 0.5 + 0.2j)
    # the Schwarz values of every lambda in one (lambda, grid point, member) array; f' is
    # taken one lambda at a time, so its temporaries stay the size of one lambda's values
    omegas = omega_eval(_members_with_probes(seed, n_samples), np.array(lambdas)[:, None, None], zgrid)
    r = np.abs(zgrid)
    rhos = [r * (r + abs(lam)) / (1.0 + abs(lam) * r) for lam in lambdas]
    min_re = {}
    for B in Bs:
        params = JanowskiParams(0.0, B)
        lo, excess = np.inf, -np.inf
        for omega, rho in zip(omegas, rhos):
            w = log_fprime(omega, params)
            # Re f' alone, with no complex exp.  numpy's real exp can differ from the complex one in the
            # last bit, which no value of a passing report sees: the minimum is `edge`, the largest excess 0 at z = 0
            re_fprime = np.exp(w.real) * np.cos(w.imag)
            lo = min(lo, float(np.min(re_fprime, initial=np.inf)))
            excess = np.maximum(excess, np.max(1.0 / (1.0 + abs(B) * rho) - re_fprime, initial=-np.inf))
        # the infimum is approached by the collapsed lambda = 1 member with
        # omega(z) = z: f'(x) = (1 + B x)^(-1) -> 1/(1 + B) as x -> 1
        edge = float(np.real((1.0 + B * 0.999999) ** (-1.0)))
        lo = min(lo, edge)
        min_re[f"B={B}"] = lo
        excess = float(excess)
        # np.maximum, not max: a NaN excess must fail the suite
        tally.add(np.maximum(0.5 - lo, excess), {"B": B}, {"min_re_fprime": lo, "max_bound_excess": excess})
    return tally.report("halfplane", len(Bs), min_re_fprime=min_re)


# each suite's runner, in SUITE_NAMES order
_SUITES: dict[str, Callable[..., dict[str, Any]]] = dict(zip(SUITE_NAMES, (
    lambda seed, **tol: check_prop1(seed=seed, **tol),
    lambda seed, **tol: check_corollary0(seed=seed, **tol),
    lambda seed, **tol: check_unit_lambda(**tol),
    lambda seed, **tol: check_rotation(seed=seed, **tol),
    lambda seed, **tol: check_coverage(**tol),
    lambda seed, **tol: check_convexity(**tol),
    lambda seed, **tol: check_strict_inclusion(**tol),
    lambda seed, **tol: check_halfplane_univalence(seed=seed, **tol),
), strict=True))


def run_suite(name: str, seed: int = 0, tol: float | None = None) -> dict[str, Any]:
    """Run one named suite on the default grids; tol None keeps the suite's own default.

    The seed is checked here, also for the suites that draw nothing from it.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if seed < 0:
        raise ValueError(f"require seed >= 0, got {seed}")
    return _SUITES[name](seed=seed, **({} if tol is None else {"tol": tol}))
