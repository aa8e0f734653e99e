import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import varregion
from varregion import (
    BoundaryCurve,
    Disk,
    EvalPoint,
    JanowskiParams,
    boundary_curve,
    check_convexity,
    check_corollary0,
    check_coverage,
    check_halfplane_univalence,
    check_prop1,
    check_rotation,
    check_strict_inclusion,
    check_unit_lambda,
    janowski_disk,
    omega_eval,
    region,
    run_suite,
    sampler,
    singleton_value,
    variability_disk,
)
from varregion.region import classify, log_fprime
from varregion.sampler import constant_inners
from varregion.verify import (
    DEFAULT_LAMBDAS,
    DEFAULT_PARAM_SETS,
    DEFAULT_Z0S,
    SUITE_NAMES,
    _cstr,
    _members_with_probes,
    _polar_grid,
    _Tally,
    _turning,
)

P05 = JanowskiParams(0.0, 0.5)
LOG_1_25 = 0.22314355131420976
SMALL_SETS = (P05, JanowskiParams(-0.9, -0.1))
# (samples, parameter_sets) of every suite as run by `verify`: a faster suite
# must not get there by checking less
SUITE_COUNTS = {
    "prop1": (3200, 5),
    "corollary0": (960, 5),
    "unit-lambda": (160, 5),
    "rotation": (16000, 5),
    "coverage": (6, 6),
    "convexity": (80, 5),
    "inclusion": (4, 4),
    "halfplane": (3, 3),
}


def test_prop1_passes():
    r = check_prop1(param_sets=SMALL_SETS, n_samples=24, seed=1)
    assert r["passed"] and r["witnesses"] == []
    assert r["max_violation"] <= r["tolerance"]


def test_prop1_extremal_equality_case():
    # constant unimodular members sit on the circle: distance - r is ~0
    point = EvalPoint(0.5, 0.5)
    disk = variability_disk(point, P05)
    for th in np.linspace(-np.pi, np.pi, 16, endpoint=False):
        w = log_fprime(omega_eval(constant_inners(np.exp(1j * th)), 0.5, 0.5), P05)
        pullback = np.exp(w / ((P05.A - P05.B) / P05.B))
        assert abs(abs(pullback - disk.center) - disk.radius) < 1e-12


def test_prop1_fails_a_radius_that_is_too_large(monkeypatch):
    # a larger disk still holds every member; only the on-circle probes can tell
    real = region.variability_disk

    def widened(point, params):
        disk = real(point, params)
        return Disk(disk.center, disk.radius * (1.0 + 1e-7))

    monkeypatch.setattr(region, "variability_disk", widened)
    r = check_prop1()
    assert not r["passed"] and r["witnesses"]
    assert all(w["observed"]["distance_minus_r"] < 0.0 for w in r["witnesses"])  # signed: inside the circle


def test_corollary0_passes_and_is_sharp():
    r = check_corollary0(param_sets=SMALL_SETS, n_samples=24, seed=1)
    assert r["passed"] and r["witnesses"] == []
    # direct sharpness: psi == 1 at real z gives |1 + Bz^2 - 1| = |B| z^2
    for z in (0.3, 0.7):
        w = log_fprime(omega_eval(constant_inners(1.0), 0.0, z), P05)
        assert abs(np.exp(w / ((P05.A - P05.B) / P05.B)) - 1.0) == pytest.approx(
            abs(P05.B) * z * z, abs=1e-15
        )


def test_unit_lambda_suite():
    r = check_unit_lambda(param_sets=SMALL_SETS)
    assert r["passed"] and r["witnesses"] == []
    assert singleton_value(EvalPoint(0.5, 1.0), P05) == pytest.approx(-LOG_1_25, abs=1e-15)
    assert singleton_value(EvalPoint(0.0, 1.0), P05) == 0.0
    radii = [variability_disk(EvalPoint(0.5, 1 - 2.0**-k), P05).radius for k in range(1, 12)]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_rotation_suite_zero_mismatches():
    r = check_rotation(param_sets=SMALL_SETS, n_rotations=8, n_samples=40, seed=2)
    assert r["passed"]
    assert r["max_violation"] == 0.0


def test_batched_unit_lambda_disks_equal_per_point_disks(monkeypatch):
    calls = []
    real = region._disk

    def spy(z0, lam):
        center, radius = real(z0, lam)
        calls.append((z0, lam, center, radius))
        return center, radius

    monkeypatch.setattr(region, "_disk", spy)
    assert check_unit_lambda(param_sets=SMALL_SETS)["passed"]
    z0s = [z0 for z0 in DEFAULT_Z0S if z0 != 0]
    batched = [call for call in calls if isinstance(call[1], np.ndarray)]
    # region_point's own scalar calls: one per parameter set and nonzero z0, at lambda = 1 - 2^-40
    assert [(z0, lam) for z0, lam, *_ in calls if not isinstance(lam, np.ndarray)] == [
        (z0, 1.0 - 2.0**-40) for _ in SMALL_SETS for z0 in z0s]
    # one batched _disk call per nonzero z0, as the disks do not depend on the parameter set: the
    # radii of the ladder 1 - 2^-k, then the centers at lambda = e^{i phi} (1 - 2^-40)
    assert [z0 for z0, *_ in batched] == z0s
    for z0, lam, center, radius in batched:
        assert radius[:40].tolist() == [region._disk(z0, 1 - 2**-k)[1] for k in range(1, 41)]
        unit_lams = np.exp(1j * np.array([0.0, 1.0, 2.5])) * (1 - 2**-40)
        assert lam[40:].tolist() == unit_lams.tolist()
        # each lambda as an array of one: numpy's complex modulus can differ in the last bit from Python's
        ref = [region._disk(z0, unit_lams[i:i + 1])[0][0] for i in range(3)]
        assert center[40:].tolist() == ref


def _rotation_turns(n: int) -> np.ndarray:
    return np.exp(1j * (2.0 * np.pi * np.arange(n) / n))


def _assert_rotation_verdicts_equal_per_frame_classify(monkeypatch, z0s, lambdas):
    calls = []
    real = region._classify

    def spy(w, z0, lam, params, tol):
        slack, status = real(w, z0, lam, params, tol)
        calls.append((w, params, status, *np.broadcast_arrays(z0, lam)))
        return slack, status

    monkeypatch.setattr(region, "_classify", spy)
    n_rot, per_frame = 8, 30
    r = check_rotation(param_sets=SMALL_SETS, z0s=z0s, lambdas=lambdas, n_rotations=n_rot,
                       n_samples=per_frame * len(z0s) * len(lambdas), seed=4)
    monkeypatch.undo()  # the reference classify calls below go through _classify
    assert r["passed"] and r["samples"] == len(SMALL_SETS) * len(z0s) * len(lambdas) * n_rot * per_frame
    # one call per parameter set: both frames of every (z0, lambda, turn), the rotated point first
    assert [call[1] for call in calls] == list(SMALL_SETS)
    rots = _rotation_turns(n_rot)
    for ws, params, status, frame_z0, frame_lam in calls:
        assert ws.shape == (len(z0s), len(lambdas), n_rot, per_frame) and status.shape == (2, *ws.shape)
        for i, z0 in enumerate(z0s):
            for l, lam in enumerate(lambdas):
                for t, rot in enumerate(rots):
                    # the rotated point first, then the rotated lambda (products as arrays)
                    assert frame_z0[:, i, l, t, 0].tolist() == [(rots * z0)[t], z0]
                    assert frame_lam[:, i, l, t, 0].tolist() == [lam, (lam * rots)[t]]
                    _, ref_point = classify(ws[i, l, t], EvalPoint(rot * z0, lam), params)
                    _, ref_lambda = classify(ws[i, l, t], EvalPoint(z0, lam * rot), params)
                    assert np.array_equal(status[0, i, l, t], ref_point)
                    assert np.array_equal(status[1, i, l, t], ref_lambda)
        # member, boundary and exterior values in turn, seen from the rotated point
        assert np.all(status[0, ..., 0::3] != 2)
        assert np.all(status[0, ..., 1::3] == 1)
        assert np.all(status[0, ..., 2::3] == 2)


def test_batched_rotation_verdicts_equal_per_frame_classify(monkeypatch):
    _assert_rotation_verdicts_equal_per_frame_classify(monkeypatch, (0.5, 0.3 + 0.4j), (0.3, 0.5))


def test_batched_rotation_verdicts_equal_per_frame_classify_at_complex_z0_and_lambda(monkeypatch):
    # the batched frames take |z0| and |lambda| by numpy's modulus, the per-frame
    # classify by Python's; the two can differ in the last bit here
    _assert_rotation_verdicts_equal_per_frame_classify(
        monkeypatch, (0.62 - 0.21j, -0.35j, 0.3 + 0.4j), (0.4 + 0.3j, -0.55, 0.1 - 0.8j))


def _assert_rotation_disagreements_reported_in_order(monkeypatch, param_sets, z0s, lambdas, n_rot, per_frame,
                                                    chosen, seed):
    """Force the rotated-lambda frame Outside at the chosen (turn, sample) of every frame.

    The first 20 disagreements are the witnesses, in parameter set, z0,
    lambda, turn and sample order.
    """
    bump = np.zeros((n_rot, per_frame))
    for t, j in chosen:
        bump[t, j] = 1.0  # slack >= 1 - |z0|: Outside where the rotated point reads otherwise
    seen = []

    def disagreeing_pullback(w, z0, lam, params):
        seen.append(w)
        out = real_pullback(w, z0, lam, params)
        out[1] += bump  # the rotated-lambda frame only
        return out

    real_pullback = region._pullback
    monkeypatch.setattr(region, "_pullback", disagreeing_pullback)
    r = check_rotation(param_sets=param_sets, z0s=z0s, lambdas=lambdas, n_rotations=n_rot,
                       n_samples=per_frame * len(z0s) * len(lambdas), seed=seed)
    frames = [(p, i, l) for p in range(len(param_sets)) for i in range(len(z0s)) for l in range(len(lambdas))]
    assert not r["passed"] and r["max_violation"] == 1.0 and r["samples"] == len(frames) * n_rot * per_frame
    assert [w.shape for w in seen] == [(len(z0s), len(lambdas), n_rot, per_frame)] * len(param_sets)
    expected = sorted((*frame, t, j) for frame in frames for t, j in chosen)[:20]
    assert len(r["witnesses"]) == 20
    for (p, i, l, t, j), wit in zip(expected, r["witnesses"]):
        params = param_sets[p]
        assert wit["inputs"] == {"A": params.A, "B": params.B, "z0": _cstr(z0s[i]), "lambda": lambdas[l],
                                 "theta": float(2.0 * np.pi * t / n_rot), "w": _cstr(seen[p][i, l, t, j])}
        assert wit["observed"]["rotated_point"] == ("Interior" if j % 3 == 0 else "Boundary")
        assert wit["observed"]["rotated_lambda"] == "Outside"


def test_batched_rotation_reports_disagreements_in_turn_then_sample_order(monkeypatch):
    per_frame = 30
    chosen = [(1, 4), (1, 0), (3, 1)] + [(2, j) for j in range(per_frame) if j % 3 != 2]
    _assert_rotation_disagreements_reported_in_order(monkeypatch, (P05,), (0.5,), (0.3,), 4, per_frame, chosen, 5)


def test_batched_rotation_witnesses_in_params_z0_lambda_turn_sample_order(monkeypatch):
    # in every frame: 24 disagreements, the first 20 reported
    _assert_rotation_disagreements_reported_in_order(monkeypatch, SMALL_SETS, (0.5, 0.3 + 0.4j), (0.3, 0.5), 4, 9,
                                                    [(1, 4), (3, 1), (1, 0)], 1)


@pytest.mark.parametrize("z0s, lambdas, message", [
    ((0.0,), (0.3,), "z0 = 0"),
    ((1.2,), (0.3,), r"\|z0\| < 1"),
    ((0.5,), (1.0,), r"\|lambda\| < 1"),
])
def test_rotation_rejects_frames_outside_the_domain(z0s, lambdas, message):
    with pytest.raises(ValueError, match=message):
        check_rotation(param_sets=(P05,), z0s=z0s, lambdas=lambdas, n_rotations=4, n_samples=9)


def test_coverage_matches_to_roundoff():
    r = check_coverage([(P05, EvalPoint(0.5, 0.5))], grid_n=64)
    assert r["passed"]
    assert r["max_violation"] < 1e-8
    assert r["extra"]["per_combo"][0]["hausdorff_member_to_region"] < 1e-10
    assert r["extra"]["per_combo"][0]["hausdorff_region_to_member"] < 1e-10
    r = check_coverage([(P05, EvalPoint(0.3 + 0.4j, -0.2 - 0.6j))], grid_n=128)
    assert r["passed"]
    assert r["max_violation"] < 1e-12


def _convex_and_simple(curve: BoundaryCurve, tol: float = 1e-10) -> bool:
    """check_convexity's verdict on one curve: turns of one sign within tol, one full turn that way."""
    sign, worst, winding = _turning(curve.values[None, :])
    return bool(worst[0] <= tol and winding[0] == sign[0])


def test_convexity_on_computed_curves():
    curve = boundary_curve(EvalPoint(0.5, 0.5), P05, 128)
    assert _convex_and_simple(curve)


def test_convexity_rejects_small_and_degenerate_curves():
    curve = boundary_curve(EvalPoint(0.5, 0.5), P05, 8)
    with pytest.raises(ValueError, match="at least 16"):
        _turning(curve.values[None, :])
    flat = np.full((1, 32), 0.25 + 0.25j)
    with pytest.raises(ValueError, match="degenerate"):
        _turning(flat)


def test_convexity_flags_nonconvex_curve():
    thetas = np.linspace(-np.pi, np.pi, 24, endpoint=False)
    radii = 1.0 + 0.5 * np.cos(5 * thetas)  # five-petal star: wildly nonconvex
    star = BoundaryCurve(thetas, radii * np.exp(1j * thetas))
    # a unit circle with one point pulled in, that point appearing twice in a row
    thetas = np.linspace(-np.pi, np.pi, 33, endpoint=False)
    values = np.exp(1j * np.linspace(-np.pi, np.pi, 32, endpoint=False))
    values[5] *= 0.8
    dent = BoundaryCurve(thetas, np.insert(values, 5, values[5]))
    for curve in (star, dent):
        assert not _convex_and_simple(curve)


def test_jordan_flags_self_intersection():
    thetas = np.linspace(-np.pi, np.pi, 24, endpoint=False)
    values = np.exp(2j * thetas)  # winds twice: plenty of proper crossings
    curve = BoundaryCurve(thetas, values + 0.001j * thetas)
    assert not _convex_and_simple(curve)
    assert _turning(curve.values[None, :])[2].tolist() == [2]


def _segments_properly_intersect(p, q, r, s) -> np.ndarray:
    """Vectorized proper-crossing test for segment (p,q) against segments (r,s)."""

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    o1 = orient(p, q, r)
    o2 = orient(p, q, s)
    o3 = orient(r, s, p)
    o4 = orient(r, s, q)
    return (o1 * o2 < 0) & (o3 * o4 < 0)


def _reference_crossings(pts: np.ndarray) -> int:
    """Proper crossings among non-adjacent edges of the closed polygon, O(n^2)."""
    n = len(pts)
    a = pts
    b = np.roll(pts, -1, axis=0)
    crossings = 0
    for i in range(n):
        js = np.arange(i + 2, n)
        js = js[(js - i) % n != n - 1]
        if js.size == 0:
            continue
        crossings += int(np.count_nonzero(_segments_properly_intersect(a[i], b[i], a[js], b[js])))
    return crossings


def _reference_verdict(curve: BoundaryCurve, tol: float = 1e-10) -> tuple[bool, bool]:
    """(single-signed turning within tol, no proper crossings) by the O(n^2) check."""
    pts = np.column_stack([curve.values.real, curve.values.imag])
    edges = np.roll(pts, -1, axis=0) - pts
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    sign = 1.0 if cross[np.argmax(np.abs(cross))] >= 0 else -1.0
    return float(np.max(-sign * cross)) <= tol, _reference_crossings(pts) == 0


def _random_polygons(seed: int, count: int) -> list[BoundaryCurve]:
    """Ellipses both ways round, noisy, multiply wound, star-shaped and dented curves."""
    rng = np.random.default_rng(seed)
    curves = []
    for i in range(count):
        n = int(rng.integers(16, 97))
        t = np.linspace(-np.pi, np.pi, n, endpoint=False)
        t = t + rng.uniform(0.0, 0.5) * (2.0 * np.pi / n) * np.sin(t)  # uneven spacing
        ellipse = np.cos(t) + 1j * rng.uniform(0.05, 1.0) * np.sin(t)
        kind = i % 5
        if kind == 0:
            z = ellipse
        elif kind == 1:
            z = ellipse * (1.0 + 10.0 ** rng.uniform(-8, -1) * rng.standard_normal(n))
        elif kind == 2:
            k = int(rng.integers(2, 4))
            z = np.exp(1j * k * t) + 10.0 ** rng.uniform(-4, -1) * rng.standard_normal() * t
        elif kind == 3:
            m = int(rng.integers(3, 8))
            z = (1.0 + 10.0 ** rng.uniform(-4, -0.3) * np.cos(m * t)) * np.exp(1j * t)
        else:
            z = ellipse.copy()
            j = int(rng.integers(n))
            z[j] *= 1.0 - rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -1)
        z = (3.0 * rng.standard_normal() + z * np.exp(1j * rng.uniform(-np.pi, np.pi))
             * 10.0 ** rng.uniform(-2, 1))
        curves.append(BoundaryCurve(t, z if rng.random() < 0.5 else z[::-1]))
    return curves


_T = np.linspace(-np.pi, np.pi, 32, endpoint=False)
_CIRCLE = np.exp(1j * _T)
_TWICE = np.insert(_CIRCLE, 5, _CIRCLE[5])[:-1]  # convex, one point twice
_SIDE = np.linspace(-1.0, 1.0, 5)  # each corner of the square is its own next point
_SQUARE = BoundaryCurve(np.arange(20.0), np.concatenate([_SIDE - 1j, 1 + 1j * _SIDE, -_SIDE + 1j, -1 - 1j * _SIDE]))


@pytest.fixture(scope="module")
def turning_curves():
    """The default grid's curves at 256 points, three curves at 2,048 and 600 random polygons."""
    default = [boundary_curve(EvalPoint(z0, lam), params, 256)
               for params in DEFAULT_PARAM_SETS for lam in DEFAULT_LAMBDAS for z0 in DEFAULT_Z0S]
    fine = [boundary_curve(EvalPoint(z0, lam), params, 2048)
            for params, lam, z0 in ((DEFAULT_PARAM_SETS[2], 0.9, -0.7),
                                    (DEFAULT_PARAM_SETS[4], 0.0, 0.3 + 0.4j),
                                    (DEFAULT_PARAM_SETS[0], 0.5, 0.1j))]
    assert len(default) == 80
    return default, fine, _random_polygons(4, 600)


def test_turning_number_agrees_with_crossing_reference(turning_curves):
    default, fine, random = turning_curves
    repeated = [BoundaryCurve(_T, _TWICE), _SQUARE]
    seen = set()
    for curve in default + fine + repeated + random:
        convex, simple = _reference_verdict(curve)
        assert _convex_and_simple(curve) == (convex and simple)
        seen.add((convex, simple))
    assert all(map(_convex_and_simple, default)) and all(map(_convex_and_simple, repeated))
    # the random set passes, fails on convexity, and crosses itself with turns of one sign
    assert seen == {(True, True), (False, True), (False, False), (True, False)}


def _reference_turning(curve: BoundaryCurve) -> tuple[float, float, float]:
    """(sign, worst, winding) by the one-curve check the turning kernel replaced."""
    pts = np.column_stack([curve.values.real, curve.values.imag])
    e = np.roll(pts, -1, axis=0) - pts
    e = e[np.any(e != 0.0, axis=1)]
    f = np.roll(e, -1, axis=0)
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    sign = 1.0 if cross[np.argmax(np.abs(cross))] >= 0 else -1.0
    turns = np.arctan2(cross, np.sum(e * f, axis=1))
    return sign, float(np.max(-sign * cross)), float(np.rint(np.sum(turns) / (2.0 * np.pi)))


def _assert_batches_equal_one_row_calls(curves: list[BoundaryCurve]) -> None:
    sign, worst, winding = _turning(np.stack([c.values for c in curves]))
    for c, curve in enumerate(curves):
        one = _turning(curve.values[None, :])
        assert (sign[c], worst[c], winding[c]) == (one[0][0], one[1][0], one[2][0])
        assert (sign[c], worst[c], winding[c]) == _reference_turning(curve)


def test_turning_kernel_batches_equal_one_row_calls(turning_curves):
    default, fine, random = turning_curves
    dent = _CIRCLE.copy()
    dent[9] *= 0.8
    by_length: dict[int, list[BoundaryCurve]] = {}
    for curve in random:
        by_length.setdefault(len(curve), []).append(curve)
    # the repeated-point curves, starting from each quadrant: the padding after
    # a row's non-zero edges must turn nothing whatever its first edge
    repeated = [BoundaryCurve(_T, np.roll(c, -shift)) for shift in range(0, 32, 4)
                for c in (_TWICE, np.insert(dent, 9, dent[9])[:-1])]
    batches = [default, fine, repeated, [_SQUARE], *by_length.values()]
    # one row with a zero-length edge among rows without one
    batches.append([BoundaryCurve(_T, c) for c in (_CIRCLE, _TWICE, dent, 2 * _CIRCLE)])
    for batch in batches:
        _assert_batches_equal_one_row_calls(batch)
    assert max(map(len, by_length.values())) > 1


# The per-cell loops the batched suites replaced, kept as references.  They
# look kernels up on their modules at call time, so a monkeypatch reaches
# them and the suites alike.

def _reference_prop1(seed: int, tol: float = 1e-9, param_sets=DEFAULT_PARAM_SETS,
                     lambdas=DEFAULT_LAMBDAS, z0s=DEFAULT_Z0S) -> dict:
    tally = _Tally(tol)
    members = _members_with_probes(seed, 40)
    for params in param_sets:
        for lam in lambdas:
            for z0 in z0s:
                if z0 == 0:
                    continue
                disk = variability_disk(EvalPoint(z0, lam), params)
                w = region.log_fprime(sampler.omega_eval(members, lam, z0), params)
                pullback = np.exp(params.B / (params.A - params.B) * w)
                distance = np.abs(pullback - disk.center) - disk.radius
                probe = np.arange(distance.size) % 8 == 7  # on-circle probes: gated on both sides
                inputs = {"A": params.A, "B": params.B, "lambda": lam, "z0": _cstr(z0)}
                tally.add_many(np.where(probe, np.abs(distance), distance), lambda k: (inputs, {
                    "pullback": _cstr(pullback[k]), "distance_minus_r": float(distance[k])}))
    return tally.report("prop1", len(param_sets))


def _reference_corollary0(seed: int, tol: float = 1e-9, param_sets=DEFAULT_PARAM_SETS,
                          z0s=DEFAULT_Z0S) -> dict:
    tally = _Tally(tol)
    members = _members_with_probes(seed, 40)
    phis = np.linspace(-np.pi, np.pi, 8, endpoint=False)
    sharp = constant_inners(np.exp(1j * phis))
    for params in param_sets:
        for z0 in z0s:
            bound = abs(params.B) * abs(z0) ** 2
            inputs = {"A": params.A, "B": params.B, "z0": _cstr(z0)}
            to_pre = params.B / (params.A - params.B)  # log f' to the pre-log plane
            lhs = np.abs(np.exp(to_pre * region.log_fprime(sampler.omega_eval(members, 0.0, z0), params)) - 1.0)
            tally.add_many(lhs - bound, lambda k: (
                inputs, {"lhs": float(lhs[k]), "bound": float(bound)}))
            lhs_sharp = np.abs(np.exp(to_pre * region.log_fprime(sampler.omega_eval(sharp, 0.0, z0), params)) - 1.0)
            tally.add_many(np.abs(lhs_sharp - bound), lambda k: (
                dict(inputs, sharp_phi=float(phis[k])),
                {"lhs": float(lhs_sharp[k]), "bound": float(bound)}))
    return tally.report("corollary0", len(param_sets))


def _reference_unit_lambda(tol: float = 1e-9, param_sets=DEFAULT_PARAM_SETS, z0s=DEFAULT_Z0S,
                           k_max: int = 40) -> dict:
    tally = _Tally(tol)
    for params in param_sets:
        for z0 in z0s:
            if z0 == 0:
                target = region.singleton_value(EvalPoint(0.0, 1.0), params)
                tally.add(abs(target), {"z0": "0"}, {"singleton": _cstr(target)})
                continue
            target = region.singleton_value(EvalPoint(z0, 1.0), params)
            _, radii = region._disk(z0, 1.0 - np.ldexp(1.0, -np.arange(1, k_max + 1)))
            units = np.exp(1j * np.array([0.0, 1.0, 2.5]))
            centers, _ = region._disk(z0, units * (1.0 - 2.0**-k_max))
            point = EvalPoint(z0, 1.0 - 2.0**-k_max)
            for a in (0.0, 1.0, -1.0, 1j):
                d = abs(region.region_point(a, point, params) - target)
                tally.add(d, {"A": params.A, "B": params.B, "z0": _cstr(z0), "k": k_max, "a": _cstr(a)},
                          {"distance_to_singleton": float(d)})
            drops = np.diff(radii)
            tally.add(float(np.max(drops)), {"A": params.A, "B": params.B, "z0": _cstr(z0)},
                      {"max_radius_increase": float(np.max(drops))})
            # the singleton at lambda = u against the value at the center of the disk at u (1 - 2^-k_max)
            for phi, u, rhs in zip((0.0, 1.0, 2.5), units.tolist(), region.log_fprime(z0 * centers, params).tolist()):
                lhs = region.singleton_value(EvalPoint(z0, u), params)
                tally.add(abs(lhs - rhs), {"A": params.A, "B": params.B, "z0": _cstr(z0), "phi": phi},
                          {"lhs": _cstr(lhs), "rhs": _cstr(rhs)})
    return tally.report("unit-lambda", len(param_sets))


def _reference_convexity(tol: float = 1e-10, n: int = 256, param_sets=DEFAULT_PARAM_SETS,
                         lambdas=DEFAULT_LAMBDAS, z0s=DEFAULT_Z0S) -> dict:
    tally = _Tally(tol)
    curves = 0
    for params in param_sets:
        for lam in lambdas:
            for z0 in z0s:
                if z0 == 0:
                    continue
                sign, worst, winding = _reference_turning(boundary_curve(EvalPoint(z0, lam), params, n))
                sub = _Tally(tol)
                sub.add(worst, {}, None)
                sub.add(abs(winding - sign), {}, None)
                curves += 1
                tally.add(sub.max_violation,
                          {"A": params.A, "B": params.B, "lambda": lam, "z0": _cstr(z0)},
                          {"max_violation": sub.max_violation})
    return tally.report("convexity", len(param_sets), curves=curves)


def _reference_coverage(tol: float = 1e-8, grid_n: int = 96) -> dict:
    """One single-case report per combo, re-tallied into the suite's report."""
    tally = _Tally(tol)
    combos = [
        (params, EvalPoint(0.5, 0.5)) for params in DEFAULT_PARAM_SETS
    ] + [(DEFAULT_PARAM_SETS[0], EvalPoint(0.3 + 0.4j, 0.3))]
    d_pairs = []
    for params, point in combos:
        ks = _polar_grid(grid_n)
        omega = sampler.omega_eval(constant_inners(ks), point.lam, point.z0)
        member_vals = (params.A - params.B) / params.B * region._log1p(params.B * omega)
        region_vals = region.region_point(region.equivalent_disk_param(ks, point, params), point, params)
        h = float(np.max(np.abs(member_vals - region_vals)))
        sub = _Tally(tol)
        sub.add(h, {}, None)
        extra = {"hausdorff_member_to_region": h, "hausdorff_region_to_member": h}
        d_pairs.append(extra)
        tally.add(
            sub.max_violation,
            {"A": params.A, "B": params.B, "z0": _cstr(point.z0), "lambda": _cstr(point.lam)},
            extra,
        )
    return tally.report("coverage", len(combos), per_combo=d_pairs)


def _reference_inclusion(tol: float = 1e-9) -> dict:
    """One single-pair report per default pair with B < 1, re-tallied into the suite's report."""
    tally = _Tally(tol)
    details = []
    pairs = [p for p in DEFAULT_PARAM_SETS if p.B < 1.0]
    for params in pairs:
        zs = np.linspace(0.5, 0.999, 200)
        disk = janowski_disk(params)
        kappa = sampler.special_curvature(params, zs.astype(complex))
        dist = np.abs(kappa - disk.center) - disk.radius
        i = int(np.argmax(dist))
        best = float(dist[i])
        sub = _Tally(tol)
        sub.add(-best, {}, None)
        extra = {
            "witness_z": float(zs[i]), "distance_outside": best,
            "limit_value": float((1.0 + 2.0 * params.A - params.B) / (1.0 + params.B)),
            "left_endpoint": float((1.0 + params.A) / (1.0 + params.B)),
        }
        details.append(extra)
        tally.add(sub.max_violation, {"A": params.A, "B": params.B}, extra)
    return tally.report("inclusion", len(pairs), witnesses_found=details)


REFERENCE_SUITES = {
    "prop1": _reference_prop1,
    "corollary0": _reference_corollary0,
    "unit-lambda": lambda seed: _reference_unit_lambda(),
    "convexity": lambda seed: _reference_convexity(),
    "coverage": lambda seed: _reference_coverage(),
    "inclusion": lambda seed: _reference_inclusion(),
}


@pytest.mark.parametrize("seed", range(10))
def test_batched_suites_equal_per_cell_reference_loops(seed):
    for name, reference in REFERENCE_SUITES.items():
        assert run_suite(name, seed=seed) == reference(seed), name
    # the reports above hold only what the fixed probes set; at tol=-1 every
    # sample is a witness, so the sampled members reach the report too
    for name in ("prop1", "corollary0"):
        batched = run_suite(name, seed=seed, tol=-1.0)
        assert batched["witnesses"] and batched == REFERENCE_SUITES[name](seed, tol=-1.0), name


def test_member_witnesses_depend_on_the_seed():
    # so the tol=-1 comparisons above see each seed's own members
    a, b = (run_suite("prop1", seed=s, tol=-1.0)["witnesses"] for s in (0, 1))
    assert len(a) == len(b) == 20 and a != b


def test_batched_suites_equal_reference_loops_off_the_default_grid():
    rng = np.random.default_rng(23)
    witnessed = set()
    for tol in (1e-9, 1e-13, 1e-16, 1e-17):  # the smaller ones give witnesses
        AB = np.sort(rng.uniform(-1.0, 1.0, (3, 2)), axis=1)
        param_sets = [JanowskiParams(float(A), float(B)) for A, B in AB if B != 0.0]
        lambdas = [0.0, *(0.95 * rng.uniform(0, 1, 3) ** 0.5 * np.exp(2j * np.pi * rng.uniform(0, 1, 3)))]
        z0s = [0.0, *(0.98 * rng.uniform(0, 1, 4) ** 0.5 * np.exp(2j * np.pi * rng.uniform(0, 1, 4)))]
        seed = int(rng.integers(100))
        pairs = [
            (check_prop1(param_sets, lambdas, z0s, tol=tol, seed=seed),
             _reference_prop1(seed, tol, param_sets, lambdas, z0s)),
            (check_corollary0(param_sets, z0s, tol=tol, seed=seed),
             _reference_corollary0(seed, tol, param_sets, z0s)),
            (check_unit_lambda(param_sets, z0s, tol=tol), _reference_unit_lambda(tol, param_sets, z0s)),
            (check_convexity(param_sets, lambdas, z0s, n=128, tol=tol),
             _reference_convexity(tol, 128, param_sets, lambdas, z0s)),
        ]
        for batched, reference in pairs:
            assert batched == reference, batched["suite_name"]
        witnessed.update(r["suite_name"] for r, _ in pairs if r["witnesses"])
    assert witnessed == {"prop1", "corollary0", "unit-lambda"}


def _cell(params, lam, z0) -> tuple[int, int, int]:
    return DEFAULT_PARAM_SETS.index(params), DEFAULT_LAMBDAS.index(lam), DEFAULT_Z0S.index(z0)


def _bump_members(monkeypatch, forced: set) -> None:
    """omega_eval moved off at the forced (lambda, z0, rows, sample) entries, for every parameter set.

    Rows of 40 members move far out of the region; rows of 8 (the corollary0
    sharpness probes) move to omega = 0, far inside the bound they must meet.
    """
    real = sampler.omega_eval

    def bumped(inner, lam, z):
        omega = real(inner, lam, z)
        lams, z0s = (np.broadcast_to(a, omega.shape) for a in (lam, z))
        rows = omega.shape[-1]
        for e in np.ndindex(omega.shape):
            if (DEFAULT_LAMBDAS.index(lams[e]), DEFAULT_Z0S.index(z0s[e]), rows, e[-1]) in forced:
                omega[e] = 0.0 if rows == 8 else omega[e] + 10.0
        return omega

    monkeypatch.setattr(sampler, "omega_eval", bumped)


def _draw_forced(count: int, cells: list[tuple], samples: int) -> set:
    rng = np.random.default_rng(11)
    picks = rng.choice(len(cells) * samples, size=count, replace=False)
    return {(*cells[p // samples], p % samples) for p in picks.tolist()}


def test_batched_prop1_witnesses_in_params_lambda_z0_sample_order(monkeypatch):
    cells = [(l, t, 40) for l in range(4) for t in range(4)]
    forced = _draw_forced(6, cells, 40)  # 6 per parameter set: the first 20 span four of them
    _bump_members(monkeypatch, forced)
    r = check_prop1(seed=6)
    assert r == _reference_prop1(6)
    assert not r["passed"] and len(r["witnesses"]) == 20
    expected = sorted((p, *cell) for p in range(5) for cell in forced)
    for (p, l, t, _, j), wit in zip(expected, r["witnesses"]):
        params, lam, z0 = DEFAULT_PARAM_SETS[p], DEFAULT_LAMBDAS[l], DEFAULT_Z0S[t]
        assert wit["inputs"] == {"A": params.A, "B": params.B, "lambda": lam, "z0": _cstr(z0)}
        w = region.log_fprime(sampler.omega_eval(_members_with_probes(6, 40), lam, z0), params)[j]
        assert wit["observed"]["pullback"] == _cstr(np.exp(params.B / (params.A - params.B) * w))
    assert expected[19][0] == 3


def test_batched_corollary0_witnesses_follow_the_reference_loop(monkeypatch):
    # members (40 rows) and sharpness probes (8 rows) forced in the z0 rows
    cells = [(0, t, rows) for t in range(4) for rows in (40, 8)]
    forced = _draw_forced(5, cells, 8)  # 5 per parameter set: the first 20 span four of them
    _bump_members(monkeypatch, forced)
    r = check_corollary0(seed=2)
    assert not r["passed"] and len(r["witnesses"]) == 20
    assert any("sharp_phi" in w["inputs"] for w in r["witnesses"])
    assert [w["inputs"]["B"] for w in r["witnesses"]] == [p.B for p in DEFAULT_PARAM_SETS[:4] for _ in range(5)]
    assert r == _reference_corollary0(2)


def test_batched_unit_lambda_witnesses_follow_the_reference_loop(monkeypatch):
    real_point, real_singleton = region.region_point, region.singleton_value

    def moved_point(a, point, params):  # a = -1 and a = 1j off the singleton where B < 0.6
        return real_point(a, point, params) + np.where(np.isin(a, (-1.0, 1j)) & (params.B < 0.6), 1.0, 0.0)

    def moved_singleton(point, params):  # rotated singletons off at phi = 1
        return real_singleton(point, params) + (1.0 if point.lam == np.exp(1j) else 0.0)

    monkeypatch.setattr(region, "region_point", moved_point)
    monkeypatch.setattr(region, "singleton_value", moved_singleton)
    r = check_unit_lambda()
    assert not r["passed"] and len(r["witnesses"]) == 20
    assert {"a", "phi"} <= {key for w in r["witnesses"] for key in w["inputs"]}
    assert r == _reference_unit_lambda()


def test_batched_convexity_witnesses_in_params_lambda_z0_order(monkeypatch):
    cells = [(p, l, t) for p in range(5) for l in range(4) for t in range(4)]
    forced = set(map(tuple, np.array(cells)[np.random.default_rng(5).choice(80, 30, replace=False)].tolist()))

    def dented(k, z0, lam, params):
        values = real(k, z0, lam, params)
        # one curve per (lambda, z0) entry: a (lambda, z0) grid from the suite, one cell from the reference
        cells = zip(*(a.ravel().tolist() for a in np.broadcast_arrays(lam, z0)))
        for row, (lam_c, z0_c) in zip(values.reshape(-1, values.shape[-1]), cells):
            if _cell(params, lam_c, z0_c) in forced:
                center = row.mean()
                row[5] = center + 0.5 * (row[5] - center)
        return values

    real = region._boundary_values
    monkeypatch.setattr(region, "_boundary_values", dented)
    r = check_convexity()
    assert r == _reference_convexity()
    assert not r["passed"] and len(r["witnesses"]) == 20 and r["samples"] == 80
    for (p, l, t), wit in zip(sorted(forced), r["witnesses"]):
        params = DEFAULT_PARAM_SETS[p]
        assert wit["inputs"] == {"A": params.A, "B": params.B, "lambda": DEFAULT_LAMBDAS[l],
                                 "z0": _cstr(DEFAULT_Z0S[t])}
        assert wit["observed"]["max_violation"] > r["tolerance"]


def test_coverage_and_inclusion_witnesses_follow_the_reference_loops(monkeypatch):
    real_region_point, real_curvature = region.region_point, sampler.special_curvature

    def moved_region(a, point, params):  # off the member image where lambda = 0.5 and B < 0.6
        return real_region_point(a, point, params) + (1e-6 if point.lam == 0.5 and params.B < 0.6 else 0.0)

    def inside_curvature(params, z):  # the disk center for B > 0: no witness outside the disk
        return np.full_like(z, janowski_disk(params).center) if params.B > 0 else real_curvature(params, z)

    monkeypatch.setattr(region, "region_point", moved_region)
    monkeypatch.setattr(sampler, "special_curvature", inside_curvature)
    coverage, inclusion = run_suite("coverage"), run_suite("inclusion")
    assert coverage == _reference_coverage()
    assert inclusion == _reference_inclusion()
    assert not coverage["passed"] and len(coverage["witnesses"]) == 3
    assert [w["inputs"]["B"] for w in coverage["witnesses"]] == [0.5, 0.5, -0.1]
    assert not inclusion["passed"] and [w["inputs"]["B"] for w in inclusion["witnesses"]] == [0.5, 0.5, 0.7]


def test_strict_inclusion_witness():
    r = check_strict_inclusion([P05])
    assert r["passed"]
    assert r["extra"]["witnesses_found"][0]["distance_outside"] > 0.3
    assert 0.9 <= r["extra"]["witnesses_found"][0]["witness_z"] < 1.0
    with pytest.raises(ValueError, match="B < 1"):
        check_strict_inclusion([JanowskiParams(-1.0, 1.0)])


def test_inclusion_default_covers_all_disk_pairs():
    r = check_strict_inclusion()
    assert r["passed"]
    assert r["parameter_sets"] == 4  # (A, B) = (-1, 1) is the excluded half-plane case
    assert all(d["distance_outside"] > 0 for d in r["extra"]["witnesses_found"])


def test_halfplane_suite():
    r = check_halfplane_univalence(n_samples=24, seed=3)
    assert r["passed"]
    assert r["extra"]["min_re_fprime"]["B=0.5"] > 2.0 / 3.0 - 1e-9
    assert r["extra"]["min_re_fprime"]["B=1.0"] > 0.5 - 1e-9


def test_halfplane_values_equal_per_lambda_members(monkeypatch):
    calls = []
    real = region.log_fprime

    def spy(omega, params):
        out = real(omega, params)
        calls.append((params, out))
        return out

    monkeypatch.setattr(region, "log_fprime", spy)
    r = check_halfplane_univalence(n_samples=24, seed=3)
    members = _members_with_probes(3, 24)
    zgrid = 0.95 * _polar_grid(12)[:, None]
    lambdas = (0.0, 0.3, 0.5 + 0.2j)
    assert len(calls) == 3 * len(lambdas)
    for i, B in enumerate((0.25, 0.5, 1.0)):
        ref = [log_fprime(omega_eval(members, lam, zgrid), JanowskiParams(0.0, B)) for lam in lambdas]
        for (params, out), want in zip(calls[3 * i:3 * i + 3], ref):
            assert params == JanowskiParams(0.0, B) and np.array_equal(out, want)
        lo = min(float(np.min(np.exp(w).real)) for w in ref)
        assert r["extra"]["min_re_fprime"][f"B={B}"] == min(lo, 1.0 / (1.0 + B * 0.999999))


@pytest.mark.parametrize("seed", range(10))
def test_halfplane_members_meet_their_pointwise_bound(seed):
    # the bound is 1 at z = 0, where every member has f' = 1 exactly
    r = run_suite("halfplane", seed=seed)
    assert r["passed"] and r["max_violation"] == 0.0


def test_halfplane_fails_members_that_break_their_pointwise_bound(monkeypatch):
    # omega scaled by 1.001 leaves Re f' far above 1/2, so only the pointwise bound can tell
    real = sampler.omega_eval
    monkeypatch.setattr(sampler, "omega_eval", lambda inner, lam, z: 1.001 * real(inner, lam, z))
    r = run_suite("halfplane", seed=0)
    assert not r["passed"] and (r["samples"], r["parameter_sets"]) == (3, 3)
    assert min(r["extra"]["min_re_fprime"].values()) > 0.5
    assert r["max_violation"] > 2e-4
    assert [w["inputs"]["B"] for w in r["witnesses"]] == [0.5, 1.0]
    assert all(w["observed"]["max_bound_excess"] > 5e-5 for w in r["witnesses"])


def test_halfplane_fails_a_nan_member_value(monkeypatch):
    real = sampler.omega_eval

    def one_nan(inner, lam, z):
        omega = real(inner, lam, z)
        omega[:, 5, 3] = np.nan  # at one grid point and member, for every lambda
        return omega

    monkeypatch.setattr(sampler, "omega_eval", one_nan)
    r = run_suite("halfplane", seed=0)
    assert not r["passed"] and np.isnan(r["max_violation"]) and len(r["witnesses"]) == 3


def test_convexity_default_sweep():
    r = check_convexity(param_sets=SMALL_SETS, n=64)
    assert r["passed"]
    for empty in (check_convexity(lambdas=()), check_convexity(z0s=(0.0,))):
        assert empty["passed"] and empty["samples"] == 0 and empty["extra"] == {"curves": 0}


def test_reports_deterministic():
    a = check_prop1(param_sets=(P05,), n_samples=16, seed=9)
    b = check_prop1(param_sets=(P05,), n_samples=16, seed=9)
    assert a == b


def test_all_suites_pass_and_have_consistent_fields():
    reports = [run_suite(n, seed=0) for n in SUITE_NAMES]
    for r in reports:
        assert r["passed"] == (r["max_violation"] <= r["tolerance"])
        if r["passed"]:
            assert r["witnesses"] == []
        assert r["samples"] > 0
    assert [r["suite_name"] for r in reports] == list(SUITE_NAMES)
    assert {r["suite_name"]: (r["samples"], r["parameter_sets"]) for r in reports} == SUITE_COUNTS


@pytest.mark.parametrize("seed", [0, 3])
def test_report_counts_match_the_benchmark_checker(seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    reports = [run_suite(n, seed=seed) for n in SUITE_NAMES]
    counts = {r["suite_name"]: (r["samples"], r["parameter_sets"]) for r in reports}
    assert counts == check.VERIFY_COUNTS == SUITE_COUNTS


def test_tally_array_add_matches_per_sample_adds():
    v = np.random.default_rng(3).uniform(-1.0, 1.0, 200) * 1e-8
    tol = 1e-9
    one, many = _Tally(tol), _Tally(tol)
    for k, x in enumerate(v):
        one.add(x, {"k": k}, {"v": float(x)})
    for lo, hi in ((0, 25), (25, 200)):  # the witness cap is reached inside the second call
        many.add_many(v[lo:hi], lambda k: ({"k": lo + k}, {"v": float(v[lo + k])}))
    a, b = one.report("s", 1), many.report("s", 1)
    assert (a["samples"], a["max_violation"], a["witnesses"]) == (b["samples"], b["max_violation"], b["witnesses"])
    assert b["samples"] == 200 and b["max_violation"] == float(np.max(v))
    first = [k for k in range(200) if v[k] > tol][:20]
    assert 0 < sum(k < 25 for k in first) < 20
    assert [w["inputs"]["k"] for w in b["witnesses"]] == first
    assert [w["observed"]["v"] for w in b["witnesses"]] == [float(v[k]) for k in first]


def test_tally_nan_violation_fails():
    t = _Tally(1e-9)
    t.add(0.0, {"k": 0}, {})
    t.add(float("nan"), {"k": 1}, {})
    t.add(1.0, {"k": 2}, {})
    r = t.report("s", 1)
    assert not r["passed"] and np.isnan(r["max_violation"])
    assert [w["inputs"]["k"] for w in r["witnesses"]] == [1, 2]


def test_the_package_imports_only_the_standard_library_and_numpy():
    # no runtime dependency but numpy; a relative import reaches only a sibling module
    for path in sorted(Path(varregion.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1, (path.name, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]:
                    assert name.partition(".")[0] in {*sys.stdlib_module_names, "numpy"}, (path.name, node.lineno, name)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_report_is_a_dict_of_its_eight_keys_in_order(name):
    r = run_suite(name, seed=0, tol=-1.0)  # no violation is below -1: every sample fails
    assert type(r) is dict and not r["passed"] and r["witnesses"]
    assert list(r) == ["suite_name", "parameter_sets", "samples", "max_violation", "tolerance", "passed",
                       "witnesses", "extra"]


def test_a_report_holds_the_tallys_own_witnesses_and_extra_values():
    tally = _Tally(1e-9)
    tally.add(1.0, {"k": 0}, {"v": 1.0})
    found = [{"witness_z": 0.5}]
    r = tally.report("s", 2, found=found)
    assert r["witnesses"] is tally.witnesses and r["extra"]["found"] is found
    assert r == {"suite_name": "s", "parameter_sets": 2, "samples": 1, "max_violation": 1.0, "tolerance": 1e-9,
                 "passed": False, "witnesses": [{"inputs": {"k": 0}, "observed": {"v": 1.0}}],
                 "extra": {"found": found}}


def test_run_suite_unknown_name():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("bogus")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_run_suite_rejects_a_negative_seed(name):
    # also the suites that draw nothing from the seed
    with pytest.raises(ValueError, match=r"^require seed >= 0, got -1$"):
        run_suite(name, seed=-1)
