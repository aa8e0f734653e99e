import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varregion
from varregion import (
    BoundaryCurve,
    ConstrainedSchwarz,
    EvalPoint,
    JanowskiParams,
    boundary_curve,
    check_convexity_and_jordan,
    check_corollary0,
    check_coverage,
    check_halfplane_univalence,
    check_prop1,
    check_rotation,
    check_strict_inclusion,
    check_unit_lambda,
    member_log_fprime,
    run_suite,
    run_suites,
    singleton_value,
    variability_disk,
)
from varregion.sampler import constant_inners
from varregion.verify import (
    DEFAULT_LAMBDAS,
    DEFAULT_PARAM_SETS,
    DEFAULT_Z0S,
    SUITE_NAMES,
    _Tally,
    run_convexity_default,
    run_inclusion_default,
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
    assert r.passed and r.witnesses == []
    assert r.max_violation <= r.tolerance


def test_prop1_extremal_equality_case():
    # constant unimodular members sit on the circle: distance - r is ~0
    point = EvalPoint(0.5, 0.5)
    disk = variability_disk(point, P05)
    for th in np.linspace(-np.pi, np.pi, 16, endpoint=False):
        s = ConstrainedSchwarz(constant_inners(np.exp(1j * th)), 0.5)
        w = member_log_fprime(s, P05, 0.5)
        pullback = np.exp(w / P05.exponent)
        assert abs(abs(pullback - disk.center) - disk.radius) < 1e-12


def test_corollary0_passes_and_is_sharp():
    r = check_corollary0(param_sets=SMALL_SETS, n_samples=24, seed=1)
    assert r.passed and r.witnesses == []
    # direct sharpness: psi == 1 at real z gives |1 + Bz^2 - 1| = |B| z^2
    s = ConstrainedSchwarz(constant_inners(1.0), 0.0)
    for z in (0.3, 0.7):
        w = member_log_fprime(s, P05, z)
        assert abs(np.exp(w / P05.exponent) - 1.0) == pytest.approx(
            abs(P05.B) * z * z, abs=1e-15
        )


def test_unit_lambda_suite():
    r = check_unit_lambda(param_sets=SMALL_SETS)
    assert r.passed and r.witnesses == []
    assert singleton_value(EvalPoint(0.5, 1.0), P05) == pytest.approx(-LOG_1_25, abs=1e-15)
    assert singleton_value(EvalPoint(0.0, 1.0), P05) == 0.0
    radii = [variability_disk(EvalPoint(0.5, 1 - 2.0**-k), P05).radius for k in range(1, 12)]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_rotation_suite_zero_mismatches():
    r = check_rotation(param_sets=SMALL_SETS, n_rotations=8, n_samples=40, seed=2)
    assert r.passed
    assert r.max_violation == 0.0


def test_coverage_matches_to_roundoff():
    r = check_coverage(EvalPoint(0.5, 0.5), P05, grid_n=64)
    assert r.passed
    assert r.max_violation < 1e-8
    assert r.extra["hausdorff_member_to_region"] < 1e-10
    assert r.extra["hausdorff_region_to_member"] < 1e-10
    r = check_coverage(EvalPoint(0.3 + 0.4j, -0.2 - 0.6j), P05)
    assert r.passed
    assert r.max_violation < 1e-12


def test_convexity_on_computed_curves():
    curve = boundary_curve(EvalPoint(0.5, 0.5), P05, 128)
    r = check_convexity_and_jordan(curve)
    assert r.passed and r.witnesses == []


def test_convexity_rejects_small_and_degenerate_curves():
    curve = boundary_curve(EvalPoint(0.5, 0.5), P05, 8)
    with pytest.raises(ValueError, match="at least 16"):
        check_convexity_and_jordan(curve)
    thetas = np.linspace(-np.pi, np.pi, 32)
    flat = BoundaryCurve(thetas, np.full(32, 0.25 + 0.25j))
    with pytest.raises(ValueError, match="degenerate"):
        check_convexity_and_jordan(flat)


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
        r = check_convexity_and_jordan(curve)
        assert not r.passed
        assert r.max_violation > r.tolerance
        assert r.witnesses


def test_jordan_flags_self_intersection():
    thetas = np.linspace(-np.pi, np.pi, 24, endpoint=False)
    values = np.exp(2j * thetas)  # winds twice: plenty of proper crossings
    curve = BoundaryCurve(thetas, values + 0.001j * thetas)
    r = check_convexity_and_jordan(curve)
    assert not r.passed
    jordan = [w for w in r.witnesses if w["inputs"]["check"] == "jordan"]
    assert [w["observed"]["turning_number"] for w in jordan] == [2]


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
    pts = curve.as_points()
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


def test_turning_number_agrees_with_crossing_reference():
    default = [boundary_curve(EvalPoint(z0, lam), params, 256)
               for params in DEFAULT_PARAM_SETS for lam in DEFAULT_LAMBDAS for z0 in DEFAULT_Z0S]
    fine = [boundary_curve(EvalPoint(z0, lam), params, 2048)
            for params, lam, z0 in ((DEFAULT_PARAM_SETS[2], 0.9, -0.7),
                                    (DEFAULT_PARAM_SETS[4], 0.0, 0.3 + 0.4j),
                                    (DEFAULT_PARAM_SETS[0], 0.5, 0.1j))]
    t = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    z = np.exp(1j * t)
    side = np.linspace(-1.0, 1.0, 5)  # each corner of the square is its own next point
    square = np.concatenate([side - 1j, 1 + 1j * side, -side + 1j, -1 - 1j * side])
    repeated = [BoundaryCurve(t, np.insert(z, 5, z[5])[:-1]),  # convex, one point twice
                BoundaryCurve(np.arange(20.0), square)]
    random = _random_polygons(4, 600)
    seen = set()
    for curve in default + fine + repeated + random:
        convex, simple = _reference_verdict(curve)
        assert check_convexity_and_jordan(curve).passed == (convex and simple)
        seen.add((convex, simple))
    assert len(default) == 80 and all(check_convexity_and_jordan(c).passed for c in default)
    assert all(check_convexity_and_jordan(c).passed for c in repeated)
    # the random set passes, fails on convexity, and crosses itself with turns of one sign
    assert seen == {(True, True), (False, True), (False, False), (True, False)}


def test_strict_inclusion_witness():
    r = check_strict_inclusion(P05)
    assert r.passed
    assert r.extra["distance_outside"] > 0.3
    assert 0.9 <= r.extra["witness_z"] < 1.0
    with pytest.raises(ValueError, match="B < 1"):
        check_strict_inclusion(JanowskiParams(-1.0, 1.0))


def test_inclusion_default_covers_all_disk_pairs():
    r = run_inclusion_default()
    assert r.passed
    assert r.parameter_sets == 4  # (A, B) = (-1, 1) is the excluded half-plane case
    assert all(d["distance_outside"] > 0 for d in r.extra["witnesses_found"])


def test_halfplane_suite():
    r = check_halfplane_univalence(n_samples=24, seed=3)
    assert r.passed
    assert r.extra["min_re_fprime"]["B=0.5"] > 2.0 / 3.0 - 1e-9
    assert r.extra["min_re_fprime"]["B=1.0"] > 0.5 - 1e-9


def test_convexity_default_sweep():
    r = run_convexity_default(param_sets=SMALL_SETS, n=64)
    assert r.passed


def test_reports_deterministic():
    a = check_prop1(param_sets=(P05,), n_samples=16, seed=9).to_dict()
    b = check_prop1(param_sets=(P05,), n_samples=16, seed=9).to_dict()
    assert a == b


def test_all_suites_pass_and_have_consistent_fields():
    reports = run_suites(SUITE_NAMES, seed=0)
    for r in reports:
        assert r.passed == (r.max_violation <= r.tolerance)
        if r.passed:
            assert r.witnesses == []
        assert r.samples > 0
    assert [r.suite_name for r in reports] == list(SUITE_NAMES)
    assert {r.suite_name: (r.samples, r.parameter_sets) for r in reports} == SUITE_COUNTS


def test_tally_array_add_matches_per_sample_adds():
    v = np.random.default_rng(3).uniform(-1.0, 1.0, 200) * 1e-8
    tol = 1e-9
    one, many = _Tally(tol), _Tally(tol)
    for k, x in enumerate(v):
        one.add(x, {"k": k}, {"v": float(x)})
    for lo, hi in ((0, 25), (25, 200)):  # the witness cap is reached inside the second call
        many.add_many(v[lo:hi], lambda k: ({"k": lo + k}, {"v": float(v[lo + k])}))
    a, b = one.report("s", 1), many.report("s", 1)
    assert (a.samples, a.max_violation, a.witnesses) == (b.samples, b.max_violation, b.witnesses)
    assert b.samples == 200 and b.max_violation == float(np.max(v))
    first = [k for k in range(200) if v[k] > tol][:20]
    assert 0 < sum(k < 25 for k in first) < 20
    assert [w["inputs"]["k"] for w in b.witnesses] == first
    assert [w["observed"]["v"] for w in b.witnesses] == [float(v[k]) for k in first]


def test_tally_nan_violation_fails():
    t = _Tally(1e-9)
    t.add(0.0, {"k": 0}, {})
    t.add(float("nan"), {"k": 1}, {})
    t.add(1.0, {"k": 2}, {})
    r = t.report("s", 1)
    assert not r.passed and np.isnan(r.max_violation)
    assert [w["inputs"]["k"] for w in r.witnesses] == [1, 2]


def test_verify_runs_without_scipy(tmp_path):
    out = tmp_path / "coverage.json"
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from varregion.cli import main\n"
            f"sys.exit(main(['verify', '--suite', 'coverage', '--out', {str(out)!r}]))\n")
    src = str(Path(varregion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert '"passed": true' in out.read_text()


def test_run_suite_unknown_name():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("bogus")
