from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varregion import (
    BoundaryCurve,
    Disk,
    EvalPoint,
    JanowskiParams,
    Verdict,
    boundary_curve,
    boundary_point,
    equivalent_disk_param,
    janowski_disk,
    mobius_delta,
    mobius_delta_inv,
    pullback_modulus,
    region_point,
    singleton_value,
    variability_disk,
)
from varregion.extremal import ExtremalSpec, closed_form_a0
from varregion.region import VERDICTS, _log1p, _log1p_over_b, _over_b, _unit_circle_grid, classify, log_fprime
from varregion.sampler import omega_eval, sample_members
from varregion.verify import DEFAULT_PARAM_SETS

# frozen oracle values (high-precision logs, correctly rounded to binary64)
LOG_1_2 = 0.18232155679395462
LOG_1_1 = 0.09531017980432487
LOG_1_125 = 0.11778303565638346
LOG_1_25 = 0.22314355131420976

P05 = JanowskiParams(0.0, 0.5)
PT = EvalPoint(0.5, 0.5)
INTERIOR, BOUNDARY, OUTSIDE = (VERDICTS.index(v) for v in (Verdict.INTERIOR, Verdict.BOUNDARY, Verdict.OUTSIDE))

POINT_GRID = [
    (0.5, 0.5),
    (0.3 + 0.4j, 0.3),
    (-0.7, 0.9),
    (0.1j, 0.0),
    (0.5, 0.3 + 0.4j),
    (-0.7, -0.5),
    (0.3 + 0.4j, -0.2 - 0.9j),
]


def _disks(lo=0.0, hi=0.95):
    return st.complex_numbers(max_magnitude=hi, allow_nan=False, allow_infinity=False).filter(
        lambda z: lo <= abs(z) <= hi
    )


# ---------------------------------------------------------------------------
# domain types


def test_params_validation():
    with pytest.raises(ValueError, match="B != 0"):
        JanowskiParams(-0.5, 0.0)
    with pytest.raises(ValueError):
        JanowskiParams(0.5, 0.3)  # classical ordering B < A is out of scope
    with pytest.raises(ValueError):
        JanowskiParams(0.5, 0.5)
    with pytest.raises(ValueError):
        JanowskiParams(-1.5, 0.5)
    with pytest.raises(ValueError):
        JanowskiParams(0.0, 1.5)


def test_eval_point_validation():
    with pytest.raises(ValueError, match=r"\|z0\| < 1"):
        EvalPoint(1.0, 0.5)
    with pytest.raises(ValueError, match=r"\|lambda\| <= 1"):
        EvalPoint(0.5, 1.5)
    assert EvalPoint(0.5, 1.0).lam == 1.0  # |lambda| = 1 is legal (singleton)


def test_disk_type():
    with pytest.raises(ValueError):
        Disk(0.0, -1.0)
    d = Disk(1.0, 0.5)
    assert abs(1.5 - d.center) - d.radius == pytest.approx(0.0, abs=1e-15)
    assert abs(1.2 - d.center) - d.radius <= 0.0
    assert not abs(2.0 - d.center) - d.radius <= 0.0


def test_boundary_curve_invariants():
    with pytest.raises(ValueError, match="strictly increasing"):
        BoundaryCurve(np.array([0.0, 0.0, 1.0]), np.zeros(3, complex))
    with pytest.raises(ValueError, match="finite"):
        BoundaryCurve(np.array([0.0, 1.0]), np.array([0.0, np.nan + 0j]))
    with pytest.raises(ValueError):
        BoundaryCurve(np.array([0.0, 1.0]), np.zeros(3, complex))


# ---------------------------------------------------------------------------
# mobius automorphisms


def test_mobius_examples():
    lam = 0.3 + 0.2j
    assert mobius_delta(0.0, lam) == pytest.approx(lam, abs=1e-16)
    assert mobius_delta(0.4 - 0.1j, 0.0) == pytest.approx(0.4 - 0.1j, abs=1e-16)
    assert mobius_delta(0.5, 0.5) == pytest.approx(0.8, abs=1e-15)


def test_mobius_domain_errors():
    with pytest.raises(ValueError, match=r"\|lambda\| < 1"):
        mobius_delta(0.5, 1.0)
    with pytest.raises(ValueError):
        mobius_delta_inv(0.5, 1.2)
    with pytest.raises(ValueError, match="vanished"):
        mobius_delta_inv(2.0, 0.5)  # 1 - 0.5*2 = 0


NAN = float("nan")


@pytest.mark.parametrize("make, lam", [
    (lambda lam: mobius_delta(0.5, lam), NAN),
    (lambda lam: mobius_delta(0.5, lam), complex(NAN, 0.0)),
    (lambda lam: mobius_delta_inv(0.5, lam), NAN),
    (lambda lam: mobius_delta_inv(0.5, lam), complex(NAN, 0.0)),
    (lambda lam: mobius_delta_inv(np.array([0.5, 0.2]), lam), np.array([0.3, NAN])),
    (lambda lam: omega_eval(sample_members(0, 4), lam, 0.5), NAN),
    (lambda lam: omega_eval(sample_members(0, 4), lam, 0.5), complex(NAN, 0.0)),
    (lambda lam: ExtremalSpec(0.5, lam, P05), NAN),
    (lambda lam: ExtremalSpec(0.5, lam, P05), complex(NAN, 0.0)),
    (lambda lam: closed_form_a0(lam, P05, 0.5), NAN),
    (lambda lam: closed_form_a0(lam, P05, 0.5), complex(NAN, 0.0)),
], ids=["delta-nan", "delta-complex-nan", "inv-nan", "inv-complex-nan", "inv-array-nan",
        "schwarz-nan", "schwarz-complex-nan", "spec-nan", "spec-complex-nan", "a0-nan", "a0-complex-nan"])
def test_nan_lambda_is_rejected(make, lam):
    # NaN fails every comparison, so |lambda| >= 1 let it through
    with pytest.raises(ValueError, match=r"require \|lambda\| < 1, got \|lambda\| = nan"):
        make(lam)


def test_evalpoint_admits_lambda_above_one_exactly_where_it_is_a_singleton():
    # 1 + k ulp for k up to 5000 crosses 1 + UNIT_TOL; a point admitted above 1
    # that is no singleton would be neither a singleton nor a disk
    for k in range(5001):
        lam = 1.0 + k * 2.0**-52
        try:
            EvalPoint(0.5, lam)
        except ValueError:
            admitted = False
        else:
            admitted = True
        # singleton_value reads only z0 and lam, so a stand-in point reaches the rejected lam too
        stand_in = SimpleNamespace(z0=0.5 + 0j, lam=complex(lam))
        assert admitted == (singleton_value(stand_in, P05) is not None), k


def test_mobius_inv_examples():
    assert mobius_delta_inv(0.5, 0.5) == pytest.approx(0.0, abs=1e-16)
    assert mobius_delta_inv(0.8, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert mobius_delta_inv(0.0, 0.5) == pytest.approx(-0.5, abs=1e-16)


@given(z=_disks(hi=1.0), lam=_disks(hi=0.95))
def test_mobius_roundtrip_property(z, lam):
    assert abs(mobius_delta_inv(mobius_delta(z, lam), lam) - z) < 1e-12


def test_mobius_roundtrip_bulk():
    rng = np.random.default_rng(0)
    z = rng.uniform(-1, 1, 10_000) + 1j * rng.uniform(-1, 1, 10_000)
    z = z[np.abs(z) <= 1.0]
    lam = 0.95 * np.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    err = np.abs(mobius_delta_inv(mobius_delta(z, lam), lam) - z)
    assert float(err.max()) < 1e-12


def test_schwarz_pick_contraction():
    lam = 0.4 - 0.3j
    circle = np.exp(1j * np.linspace(-np.pi, np.pi, 512, endpoint=False))
    assert float(np.max(np.abs(np.abs(mobius_delta(circle, lam)) - 1.0))) < 1e-12
    interior = 0.9 * circle
    assert float(np.max(np.abs(mobius_delta(interior, lam)))) < 1.0


# ---------------------------------------------------------------------------
# the Log(1 + x) kernel


@settings(max_examples=1000, deadline=None)
@given(
    # |x| log-uniform from 1e-300 up, or 1 - 2^-k up to 1 - 2^-20, where 1 + x can nearly vanish
    st.one_of(st.floats(-300.0, 0.0).map(lambda u: 10.0**u),
              st.floats(1.0, 20.0).map(lambda k: 1.0 - 2.0**-k)),
    # arguments clustered near pi reach the a < -1/2 regime; the sign picks the half plane
    st.one_of(st.floats(-17.0, 0.5).map(lambda v: np.pi - 10.0**v), st.floats(0.0, np.pi)),
    st.booleans(),
)
def test_log1p_matches_mpmath(r, phi, lower):
    r = min(r, 1.0 - 2.0**-20)
    x = complex(r * np.cos(phi), -r * np.sin(phi) if lower else r * np.sin(phi))
    got = complex(_log1p(np.array([x]))[0])
    with mpmath.workdps(40):
        want = mpmath.log1p(mpmath.mpc(x.real, x.imag))
        assert abs(mpmath.mpc(got.real, got.imag) - want) <= 4 * 2.0**-52 * abs(want), x


@pytest.mark.parametrize("A, B", [(-0.5, 0.5), (-1.0, 1.0), (-0.9, -0.1), (-0.5, -1e-12), (0.0, 1e-310)])
def test_log1p_over_b_is_the_batch_map_at_one_point(A, B):
    # the scalar helper against _over_b(_log1p, ...): series, near (a >= -1/2) and far (a < -1/2) branches
    v = np.array([0.0, 1e-9 - 2e-9j, 0.5 + 0.1j, -0.3 + 0.4j, 0.9j, -0.95 + 0.2j, -0.6 - 0.7j, 0.99])
    want = _over_b(_log1p, v, B, -0.5, A - B)
    for k, vk in enumerate(v):
        got = _log1p_over_b(complex(vk), B, A - B)
        assert abs(got - want[k]) <= 4 * 2.0**-52 * abs(want[k]), (vk, got, want[k])


def test_log1p_passes_nan_and_the_far_branch_without_a_floating_point_error():
    # Re x just above -1, where a (2 + a) + b^2 rounds to -1 or below: log1p must never see those
    edge = np.array([complex(-1.0 + 2.0**-52, 0.0), complex(-1.0 + 2.0**-30, 1e-20), complex(-1.0 + 2.0**-27, -1e-10)])
    a, b = edge.real, edge.imag
    assert np.all(a * (2.0 + a) + b * b <= -1.0)
    near = np.array([0.0, -0.0, complex(-0.0, -0.0), complex(0.5, -0.25), complex(-0.5, 0.0), 1e-12j])
    nan = np.array([complex(NAN, 0.0), complex(0.0, NAN), complex(-0.75, NAN), complex(NAN, NAN)])
    far = np.array([complex(-0.75, 0.5), complex(-0.9, -0.1), complex(-0.6, 0.0)])
    x = np.concatenate([near, edge, nan, far])[np.random.default_rng(3).permutation(16)].reshape(2, 8)
    params = JanowskiParams(-0.5, 0.5)
    with np.errstate(all="raise"):
        got = _log1p(x)
        w = log_fprime(x / params.B, params)  # B omega = x exactly: B is a power of 2
    finite = ~np.isnan(x)
    assert np.all(np.isnan(got[~finite])) and np.all(np.isfinite(got[finite]))
    assert np.allclose(got[finite], np.log(1.0 + x[finite]), rtol=1e-12, atol=0.0)
    small = np.abs(x) < 1e-8
    assert np.array_equal(w[finite & ~small], (params.A - params.B) / params.B * got[finite & ~small])
    assert np.all(np.isnan(w[~finite]))
    # signed zeros keep their sign: Log(1 + x) of -0 - 0j is 0 - 0j
    assert np.signbit(_log1p(np.array([complex(-0.0, -0.0)])).imag[0])


# ---------------------------------------------------------------------------
# the variability disk and its parametrizations


def test_variability_disk_examples():
    d = variability_disk(EvalPoint(0.0, 0.3), P05)
    assert d.center == 1.0 and d.radius == 0.0
    d = variability_disk(PT, P05)
    assert abs(d.center - 1.1) < 1e-12 and abs(d.radius - 0.1) < 1e-12


def test_variability_disk_lambda0_exact():
    for z0, _ in POINT_GRID:
        for params in DEFAULT_PARAM_SETS:
            d = variability_disk(EvalPoint(z0, 0.0), params)
            assert d.center == 1.0
            assert d.radius == abs(params.B) * abs(z0) ** 2


def test_variability_disk_domain():
    with pytest.raises(ValueError, match=r"\|lambda\| < 1"):
        variability_disk(EvalPoint(0.5, 1.0), P05)
    # rotation identity: the region at (z0, lam) is the region at (z0 lam/|lam|, |lam|)
    for lam in (-0.1, 0.5 + 0.1j):
        d = variability_disk(EvalPoint(0.5, lam), P05)
        ref = variability_disk(EvalPoint(0.5 * lam / abs(lam), abs(lam)), P05)
        assert d.radius == pytest.approx(ref.radius, rel=1e-14)
        assert abs(d.center - ref.center) <= 1e-15


def test_radius_monotone_vanishing():
    radii = [
        variability_disk(EvalPoint(0.5, 1.0 - 2.0**-k), P05).radius for k in range(1, 41)
    ]
    assert all(b < a for a, b in zip(radii, radii[1:]))
    assert radii[-1] < 1e-11


def test_region_point_examples():
    d = variability_disk(PT, P05)
    a_unit = (1.0 - d.center) / d.radius
    assert abs(a_unit) <= 1.0 + 1e-12
    assert abs(region_point(a_unit, PT, P05)) < 1e-14
    assert region_point(1.0, PT, P05) == pytest.approx(-LOG_1_2, abs=1e-14)
    assert region_point(0.0, PT, P05) == pytest.approx(-LOG_1_1, abs=1e-14)
    with pytest.raises(ValueError, match=r"\|a\| <= 1"):
        region_point(1.5, PT, P05)


def test_positive_real_part_of_disk():
    # guarantees the principal log never meets the branch cut
    a = np.exp(1j * np.linspace(-np.pi, np.pi, 64)) * np.array([[0.0], [0.5], [1.0]])
    for z0, lam in POINT_GRID:
        for params in DEFAULT_PARAM_SETS:
            d = variability_disk(EvalPoint(z0, lam), params)
            assert float(np.min((d.center + a * d.radius).real)) > 0.0


def test_boundary_point_examples():
    assert boundary_point(0.0, PT, P05) == pytest.approx(-LOG_1_2, abs=1e-14)
    assert abs(boundary_point(np.pi, PT, P05)) < 1e-15


@pytest.mark.parametrize("params", DEFAULT_PARAM_SETS)
@pytest.mark.parametrize("z0,lam", POINT_GRID)
def test_boundary_matches_region_parametrization(params, z0, lam):
    point = EvalPoint(z0, lam)
    th = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    a = equivalent_disk_param(np.exp(1j * th), point, params)
    err = np.abs(boundary_point(th, point, params) - region_point(a, point, params))
    assert float(err.max()) < 1e-12


def test_equivalent_disk_param_modulus():
    point = EvalPoint(0.3 + 0.4j, 0.5)
    params = JanowskiParams(-0.9, -0.1)
    k = np.exp(1j * np.linspace(-np.pi, np.pi, 128))
    a = equivalent_disk_param(k, point, params)
    assert float(np.max(np.abs(np.abs(a) - 1.0))) < 1e-12
    inner = equivalent_disk_param(0.5 * k, point, params)
    assert float(np.max(np.abs(inner))) < 1.0
    with pytest.raises(ValueError):
        equivalent_disk_param(1.0, EvalPoint(0.0, 0.5), params)
    with pytest.raises(ValueError, match=r"\|lambda\| < 1"):
        equivalent_disk_param(1.0, EvalPoint(0.5, -1.0), params)


def test_boundary_curve_examples():
    with pytest.raises(ValueError, match="n >= 3"):
        boundary_curve(PT, P05, 2)
    with pytest.raises(ValueError, match="singleton"):
        boundary_curve(EvalPoint(0.0, 0.5), P05)
    curve = boundary_curve(PT, P05, 4)
    np.testing.assert_allclose(curve.thetas, [-np.pi / 2, 0.0, np.pi / 2, np.pi])
    assert curve.values[-1] == 0.0  # theta = pi lands exactly on log 1 = 0
    assert curve.values[1] == pytest.approx(-LOG_1_2, abs=1e-14)
    assert np.all(classify(curve.values, PT, P05)[1] == BOUNDARY)


def test_boundary_curve_lambda0_is_log_circle():
    # at lambda = 0 the pre-log image is the circle |u - 1| = |B||z0|^2
    curve = boundary_curve(EvalPoint(0.5, 0.0), P05, 128)
    u = np.exp(curve.values / ((P05.A - P05.B) / P05.B))
    assert float(np.max(np.abs(np.abs(u - 1.0) - 0.125))) < 1e-15


def _reference_unit_circle_grid(n):
    """The grid formula, computed afresh on every call."""
    t = np.arange(1, n + 1) / n - 0.5
    q = np.round(4.0 * t)
    u = 2.0 * np.pi * (t - q / 4.0)
    c, s = np.cos(u), np.sin(u)
    qm = q.astype(int) % 4
    return np.choose(qm, [c, -s, -c, s]) + 1j * np.choose(qm, [s, c, -s, -c])


def test_unit_circle_grid_is_cached_read_only_and_bit_exact():
    # n switches back and forth, so the one kept grid is replaced each time
    for n in (3, 4, 256, 1385, 4096, 3, 4096, 256, 256):
        grid = _unit_circle_grid(n)
        assert grid.tobytes() == _reference_unit_circle_grid(n).tobytes()
        assert _unit_circle_grid(n) is grid
        with pytest.raises(ValueError):
            grid[0] = 0.0
        with pytest.raises(ValueError):
            grid += 0.0


def test_boundary_curve_values_are_fresh_and_writable():
    first, second = boundary_curve(PT, P05, 256), boundary_curve(PT, P05, 256)
    assert first.values.flags.writeable and first.thetas.flags.writeable
    assert not np.shares_memory(first.values, second.values)
    assert not np.shares_memory(first.values, _unit_circle_grid(256))
    expected = second.values.copy()
    first.values[:] = 0.0
    assert boundary_curve(PT, P05, 256).values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# membership


def test_classify_examples():
    slack, status = classify(np.array([-LOG_1_2, 0.0, -LOG_1_125]), PT, P05)
    assert status.tolist() == [BOUNDARY, BOUNDARY, INTERIOR]
    assert abs(slack[0]) < 1e-12 and slack[2] == pytest.approx(-0.5, abs=1e-12)


def test_classify_domain_errors():
    with pytest.raises(ValueError, match="singleton"):
        classify(0.0, EvalPoint(0.0, 0.5), P05)
    with pytest.raises(ValueError, match=r"\|lambda\| < 1"):
        classify(0.0, EvalPoint(0.5, 1.0), P05)
    with pytest.raises(ValueError, match="tol"):
        classify(0.0, PT, P05, tol=0.0)


@pytest.mark.parametrize("params", DEFAULT_PARAM_SETS)
@pytest.mark.parametrize("z0,lam", POINT_GRID)
def test_membership_consistency(params, z0, lam):
    point = EvalPoint(z0, lam)
    for th in np.linspace(-np.pi, np.pi, 16, endpoint=False):
        w = boundary_point(th, point, params)
        assert classify(w, point, params)[1] == BOUNDARY
    for rho in (0.0, 0.5, 1.0 - 1e-6):
        for phi in (0.0, 2.0, -1.3):
            w = region_point(rho * np.exp(1j * phi), point, params)
            assert classify(w, point, params)[1] == INTERIOR
    d = variability_disk(point, params)
    if d.radius > 0:
        w = (params.A - params.B) / params.B * np.log(d.center + 1.5 * d.radius)
        assert classify(w, point, params)[1] == OUTSIDE


def test_rotation_equivariance_of_verdicts():
    params = JanowskiParams(-0.5, 0.5)
    z0, lam = 0.4 - 0.2j, 0.45
    for th in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        rot = np.exp(1j * th)
        frame1 = EvalPoint(rot * z0, lam)
        frame2 = EvalPoint(z0, lam * rot)
        d = variability_disk(frame1, params)
        probes = [
            boundary_point(0.7, frame1, params),
            region_point(0.25, frame1, params),
            (params.A - params.B) / params.B * np.log(d.center + 1.4 * d.radius),
        ]
        expected = [BOUNDARY, INTERIOR, OUTSIDE]
        for w, want in zip(probes, expected):
            assert classify(w, frame1, params)[1] == classify(w, frame2, params)[1] == want


def test_pullback_modulus_vectorized():
    ws = np.array([boundary_point(t, PT, P05) for t in (-1.0, 0.0, 2.0)])
    m = pullback_modulus(ws, PT, P05)
    np.testing.assert_allclose(m, 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# auxiliary disks and singletons


def test_janowski_disk():
    d = janowski_disk(P05)
    assert d.center == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert d.radius == pytest.approx(2.0 / 3.0, abs=1e-15)
    for params in DEFAULT_PARAM_SETS:
        if params.B >= 1.0:
            with pytest.raises(ValueError, match="half plane"):
                janowski_disk(params)
            continue
        d = janowski_disk(params)
        left = (1.0 + params.A) / (1.0 + params.B)
        right = (1.0 - params.A) / (1.0 - params.B)
        assert d.center - d.radius == pytest.approx(left, abs=1e-12)
        assert d.center + d.radius == pytest.approx(right, abs=1e-12)


def test_region_point_rejects_nan():
    with pytest.raises(ValueError, match=r"\|a\| <= 1"):
        region_point(float("nan"), PT, P05)


@pytest.mark.parametrize("lam", [1.0 + 1e-13, (1.0 + 1e-13) * np.exp(0.7j), np.exp(0.7j), -1.0])
def test_region_point_is_the_singleton_within_the_unit_tolerance(lam):
    # 1 - |lambda|^2 < 0 above the circle (or by rounding on it): no radius may come out negative
    point = EvalPoint(0.3 + 0.4j, lam)
    values = region_point(np.array([0.0, 1.0, -1.0, 1j, -1j]), point, P05)
    assert np.all(values == values[0])
    assert abs(values[0] - singleton_value(point, P05)) <= 1e-12


def test_singleton_value():
    assert singleton_value(EvalPoint(0.5, 1.0), P05) == pytest.approx(-LOG_1_25, abs=1e-15)
    assert singleton_value(EvalPoint(0.0, 0.3), P05) == 0.0
    assert singleton_value(EvalPoint(0.5, 0.5), P05) is None


# A unimodular lambda at tiny z0, where 1 + B lambda z0 rounds away most of B lambda z0
_UNIT_LAM, _TINY_Z0 = complex(np.cos(0.7), np.sin(0.7)), (1e-8, 1e-10, 1e-13)


def _singleton_rel_err(got: complex, z0: float, params: JanowskiParams) -> float:
    """Relative error of got against ((A - B)/B) Log(1 + B lambda z0) in 50 digits, lambda = _UNIT_LAM."""
    with mpmath.workdps(50):
        x = mpmath.mpf(params.B) * mpmath.mpc(_UNIT_LAM.real, _UNIT_LAM.imag) * z0
        want = (mpmath.mpf(params.A) - params.B) / params.B * mpmath.log1p(x)
        return float(abs(mpmath.mpc(got.real, got.imag) - want) / abs(want))


def test_log_fprime_at_a_unimodular_lambda_matches_mpmath_at_tiny_z0():
    params = JanowskiParams(-0.5, 0.5)
    for z0 in _TINY_Z0:
        got = complex(log_fprime(np.array([_UNIT_LAM * z0]), params)[0])
        assert _singleton_rel_err(got, z0, params) <= 4 * 2.0**-52, z0


def test_singleton_value_matches_mpmath_at_tiny_z0():
    params = JanowskiParams(-0.5, 0.5)
    for z0 in _TINY_Z0:
        got = singleton_value(EvalPoint(z0, _UNIT_LAM), params)
        assert _singleton_rel_err(got, z0, params) <= 4 * 2.0**-52, z0
