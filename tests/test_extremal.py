import cmath
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from varregion import (
    ConvergenceError,
    EvalPoint,
    ExtremalSpec,
    JanowskiParams,
    Verdict,
    closed_form_a0,
    extremal_fprime,
    extremal_value,
    fprime_segment_integral,
)
from varregion import extremal
from varregion.cli import main
from varregion.region import VERDICTS, classify

P05 = JanowskiParams(0.0, 0.5)

# frozen oracles: the a = 0 antiderivative and two adaptive arbitrary-precision
# quadratures of the defining integral, rounded to binary64
F_A0_LOG = 0.4711321426255338          # log(1.125)/0.25
F_A0_POW = 4.0 / 9.0                   # ((1.125)^-1 - 1)/(0.5 * -0.5)
F_ORACLE_REAL = 0.46050606254981585    # a=1, lam=0.5, A=0, B=0.5, z=0.5
F_ORACLE_MIXED = 0.3476377364724908 + 0.2367917896002165j
# a=0.3+0.4j, lam=0.2-0.1j, A=-0.3, B=0.4, z=0.35+0.25j


def _random_specs(n, seed=0):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n):
        B = rng.choice([-0.6, -0.4, 0.3, 0.7, 1.0])
        A = rng.uniform(-1.0, B - 0.05)
        a = rng.uniform(0, 1) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        lam = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        specs.append(ExtremalSpec(a, lam, JanowskiParams(A, B)))
    return specs


def test_spec_validation():
    with pytest.raises(ValueError, match=r"\|a\| <= 1"):
        ExtremalSpec(1.5, 0.5, P05)
    with pytest.raises(ValueError, match=r"\|lambda\| < 1"):
        ExtremalSpec(0.5, 1.0, P05)
    ExtremalSpec(np.exp(0.3j), 0.0, P05)  # |a| = 1 is allowed


@pytest.mark.parametrize("abs_tol", [0.0, -1e-12, float("nan")])
def test_abs_tol_must_be_positive(abs_tol):
    spec = ExtremalSpec(0.5, 0.3, P05)
    with pytest.raises(ValueError, match=r"^require abs_tol > 0$"):
        extremal_value(spec, 0.5, abs_tol)
    with pytest.raises(ValueError, match=r"^require abs_tol > 0$"):
        fprime_segment_integral(spec, 0j, 0.5, abs_tol)


def test_fprime_examples():
    assert extremal_fprime(ExtremalSpec(0.3 + 0.1j, 0.2, P05), 0.0) == 1.0
    spec = ExtremalSpec(1.0, 0.5, P05)
    assert extremal_fprime(spec, 0.5) == pytest.approx(1.0 / 1.2, abs=1e-15)


@given(
    a=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    lam=st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
)
def test_fprime_normalized_at_zero(a, lam):
    spec = ExtremalSpec(a, lam, JanowskiParams(-0.5, 0.25))
    assert extremal_fprime(spec, 0.0) == 1.0


def test_second_derivative_law():
    # F''(0) = lambda (A - B), by central differences of F' at 0
    h = 1e-5
    for spec in _random_specs(100, seed=11):
        fd = (extremal_fprime(spec, h) - extremal_fprime(spec, -h)) / (2 * h)
        want = spec.lam * (spec.params.A - spec.params.B)
        assert abs(fd - want) < 1e-6


def test_value_trivial():
    assert extremal_value(ExtremalSpec(0.5, 0.5, P05), 0.0) == 0.0


def test_value_against_closed_form_examples():
    spec = ExtremalSpec(0.0, 0.5, P05)
    assert extremal_value(spec, 0.5) == pytest.approx(F_A0_LOG, abs=1e-12)
    assert closed_form_a0(0.5, P05, 0.5) == pytest.approx(F_A0_LOG, abs=1e-14)

    params = JanowskiParams(-0.5, 0.5)
    spec = ExtremalSpec(0.0, 0.5, params)
    assert extremal_value(spec, 0.5) == pytest.approx(F_A0_POW, abs=1e-12)
    assert closed_form_a0(0.5, params, 0.5) == pytest.approx(F_A0_POW, abs=1e-14)


def test_value_against_high_precision_quadrature():
    assert extremal_value(ExtremalSpec(1.0, 0.5, P05), 0.5) == pytest.approx(
        F_ORACLE_REAL, abs=1e-13
    )
    spec = ExtremalSpec(0.3 + 0.4j, 0.2 - 0.1j, JanowskiParams(-0.3, 0.4))
    assert extremal_value(spec, 0.35 + 0.25j) == pytest.approx(F_ORACLE_MIXED, abs=1e-13)


def test_closed_form_domain():
    assert closed_form_a0(0.3, P05, 0.0) == 0.0
    with pytest.raises(ValueError, match=r"\|lambda\| < 1"):
        closed_form_a0(float("nan"), P05, 0.5)
    # at lambda = 0 the integrand is 1 and F(z) = z, in the closed form and the quadrature alike
    spec = ExtremalSpec(0.0, 0.0, P05)
    for z in (0.5, -0.3 + 0.2j):
        assert closed_form_a0(0.0, P05, z) == z
        assert extremal_value(spec, z) == pytest.approx(z, abs=1e-14)


@pytest.mark.parametrize("B", [5e-324, 1e-310])
def test_a_b_whose_exponent_overflows_is_a_domain_error(B):
    # (A - B)/B overflows, so every F' value would be NaN
    params = JanowskiParams(-0.5, B)
    message = "^" + re.escape(f"require a finite (A - B)/B, got B = {B!r}") + "$"
    with pytest.raises(ValueError, match=message):
        ExtremalSpec(0.6 + 0.2j, 0.3 + 0.4j, params)
    with pytest.raises(ValueError, match=message):  # checked first
        ExtremalSpec(2.0, 0.3 + 0.4j, params)


@pytest.mark.parametrize("B", [1e-20, 1e-310, 5e-324])
def test_extremal_value_at_a_zero_and_a_tiny_b_is_the_oracle(B):
    params, lam, z = JanowskiParams(0.0, B), 0.3 + 0.4j, 0.5 + 0.1j
    want = closed_form_a0(lam, params, z)
    assert extremal_value(ExtremalSpec(0.0, lam, params), z) == pytest.approx(want, abs=1e-14)


_ORACLE_AB = [(0.0, 0.5), (-0.5, 0.5), (-1.0, 1.0), (0.3, 0.7), (-0.9, -0.1), (-1e-10, 0.5),
              (-0.5, -1e-12), (-0.5, 1e-8), (-0.5, 1e-20), (-0.5, 1e-310), (-1.0, -5e-324),
              (0.0, 5e-324), (-1.0, 1e-300), (0.0, 1e-20), (0.0, 1e-310)]
_ORACLE_LAM_Z = [(0.3 + 0.4j, 0.5 + 0.1j), (0.9, 0.95), (-0.99j, 0.9j), (1e-8, 0.5),
                 (0.5, 1e-12 + 1e-12j), (-0.7 + 0.1j, -0.6 - 0.7j), (0.0, 0.5 + 0.1j),
                 (1e-320, 0.99 * cmath.exp(0.3j)), (5e-324, -0.6 - 0.7j), (1e-300j, 0.9j)]


@pytest.mark.filterwarnings("error")
def test_closed_form_a0_matches_mpmath():
    # small and subnormal B and lambda included, and lambda = 0: F = z (Log(1 + x)/x) E(A lam L),
    # x = B lam z, E(y) = expm1(y)/y, is quotients throughout, with no Log of a rounded 1 + x
    for A, B in _ORACLE_AB:
        params = JanowskiParams(A, B)
        for lam, z in _ORACLE_LAM_Z:
            got = closed_form_a0(lam, params, z)
            with mpmath.workdps(50):
                l, mz = mpmath.mpc(complex(lam)), mpmath.mpc(complex(z))
                x = mpmath.mpf(B) * l * mz
                L = mz * mpmath.log1p(x) / x if x else mz
                y = mpmath.mpf(A) * l * L
                want = L * mpmath.expm1(y) / y if y else L
                assert abs(mpmath.mpc(got) - want) <= 4 * 2.0**-52 * abs(want), (A, B, lam, z, got)


# extremal --A=-0.5 --B=1e-8 --lambda=0.3,0.4 --a=0.6,0.2 --z=0.5,0.1: F and F' from mpmath at 40
# digits (adaptive quadrature of the defining integral), rounded to binary64
F_SMALL_B = 0.4851419115466063 + 0.06262134892456037j
FPRIME_SMALL_B = 0.9002521950510878 - 0.13828953759228685j


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: extremal_fprime takes numpy's complex log(1 + x), and (A - B)/B "
                          "multiplies its rounding by 1/|B|: from |B| ~ 1e-7 on, the quadrature cannot confirm "
                          "1e-12 and extremal exits 4")
def test_extremal_at_a_small_b_matches_mpmath(capsys):
    assert main(["extremal", "--A=-0.5", "--B=1e-8", "--lambda=0.3,0.4", "--a=0.6,0.2", "--z=0.5,0.1"]) == 0
    value, deriv = (complex(*map(float, line.split())) for line in capsys.readouterr().out.splitlines())
    assert abs(value - F_SMALL_B) <= 1e-13
    assert abs(deriv - FPRIME_SMALL_B) <= 1e-13


def test_oracle_agreement_grid():
    for lam in (0.2, 0.5, 0.8):
        for B in (-0.6, 0.4, 1.0):
            for A in (0.0, -0.5):
                if not -1.0 <= A < B:
                    continue
                params = JanowskiParams(A, B)
                spec = ExtremalSpec(0.0, lam, params)
                for z in (0.6, -0.35, 0.3 + 0.45j):
                    got = extremal_value(spec, z, abs_tol=1e-13)
                    want = closed_form_a0(lam, params, z)
                    assert abs(got - want) < 1e-10


def test_derivative_consistency():
    h = 1e-5
    for spec in _random_specs(10, seed=5):
        for z in (0.4, -0.2 + 0.55j):
            fd = (extremal_value(spec, z + h) - extremal_value(spec, z - h)) / (2 * h)
            assert abs(fd - extremal_fprime(spec, z)) < 1e-6


def test_path_independence():
    spec = ExtremalSpec(0.7 + 0.2j, 0.3, JanowskiParams(-0.8, 0.6))
    z = 0.5 - 0.4j
    whole = fprime_segment_integral(spec, 0.0, z)
    split = fprime_segment_integral(spec, 0.0, z / 2) + fprime_segment_integral(spec, z / 2, z)
    assert abs(whole - split) < 1e-12
    assert fprime_segment_integral(spec, z, z) == 0j  # an empty segment needs no quadrature


def test_segment_endpoint_validation():
    spec = ExtremalSpec(0.5, 0.3, P05)
    with pytest.raises(ValueError, match="open unit disk"):
        fprime_segment_integral(spec, 0.0, 1.0)
    with pytest.raises(ValueError, match="open unit disk"):
        fprime_segment_integral(spec, 0.0, complex(0.5, float("nan")))


def test_convergence_error():
    # 1e-12 sits within about 5x of the rounding floor 4 eps |F| here: 1,024 panels do not confirm it
    z = 0.764077345097204 + 0.6435734695504534j
    spec = ExtremalSpec(-0.16996714290024112 + 0.9854497299884603j, 0.0, JanowskiParams(-1.0, 1.0))
    with pytest.raises(ConvergenceError, match="within 1024 panels") as exc:
        extremal_value(spec, z)
    assert 1e-12 < exc.value.achieved < 1e-10
    assert abs(exc.value.estimate) > 0


def test_the_panel_cap_stops_the_doubling(monkeypatch):
    panels, composite = [], extremal._composite_estimates

    def counted(*args):
        panels.extend(args[-1])
        return composite(*args)

    monkeypatch.setattr(extremal, "_composite_estimates", counted)
    # steep: 1 + B z delta(a z, lambda) comes within about 1 - |z|^2 of zero
    z = 0.99 * np.exp(0.7j)
    spec = ExtremalSpec(-(np.conj(z) / abs(z)) ** 2, 0.05, JanowskiParams(-1.0, 1.0))
    with pytest.raises(ConvergenceError, match=f"within {extremal.PANEL_CAP} panels"):
        extremal_value(spec, z, abs_tol=1e-30)
    assert panels == [2**k for k in range(11)]  # 1, 2, 4, ..., 1,024


def test_tolerance_below_the_rounding_floor_is_never_confirmed():
    spec = ExtremalSpec(0.5j, 0.3, JanowskiParams(-0.5, 0.5))
    z = 0.5 + 0.3j
    with pytest.raises(ConvergenceError, match="below the rounding floor") as exc:
        fprime_segment_integral(spec, 0j, z, abs_tol=1e-30)
    # the two last estimates agree to the double: only the floor refuses them
    assert exc.value.achieved <= 1e-30
    floor = 4.0 * np.finfo(float).eps * abs(exc.value.estimate)
    value = fprime_segment_integral(spec, 0j, z, abs_tol=floor)
    assert value == exc.value.estimate


def test_gauss_legendre_rule_is_leggauss_read_only_symmetric_and_exact_to_degree_31():
    nodes, weights = extremal._NODES, extremal._WEIGHTS
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(extremal.NODES_PER_PANEL)
    assert nodes.tobytes() == ref_nodes.tobytes() and weights.tobytes() == ref_weights.tobytes()
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0
    assert nodes.tobytes() == (-nodes[::-1]).tobytes() and weights.tobytes() == weights[::-1].tobytes()
    # the literals on their own, whatever leggauss gives: a 16-point rule is exact up to degree 31
    with mpmath.workdps(60):
        for k in range(2 * extremal.NODES_PER_PANEL):
            moment = mpmath.fsum(mpmath.mpf(float(w)) * mpmath.mpf(float(x)) ** k for x, w in zip(nodes, weights))
            exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
            assert abs(moment - exact) <= 4 * np.finfo(float).eps, k


def _inline_panel_nodes(panels):
    """The composite rule's nodes as one level's estimate built them inline, before they were cached."""
    nodes = np.polynomial.legendre.leggauss(extremal.NODES_PER_PANEL)[0]
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = (0.5 / panels)
    return mid + half * nodes[None, :], half


def _inline_composite_estimate(spec, z_from, z_to, panels):
    t, half = _inline_panel_nodes(panels)
    weights = np.polynomial.legendre.leggauss(extremal.NODES_PER_PANEL)[1]
    zeta = z_from + t * (z_to - z_from)
    g = extremal_fprime(spec, zeta)
    return (z_to - z_from) * half * np.sum(weights[None, :] * g)


def _bits(w):
    w = complex(w)
    return w.real.hex(), w.imag.hex()


_STEEP_Z = 0.99 * np.exp(0.7j)
_NODE_CACHE_CASES = [
    (ExtremalSpec(0.3 + 0.4j, 0.2 - 0.1j, JanowskiParams(-0.3, 0.4)), 0j, 0.35 + 0.25j),
    (ExtremalSpec(1.0, 0.5, P05), 0.1 - 0.2j, 0.5),
    (ExtremalSpec(-1j, 0.9j, JanowskiParams(-1.0, -0.6)), -0.4j, 0.7 + 0.1j),
    # steep: 1 + B z delta(a z, lambda) comes within about 1 - |z|^2 of zero
    (ExtremalSpec(-(np.conj(_STEEP_Z) / abs(_STEEP_Z)) ** 2, 0.05, JanowskiParams(-1.0, 1.0)), 0j, _STEEP_Z),
]


@pytest.mark.parametrize("spec, z_from, z_to", _NODE_CACHE_CASES)
def test_cached_panel_nodes_change_no_bits(spec, z_from, z_to):
    for panels in 2 ** np.arange(11):
        panels = int(panels)
        t = extremal._level_nodes((panels,))
        assert t.tobytes() == _inline_panel_nodes(panels)[0].tobytes()
        assert _bits(extremal._composite_estimates(spec, z_from, z_to, (panels,))[0]) == \
            _bits(_inline_composite_estimate(spec, z_from, z_to, panels))


def _disk_point(r, theta):
    return complex(r * np.cos(theta), r * np.sin(theta))


_r = st.floats(0.0, 0.99)
_theta = st.floats(-np.pi, np.pi)


@st.composite
def _joint_pass_cases(draw):
    B = draw(st.sampled_from([-0.6, -0.4, 0.3, 0.7, 1.0]))
    A = draw(st.floats(-1.0, B - 0.05))
    lam = draw(st.one_of(st.floats(-0.99, 0.99), st.builds(_disk_point, _r, _theta)))
    kind = draw(st.sampled_from(["inner", "unit", "zero", "steep"]))
    z_from = draw(st.one_of(st.just(0j), st.builds(_disk_point, _r, _theta)))
    z_to = draw(st.builds(_disk_point, _r, _theta))
    if kind == "inner":
        a = draw(st.builds(_disk_point, st.floats(0.0, 1.0), _theta))
    elif kind == "unit":
        a = np.exp(1j * draw(_theta))
    elif kind == "zero":
        a = 0j
    else:
        # 1 + B z delta(a z, lambda) comes within about 1 - |z|^2 of zero near z_to
        A, B, lam = -1.0, draw(st.floats(0.8, 1.0)), draw(st.floats(0.0, 0.1))
        z_to = _disk_point(draw(st.floats(0.95, 0.99)), draw(_theta))
        a = -(np.conj(z_to) / abs(z_to)) ** 2
    return ExtremalSpec(a, lam, JanowskiParams(A, B)), z_from, z_to


@given(case=_joint_pass_cases())
def test_joint_pass_changes_no_bits(case):
    spec, z_from, z_to = case
    want = [_bits(_inline_composite_estimate(spec, z_from, z_to, p)) for p in (1, 2, 4)]
    assert [_bits(e) for e in extremal._composite_estimates(spec, z_from, z_to, (1, 2))] == want[:2]
    for p, bits in zip((1, 2, 4), want):
        assert _bits(extremal._composite_estimates(spec, z_from, z_to, (p,))[0]) == bits


def _reference_segment_integral(spec, z_from, z_to, abs_tol=1e-12):
    """fprime_segment_integral as it was with one integrand pass per panel count."""
    if not (abs(z_from) < 1.0 and abs(z_to) < 1.0):
        raise ValueError("segment endpoints must lie in the open unit disk")
    if z_from == z_to:
        return 0j
    panels, prev = 1, None
    while True:
        est = _inline_composite_estimate(spec, z_from, z_to, panels)
        if prev is not None:
            achieved = abs(est - prev)
            if achieved <= abs_tol:
                floor = 4.0 * np.finfo(float).eps * abs(est)
                if abs_tol < floor:
                    raise ConvergenceError(
                        f"abs_tol={abs_tol} is below the rounding floor 4 eps |estimate| "
                        f"= {floor:.3e}, so no estimate can confirm it", complex(est), float(achieved))
                return complex(est)
        if 2 * panels > 1024:
            raise ConvergenceError(
                f"quadrature did not reach abs_tol={abs_tol} within "
                f"1024 panels (achieved {achieved:.3e})", complex(est), float(achieved))
        prev = est
        panels *= 2


def _seeded_extremal_argv(n, seed):
    """n extremal argv cycling a = 0, steep, |a| = 1 and |a| < 1, and both --quad-tol values."""
    rng = np.random.default_rng(seed)

    def polar(lo, hi):
        return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(-np.pi, np.pi)))

    argvs = []
    for j in range(n):
        B = float(rng.choice([-0.6, -0.4, 0.3, 0.7, 1.0]))
        A, lam, z = float(rng.uniform(-1.0, B - 0.05)), polar(0.0, 0.99), polar(0.0, 0.99)
        kind = j % 4
        if kind == 0:
            a = 0j
        elif kind == 1:
            # 1 + B z delta(a z, lambda) comes within about 1 - |z|^2 of zero
            A, B, lam, z = -1.0, float(rng.uniform(0.8, 1.0)), polar(0.0, 0.1), polar(0.95, 0.99)
            a = -(z.conjugate() / abs(z)) ** 2
        else:
            a = polar(1.0, 1.0) if kind == 2 else polar(0.0, 1.0)
        argvs.append(["extremal", f"--A={A!r}", f"--B={B!r}"] + [
            f"--{k}={v.real!r},{v.imag!r}" for k, v in (("lambda", lam), ("a", a), ("z", z))] + [
            f"--quad-tol={(1e-12, 1e-13)[j // 4 % 2]}"])
    return argvs


@pytest.mark.parametrize("argv", _seeded_extremal_argv(64, seed=19), ids=range(64))
def test_extremal_prints_what_one_pass_per_level_gives(argv, monkeypatch, capsys):
    code = main(argv)
    got = capsys.readouterr()
    monkeypatch.setattr(extremal, "fprime_segment_integral", _reference_segment_integral)
    assert main(argv) == code
    assert capsys.readouterr() == got


def test_level_nodes_are_cached_and_read_only():
    for levels in ((1, 2), (8,), (1,), (2,), (64,), (1024,)):
        t = extremal._level_nodes(levels)
        assert t.tobytes() == np.concatenate([_inline_panel_nodes(p)[0] for p in levels]).tobytes()
        assert t.shape == (sum(levels), extremal.NODES_PER_PANEL) and extremal._level_nodes(levels) is t
        with pytest.raises(ValueError):
            t[0, 0] = 0.5
        with pytest.raises(ValueError):
            t += 0.0
    assert extremal._level_nodes((1, 2)).nbytes == 384


def test_fprime_subordination_pullback():
    # the implied Schwarz value z delta(az, lam) stays strictly inside the disk
    for spec in _random_specs(20, seed=9):
        z = 0.85 * np.exp(1j * np.linspace(-np.pi, np.pi, 32))
        fp = extremal_fprime(spec, z)
        omega = (np.exp(np.log(fp) / ((spec.params.A - spec.params.B) / spec.params.B)) - 1.0) / spec.params.B
        assert float(np.max(np.abs(omega))) < 1.0


def test_extremal_membership():
    point = EvalPoint(0.5, 0.5)
    for th in np.linspace(-np.pi, np.pi, 8, endpoint=False):
        spec = ExtremalSpec(np.exp(1j * th), 0.5, P05)
        w = complex(np.log(extremal_fprime(spec, 0.5)))
        assert VERDICTS[int(classify(w, point, P05)[1])] is Verdict.BOUNDARY
    spec = ExtremalSpec(0.5 * np.exp(0.7j), 0.5, P05)
    w = complex(np.log(extremal_fprime(spec, 0.5)))
    assert VERDICTS[int(classify(w, point, P05)[1])] is Verdict.INTERIOR
