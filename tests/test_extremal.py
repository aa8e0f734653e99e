import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from varregion import (
    ConvergenceError,
    EvalPoint,
    ExtremalSpec,
    JanowskiParams,
    QuadratureConfig,
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


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(max_panels=0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)


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
    with pytest.raises(ValueError, match="lambda = 0"):
        closed_form_a0(0.0, P05, 0.5)
    with pytest.raises(ValueError, match=r"\|lambda\| < 1"):
        closed_form_a0(float("nan"), P05, 0.5)
    # lambda = 0 needs no oracle: the integrand is 1 and F(z) = z
    spec = ExtremalSpec(0.0, 0.0, P05)
    for z in (0.5, -0.3 + 0.2j):
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
    with pytest.raises(ValueError, match=message):
        closed_form_a0(0.3 + 0.4j, params, 0.5 + 0.1j)


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
                    got = extremal_value(spec, z, QuadratureConfig(abs_tol=1e-13))
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
    spec = ExtremalSpec(0.9, 0.7, JanowskiParams(-1.0, 1.0))
    cfg = QuadratureConfig(max_panels=2, abs_tol=1e-30)
    with pytest.raises(ConvergenceError) as exc:
        extremal_value(spec, 0.8, cfg)
    assert np.isfinite(exc.value.achieved)
    assert abs(exc.value.estimate) > 0


@pytest.mark.parametrize("max_panels, schedule", [
    (1, [1]),  # a cap of 1 never evaluates 2 panels
    (2, [1, 2]),
    (3, [1, 2]),
    (1000, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]),
])
def test_max_panels_caps_the_panels_evaluated(max_panels, schedule, monkeypatch):
    panels, composite = [], extremal._composite_estimates

    def counted(*args):
        panels.extend(args[-1])
        return composite(*args)

    monkeypatch.setattr(extremal, "_composite_estimates", counted)
    # steep: 1 + B z delta(a z, lambda) comes within about 1 - |z|^2 of zero
    z = 0.99 * np.exp(0.7j)
    spec = ExtremalSpec(-(np.conj(z) / abs(z)) ** 2, 0.05, JanowskiParams(-1.0, 1.0))
    with pytest.raises(ConvergenceError, match=f"within {max_panels} panels"):
        extremal_value(spec, z, QuadratureConfig(max_panels=max_panels, abs_tol=1e-30))
    assert panels == schedule


def test_tolerance_below_the_rounding_floor_is_never_confirmed():
    spec = ExtremalSpec(0.5j, 0.3, JanowskiParams(-0.5, 0.5))
    z = 0.5 + 0.3j
    with pytest.raises(ConvergenceError, match="below the rounding floor") as exc:
        fprime_segment_integral(spec, 0j, z, QuadratureConfig(abs_tol=1e-30, max_panels=64))
    # the two last estimates agree to the double: only the floor refuses them
    assert exc.value.achieved <= 1e-30
    floor = 4.0 * np.finfo(float).eps * abs(exc.value.estimate)
    value = fprime_segment_integral(spec, 0j, z, QuadratureConfig(abs_tol=floor, max_panels=64))
    assert value == exc.value.estimate


def test_max_panels_is_capped():
    assert QuadratureConfig(max_panels=extremal.MAX_PANELS).max_panels == 65536
    with pytest.raises(ValueError, match="max_panels <= 65536"):
        QuadratureConfig(max_panels=65537)


def test_gauss_legendre_rule_is_cached_and_read_only():
    nodes, weights = extremal._gauss_legendre()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(extremal.NODES_PER_PANEL)
    assert nodes.tobytes() == ref_nodes.tobytes() and weights.tobytes() == ref_weights.tobytes()
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    assert extremal._gauss_legendre() is extremal._gauss_legendre()


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


def test_level_nodes_are_cached_and_read_only():
    t = extremal._level_nodes((1, 2))
    assert t.tobytes() == np.concatenate([_inline_panel_nodes(1)[0], _inline_panel_nodes(2)[0]]).tobytes()
    assert t.nbytes == 384 and extremal._level_nodes((1, 2)) is t
    assert extremal._level_nodes((8,)).tobytes() == _inline_panel_nodes(8)[0].tobytes()
    with pytest.raises(ValueError):
        t[0, 0] = 0.5


@pytest.mark.parametrize("panels", [1, 2, 64, 1024])
def test_panel_nodes_are_cached_and_read_only(panels):
    t = extremal._level_nodes((panels,))
    assert t.shape == (panels, extremal.NODES_PER_PANEL)
    assert extremal._level_nodes((panels,)) is t
    with pytest.raises(ValueError):
        t[0, 0] = 0.5
    with pytest.raises(ValueError):
        t += 0.0


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
