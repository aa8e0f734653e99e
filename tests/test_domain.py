"""The admissible domain's strata, and the properties that sweep them.

The paper states its region pointwise over -1 <= A < B <= 1, B != 0,
|lambda| <= 1 and |z0| < 1.  Each stratum of STRATA draws the moduli
(|B|, |lambda|, |z0|) with one of them near an edge of that domain, and
cells(stratum) adds A below B, the sign of B and the arguments.  Every
(A, B, lambda, z0) property of the tests draws its cells here, one test
function per property, parametrized over the strata.  A (property, stratum)
pair that fails is a strict xfail naming its ROADMAP item.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from varregion import ConvergenceError, EvalPoint, ExtremalSpec, JanowskiParams, boundary_curve, classify
from varregion.extremal import closed_form_a0, extremal_value
from varregion.region import VERDICTS, Verdict, _pullback, log_fprime
from varregion.sampler import constant_inners, inner_eval, omega_eval, sample_members


def _exp10(lo, hi):
    """10**x for x uniform in [lo, hi]: log-uniform moduli."""
    return st.floats(lo, hi).map(lambda x: 10.0**x)


def _one_less(lo, hi):
    """1 - 10**-x for x uniform in [lo, hi]: moduli log-uniform in their distance to 1."""
    return st.floats(lo, hi).map(lambda x: 1.0 - 10.0**-x)


_B, _LAM, _Z0 = _exp10(-4.0, 0.0), st.floats(0.01, 0.99), st.floats(0.05, 0.95)
# (|B|, |lambda|, |z0|).  10**-323.3 rounds to 5e-324, the least subnormal, 10**-307.6
# is just above the least normal, and 10**x is 0 below x = -323.6, so subnormal_lambda
# reaches 0 (lambda -> 0 is a corner: the a = 0 antiderivative divides by lambda).
# |lambda| within UNIT_TOL = 1e-12 of 1 is the singleton, with no curve, so
# lambda_near_the_circle stops at 1 - 1e-11.  |B z0| = 10**-p is subnormal from p = 308
STRATA = {
    "bulk": st.tuples(_B, _LAM, _Z0),
    "tiny_B": st.tuples(_exp10(-323.3, -4.0), _LAM, _Z0),
    "tiny_lambda": st.tuples(_B, _exp10(-307.6, -2.0), _Z0),
    "subnormal_lambda": st.tuples(_B, _exp10(-324.0, -307.6), _Z0),
    "tiny_z0": st.tuples(_B, _LAM, _exp10(-17.0, math.log10(0.05))),
    "z0_near_the_circle": st.tuples(_B, _LAM, _one_less(-math.log10(0.05), 12.0)),
    "lambda_near_the_circle": st.tuples(_B, _one_less(0.0, 11.0), _Z0),
    "subnormal_B_z0": st.tuples(st.floats(308.0, 323.0), _LAM, st.floats(0.1, 17.0)).map(
        lambda t: (10.0 ** (t[2] - t[0]), t[1], 10.0 ** -t[2])),  # from (p, |lambda|, -log10 |z0|)
}
_TURN = st.floats(-math.pi, math.pi)


@st.composite
def cells(draw, stratum, A_is_zero=False):
    """(params, point): the stratum's moduli, either sign of B, A uniform below B (or 0), uniform arguments."""
    b, lam, z0 = draw(STRATA[stratum])
    B = b * draw(st.sampled_from((1.0, -1.0)))
    A = 0.0 if A_is_zero else -1.0 + draw(st.floats(0.0, 1.0, exclude_max=True)) * (B + 1.0)
    assume(-1.0 <= A < B)
    return JanowskiParams(A, B), EvalPoint(cmath.rect(z0, draw(_TURN)), cmath.rect(lam, draw(_TURN)))


def _strata(**xfails):
    """(stratum, A_is_zero = False) test parameters over STRATA; xfails maps a stratum to its strict xfail mark."""
    return [pytest.param(name, False, id=name, marks=xfails.get(name, ())) for name in STRATA]


# one exception per failing pair, which the xfail names; hypothesis's explain phase
# would rerun each xfail's falsifying example for seconds and change no outcome
_PROPERTY = settings(report_multiple_bugs=False, phases=[p for p in Phase if p is not Phase.explain])
_BOUNDARY, _OUTSIDE = VERDICTS.index(Verdict.BOUNDARY), VERDICTS.index(Verdict.OUTSIDE)
_CONSTANTS = constant_inners(np.exp(2j * np.pi * np.arange(16) / 16))  # unimodular
_SLACK_UNIT = pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason="ROADMAP item 3: the slack is not scaled to the zeta-disk, so its error grows "
                                       "like 1/(1 - |lambda|) and exact boundary values leave Boundary")


@_PROPERTY
@pytest.mark.parametrize("stratum, A_is_zero", _strata(lambda_near_the_circle=_SLACK_UNIT))
@given(data=st.data(), seed=st.integers(0, 10**6))
def test_membership(stratum, A_is_zero, data, seed):
    # a member with inner function psi has omega(z0)/z0 = delta(z0 psi(z0), lambda), so the
    # pullback of its value is |z0| |psi(z0)| and its exact slack is |z0| (|psi(z0)| - 1)
    cell = params, point = data.draw(cells(stratum, A_is_zero))
    inners = {"constant": _CONSTANTS, "member": sample_members(seed, 64)}
    values = {kind: log_fprime(omega_eval(batch, point.lam, point.z0), params) for kind, batch in inners.items()}
    values["curve"] = boundary_curve(point, params, 64).values
    slacks, verdicts = {}, {}
    for kind, w in values.items():
        slacks[kind], verdicts[kind] = classify(w, point, params)
        assert not np.any(np.isnan(slacks[kind]) & np.isfinite(w)), (kind, cell)
    assert np.all(verdicts["constant"] == _BOUNDARY), cell
    assert np.all(verdicts["member"] != _OUTSIDE), cell
    assert np.all(verdicts["curve"] == _BOUNDARY), cell
    for kind, batch in inners.items():
        exact = abs(point.z0) * (np.abs(inner_eval(batch, point.z0)) - 1.0)
        assert float(np.max(np.abs(slacks[kind] - exact))) <= 1e-10, (kind, cell)


_SMALL_B = pytest.mark.xfail(strict=True, raises=(AssertionError, ConvergenceError, ValueError),
                             reason="ROADMAP items 2 and 15: extremal_fprime takes numpy's log(1 + x), and (A - B)/B "
                                    "multiplies its rounding by 1/|B|: the quadrature misses closed_form_a0 or cannot "
                                    "confirm 1e-12, and from |B| ~ 1e-308 down ExtremalSpec refuses the cell")
_SUBNORMAL_LAMBDA = pytest.mark.xfail(strict=True, raises=(AssertionError, ZeroDivisionError),
                                      reason="ROADMAP item 2: closed_form_a0 forms lam z and lam A, which lose their "
                                             "digits or vanish at a subnormal lambda")


@_PROPERTY
@pytest.mark.parametrize("stratum, A_is_zero", [
    *_strata(tiny_B=_SMALL_B, subnormal_lambda=_SUBNORMAL_LAMBDA, subnormal_B_z0=_SMALL_B),
    pytest.param("bulk", True, id="bulk-A=0")])
@given(data=st.data())
def test_a0_quadrature(stratum, A_is_zero, data):
    # converges within the panel cap, and agrees with the a = 0 antiderivative (F(z) = z at lambda = 0)
    cell = params, point = data.draw(cells(stratum, A_is_zero))
    lam, z = point.lam, point.z0
    want = z if lam == 0 else closed_form_a0(lam, params, z)
    assert abs(extremal_value(ExtremalSpec(0.0, lam, params), z) - want) < 1e-10, cell


@settings(_PROPERTY, max_examples=75)  # more cells than the others: its bounds are a few eps, not 1e-10
@pytest.mark.parametrize("stratum, A_is_zero", _strata())
@given(data=st.data(), zeta_mod=st.floats(0.0, 1.0), zeta_arg=_TURN)
def test_map_matches_mpmath(stratum, A_is_zero, data, zeta_mod, zeta_arg):
    # log_fprime at omega = z0 zeta with |zeta| <= 1, and its inverse, the pullback, at that value
    cell = params, point = data.draw(cells(stratum, A_is_zero))
    z0, lam = point.z0, point.lam
    omega = z0 * cmath.rect(zeta_mod, zeta_arg)
    w = complex(log_fprime(np.array([omega]), params)[0])
    got = float(_pullback(np.array([w]), z0, lam, params)[0])
    eps, tiny = 2.0**-52, 2.0**-1074  # relative rounding, and the absolute one of a subnormal result
    with mpmath.workdps(50):
        A, B, om = mpmath.mpf(params.A), mpmath.mpf(params.B), mpmath.mpc(omega.real, omega.imag)
        want = (A - B) / B * mpmath.log1p(B * om)
        assert abs(mpmath.mpc(w.real, w.imag) - want) <= 4 * (eps * abs(want) + tiny), (omega, cell)
        # the round trip gives |delta^-1(omega/z0, lambda)|.  An error eps |w| + tiny in w is one of
        # eps |omega| + tiny/|A - B| in omega, so of (eps |omega| + tiny/|A - B|)/|z0| in zeta, which
        # moves |delta^-1| by that times |d delta^-1/d zeta|
        zeta, l = om / mpmath.mpc(z0.real, z0.imag), mpmath.mpc(lam.real, lam.imag)
        den = 1 - mpmath.conj(l) * zeta
        s, slope = abs((zeta - l) / den), (1 - abs(l) ** 2) / abs(den) ** 2
        zeta_err = eps * abs(zeta) + tiny / (abs(A - B) * abs(z0))
        assert abs(got - s) <= 4 * (eps * s + tiny + zeta_err * slope), (omega, cell)
