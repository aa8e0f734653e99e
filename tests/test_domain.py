"""The membership oracle over the whole admissible domain, one hypothesis property per stratum.

Each cell draws A < B (B of either sign), a complex lambda and a complex z0,
and checks four things: unimodular constant members classify as Boundary,
sampled members never classify as Outside, boundary curve values classify as
Boundary, and no finite value gets a NaN slack.  The strata split the domain
by which parameter sits near an edge: |B| -> 0, |z0| -> 0, |z0| -> 1,
|lambda| -> 1 and a subnormal product B z0.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varregion import EvalPoint, JanowskiParams, boundary_curve, classify
from varregion.region import VERDICTS, Verdict, log_fprime
from varregion.sampler import constant_inners, omega_eval, sample_members

_BOUNDARY, _OUTSIDE = VERDICTS.index(Verdict.BOUNDARY), VERDICTS.index(Verdict.OUTSIDE)
_CONSTANTS = constant_inners(np.exp(2j * np.pi * np.arange(16) / 16))  # unimodular
_MEMBERS = sample_members(0, 64)
_TURN = st.floats(-math.pi, math.pi)


def _exp10(lo, hi):
    """10**x for x uniform in [lo, hi]: log-uniform moduli."""
    return st.floats(lo, hi).map(lambda x: 10.0**x)


def _one_less(lo, hi):
    """1 - 10**-x for x uniform in [lo, hi]: moduli log-uniform in their distance to 1."""
    return st.floats(lo, hi).map(lambda x: 1.0 - 10.0**-x)


_BULK_B, _BULK_LAM, _BULK_Z0 = _exp10(-4.0, 0.0), st.floats(0.0, 0.99), st.floats(0.05, 0.95)


@st.composite
def _cells(draw, b_mod=_BULK_B, lam_mod=_BULK_LAM, z0_mod=_BULK_Z0):
    """(params, point): |B|, |lambda| and |z0| from the given strategies; signs, arguments and A uniform."""
    B = draw(b_mod) * draw(st.sampled_from((1.0, -1.0)))
    A = -1.0 + draw(st.floats(0.0, 1.0, exclude_max=True)) * (B + 1.0)
    assume(-1.0 <= A < B)
    lam, z0 = cmath.rect(draw(lam_mod), draw(_TURN)), cmath.rect(draw(z0_mod), draw(_TURN))
    return JanowskiParams(A, B), EvalPoint(z0, lam)


def _check_cell(cell):
    params, point = cell
    values = {
        "constant": log_fprime(omega_eval(_CONSTANTS, point.lam, point.z0), params),
        "member": log_fprime(omega_eval(_MEMBERS, point.lam, point.z0), params),
        "curve": boundary_curve(point, params, 64).values,
    }
    verdicts = {}
    for kind, w in values.items():
        slack, status = classify(w, point, params)
        assert not np.any(np.isnan(slack) & np.isfinite(w)), (kind, cell)
        verdicts[kind] = status
    assert np.all(verdicts["constant"] == _BOUNDARY), cell
    assert np.all(verdicts["member"] != _OUTSIDE), cell
    assert np.all(verdicts["curve"] == _BOUNDARY), cell


@given(_cells())
def test_bulk(cell):
    _check_cell(cell)


@given(_cells(b_mod=_exp10(-300.0, -4.0)))
def test_tiny_b(cell):
    _check_cell(cell)


@given(_cells(z0_mod=_exp10(-16.0, math.log10(0.05))))
def test_tiny_z0(cell):
    _check_cell(cell)


@given(_cells(z0_mod=_one_less(-math.log10(0.05), 12.0)))
def test_z0_near_the_circle(cell):
    _check_cell(cell)


# |lambda| within UNIT_TOL = 1e-12 of 1 is the singleton, with no curve: the stratum stops at 1 - 1e-11
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the slack is not scaled to the zeta-disk, so its error grows like "
                          "1/(1 - |lambda|) and exact boundary values leave Boundary")
@settings(report_multiple_bugs=False)
@given(_cells(lam_mod=_one_less(0.0, 11.0)))
def test_lambda_near_the_circle(cell):
    _check_cell(cell)


@st.composite
def _subnormal_products(draw):
    """(|B|, |z0|) with |B z0| below the normal range, |B| >= 5e-324 and |z0| >= 1e-17."""
    p = draw(st.floats(308.0, 323.0))  # -log10 |B z0|
    k = draw(st.floats(0.1, 17.0))  # -log10 |z0|
    return 10.0**(k - p), 10.0**-k


@given(_subnormal_products().flatmap(lambda bz: _cells(b_mod=st.just(bz[0]), z0_mod=st.just(bz[1]))))
def test_subnormal_b_times_z0(cell):
    _check_cell(cell)
