import numpy as np
import pytest
from hypothesis import given, strategies as st

from varregion import (
    BlaschkeInner,
    ConstantInner,
    ConstrainedSchwarz,
    EvalPoint,
    JanowskiParams,
    MonomialInner,
    Verdict,
    boundary_point,
    contains,
    inner_eval,
    janowski_disk,
    member_log_fprime,
    omega_eval,
    sample_inner,
    special_curvature,
)
from varregion.region import VERDICTS, classify
from varregion.sampler import BLOCK_ROWS, constant_inners, sample_members
from varregion.verify import DEFAULT_PARAM_SETS

P05 = JanowskiParams(0.0, 0.5)
CURV_099 = 0.3422368376900104  # (1 - 0.5*0.9801)/(1 + 0.5*0.9801)

BOUNDARY_GRID = np.exp(1j * np.linspace(-np.pi, np.pi, 4096, endpoint=False))


def test_sample_inner_deterministic():
    assert sample_inner(42, 0) == sample_inner(42, 0)
    assert sample_inner(42, 3) == sample_inner(42, 3)
    assert sample_inner(42, 0) != sample_inner(43, 0)


def test_sample_inner_forms():
    psi = sample_inner(7, 0)
    assert isinstance(psi, ConstantInner) and abs(psi.c0) <= 1.0
    psi = sample_inner(7, 3)
    assert isinstance(psi, BlaschkeInner)
    assert len(psi.zeros) == 3
    assert all(abs(a) <= 0.9 for a in psi.zeros)
    assert 0.0 <= psi.scale <= 1.0
    with pytest.raises(ValueError):
        sample_inner(-1, 0)
    with pytest.raises(ValueError):
        sample_inner(0, -1)


def test_member_rows_depend_only_on_seed_and_row():
    whole = sample_members(5, 3 * BLOCK_ROWS)
    part = sample_members(5, 10, start=BLOCK_ROWS - 4)  # straddles a block edge
    rows = slice(BLOCK_ROWS - 4, BLOCK_ROWS + 6)
    assert np.array_equal(part.lead, whole.lead[rows])
    assert np.array_equal(part.zeros, whole.zeros[:, rows])
    assert np.array_equal(part.mask, whole.mask[:, rows])
    assert np.array_equal(whole.mask.sum(axis=0), np.arange(3 * BLOCK_ROWS) % 4)
    assert float(np.max(np.abs(whole.lead))) < 1.0
    assert float(np.max(np.abs(whole.zeros))) <= 0.9
    assert not np.array_equal(sample_members(6, 8).lead, whole.lead[:8])
    with pytest.raises(ValueError, match="seed >= 0"):
        sample_members(-1, 8)
    with pytest.raises(ValueError, match="n >= 0"):
        sample_members(5, -1)


def _scalar_inner(batch, i):
    """Row i of a batch rebuilt as a scalar inner-function object."""
    zeros = tuple(batch.zeros[batch.mask[:, i], i])
    lead = complex(batch.lead[i])
    if not zeros:
        return ConstantInner(lead)
    return BlaschkeInner(zeros, rotation=lead / abs(lead), scale=abs(lead))


@pytest.mark.parametrize("lam", [0.5, 0.3 - 0.6j])
def test_batch_agrees_with_one_row_views(lam):
    probes = constant_inners(np.exp(1j * np.linspace(-np.pi, np.pi, 8, endpoint=False)))
    for batch in (sample_members(11, 48), probes):
        s = ConstrainedSchwarz(batch, lam)
        for params in DEFAULT_PARAM_SETS:
            for z0 in (0.5, 0.3 + 0.4j):
                point = EvalPoint(z0, lam)
                w = member_log_fprime(s, params, z0)
                slack, status = classify(w, point, params)
                assert batch is not probes or set(status.tolist()) == {1}  # all Boundary
                for i in range(w.size):
                    for inner in (batch[i], _scalar_inner(batch, i)):
                        wi = member_log_fprime(ConstrainedSchwarz(inner, lam), params, z0)
                        assert abs(wi - w[i]) <= 1e-14
                        v = contains(wi, point, params)
                        assert v.status is VERDICTS[status[i]]
                        assert abs(v.slack - slack[i]) <= 1e-14


def test_inner_validation():
    with pytest.raises(ValueError):
        ConstantInner(1.5)
    with pytest.raises(ValueError):
        MonomialInner(-1)
    with pytest.raises(ValueError):
        MonomialInner(2, coefficient=2.0)
    with pytest.raises(ValueError):
        BlaschkeInner(zeros=(1.0,))
    with pytest.raises(ValueError):
        BlaschkeInner(zeros=(0.5,), scale=1.5)
    with pytest.raises(ValueError, match="rotation"):
        BlaschkeInner(zeros=(0.5,), rotation=0.5)


def test_inner_eval_examples():
    c = ConstantInner(0.3 - 0.4j)
    assert inner_eval(c, 0.9j) == 0.3 - 0.4j
    alpha = 0.4 + 0.2j
    b = BlaschkeInner(zeros=(alpha,))
    assert abs(inner_eval(b, alpha)) == 0.0
    mod = np.abs(inner_eval(b, BOUNDARY_GRID))
    assert float(np.max(np.abs(mod - 1.0))) < 1e-12
    m = MonomialInner(2, coefficient=0.5j)
    assert inner_eval(m, 0.5) == pytest.approx(0.125j, abs=1e-16)
    assert inner_eval(MonomialInner(0, coefficient=0.7), 0.0) == 0.7
    with pytest.raises(TypeError):
        inner_eval(object(), 0.0)


def test_inner_boundedness_on_boundary_grid():
    for seed in range(12):
        for complexity in range(4):
            psi = sample_inner(seed, complexity)
            sup = float(np.max(np.abs(inner_eval(psi, BOUNDARY_GRID))))
            assert sup <= 1.0 + 1e-12


@given(st.integers(0, 10**6), st.integers(0, 4))
def test_inner_boundedness_property(seed, complexity):
    psi = sample_inner(seed, complexity)
    grid = np.exp(1j * np.linspace(-np.pi, np.pi, 64, endpoint=False))
    assert float(np.max(np.abs(inner_eval(psi, grid)))) <= 1.0 + 1e-12


def test_constrained_schwarz_validation():
    with pytest.raises(ValueError, match=r"\|lambda\| < 1"):
        ConstrainedSchwarz(ConstantInner(0.5), 1.0)


def test_omega_basic():
    s = ConstrainedSchwarz(sample_inner(3, 2), 0.4 + 0.1j)
    assert omega_eval(s, 0.0) == 0.0
    # psi == 1 with lambda = 0 realizes the Schwarz function z^2
    s = ConstrainedSchwarz(ConstantInner(1.0), 0.0)
    z = np.array([0.3, -0.5j, 0.4 + 0.4j])
    np.testing.assert_allclose(omega_eval(s, z), z**2, atol=1e-16)


def test_omega_derivative_is_lambda():
    h = 1e-6
    for seed, lam in [(0, 0.5), (1, 0.3 - 0.6j), (2, 0.0)]:
        s = ConstrainedSchwarz(sample_inner(seed, seed % 4), lam)
        fd = (omega_eval(s, h) - omega_eval(s, -h)) / (2 * h)
        assert abs(fd - lam) < 1e-6


def test_omega_stays_in_disk():
    rng = np.random.default_rng(1)
    z = 0.98 * np.sqrt(rng.uniform(0, 1, 512)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 512))
    for seed in range(8):
        s = ConstrainedSchwarz(sample_inner(seed, seed % 4), 0.6)
        assert float(np.max(np.abs(omega_eval(s, z)))) < 1.0


def test_member_normalization():
    s = ConstrainedSchwarz(sample_inner(5, 1), 0.2)
    assert member_log_fprime(s, P05, 0.0) == 0.0


def test_member_constant_unimodular_hits_boundary_curve():
    point = EvalPoint(0.3 + 0.4j, 0.5)
    for params in DEFAULT_PARAM_SETS:
        for th in np.linspace(-np.pi, np.pi, 16, endpoint=False):
            s = ConstrainedSchwarz(ConstantInner(np.exp(1j * th)), 0.5)
            got = member_log_fprime(s, params, point.z0)
            want = boundary_point(th, point, params)
            assert abs(got - want) < 1e-14


def test_members_never_outside():
    point = EvalPoint(0.5, 0.5)
    for i in range(2000):
        s = ConstrainedSchwarz(sample_inner(i, i % 4), 0.5)
        w = complex(member_log_fprime(s, P05, 0.5))
        assert contains(w, point, P05).status is not Verdict.OUTSIDE


def test_member_subordination_pullback():
    # |((f')^(B/(A-B)) - 1)/B| < 1: the defining subordination
    rng = np.random.default_rng(8)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
    count = 0
    for params in DEFAULT_PARAM_SETS:
        for i in range(40):
            s = ConstrainedSchwarz(sample_inner(i, i % 4), 0.45)
            w = member_log_fprime(s, params, z)
            omega = (np.exp(w / params.exponent) - 1.0) / params.B
            assert float(np.max(np.abs(omega))) < 1.0
            count += z.size
    assert count >= 10_000


def test_member_second_coefficient():
    h = 1e-4
    for i, lam in enumerate((0.5, 0.3 - 0.2j, 0.0, 0.8)):
        for params in (P05, JanowskiParams(-0.9, -0.1)):
            s = ConstrainedSchwarz(sample_inner(i, i % 4), lam)
            fprime = lambda z: np.exp(member_log_fprime(s, params, z))
            second = (fprime(h) - fprime(-h)) / (2 * h)
            assert abs(second - lam * (params.A - params.B)) < 1e-5


def test_special_curvature_values():
    assert special_curvature(P05, 0.0) == 1.0
    assert special_curvature(P05, 0.99) == pytest.approx(CURV_099, abs=1e-15)


def test_special_curvature_limit_identity():
    for params in DEFAULT_PARAM_SETS:
        limit = (1.0 + 2.0 * params.A - params.B) / (1.0 + params.B)
        left_endpoint = (1.0 + params.A) / (1.0 + params.B)
        assert limit < left_endpoint
        assert special_curvature(params, 0.9999) == pytest.approx(limit, abs=1e-3)


def test_curvature_witness_exits_janowski_disk():
    for params in DEFAULT_PARAM_SETS:
        if params.B >= 1.0:
            continue
        disk = janowski_disk(params)
        kappa = special_curvature(params, 0.99)
        assert disk.signed_distance(kappa) > 0.0
        assert disk.signed_distance(special_curvature(params, 0.0)) < 0.0


def test_halfplane_bound_for_members():
    rng = np.random.default_rng(4)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
    for B in (0.25, 0.5, 1.0):
        params = JanowskiParams(0.0, B)
        for i in range(30):
            s = ConstrainedSchwarz(sample_inner(i, i % 4), 0.4)
            fprime = np.exp(member_log_fprime(s, params, z))
            assert float(np.min(fprime.real)) > 0.5
