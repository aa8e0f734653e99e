import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from varregion import (
    EvalPoint,
    JanowskiParams,
    Verdict,
    boundary_point,
    inner_eval,
    janowski_disk,
    omega_eval,
    special_curvature,
)
from varregion.region import VERDICTS, classify, log_fprime
from varregion.sampler import (
    _BLOCK_HAS_ZEROS,
    _BLOCK_MASK,
    BLOCK_ROWS,
    InnerBatch,
    constant_inners,
    sample_members,
)
from varregion.verify import DEFAULT_PARAM_SETS

P05 = JanowskiParams(0.0, 0.5)
CURV_099 = 0.3422368376900104  # (1 - 0.5*0.9801)/(1 + 0.5*0.9801)

BOUNDARY_GRID = np.exp(1j * np.linspace(-np.pi, np.pi, 4096, endpoint=False))
OUTSIDE = VERDICTS.index(Verdict.OUTSIDE)


def _row(lead, zeros):
    """One unpadded row: lead * prod_j (z - zeros[j])/(1 - conj(zeros[j]) z)."""
    return InnerBatch(np.asarray(complex(lead)), np.array(zeros, complex), np.ones(len(zeros), bool))


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


def _reference_sample_members(seed, n, start=0):
    """sample_members as first written: every zero and unit rotation formed, then the unused ones dropped."""
    mask = np.arange(3)[:, None] < np.arange(BLOCK_ROWS) % 4
    first = start // BLOCK_ROWS
    parts = []
    for b in range(first, max(first + 1, -(-(start + n) // BLOCK_ROWS))):
        rng = np.random.default_rng((int(seed), b))
        scale = rng.uniform(0.0, 1.0, BLOCK_ROWS)
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi, BLOCK_ROWS))
        zeros = rng.uniform(0.0, 0.9, (3, BLOCK_ROWS)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (3, BLOCK_ROWS)))
        lead = np.where(mask.any(axis=0), scale * (turn / np.abs(turn)), scale * turn)
        parts.append((lead, np.where(mask, zeros, 0.0), mask))
    offset = start - first * BLOCK_ROWS
    return InnerBatch(*(np.concatenate(p, axis=-1) for p in zip(*parts)))[offset:offset + n]


@pytest.mark.parametrize("start,n", [(0, 1), (0, BLOCK_ROWS), (1020, 10), (5, 3000),
                                     # cuts at both ends of a block, and across a 4-block chunk
                                     (1000, 50), (2047, 2), (100, 4103), (0, 3 * BLOCK_ROWS + 1)])
def test_members_are_the_reference_draws_bit_for_bit(start, n):
    for seed in range(50):
        got, ref = sample_members(seed, n, start), _reference_sample_members(seed, n, start)
        for field in ("lead", "zeros", "mask"):
            a, b = getattr(got, field), getattr(ref, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (seed, field)


def test_block_mask_is_read_only():
    assert not _BLOCK_MASK.flags.writeable and not _BLOCK_HAS_ZEROS.flags.writeable
    batch = sample_members(0, 8)
    batch.mask[0, 0] = True  # a returned batch is the caller's own
    assert not _BLOCK_MASK[0, 0]


@pytest.mark.parametrize("lam", [0.5, 0.3 - 0.6j])
def test_batch_agrees_with_one_row_views(lam):
    probes = constant_inners(np.exp(1j * np.linspace(-np.pi, np.pi, 8, endpoint=False)))
    for batch in (sample_members(11, 48), probes):
        for params in DEFAULT_PARAM_SETS:
            for z0 in (0.5, 0.3 + 0.4j):
                point = EvalPoint(z0, lam)
                w = log_fprime(omega_eval(batch, lam, z0), params)
                slack, status = classify(w, point, params)
                assert batch is not probes or set(status.tolist()) == {1}  # all Boundary
                for i in range(w.size):
                    for inner in (batch[i], _row(batch.lead[i], batch.zeros[batch.mask[:, i], i])):
                        wi = log_fprime(omega_eval(inner, lam, z0), params)
                        assert abs(wi - w[i]) <= 1e-14
                        slack_i, status_i = classify(wi, point, params)
                        assert status_i == status[i]
                        assert abs(slack_i - slack[i]) <= 1e-14


def test_inner_validation():
    with pytest.raises(ValueError, match="c0"):
        constant_inners(1.5)
    with pytest.raises(ValueError, match="c0"):
        constant_inners([0.5, 0.0, 1.5j])
    assert abs(complex(constant_inners(1.0 + 1e-13).lead)) == 1.0  # roundoff above 1 is clipped


def test_constant_inners_rejects_nan():
    with pytest.raises(ValueError, match="c0"):
        constant_inners([float("nan")])


def test_inner_eval_examples():
    c = constant_inners(0.3 - 0.4j)
    assert inner_eval(c, 0.9j) == 0.3 - 0.4j
    alpha = 0.4 + 0.2j
    b = _row(1.0, [alpha])
    assert abs(inner_eval(b, alpha)) == 0.0
    mod = np.abs(inner_eval(b, BOUNDARY_GRID))
    assert float(np.max(np.abs(mod - 1.0))) < 1e-12
    m = _row(0.5j, [0.0, 0.0])  # 0.5i z^2
    assert inner_eval(m, 0.5) == pytest.approx(0.125j, abs=1e-16)
    assert inner_eval(_row(0.7, []), 0.0) == 0.7


def test_inner_boundedness_on_boundary_grid():
    for seed in range(12):
        sup = float(np.max(np.abs(inner_eval(sample_members(seed, 64), BOUNDARY_GRID[:, None]))))
        assert sup <= 1.0 + 1e-12


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_inner_boundedness_property(seed, start):
    batch = sample_members(seed, 4, start)  # four consecutive rows: every zero count
    grid = np.exp(1j * np.linspace(-np.pi, np.pi, 64, endpoint=False))
    assert float(np.max(np.abs(inner_eval(batch, grid[:, None])))) <= 1.0 + 1e-12


@pytest.mark.parametrize("lambdas", [
    (0.0,),
    (0, 0),  # int
    (0.0, 0.3, -0.9, 0.5, -0.0),  # real
    (0.0, 0.3 + 0.4j, -0.5j, 0.2 - 0.7j, -0.99 + 0.01j),  # complex
])
def test_array_lambda_omega_equals_stacked_scalar_calls(lambdas):
    inner = sample_members(3, 64)
    rng = np.random.default_rng(8)
    z = 0.97 * np.sqrt(rng.uniform(0, 1, 33)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 33))
    for lam, points in (
        (np.array(lambdas)[:, None, None], z[:, None]),  # (lambda, point, member)
        (np.array(lambdas)[:, None], 0.3 - 0.45j),  # (lambda, member) at one scalar point
    ):
        stacked = np.stack([omega_eval(inner, one, points) for one in lambdas])
        batched = omega_eval(inner, lam, points)
        assert batched.shape == stacked.shape and batched.tobytes() == stacked.tobytes()
        # an int or float lambda array gives the bits of its complex cast
        assert batched.tobytes() == omega_eval(inner, lam.astype(complex), points).tobytes()


@pytest.mark.parametrize("bad", [1.0, -1.0, 0.6 + 0.8j, 1j, 1.5, np.nan, complex(0.2, np.nan), np.inf])
def test_array_lambda_rejects_any_entry_off_the_open_disk(bad):
    with pytest.raises(ValueError, match=r"\|lambda\| < 1") as scalar:
        omega_eval(constant_inners(0.5), bad, 0.5)
    lam = np.array([0.0, 0.3, bad, 0.5j])
    for shaped in (lam, lam[:, None, None]):
        with pytest.raises(ValueError, match=r"\|lambda\| < 1") as entry:
            omega_eval(constant_inners(0.5), shaped, 0.5)
        assert str(entry.value) == str(scalar.value)  # one check, one message


def test_omega_basic():
    assert np.all(omega_eval(sample_members(3, 8), 0.4 + 0.1j, 0.0) == 0.0)
    # psi == 1 with lambda = 0 realizes the Schwarz function z^2
    z = np.array([0.3, -0.5j, 0.4 + 0.4j])
    np.testing.assert_allclose(omega_eval(constant_inners(1.0), 0.0, z), z**2, atol=1e-16)


def test_omega_derivative_is_lambda():
    h = 1e-6
    for seed, lam in [(0, 0.5), (1, 0.3 - 0.6j), (2, 0.0)]:
        inner = sample_members(seed, 8)
        fd = (omega_eval(inner, lam, h) - omega_eval(inner, lam, -h)) / (2 * h)
        assert float(np.max(np.abs(fd - lam))) < 1e-6


def test_omega_stays_in_disk():
    rng = np.random.default_rng(1)
    z = 0.98 * np.sqrt(rng.uniform(0, 1, 512)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 512))
    assert float(np.max(np.abs(omega_eval(sample_members(0, 64), 0.6, z[:, None])))) < 1.0


def test_member_normalization():
    assert np.all(log_fprime(omega_eval(sample_members(5, 8), 0.2, 0.0), P05) == 0.0)


def test_member_constant_unimodular_hits_boundary_curve():
    point = EvalPoint(0.3 + 0.4j, 0.5)
    th = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    inner = constant_inners(np.exp(1j * th))
    for params in DEFAULT_PARAM_SETS:
        got = log_fprime(omega_eval(inner, 0.5, point.z0), params)
        want = boundary_point(th, point, params)
        assert float(np.max(np.abs(got - want))) < 1e-14


def test_members_never_outside():
    point = EvalPoint(0.5, 0.5)
    _, status = classify(log_fprime(omega_eval(sample_members(0, 2000), 0.5, 0.5), P05), point, P05)
    assert not np.any(status == OUTSIDE)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-16.0, 0.0), st.booleans(), st.floats(0.0, 1.0),
    st.floats(0.0, 0.9), st.floats(-np.pi, np.pi),
    st.floats(-15.0, np.log10(0.95)), st.floats(-np.pi, np.pi),
    st.integers(0, 10**6),
)
def test_member_slack_matches_exact_oracle(u, negative, t, lam_mod, lam_arg, z_exp, z_arg, seed):
    # omega(z0)/z0 = delta(z0 psi(z0), lambda), so the pullback of a member's value
    # is |z0| |psi(z0)| and its exact slack is |z0| (|psi(z0)| - 1); |B| reaches 1e-16
    # and |z0| 1e-15, where 1 + B omega rounds away the member's value
    B = -(10.0**u) if negative else 10.0**u
    z_mod = 10.0**z_exp
    assume(B > -1.0)
    A = -1.0 + t * (B + 1.0)
    assume(A < B)
    params = JanowskiParams(A, B)
    point = EvalPoint(z_mod * np.exp(1j * z_arg), lam_mod * np.exp(1j * lam_arg))
    constants = constant_inners(np.exp(1j * np.linspace(-np.pi, np.pi, 16, endpoint=False)))
    for batch, on_boundary in ((sample_members(seed, 64), False), (constants, True)):
        w = log_fprime(omega_eval(batch, point.lam, point.z0), params)
        slack, status = classify(w, point, params)
        oracle = abs(point.z0) * (np.abs(inner_eval(batch, point.z0)) - 1.0)
        assert float(np.max(np.abs(slack - oracle))) <= 1e-10
        assert not np.any(status == OUTSIDE)
        assert not on_boundary or np.all(status == VERDICTS.index(Verdict.BOUNDARY))


def test_member_subordination_pullback():
    # |((f')^(B/(A-B)) - 1)/B| < 1: the defining subordination
    rng = np.random.default_rng(8)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
    inner = sample_members(0, 40)
    count = 0
    for params in DEFAULT_PARAM_SETS:
        w = log_fprime(omega_eval(inner, 0.45, z[:, None]), params)
        omega = (np.exp(w / ((params.A - params.B) / params.B)) - 1.0) / params.B
        assert float(np.max(np.abs(omega))) < 1.0
        count += w.size
    assert count >= 10_000


def test_member_second_coefficient():
    h = 1e-4
    for i, lam in enumerate((0.5, 0.3 - 0.2j, 0.0, 0.8)):
        for params in (P05, JanowskiParams(-0.9, -0.1)):
            inner = sample_members(i, 8)
            fprime = lambda z: np.exp(log_fprime(omega_eval(inner, lam, z), params))
            second = (fprime(h) - fprime(-h)) / (2 * h)
            assert float(np.max(np.abs(second - lam * (params.A - params.B)))) < 1e-5


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
        assert abs(kappa - disk.center) - disk.radius > 0.0
        assert abs(special_curvature(params, 0.0) - disk.center) - disk.radius < 0.0


def test_halfplane_bound_for_members():
    rng = np.random.default_rng(4)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
    inner = sample_members(0, 30)
    for B in (0.25, 0.5, 1.0):
        fprime = np.exp(log_fprime(omega_eval(inner, 0.4, z[:, None]), JanowskiParams(0.0, B)))
        assert float(np.min(fprime.real)) > 0.5
