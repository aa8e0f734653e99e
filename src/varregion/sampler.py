"""Exact class members via bounded analytic self-maps of the disk.

Every member of the lambda-constrained class arises as
f'(z) = (1 + B z delta(z w(z), lambda))^((A-B)/B) for some analytic w with
sup |w| <= 1.  The samplers here emit only inner functions whose bound is
exact by construction (constants and scaled finite Blaschke products), held
in one representation, InnerBatch, so containment checks never fail from a
sloppy sup-norm estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .region import JanowskiParams, _log1p, _require_lambda, mobius_delta

__all__ = [
    "InnerBatch",
    "BLOCK_ROWS",
    "ConstrainedSchwarz",
    "sample_members",
    "constant_inners",
    "inner_eval",
    "omega_eval",
    "log_fprime",
    "member_log_fprime",
    "special_curvature",
]

BLOCK_ROWS = 1024  # member rows drawn from one Generator by sample_members

# zero slot j of block row i is used when j < i % 4; read-only, as every block shares them
_BLOCK_MASK = np.arange(3)[:, None] < np.arange(BLOCK_ROWS) % 4
_BLOCK_HAS_ZEROS = _BLOCK_MASK.any(axis=0)
_BLOCK_MASK.flags.writeable = _BLOCK_HAS_ZEROS.flags.writeable = False


def _clipped_to_disk(c, what: str):
    """c with |c| <= 1; moduli within 1e-12 above 1 are scaled back onto the circle."""
    m = np.abs(c)
    if not np.all(m <= 1.0 + 1e-12):
        raise ValueError(f"require |{what}| <= 1, got {np.max(m)}")
    return np.where(m > 1.0, c / np.maximum(m, 1.0), c)


@dataclass(frozen=True)
class InnerBatch:
    """Inner functions as arrays: psi(z) = lead * prod_j (z - zeros[j])/(1 - conj(zeros[j]) z).

    The product runs over the j with mask[j]; zeros and mask carry the padded
    factors on a leading axis before the row shape of lead.  batch[i] is row i.
    """

    lead: np.ndarray
    zeros: np.ndarray
    mask: np.ndarray

    def __getitem__(self, rows) -> "InnerBatch":
        return InnerBatch(self.lead[rows], self.zeros[:, rows], self.mask[:, rows])


def constant_inners(c) -> InnerBatch:
    """The constant inner functions c (|c| <= 1), one row per entry."""
    lead = _clipped_to_disk(np.asarray(c, dtype=complex), "c0")
    return InnerBatch(lead, np.zeros((0,) + lead.shape, complex), np.zeros((0,) + lead.shape, bool))


def inner_eval(b: InnerBatch, z):
    """Evaluate a batch of inner functions at scalar or ndarray z with |z| <= 1.

    The batch broadcasts its row shape against z.
    """
    out = b.lead + 0.0 * z
    for alpha, active in zip(b.zeros, b.mask):
        out = np.where(active, out * (z - alpha) / (1.0 - np.conjugate(alpha) * z), out)
    return out


def sample_members(seed: int, n: int, start: int = 0) -> InnerBatch:
    """Rows start..start+n-1 of the member stream of seed.

    Row i is a Blaschke product with i % 4 zeros of modulus uniform in
    [0, 0.9) and uniform argument, times a uniform scale in [0, 1) and a
    uniform rotation; with no zeros it is the constant scale * rotation.
    Zeros are padded to 3 per row.  Rows are drawn in whole blocks of
    BLOCK_ROWS, block b from default_rng((seed, b)), so row i depends only on
    (seed, i).  Every block draws all 3 * BLOCK_ROWS zero moduli and
    arguments, used or not, so the stream does not depend on which are used;
    zeros are formed only where they are used.
    """
    if seed < 0:
        raise ValueError(f"require seed >= 0, got {seed}")
    if n < 0 or start < 0:
        raise ValueError(f"require n >= 0 and start >= 0, got n={n}, start={start}")
    first = start // BLOCK_ROWS
    parts = []
    for b in range(first, max(first + 1, -(-(start + n) // BLOCK_ROWS))):
        rng = np.random.default_rng((int(seed), b))
        scale = rng.uniform(0.0, 1.0, BLOCK_ROWS)
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi, BLOCK_ROWS))
        moduli = rng.uniform(0.0, 0.9, (3, BLOCK_ROWS))
        args = rng.uniform(-np.pi, np.pi, (3, BLOCK_ROWS))
        zeros = np.zeros((3, BLOCK_ROWS), complex)
        zeros[_BLOCK_MASK] = moduli[_BLOCK_MASK] * np.exp(1j * args[_BLOCK_MASK])
        turn[_BLOCK_HAS_ZEROS] /= np.abs(turn[_BLOCK_HAS_ZEROS])
        parts.append((scale * turn, zeros, _BLOCK_MASK))
    offset = start - first * BLOCK_ROWS
    return InnerBatch(*(np.concatenate(p, axis=-1) for p in zip(*parts)))[offset:offset + n]


@dataclass(frozen=True)
class ConstrainedSchwarz:
    """omega(z) = z delta(z psi(z), lambda): the Schwarz function of each row of inner.

    omega(0) = 0, omega'(0) = lambda and |omega| < 1 on the open disk, all by
    construction.  lam is a complex scalar, or an ndarray that broadcasts
    against the rows of inner and the z of omega_eval: one Schwarz function per
    entry, so one call evaluates inner once for every lambda.
    """

    inner: InnerBatch
    lam: complex | np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, complex) if isinstance(self.lam, np.ndarray) else complex(self.lam)
        object.__setattr__(self, "lam", lam)
        _require_lambda(self.lam)


def omega_eval(s: ConstrainedSchwarz, z):
    """omega(z) for scalar or ndarray z with |z| < 1; a batch of inners broadcasts against z."""
    return z * mobius_delta(z * inner_eval(s.inner, z), s.lam)


def log_fprime(omega, params: JanowskiParams):
    """((A-B)/B) Log(1 + B omega): log f' where the member's Schwarz function is omega."""
    return params.exponent * _log1p(params.B * omega)


def member_log_fprime(s: ConstrainedSchwarz, params: JanowskiParams, z):
    """log f'(z) = ((A-B)/B) Log(1 + B omega(z)) for the member induced by s."""
    return log_fprime(omega_eval(s, z), params)


def special_curvature(params: JanowskiParams, z):
    """1 + z f''/f' for the member with Schwarz function z^2.

    Equals (1 + (2A - B) z^2)/(1 + B z^2); for real z near 1 this exits the
    curvature disk of the convex Janowski subclass whenever B < 1, witnessing
    that the containing class is strictly larger.
    """
    z2 = z * z
    return (1.0 + (2.0 * params.A - params.B) * z2) / (1.0 + params.B * z2)
