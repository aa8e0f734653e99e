"""Exact class members via bounded analytic self-maps of the disk.

Every member of the lambda-constrained class arises as
f'(z) = (1 + B z delta(z w(z), lambda))^((A-B)/B) for some analytic w with
sup |w| <= 1.  The samplers here emit only inner functions whose bound is
exact by construction (constants and scaled finite Blaschke products), held
in one representation, InnerBatch, so containment checks never fail from a
sloppy sup-norm estimate.
"""

from __future__ import annotations

import numpy as np

from .region import JanowskiParams, _FrozenRecord, mobius_delta

__all__ = [
    "InnerBatch",
    "BLOCK_ROWS",
    "sample_members",
    "constant_inners",
    "inner_eval",
    "omega_eval",
    "special_curvature",
]

BLOCK_ROWS = 1024  # member rows drawn from one Generator by sample_members

# zero slot j of block row i is used when j < i % 4; read-only, as every block shares them
_BLOCK_MASK = np.arange(3)[:, None] < np.arange(BLOCK_ROWS) % 4
_BLOCK_HAS_ZEROS = _BLOCK_MASK.any(axis=0)
_BLOCK_MASK.flags.writeable = _BLOCK_HAS_ZEROS.flags.writeable = False


class InnerBatch(_FrozenRecord):
    """Inner functions as arrays: psi(z) = lead * prod_j (z - zeros[j])/(1 - conj(zeros[j]) z).

    The product runs over the j with mask[j]; zeros and mask carry the padded
    factors on a leading axis before the row shape of lead.  batch[i] is row i.
    """

    _fields = ("lead", "zeros", "mask")

    def __init__(self, lead: np.ndarray, zeros: np.ndarray, mask: np.ndarray) -> None:
        d = self.__dict__
        d["lead"], d["zeros"], d["mask"] = lead, zeros, mask

    def __getitem__(self, rows) -> "InnerBatch":
        return InnerBatch(self.lead[rows], self.zeros[:, rows], self.mask[:, rows])


def constant_inners(c) -> InnerBatch:
    """The constant inner functions c (|c| <= 1), one row per entry; roundoff above 1 is clipped."""
    c = np.asarray(c, dtype=complex)
    m = np.abs(c)
    if not np.all(m <= 1.0 + 1e-12):
        raise ValueError(f"require |c0| <= 1, got {np.max(m)}")
    lead = np.where(m > 1.0, c / np.maximum(m, 1.0), c)
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
    rotations and zeros are formed only for the kept rows, zeros only where
    they are used.
    """
    if seed < 0:
        raise ValueError(f"require seed >= 0, got {seed}")
    if n < 0 or start < 0:
        raise ValueError(f"require n >= 0 and start >= 0, got n={n}, start={start}")
    lead, zeros, mask = np.empty(n, complex), np.zeros((3, n), complex), np.empty((3, n), bool)
    for b in range(start // BLOCK_ROWS, -(-(start + n) // BLOCK_ROWS)):
        # block rows lo..hi-1 are the kept rows in cols
        lo, hi = max(start - b * BLOCK_ROWS, 0), min(start + n - b * BLOCK_ROWS, BLOCK_ROWS)
        cols = slice(b * BLOCK_ROWS + lo - start, b * BLOCK_ROWS + hi - start)
        rng = np.random.default_rng((int(seed), b))
        scale = rng.uniform(0.0, 1.0, BLOCK_ROWS)[lo:hi]
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi, BLOCK_ROWS)[lo:hi])
        moduli = rng.uniform(0.0, 0.9, (3, BLOCK_ROWS))[:, lo:hi]
        args = rng.uniform(-np.pi, np.pi, (3, BLOCK_ROWS))[:, lo:hi]
        np.divide(turn, np.abs(turn), out=turn, where=_BLOCK_HAS_ZEROS[lo:hi])
        np.multiply(scale, turn, out=lead[cols])
        mask[:, cols] = _BLOCK_MASK[:, lo:hi]
        block_zeros = zeros[:, cols]
        for r in (1, 2, 3):  # the rows with r zeros: every 4th, from block row r
            c = slice((r - lo) % 4, None, 4)
            np.multiply(moduli[:r, c], np.exp(1j * args[:r, c]), out=block_zeros[:r, c])
    return InnerBatch(lead, zeros, mask)


def omega_eval(inner: InnerBatch, lam, z):
    """omega(z) = z delta(z psi(z), lambda): the Schwarz function of each row psi of inner.

    omega(0) = 0, omega'(0) = lambda and |omega| < 1 on the open disk, all by
    construction.  z is a scalar or ndarray with |z| < 1.  lam is a scalar, or
    an ndarray that broadcasts against the rows of inner and z: one Schwarz
    function per entry, so one call evaluates inner once for every lambda.
    mobius_delta rejects any lambda off the open unit disk.
    """
    return z * mobius_delta(z * inner_eval(inner, z), lam)


def special_curvature(params: JanowskiParams, z):
    """1 + z f''/f' for the member with Schwarz function z^2.

    Equals (1 + (2A - B) z^2)/(1 + B z^2); for real z near 1 this exits the
    curvature disk of the convex Janowski subclass whenever B < 1, witnessing
    that the containing class is strictly larger.
    """
    z2 = z * z
    return (1.0 + (2.0 * params.A - params.B) * z2) / (1.0 + params.B * z2)
