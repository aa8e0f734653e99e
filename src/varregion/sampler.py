"""Exact class members via bounded analytic self-maps of the disk.

Every member of the lambda-constrained class arises as
f'(z) = (1 + B z delta(z w(z), lambda))^((A-B)/B) for some analytic w with
sup |w| <= 1.  The samplers here emit only inner-function forms whose bound
is exact by construction (constants, rotated monomials, scaled finite
Blaschke products), so containment checks never fail from a sloppy sup-norm
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .region import JanowskiParams, mobius_delta

__all__ = [
    "ConstantInner",
    "MonomialInner",
    "BlaschkeInner",
    "InnerFunction",
    "InnerBatch",
    "BLOCK_ROWS",
    "ConstrainedSchwarz",
    "sample_inner",
    "sample_members",
    "constant_inners",
    "inner_eval",
    "omega_eval",
    "member_log_fprime",
    "special_curvature",
]

BLOCK_ROWS = 1024  # member rows drawn from one Generator by sample_members


def _unit_normalized(w, what: str):
    m = np.abs(w)
    if np.any(np.abs(m - 1.0) > 1e-12):
        raise ValueError(f"require |{what}| = 1, got {m}")
    return w / m


def _clipped_to_disk(c, what: str):
    """c with |c| <= 1; moduli within 1e-12 above 1 are scaled back onto the circle."""
    m = np.abs(c)
    if np.any(m > 1.0 + 1e-12):
        raise ValueError(f"require |{what}| <= 1, got {np.max(m)}")
    return np.where(m > 1.0, c / np.maximum(m, 1.0), c)


@dataclass(frozen=True)
class ConstantInner:
    """psi(z) = c0 with |c0| <= 1."""

    c0: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", complex(_clipped_to_disk(complex(self.c0), "c0")))


@dataclass(frozen=True)
class MonomialInner:
    """psi(z) = coefficient * z^degree with |coefficient| <= 1, degree >= 0."""

    degree: int
    coefficient: complex = 1.0

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("require degree >= 0")
        c = _clipped_to_disk(complex(self.coefficient), "coefficient")
        object.__setattr__(self, "coefficient", complex(c))


@dataclass(frozen=True)
class BlaschkeInner:
    """psi(z) = scale * rotation * prod_j (z - alpha_j)/(1 - conj(alpha_j) z)."""

    zeros: tuple[complex, ...]
    rotation: complex = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        zeros = tuple(complex(a) for a in self.zeros)
        if any(abs(a) >= 1.0 for a in zeros):
            raise ValueError("require all Blaschke zeros inside the open disk")
        if not 0.0 <= self.scale <= 1.0:
            raise ValueError(f"require scale in [0, 1], got {self.scale}")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "rotation", complex(_unit_normalized(complex(self.rotation), "rotation")))
        object.__setattr__(self, "scale", float(self.scale))


InnerFunction = Union[ConstantInner, MonomialInner, BlaschkeInner]


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


def _as_batch(psi) -> InnerBatch:
    if isinstance(psi, InnerBatch):
        return psi
    if isinstance(psi, ConstantInner):
        lead, zeros = psi.c0, ()
    elif isinstance(psi, MonomialInner):
        lead, zeros = psi.coefficient, (0j,) * psi.degree  # z^degree: every zero at the origin
    elif isinstance(psi, BlaschkeInner):
        lead, zeros = psi.scale * psi.rotation, psi.zeros
    else:
        raise TypeError(f"not an inner function: {psi!r}")
    return InnerBatch(np.asarray(lead), np.array(zeros, complex), np.ones(len(zeros), bool))


def inner_eval(psi: InnerFunction | InnerBatch, z):
    """Evaluate an inner function, or a batch of them, at scalar or ndarray z with |z| <= 1.

    A batch broadcasts its row shape against z.
    """
    b = _as_batch(psi)
    out = b.lead + 0.0 * z
    for alpha, active in zip(b.zeros, b.mask):
        out = np.where(active, out * (z - alpha) / (1.0 - np.conjugate(alpha) * z), out)
    return out


def _draw(rng: np.random.Generator, complexity: np.ndarray, zero_radius: float):
    """(scale, turn, zeros, mask) for one row per entry of complexity.

    Zeros are padded to at least 3 per row, the most that complexity i % 4 uses.
    """
    n = complexity.size
    k = max(3, int(complexity.max()))
    scale = rng.uniform(0.0, 1.0, n)
    turn = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    zeros = rng.uniform(0.0, zero_radius, (k, n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (k, n)))
    mask = np.arange(k)[:, None] < complexity
    return scale, turn, np.where(mask, zeros, 0.0), mask


def sample_inner(seed: int, complexity: int, zero_radius: float = 0.9) -> InnerFunction:
    """Draw a reproducible inner function.

    complexity 0 gives a constant; complexity k >= 1 gives a Blaschke product
    with k zeros of modulus <= zero_radius, uniform scale in [0, 1] and a
    uniform rotation.  Identical (seed, complexity) always reproduce the same
    sampled parameters.
    """
    if seed < 0:
        raise ValueError("require seed >= 0")
    if complexity < 0:
        raise ValueError("require complexity >= 0")
    rng = np.random.default_rng((int(seed), int(complexity)))
    scale, turn, zeros, _ = _draw(rng, np.array([complexity]), zero_radius)
    if complexity == 0:
        return ConstantInner(scale[0] * turn[0])
    return BlaschkeInner(zeros=tuple(zeros[:complexity, 0]), rotation=turn[0], scale=scale[0])


def sample_members(seed: int, n: int, start: int = 0) -> InnerBatch:
    """Rows start..start+n-1 of the member stream of seed.

    Row i has complexity i % 4 and the distribution of sample_inner.  Rows are
    drawn in whole blocks of BLOCK_ROWS, block b from default_rng((seed, b)),
    so row i depends only on (seed, i).
    """
    if seed < 0:
        raise ValueError(f"require seed >= 0, got {seed}")
    if n < 0 or start < 0:
        raise ValueError(f"require n >= 0 and start >= 0, got n={n}, start={start}")
    first = start // BLOCK_ROWS
    parts = []
    for b in range(first, max(first + 1, -(-(start + n) // BLOCK_ROWS))):
        rows = np.arange(b * BLOCK_ROWS, (b + 1) * BLOCK_ROWS)
        scale, turn, zeros, mask = _draw(np.random.default_rng((int(seed), b)), rows % 4, 0.9)
        lead = np.where(mask.any(axis=0), scale * _unit_normalized(turn, "rotation"), scale * turn)
        parts.append((lead, zeros, mask))
    offset = start - first * BLOCK_ROWS
    return InnerBatch(*(np.concatenate(p, axis=-1) for p in zip(*parts)))[offset:offset + n]


@dataclass(frozen=True)
class ConstrainedSchwarz:
    """omega(z) = z delta(z psi(z), lambda): the Schwarz function of one member.

    omega(0) = 0, omega'(0) = lambda and |omega| < 1 on the open disk, all by
    construction.
    """

    inner: InnerFunction | InnerBatch
    lam: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", complex(self.lam))
        if abs(self.lam) >= 1.0:
            raise ValueError(f"require |lambda| < 1, got |lambda| = {abs(self.lam)}")


def omega_eval(s: ConstrainedSchwarz, z):
    """omega(z) for scalar or ndarray z with |z| < 1; a batch of inners broadcasts against z."""
    return z * mobius_delta(z * inner_eval(s.inner, z), s.lam)


def member_log_fprime(s: ConstrainedSchwarz, params: JanowskiParams, z):
    """log f'(z) = ((A-B)/B) Log(1 + B omega(z)) for the member induced by s."""
    return params.exponent * np.log(1.0 + params.B * omega_eval(s, z))


def special_curvature(params: JanowskiParams, z):
    """1 + z f''/f' for the member with Schwarz function z^2.

    Equals (1 + (2A - B) z^2)/(1 + B z^2); for real z near 1 this exits the
    curvature disk of the convex Janowski subclass whenever B < 1, witnessing
    that the containing class is strictly larger.
    """
    z2 = z * z
    return (1.0 + (2.0 * params.A - params.B) * z2) / (1.0 + params.B * z2)
