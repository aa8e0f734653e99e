"""Closed-form machinery for the variability region of log f'(z0).

The function class studied here consists of analytic, locally univalent,
normalized maps of the unit disk whose log-derivative is subordinate to
(A/B - 1) log(1 + Bz) for real parameters -1 <= A < B <= 1, B != 0.  Once the
second Taylor coefficient is pinned to f''(0) = lambda (A - B), the attainable
values of log f'(z0) fill a closed convex region: the image of a closed disk
D(c, r) under w -> ((A - B)/B) Log w.

This module provides the disk automorphisms, the center/radius formulas, the
boundary parametrization, and an exact membership test via the Schwarz-Pick
pullback, all valid for any complex |lambda| < 1.

All powers and logarithms use the principal branch.  This is legitimate
throughout: every quantity passed to Log has the form 1 + B*z0*delta with
|B*z0*delta| <= |B||z0| < 1, hence positive real part.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

__all__ = [
    "JanowskiParams",
    "EvalPoint",
    "Disk",
    "BoundaryCurve",
    "Verdict",
    "mobius_delta",
    "mobius_delta_inv",
    "majorant_q",
    "variability_disk",
    "region_point",
    "boundary_point",
    "boundary_curve",
    "classify",
    "VERDICTS",
    "pullback_modulus",
    "janowski_disk",
    "singleton_value",
    "equivalent_disk_param",
]

UNIT_TOL = 1e-12  # |lambda| within UNIT_TOL of 1 counts as unimodular


class _Record:
    """Base of the record classes: == and repr from the fields named in _fields.

    == compares the field tuples of two records of one class, as a dataclass
    does, and a record is unhashable.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A record that hashes by its fields and refuses every assignment and deletion.

    Its __init__ stores the fields straight into self.__dict__, in field order.
    """

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class JanowskiParams(_FrozenRecord):
    """Real parameter pair with -1 <= A < B <= 1 and B != 0."""

    _fields = ("A", "B")

    def __init__(self, A: float, B: float) -> None:
        if not (-1.0 <= A < B <= 1.0):
            raise ValueError(f"require -1 <= A < B <= 1, got A={A!r}, B={B!r}")
        if B == 0.0:
            raise ValueError("require B != 0")
        d = self.__dict__
        d["A"], d["B"] = A, B

    @property
    def exponent(self) -> float:
        """(A - B)/B, the power applied to 1 + B*omega(z)."""
        return (self.A - self.B) / self.B


class EvalPoint(_FrozenRecord):
    """Evaluation data: disk point z0 plus the second-coefficient parameter."""

    _fields = ("z0", "lam")

    def __init__(self, z0: complex, lam: complex) -> None:
        z0, lam = complex(z0), complex(lam)
        if not abs(z0) < 1.0:
            raise ValueError(f"require |z0| < 1, got |z0| = {abs(z0)}")
        if not abs(lam) - 1.0 <= UNIT_TOL:
            raise ValueError(f"require |lambda| <= 1, got |lambda| = {abs(lam)}")
        d = self.__dict__
        d["z0"], d["lam"] = z0, lam


class Disk(_FrozenRecord):
    """Closed disk {w : |w - center| <= radius}; radius 0 encodes a singleton."""

    _fields = ("center", "radius")

    def __init__(self, center: complex, radius: float) -> None:
        center, radius = complex(center), float(radius)
        if not radius >= 0.0:
            raise ValueError(f"require radius >= 0, got {radius}")
        d = self.__dict__
        d["center"], d["radius"] = center, radius


class BoundaryCurve(_FrozenRecord):
    """Ordered samples (theta_k, log F'(z0)) of the region's Jordan boundary."""

    _fields = ("thetas", "values")

    def __init__(self, thetas: np.ndarray, values: np.ndarray) -> None:
        thetas = np.asarray(thetas, dtype=float)
        values = np.asarray(values, dtype=complex)
        if thetas.ndim != 1 or thetas.shape != values.shape:
            raise ValueError("thetas and values must be 1-d arrays of equal length")
        if thetas.size >= 2 and not np.all(np.diff(thetas) > 0.0):
            raise ValueError("thetas must be strictly increasing")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(values))):
            raise ValueError("curve samples must be finite")
        d = self.__dict__
        d["thetas"], d["values"] = thetas, values

    def __len__(self) -> int:
        return int(self.thetas.size)


class Verdict(enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


VERDICTS: tuple[Verdict, ...] = tuple(Verdict)  # the order of classify's status codes


def _require_lambda(lam) -> None:
    """Reject lam unless |lam| < 1, for every entry of an ndarray; NaN fails.

    Scalars take Python abs: this runs on every quadrature estimate, and a
    numpy reduction would cost far more than the arithmetic it guards.
    """
    m = np.max(np.abs(lam), initial=0.0) if isinstance(lam, np.ndarray) else abs(lam)
    if not m < 1.0:
        raise ValueError(f"require |lambda| < 1, got |lambda| = {m}")


def mobius_delta(z, lam):
    """Disk automorphism (z + lam) / (1 + conj(lam) z) for |lam| < 1.

    Maps the closed unit disk into itself and the unit circle onto itself.
    Accepts scalar or ndarray z (|z| <= 1); lam may be an ndarray that broadcasts against z.
    """
    _require_lambda(lam)
    return (z + lam) / (1.0 + np.conjugate(lam) * z)


def mobius_delta_inv(s, lam):
    """Functional inverse of :func:`mobius_delta`: (s - lam) / (1 - conj(lam) s).

    lam may be an ndarray that broadcasts against s.
    """
    _require_lambda(lam)
    den = 1.0 - np.conjugate(lam) * s
    if np.any(np.abs(den) == 0.0):
        raise ValueError("mobius_delta_inv: denominator 1 - conj(lambda) s vanished")
    return (s - lam) / den


def majorant_q(z, A: float, B: float):
    """The majorant (1 + Bz)^(A/B - 1), or exp(Az) in the degenerate B = 0 case.

    Principal branch; smooth on the open disk since Re(1 + Bz) > 0 there.
    Unlike the rest of the module, B = 0 is accepted here.
    """
    if not (-1.0 <= A < B <= 1.0):
        raise ValueError(f"require -1 <= A < B <= 1 (B = 0 allowed), got A={A}, B={B}")
    if B == 0.0:
        return np.exp(A * z)
    return np.exp((A / B - 1.0) * np.log(1.0 + B * z))


def _log1p(x):
    """Principal Log(1 + x) for a complex ndarray x with |x| < 1, from real parts.

    numpy's complex log rounds 1 + x first, which loses the low bits of a small
    x.  With x = a + ib, Im = atan2(b, 1 + a) and Re = log|1 + x| takes one of
    two forms, each evaluated only where it applies (a NaN entry gives NaN):
    (1/2) log1p(a (2 + a) + b^2) for a >= -1/2, and (1/2) log((1 + a)^2 + b^2)
    below, where 1 + a is exact and log1p's argument would cancel near -1.
    """
    x = np.asarray(x)
    a, b = x.real, x.imag
    one_a, b2 = 1.0 + a, b * b
    near = a >= -0.5
    out = np.empty(x.shape, complex)
    np.log1p(a * (2.0 + a) + b2, out=out.real, where=near)
    np.log(one_a * one_a + b2, out=out.real, where=~near)
    out.real *= 0.5
    np.arctan2(b, one_a, out=out.imag)
    return out


def _disk(z0, lam, B: float):
    """(center, radius) of the pre-log disk; z0 and lam may be broadcasting ndarrays.

    No domain checks: the caller guarantees |z0| < 1 and |lam| < 1.
    """
    # |lam|*|lam| equals lam*lam exactly for real lam; pow(|lam|, 2) may not.
    # Python abs on scalars: numpy's complex modulus can differ in the last bit.
    l2, m2 = abs(lam) * abs(lam), abs(z0) ** 2
    den = 1.0 - l2 * m2
    center = (1.0 - l2 * m2 + lam * B * (1.0 - m2) * z0) / den
    radius = abs(B) * (1.0 - l2) * m2 / den
    return center, radius


def variability_disk(point: EvalPoint, params: JanowskiParams) -> Disk:
    """Center and radius of the pre-log disk 1 + B z0 delta(z0 D, lambda).

    Valid for any complex |lambda| < 1.  At lambda = 0 this reduces exactly to
    Disk(1, |B| |z0|^2).
    """
    _require_lambda(point.lam)
    center, radius = _disk(point.z0, point.lam, params.B)
    return Disk(center=center, radius=radius)


def region_point(a, point: EvalPoint, params: JanowskiParams):
    """((A - B)/B) Log(c + a r) for |a| <= 1; the full region as a ranges over D."""
    if not np.all(np.abs(a) <= 1.0 + 1e-12):
        raise ValueError("require |a| <= 1")
    disk = variability_disk(point, params)
    return params.exponent * _log1p((disk.center - 1.0) + a * disk.radius)


def _boundary_values(k, z0, lam, params: JanowskiParams):
    """((A - B)/B) Log(1 + B z0 delta(k z0, lambda)) for unimodular k."""
    return params.exponent * _log1p(params.B * z0 * mobius_delta(k * z0, lam))


def boundary_point(theta, point: EvalPoint, params: JanowskiParams):
    """Boundary parametrization ((A - B)/B) Log(1 + B z0 delta(e^{i theta} z0, lambda))."""
    return _boundary_values(np.exp(1j * np.asarray(theta)), point.z0, point.lam, params)


def _theta_grid(n: int) -> np.ndarray:
    """theta_k = -pi + 2 pi k/n, k = 1..n: the angles of every n-point boundary curve."""
    return np.pi * (2.0 * np.arange(1, n + 1) / n - 1.0)


@functools.lru_cache(maxsize=1)
def _unit_circle_grid(n: int) -> np.ndarray:
    """Read-only unit-circle nodes e^{i(-pi + 2 pi k/n)}, k = 1..n.

    Argument reduction happens on the rational turn count, so the four
    cardinal directions come out exact (e.g. theta = pi gives exactly -1).
    The last grid is kept: every curve of a sweep call has the same n.
    """
    k = np.arange(1, n + 1)
    t = k / n - 0.5
    q = np.round(4.0 * t)
    u = 2.0 * np.pi * (t - q / 4.0)
    c, s = np.cos(u), np.sin(u)
    qm = q.astype(int) % 4
    re = np.choose(qm, [c, -s, -c, s])
    im = np.choose(qm, [s, c, -s, -c])
    grid = re + 1j * im
    grid.flags.writeable = False
    return grid


def boundary_curve(point: EvalPoint, params: JanowskiParams, n: int = 256) -> BoundaryCurve:
    """Sample the boundary on the uniform grid theta_k = -pi + 2 pi k/n, k = 1..n."""
    if n < 3:
        raise ValueError(f"require n >= 3 samples, got {n}")
    _require_disk(point)
    values = _boundary_values(_unit_circle_grid(n), point.z0, point.lam, params)
    return BoundaryCurve(thetas=_theta_grid(n), values=values)


def _require_disk(point: EvalPoint) -> None:
    """Reject the points where the region is not the log-image of a disk: z0 = 0, |lambda| >= 1."""
    if point.z0 == 0:
        raise ValueError("z0 = 0: the region degenerates to the singleton {0}")
    _require_lambda(point.lam)


def _pullback(w, z0, lam, params: JanowskiParams):
    """pullback_modulus with z0 and lam as ndarrays that broadcast against w; no domain checks."""
    zeta = np.expm1(np.asarray(w) / params.exponent) / (params.B * z0)
    return np.abs(mobius_delta_inv(zeta, lam))


def _classify(w, z0, lam, params: JanowskiParams, tol: float):
    """classify with z0 and lam as ndarrays that broadcast against w; no domain checks."""
    slack = _pullback(w, z0, lam, params) - abs(z0)
    status = np.where(np.abs(slack) <= tol, 1, np.where(slack < -tol, 0, 2))
    return slack, status


def pullback_modulus(w, point: EvalPoint, params: JanowskiParams):
    """|delta^{-1}(omega(z0)/z0, lambda)| for the Schwarz function implied by w.

    w is a claimed value of log f'(z0); the class constraint omega(0) = 0,
    omega'(0) = lambda bounds this modulus by |z0| exactly (Schwarz-Pick),
    with equality precisely on the boundary of the region.  Valid for any
    complex |lambda| < 1; for real lambda it reduces to the classical
    two-point Schwarz inequality.
    """
    _require_disk(point)
    return _pullback(w, point.z0, point.lam, params)


def classify(w, point: EvalPoint, params: JanowskiParams, tol: float = 1e-9):
    """Batch membership test: (slack, status) arrays over the claimed values w.

    slack = |pullback| - |z0|; status indexes VERDICTS: Boundary when
    |slack| <= tol (the region is closed), Interior below, Outside otherwise.
    """
    if not tol > 0.0:
        raise ValueError("require tol > 0")
    _require_disk(point)
    return _classify(w, point.z0, point.lam, params, tol)


def janowski_disk(params: JanowskiParams) -> Disk:
    """Curvature disk with diameter [(1+A)/(1+B), (1-A)/(1-B)], for B < 1.

    B = 1 turns the disk into the right half plane and is rejected here.
    """
    if params.B >= 1.0:
        raise ValueError("B = 1 gives a half plane, not a disk")
    den = 1.0 - params.B * params.B
    return Disk(
        center=(1.0 - params.A * params.B) / den,
        radius=(params.B - params.A) / den,
    )


def singleton_value(point: EvalPoint, params: JanowskiParams) -> complex | None:
    """The single attainable value of log f'(z0) when z0 = 0 or |lambda| = 1, else None.

    |lambda| = 1 (within UNIT_TOL) forces omega(z) = lambda z, so the class
    collapses to one function and the region to ((A - B)/B) Log(1 + B lambda z0).
    Everywhere else the region is the log-image of variability_disk.
    """
    if point.z0 == 0:
        return 0j
    if abs(abs(point.lam) - 1.0) <= UNIT_TOL:
        return complex(params.exponent * np.log(1.0 + params.B * point.lam * point.z0))
    return None


def _singleton_note(point: EvalPoint) -> str:
    """Why singleton_value is not None at point."""
    if point.z0 == 0:
        return "z0 = 0: the region is the singleton {0}"
    return "|lambda| = 1: the region is a singleton"


def equivalent_disk_param(k, point: EvalPoint, params: JanowskiParams):
    """Disk parameter a(k) with region_point(a(k)) = ((A-B)/B) Log(1 + B z0 delta(z0 k, lam)).

    a(k) = sign(B) (z0^2/|z0|^2) delta(k, lam conj(z0)); the unimodular prefactor
    matters for complex z0 and negative B.  A disk automorphism of k, so |a| <= 1
    whenever |k| <= 1, with equality on the unit circle.
    """
    _require_disk(point)
    z0 = point.z0
    u0 = (params.B / abs(params.B)) * z0 * z0 / (abs(z0) ** 2)
    return u0 * mobius_delta(k, point.lam * np.conjugate(z0))
