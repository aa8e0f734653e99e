"""Closed-form machinery for the variability region of log f'(z0).

The function class studied here consists of analytic, locally univalent,
normalized maps of the unit disk whose log-derivative is subordinate to
(A/B - 1) log(1 + Bz) for real parameters -1 <= A < B <= 1, B != 0.  Once the
second Taylor coefficient is pinned to f''(0) = lambda (A - B), the attainable
values of log f'(z0) fill a closed convex region: the image of a closed disk
D(c, r) under w -> ((A - B)/B) Log w.

This module provides the disk automorphisms, the center/radius formulas, the
boundary parametrization, and an exact membership test via the Schwarz-Pick
pullback, all valid for any complex |lambda| < 1.  They work with zeta =
omega(z0)/z0, omega the Schwarz function, whose disk Z is free of A and B, and
with one principal-branch map between omega and w = log f'(z0) (log_fprime,
inverted in _pullback) that forms neither (A - B)/B nor B z0.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

__all__ = [
    "JanowskiParams",
    "log_fprime",
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


class _FrozenRecord:
    """Base of the record classes: ==, repr and hash from the fields named in _fields.

    == compares the field tuples of two records of one class, as a dataclass
    does, and a record hashes by its field tuple.  A record refuses every
    assignment and deletion: its __init__ stores the fields straight into
    self.__dict__, in field order.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

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
    if np.any(den == 0.0):
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
    return np.exp(log_fprime(z, JanowskiParams(A, B)))


def _log1p(x):
    """Principal Log(1 + x) for a complex ndarray x with |x| < 1, from real parts.

    numpy's complex log rounds 1 + x first, which loses the low bits of a small
    x.  With x = a + ib, Im = atan2(b, 1 + a) and Re = log|1 + x| takes one of
    two forms, each evaluated only where it applies (a NaN entry gives NaN):
    (1/2) log1p(a (2 + a) + b^2) for a >= -1/2 or NaN, and (1/2) log((1 + a)^2 + b^2)
    below, where 1 + a is exact and log1p's argument would cancel near -1.
    """
    x = np.asarray(x)
    a, b = x.real.flatten(), x.imag.flatten()  # contiguous 1-d copies, which every pass below reads
    out = np.empty(x.shape, complex)
    flat = out.reshape(-1)
    one_a = 1.0 + a
    np.arctan2(b, one_a, out=flat.imag)
    b *= b
    t = a * (2.0 + a)
    t += b
    far = a < -0.5
    if far.any():  # rare: log1p never sees a far entry, whose argument may round to -1 or below
        np.log1p(t, out=t, where=~far)
        one_a = one_a[far]
        t[far] = np.log(one_a * one_a + b[far])
    else:
        np.log1p(t, out=t)
    np.multiply(t, 0.5, out=flat.real)
    return out


def _over_b(f, v, B: float, slope: float, scale: float = 1.0):
    """scale f(B v)/B, where f(0) = 0 and f'(0) = 1, with the series scale v (1 + slope B v) where |B v| < 1e-8."""
    x = B * np.asarray(v)
    num = np.asarray(f(x), complex, order="C")
    parts = num.reshape(-1).view(float)  # a real division: numpy's complex one multiplies by 1/B, which overflows
    parts /= B / scale  # never 0, and for scale = A - B at most 2^53 in size, as |A - B| >= ulp(B)/2
    small = _series_entries(x)
    if small.size:  # the series takes v itself: a zero or subnormal B v loses nothing
        np.put(num, small, scale * np.take(v, small) * (1.0 + slope * np.take(x, small)))
    return num


def _series_entries(x):
    """Flat indices of the entries with |x| < 1e-8, which needs |Re x| and |Im x| < 1e-8.

    The complex modulus, the costly part, is taken on those candidates alone.
    """
    small = np.abs(x.real) < 1e-8
    small &= np.abs(x.imag) < 1e-8
    small = np.flatnonzero(small)
    return small[np.abs(np.take(x, small)) < 1e-8] if small.size else small


def log_fprime(omega, params: JanowskiParams):
    """log f' = (A - B) omega L(B omega), L(x) = Log(1 + x)/x, where the Schwarz function takes the value omega."""
    return _over_b(_log1p, omega, params.B, -0.5, params.A - params.B)


def _disk(z0, lam):
    """(center, radius) of the zeta-disk Z; z0 and lam may be broadcasting ndarrays.

    No domain checks: the caller guarantees |z0| < 1 and |lam| < 1.
    """
    # |lam|*|lam| equals lam*lam exactly for real lam; pow(|lam|, 2) may not.
    # Python abs on scalars: numpy's complex modulus can differ in the last bit.
    l2, m = abs(lam) * abs(lam), abs(z0)
    den = 1.0 - l2 * (m * m)
    return lam * (1.0 - m * m) / den, m * (1.0 - l2) / den


def variability_disk(point: EvalPoint, params: JanowskiParams) -> Disk:
    """Center and radius of the pre-log disk 1 + B z0 Z, Z the zeta-disk of _disk.

    Valid for any complex |lambda| < 1.  At lambda = 0 this reduces exactly to
    Disk(1, |B| |z0|^2).
    """
    _require_lambda(point.lam)
    center, radius = _disk(point.z0, point.lam)
    return Disk(center=1.0 + params.B * point.z0 * center, radius=abs(params.B) * (abs(point.z0) * radius))


def region_point(a, point: EvalPoint, params: JanowskiParams):
    """((A - B)/B) Log(c + a r) for |a| <= 1; the full region as a ranges over D (a singleton at |lambda| = 1)."""
    if not np.all(np.abs(a) <= 1.0 + 1e-12):
        raise ValueError("require |a| <= 1")
    center, radius = _disk(point.z0, point.lam)  # c + a r = 1 + B omega, omega = z0 center + sign(B) |z0| radius a
    radius = max(radius, 0.0)  # EvalPoint lets |lambda| exceed 1 by UNIT_TOL, where 1 - |lambda|^2 < 0
    return log_fprime(point.z0 * center + math.copysign(abs(point.z0) * radius, params.B) * np.asarray(a), params)


def _boundary_values(k, z0, lam, params: JanowskiParams):
    """((A - B)/B) Log(1 + B omega) at omega = z0 delta(k z0, lambda), for unimodular k."""
    return log_fprime(z0 * mobius_delta(k * z0, lam), params)


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
    u = np.asarray(w) / (params.A - params.B)  # log_fprime's inverse: omega = u E(B u), E(y) = expm1(y)/y
    return np.abs(mobius_delta_inv(_over_b(np.expm1, u, params.B, 0.5) / z0, lam))


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

    |lambda| = 1 (within UNIT_TOL) forces omega(z) = lambda z, and z0 = 0 gives
    omega(z0) = 0: either way the value is log_fprime(lambda z0), taken here in
    scalar math without _log1p, as the unit-lambda suite's reference for region_point.
    """
    if point.z0 != 0 and abs(abs(point.lam) - 1.0) > UNIT_TOL:
        return None
    omega = point.lam * point.z0
    x = params.B * omega
    if abs(x) < 1e-8:  # _over_b's series: a zero or subnormal x loses nothing
        return (params.A - params.B) * omega * (1.0 - 0.5 * x)
    a, b = x.real, x.imag
    re = math.log1p(a * (2.0 + a) + b * b) if a >= -0.5 else math.log((1.0 + a) ** 2 + b * b)
    return (params.A - params.B) * complex(0.5 * re, math.atan2(b, 1.0 + a)) / params.B


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
