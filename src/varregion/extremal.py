"""Extremal maps attaining the region boundary, evaluated by contour quadrature.

For |a| <= 1 and |lambda| < 1 the map F_{a,lambda} is defined by integrating
(1 + B zeta delta(a zeta, lambda))^((A-B)/B) from 0 to z.  Its derivative is
available in closed form; the primitive is computed with composite
Gauss-Legendre quadrature along the straight segment (the integrand is
analytic on the disk, so the path does not matter).  The a = 0 case has an
elementary antiderivative used as an independent oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .region import JanowskiParams, _FrozenRecord, _log1p_over_b, _require_lambda, mobius_delta

__all__ = [
    "ExtremalSpec",
    "ConvergenceError",
    "extremal_fprime",
    "extremal_value",
    "fprime_segment_integral",
    "closed_form_a0",
]


class ExtremalSpec(_FrozenRecord):
    """Boundary-family member: disk parameter a, coefficient parameter lambda."""

    _fields = ("a", "lam", "params")

    def __init__(self, a: complex, lam: complex, params: JanowskiParams) -> None:
        # checked first: a subnormal B overflows (A - B)/B, and every F' value would be NaN
        if not math.isfinite((params.A - params.B) / params.B):
            raise ValueError(f"require a finite (A - B)/B, got B = {params.B!r}")
        a, lam = complex(a), complex(lam)
        if not abs(a) <= 1.0 + 1e-12:
            raise ValueError(f"require |a| <= 1, got |a| = {abs(a)}")
        _require_lambda(lam)
        d = self.__dict__
        d["a"], d["lam"], d["params"] = a, lam, params


NODES_PER_PANEL = 16  # Gauss-Legendre nodes in each panel
PANEL_CAP = 1024  # panels double 1, 2, 4, ... up to this
_EPS4 = 4.0 * np.finfo(float).eps  # times |estimate|: the rounding floor of an estimate


class ConvergenceError(RuntimeError):
    """Quadrature failed to meet abs_tol within PANEL_CAP panels."""

    def __init__(self, message: str, estimate: complex, achieved: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


def extremal_fprime(spec: ExtremalSpec, z):
    """F'_{a,lambda}(z) = (1 + B z delta(a z, lambda))^((A-B)/B), principal branch.

    Equals 1 at z = 0.  Accepts scalar or ndarray z with |z| < 1.
    """
    d = mobius_delta(spec.a * z, spec.lam)
    return np.exp((spec.params.A - spec.params.B) / spec.params.B * np.log(1.0 + spec.params.B * z * d))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(NODES_PER_PANEL)`` nodes and weights, computed on first use and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _level_nodes(levels: tuple[int, ...]) -> np.ndarray:
    """The read-only nodes in [0, 1] of the composite rule for each panel count in levels.

    Panel count p contributes a ``(p, NODES_PER_PANEL)`` block, stacked in the
    order of levels.  The cache keeps 128 B per panel of every levels tuple a
    process reaches: about 256 KiB up to PANEL_CAP.
    """
    nodes = _gauss_legendre()[0]
    blocks = []
    for panels in levels:
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        blocks.append(mid + (0.5 / panels) * nodes[None, :])
    t = np.concatenate(blocks)
    t.flags.writeable = False
    return t


def _composite_estimates(spec, z_from, z_to, levels):
    """One composite estimate per panel count in levels, from one integrand pass over all their nodes."""
    weights = _gauss_legendre()[1]
    wg = weights * extremal_fprime(spec, z_from + _level_nodes(levels) * (z_to - z_from))
    estimates, row = [], 0
    for panels in levels:
        estimates.append((z_to - z_from) * (0.5 / panels) * wg[row:row + panels].sum())
        row += panels
    return estimates


def fprime_segment_integral(spec: ExtremalSpec, z_from: complex, z_to: complex, abs_tol: float = 1e-12) -> complex:
    """Integral of F' along the straight segment [z_from, z_to] inside the disk.

    Panels double (1, 2, 4, ...) until two successive composite estimates
    differ by at most abs_tol, and never beyond PANEL_CAP.  The estimates for
    1 and 2 panels come from one integrand pass over their 48 nodes; every
    later level takes its own pass.  An abs_tol below the rounding floor
    4 eps |estimate| is never confirmed: two estimates that round to the same
    double do not meet it.  Either failure is a ConvergenceError.
    """
    if not abs_tol > 0.0:
        raise ValueError("require abs_tol > 0")
    if not (abs(z_from) < 1.0 and abs(z_to) < 1.0):
        raise ValueError("segment endpoints must lie in the open unit disk")
    if z_from == z_to:
        return 0j
    est = _composite_estimates(spec, z_from, z_to, (1, 2))
    panels = 2
    while True:
        achieved = abs(est[-1] - est[-2])
        if achieved <= abs_tol:
            floor = _EPS4 * abs(est[-1])
            if abs_tol < floor:
                raise ConvergenceError(
                    f"abs_tol={abs_tol} is below the rounding floor 4 eps |estimate| "
                    f"= {floor:.3e}, so no estimate can confirm it",
                    estimate=complex(est[-1]),
                    achieved=float(achieved),
                )
            return complex(est[-1])
        if 2 * panels > PANEL_CAP:
            raise ConvergenceError(
                f"quadrature did not reach abs_tol={abs_tol} within "
                f"{PANEL_CAP} panels (achieved {achieved:.3e})",
                estimate=complex(est[-1]),
                achieved=float(achieved),
            )
        panels *= 2
        est += _composite_estimates(spec, z_from, z_to, (panels,))


def extremal_value(spec: ExtremalSpec, z: complex, abs_tol: float = 1e-12) -> complex:
    """F_{a,lambda}(z), by adaptive composite Gauss-Legendre from 0 to z."""
    return fprime_segment_integral(spec, 0j, complex(z), abs_tol)


def closed_form_a0(lam: complex, params: JanowskiParams, z: complex) -> complex:
    """Exact antiderivative for a = 0, where the integrand is (1 + B lam zeta)^((A-B)/B).

    F(z) = expm1(A lam L)/(A lam) with L = Log(1 + B lam z)/(B lam), written as
    F = L E(A lam L), E(y) = expm1(y)/y, so that nothing divides by lam or A.
    L is _log1p_over_b's quotient form z Log(1 + x)/x at x = B lam z, the scalar
    map of singleton_value, and E takes its series 1 + y/2 where |y| < 1e-8:
    both hold at a small, subnormal or zero lam or B, where F(z) = z.
    """
    lam = complex(lam)
    _require_lambda(lam)
    L = _log1p_over_b(complex(z), params.B * lam, 1.0)
    y = params.A * lam * L
    return L * (1.0 + 0.5 * y if abs(y) < 1e-8 else complex(np.expm1(y)) / y)
