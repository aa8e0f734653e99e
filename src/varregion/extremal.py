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
    "QuadratureConfig",
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


MAX_PANELS = 65536
NODES_PER_PANEL = 16  # Gauss-Legendre nodes in each panel
_EPS4 = 4.0 * np.finfo(float).eps  # times |estimate|: the rounding floor of an estimate


class QuadratureConfig(_FrozenRecord):
    """Composite Gauss-Legendre settings; every panel has NODES_PER_PANEL nodes.

    Panels double (1, 2, 4, ...) until two successive composite estimates
    differ by at most abs_tol, and never beyond max_panels; max_panels = 1 can
    therefore never confirm the tolerance.  The estimates for 1 and 2 panels
    come from one integrand pass over their 48 nodes; every later level takes
    its own pass.  An abs_tol below the rounding floor 4 eps |estimate| is
    never confirmed either: two estimates that round to the same double do
    not meet it.  max_panels is capped at MAX_PANELS,
    about 80 MiB of panel arrays (~1.2 KiB per panel) while an estimate runs;
    _level_nodes keeps 128 B per panel of every level reached.
    """

    _fields = ("max_panels", "abs_tol")

    def __init__(self, max_panels: int = 1024, abs_tol: float = 1e-12) -> None:
        if not 1 <= max_panels <= MAX_PANELS:
            raise ValueError(f"require 1 <= max_panels <= {MAX_PANELS}, got {max_panels}")
        if not abs_tol > 0.0:
            raise ValueError("require abs_tol > 0")
        d = self.__dict__
        d["max_panels"], d["abs_tol"] = max_panels, abs_tol


class ConvergenceError(RuntimeError):
    """Quadrature failed to meet abs_tol within max_panels."""

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
    process reaches: about 256 KiB up to the default 1,024-panel cap, and
    about 16 MiB up to MAX_PANELS.
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


def fprime_segment_integral(
    spec: ExtremalSpec,
    z_from: complex,
    z_to: complex,
    cfg: QuadratureConfig | None = None,
) -> complex:
    """Integral of F' along the straight segment [z_from, z_to] inside the disk."""
    cfg = cfg or QuadratureConfig()
    if not (abs(z_from) < 1.0 and abs(z_to) < 1.0):
        raise ValueError("segment endpoints must lie in the open unit disk")
    if z_from == z_to:
        return 0j
    # one panel alone never confirms abs_tol, so the first pass also takes two when the cap allows
    est = _composite_estimates(spec, z_from, z_to, (1, 2) if cfg.max_panels >= 2 else (1,))
    panels = len(est)
    while True:
        achieved = abs(est[-1] - est[-2]) if len(est) > 1 else float("inf")
        if len(est) > 1 and achieved <= cfg.abs_tol:
            floor = _EPS4 * abs(est[-1])
            if cfg.abs_tol < floor:
                raise ConvergenceError(
                    f"abs_tol={cfg.abs_tol} is below the rounding floor 4 eps |estimate| "
                    f"= {floor:.3e}, so no estimate can confirm it",
                    estimate=complex(est[-1]),
                    achieved=float(achieved),
                )
            return complex(est[-1])
        if 2 * panels > cfg.max_panels:
            raise ConvergenceError(
                f"quadrature did not reach abs_tol={cfg.abs_tol} within "
                f"{cfg.max_panels} panels (achieved {achieved:.3e})",
                estimate=complex(est[-1]),
                achieved=float(achieved),
            )
        panels *= 2
        est += _composite_estimates(spec, z_from, z_to, (panels,))


def extremal_value(
    spec: ExtremalSpec,
    z: complex,
    cfg: QuadratureConfig | None = None,
) -> complex:
    """F_{a,lambda}(z), by adaptive composite Gauss-Legendre from 0 to z."""
    return fprime_segment_integral(spec, 0j, complex(z), cfg)


def closed_form_a0(lam: complex, params: JanowskiParams, z: complex) -> complex:
    """Exact antiderivative for a = 0, where the integrand is (1 + B lam zeta)^((A-B)/B).

    With L = Log(1 + B lam z)/B: expm1(A L)/(lam A) for A != 0, L/lam for A = 0.
    L is _log1p_over_b's quotient form, the scalar map of singleton_value, so
    neither form loses the low bits of a small B lam z, and a subnormal B gives
    a finite value.  lam = 0 is rejected: the integrand is then identically 1
    and F(z) = z needs no oracle.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda = 0 makes F(z) = z; no closed form needed")
    _require_lambda(lam)
    L = _log1p_over_b(lam * complex(z), params.B, 1.0)
    if params.A == 0.0:
        return L / lam
    return complex(np.expm1(params.A * L)) / (lam * params.A)
