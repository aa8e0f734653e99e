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
from dataclasses import dataclass

import numpy as np

from .region import JanowskiParams, _require_lambda, mobius_delta

__all__ = [
    "ExtremalSpec",
    "QuadratureConfig",
    "ConvergenceError",
    "extremal_fprime",
    "extremal_value",
    "fprime_segment_integral",
    "closed_form_a0",
]


@dataclass(frozen=True)
class ExtremalSpec:
    """Boundary-family member: disk parameter a, coefficient parameter lambda."""

    a: complex
    lam: complex
    params: JanowskiParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "lam", complex(self.lam))
        if not abs(self.a) <= 1.0 + 1e-12:
            raise ValueError(f"require |a| <= 1, got |a| = {abs(self.a)}")
        _require_lambda(self.lam)


MAX_PANELS = 65536
NODES_PER_PANEL = 16  # Gauss-Legendre nodes in each panel
_EPS4 = 4.0 * np.finfo(float).eps  # times |estimate|: the rounding floor of an estimate


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings; every panel has NODES_PER_PANEL nodes.

    Panels double (1, 2, 4, ...) until two successive composite estimates
    differ by at most abs_tol, and never beyond max_panels; max_panels = 1 can
    therefore never confirm the tolerance.  An abs_tol below the rounding
    floor 4 eps |estimate| is never confirmed either: two estimates that round
    to the same double do not meet it.  max_panels is capped at MAX_PANELS,
    about 80 MiB of panel arrays (~1.2 KiB per panel) while an estimate runs;
    _panel_nodes keeps 128 B per panel of every level reached.
    """

    max_panels: int = 1024
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 1 <= self.max_panels <= MAX_PANELS:
            raise ValueError(f"require 1 <= max_panels <= {MAX_PANELS}, got {self.max_panels}")
        if not self.abs_tol > 0.0:
            raise ValueError("require abs_tol > 0")


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
    return np.exp(spec.params.exponent * np.log(1.0 + spec.params.B * z * d))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(n)`` nodes and weights, computed once per n and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _panel_nodes(panels: int) -> np.ndarray:
    """The read-only ``(panels, NODES_PER_PANEL)`` nodes in [0, 1] of the composite rule, built once per count.

    The cache keeps 128 B per panel at every level a process reaches: about
    256 KiB for the levels up to the default 1,024-panel cap, and about
    16 MiB up to MAX_PANELS.
    """
    nodes = _gauss_legendre(NODES_PER_PANEL)[0]
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 / panels
    t = mid + half * nodes[None, :]
    t.flags.writeable = False
    return t


def _composite_estimate(spec, z_from, z_to, panels):
    weights = _gauss_legendre(NODES_PER_PANEL)[1]
    zeta = z_from + _panel_nodes(panels) * (z_to - z_from)
    g = extremal_fprime(spec, zeta)
    return (z_to - z_from) * (0.5 / panels) * np.sum(weights[None, :] * g)


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
    panels = 1
    prev = None
    while True:
        est = _composite_estimate(spec, z_from, z_to, panels)
        if prev is not None:
            achieved = abs(est - prev)
            if achieved <= cfg.abs_tol:
                floor = _EPS4 * abs(est)
                if cfg.abs_tol < floor:
                    raise ConvergenceError(
                        f"abs_tol={cfg.abs_tol} is below the rounding floor 4 eps |estimate| "
                        f"= {floor:.3e}, so no estimate can confirm it",
                        estimate=complex(est),
                        achieved=float(achieved),
                    )
                return complex(est)
        if 2 * panels > cfg.max_panels:
            achieved = float("inf") if prev is None else abs(est - prev)
            raise ConvergenceError(
                f"quadrature did not reach abs_tol={cfg.abs_tol} within "
                f"{cfg.max_panels} panels (achieved {achieved:.3e})",
                estimate=complex(est),
                achieved=float(achieved),
            )
        prev = est
        panels *= 2


def extremal_value(
    spec: ExtremalSpec,
    z: complex,
    cfg: QuadratureConfig | None = None,
) -> complex:
    """F_{a,lambda}(z), by adaptive composite Gauss-Legendre from 0 to z."""
    if z == 0:
        return 0j
    return fprime_segment_integral(spec, 0j, complex(z), cfg)


def closed_form_a0(lam: complex, params: JanowskiParams, z: complex) -> complex:
    """Exact antiderivative for a = 0, where the integrand is (1 + B lam zeta)^((A-B)/B).

    ((1 + B lam z)^(A/B) - 1)/(lam A) for A != 0, Log(1 + B lam z)/(B lam) for
    A = 0.  lam = 0 is rejected: the integrand is then identically 1 and
    F(z) = z needs no oracle.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda = 0 makes F(z) = z; no closed form needed")
    _require_lambda(lam)
    blam = params.B * lam
    if params.A == 0.0:
        return complex(np.log(1.0 + blam * z) / blam)
    apow = np.exp((params.A / params.B) * np.log(1.0 + blam * z))
    return complex((apow - 1.0) / (lam * params.A))
