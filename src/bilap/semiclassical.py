"""Two-term Weyl constants and eigenvalue predictors for d >= 2.

The counting function grows like c0 z^(d/4) + c1 z^((d-1)/4) with
c0 = (2 pi)^-d B_d |Omega| for every boundary condition, while c1 carries the
boundary measure with a condition-specific coefficient:

    dirichlet           -(B_{d-1}/(4 (2 pi)^{d-1})) (1 + G_d)
    navier              -(B_{d-1}/(4 (2 pi)^{d-1}))
    kuttler_sigillito   +(B_{d-1}/(4 (2 pi)^{d-1}))
    neumann             +(B_{d-1}/(4 (2 pi)^{d-1})) (4 f(a)^((1-d)/4) - 1 - J(a,d))

where G_d = Gamma((d+1)/4) / (sqrt(pi) Gamma((d+3)/4)) and J is the arctan
quadrature below.  The one-dimensional problem has no two-term counting
expansion, so d = 1 is rejected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import BCKind, BoundaryCondition, DomainSpec, dimensional_constants

__all__ = [
    "ExpansionCoefficients",
    "f_neumann",
    "g_neumann",
    "arctan_g",
    "neumann_boundary_integral",
    "dirichlet_gamma_ratio",
    "dirichlet_arcsin_integral",
    "expansion_coefficients",
    "predict_eigenvalue",
    "predict_average",
    "predict_average_leading",
    "adaptive_gauss_legendre",
]


# ----------------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(order)
    return tuple(x), tuple(w)


def _panel(f, a: float, b: float, order: int) -> float:
    x, w = _gl_nodes(order)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w))


def adaptive_gauss_legendre(f, a: float, b: float, tol: float = 1e-12,
                            order: int = 15, max_depth: int = 40) -> tuple[float, float]:
    """Adaptive panel-splitting Gauss-Legendre; returns (value, error estimate).

    A panel is accepted when splitting it changes the value by less than its
    share of ``tol``; the reported estimate sums the accepted discrepancies.
    """
    def recurse(lo: float, hi: float, whole: float, budget: float, depth: int):
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid, order)
        right = _panel(f, mid, hi, order)
        diff = abs(left + right - whole)
        if diff <= budget or depth >= max_depth:
            return left + right, diff
        lv, le = recurse(lo, mid, left, budget / 2.0, depth + 1)
        rv, re = recurse(mid, hi, right, budget / 2.0, depth + 1)
        return lv + rv, le + re

    whole = _panel(f, a, b, order)
    return recurse(a, b, whole, tol, 0)


# ----------------------------------------------------------------------------
# The Neumann shift integrand
# ----------------------------------------------------------------------------

def f_neumann(a: float) -> float:
    """The Neumann threshold factor 4a - 1 - 3a^2 + 2(1-a) sqrt(2a^2 - 2a + 1).

    Lies in (0, 1] for a in (-1, 1), with value 1 exactly at a = 0 and limit
    0 as a -> 1-.
    """
    if not (-1.0 < a <= 1.0):
        raise ValueError(f"a={a} outside (-1, 1]")
    return 4.0 * a - 1.0 - 3.0 * a * a + 2.0 * (1.0 - a) * math.sqrt(2.0 * a * a - 2.0 * a + 1.0)


def _g_parts(t: float, a: float) -> tuple[float, float]:
    num = math.sqrt(max(0.0, 1.0 - t * t)) * (1.0 + (1.0 - a) * t * t) ** 2
    den = math.sqrt(1.0 + t * t) * (1.0 - (1.0 - a) * t * t) ** 2
    return num, den


def g_neumann(t: float, a: float) -> float:
    """Raw ratio g(t, a); poles (for a < 0 inside (0,1)) raise: callers that
    integrate must go through ``arctan_g`` which is continuous across them."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t={t} outside [0, 1]")
    num, den = _g_parts(t, a)
    if den == 0.0:
        raise ZeroDivisionError(f"g(t={t}, a={a}) has a pole; use arctan_g")
    return num / den


def arctan_g(t: float, a: float, inverse: bool = False) -> float:
    """arctan(g) (or arctan(1/g)) via atan2; smooth through the double pole."""
    num, den = _g_parts(t, a)
    return math.atan2(den, num) if inverse else math.atan2(num, den)


def neumann_boundary_integral(a: float, d: int, tol: float = 1e-12,
                              inverse: bool = False) -> tuple[float, float]:
    """integral_0^1 t^(d-2) arctan(g(t,a)) dt (or with 1/g), with error estimate.

    The substitution t = 1 - u^2 removes the sqrt(1-t) behaviour at t = 1,
    leaving a smooth integrand for the adaptive rule.
    """
    if d < 2:
        raise ValueError("the boundary integral needs d >= 2")

    def integrand(u: float) -> float:
        t = 1.0 - u * u
        return (t ** (d - 2)) * arctan_g(t, a, inverse) * 2.0 * u

    return adaptive_gauss_legendre(integrand, 0.0, 1.0, tol=tol)


# ----------------------------------------------------------------------------
# Coefficients
# ----------------------------------------------------------------------------

def dirichlet_gamma_ratio(d: int) -> float:
    """G_d = Gamma((d+1)/4) / (sqrt(pi) Gamma((d+3)/4)), decreasing to 0 in d."""
    return math.gamma((d + 1) / 4.0) / (math.sqrt(math.pi) * math.gamma((d + 3) / 4.0))


def dirichlet_arcsin_integral(d: int, tol: float = 1e-12) -> tuple[float, float, float]:
    """(quadrature, estimate, closed_form) of integral_0^1 t^(d-2) arcsin(t^2) dt.

    The closed form pi (1 - G_d) / (2 (d-1)) is the independent cross-check
    behind the Dirichlet boundary coefficient.
    """
    if d < 2:
        raise ValueError("needs d >= 2")

    def integrand(u: float) -> float:
        t = 1.0 - u * u
        return (t ** (d - 2)) * math.asin(min(1.0, t * t)) * 2.0 * u

    value, err = adaptive_gauss_legendre(integrand, 0.0, 1.0, tol=tol)
    closed = math.pi * (1.0 - dirichlet_gamma_ratio(d)) / (2.0 * (d - 1))
    return value, err, closed


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Per-unit-geometry two-term counting coefficients.

    c0 multiplies |Omega| z^(d/4); c1 multiplies |dOmega| z^((d-1)/4).
    ``quadrature_error`` is nonzero only for the Neumann conditions.
    """

    d: int
    bc: BoundaryCondition
    c0: float
    c1: float
    quadrature_error: float = 0.0


def _neumann_bracket(a: float, d: int, inverse: bool = False) -> tuple[float, float]:
    """Bracket 4 f(a)^((1-d)/4) - 1 - (4(d-1)/pi) * J  (or its 1/g variant)."""
    f = f_neumann(a)
    if inverse:
        integral, err = neumann_boundary_integral(a, d, inverse=True)
        value = 4.0 * f ** ((1 - d) / 4.0) - 3.0 + 4.0 * (d - 1) / math.pi * integral
    else:
        integral, err = neumann_boundary_integral(a, d, inverse=False)
        value = 4.0 * f ** ((1 - d) / 4.0) - 1.0 - 4.0 * (d - 1) / math.pi * integral
    return value, err


def expansion_coefficients(bc: BoundaryCondition, d: int,
                           neumann_form: str = "arctan_g") -> ExpansionCoefficients:
    """Counting-function coefficients (c0 per unit volume, c1 per unit boundary)."""
    if d < 2:
        raise ValueError("two-term counting asymptotics need d >= 2")
    bc.check_admissible(d)

    dc = dimensional_constants(d)
    dc_minus = dimensional_constants(d - 1)
    c0 = (2.0 * math.pi) ** -d * dc.ball_volume
    base = dc_minus.ball_volume / (4.0 * (2.0 * math.pi) ** (d - 1))

    if bc.kind is BCKind.DIRICHLET:
        return ExpansionCoefficients(d, bc, c0, -base * (1.0 + dirichlet_gamma_ratio(d)))
    if bc.kind is BCKind.NAVIER:
        return ExpansionCoefficients(d, bc, c0, -base)
    if bc.kind is BCKind.KUTTLER_SIGILLITO:
        return ExpansionCoefficients(d, bc, c0, base)

    # Neumann
    if bc.poisson_ratio == 1.0:
        raise ValueError("a = 1 Neumann problem fails the complementing condition")
    if neumann_form not in ("arctan_g", "arctan_inv_g"):
        raise ValueError(f"unknown Neumann form {neumann_form!r}")
    bracket, err = _neumann_bracket(bc.poisson_ratio, d,
                                    inverse=(neumann_form == "arctan_inv_g"))
    return ExpansionCoefficients(d, bc, c0, base * bracket, quadrature_error=err)


# ----------------------------------------------------------------------------
# Predictors
# ----------------------------------------------------------------------------

def _second_term_factor(bc: BoundaryCondition, d: int) -> float:
    """Signed bracket multiplying C_d^2 B_{d-1} / (d B_d^(1-1/d)) in the
    single-eigenvalue expansion: +(1+G_d) dirichlet, +1 navier, -1
    kuttler_sigillito, -(neumann bracket).  Algebraically this is
    -c1 / (B_{d-1} / (4 (2 pi)^{d-1})) per unit boundary."""
    coeffs = expansion_coefficients(bc, d)
    dc_minus = dimensional_constants(d - 1)
    base = dc_minus.ball_volume / (4.0 * (2.0 * math.pi) ** (d - 1))
    return -coeffs.c1 / base


def predict_eigenvalue(bc: BoundaryCondition, d: int, dom: DomainSpec, k: int) -> float:
    """Two-term prediction of the k-th eigenvalue (asymptotic, smooth-domain
    hypothesis; exact only in the large-k limit)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if dom.dimension != d:
        raise ValueError(f"domain dimension {dom.dimension} != requested d={d}")
    dc = dimensional_constants(d)
    dc_minus = dimensional_constants(d - 1)
    vol, per = dom.volume, dom.boundary_measure
    lead = dc.classical ** 2 * (k / vol) ** (4.0 / d)
    unit = dc.classical ** 2 * dc_minus.ball_volume / (d * dc.ball_volume ** (1.0 - 1.0 / d))
    second = unit * _second_term_factor(bc, d) * (per / vol) * (k / vol) ** (3.0 / d)
    return lead + second


def predict_average(d: int, dom: DomainSpec, k: int) -> float:
    """Two-term prediction of the first-k Dirichlet eigenvalue average."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if dom.dimension != d:
        raise ValueError(f"domain dimension {dom.dimension} != requested d={d}")
    dc = dimensional_constants(d)
    dc_minus = dimensional_constants(d - 1)
    vol, per = dom.volume, dom.boundary_measure
    lead = d / (d + 4.0) * dc.classical ** 2 * (k / vol) ** (4.0 / d)
    unit = dc.classical ** 2 * dc_minus.ball_volume / (d * dc.ball_volume ** (1.0 - 1.0 / d))
    second = (d / (d + 3.0)) * unit * (1.0 + dirichlet_gamma_ratio(d)) \
        * (per / vol) * (k / vol) ** (3.0 / d)
    return lead + second


def predict_average_leading(d: int, dom: DomainSpec, k: int) -> float:
    """The Weyl leading term of the average; also the universal lower bound
    for Dirichlet-type averages."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dc = dimensional_constants(d)
    return d / (d + 4.0) * dc.classical ** 2 * (k / dom.volume) ** (4.0 / d)
