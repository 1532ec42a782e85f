"""Two-term Weyl constants and eigenvalue predictors for d >= 2.

The counting function grows like c0 z^(d/4) + c1 z^((d-1)/4) with
c0 = (2 pi)^-d B_d |Omega| for every boundary condition, while c1 carries the
boundary measure with a condition-specific coefficient:

    dirichlet           -(B_{d-1}/(4 (2 pi)^{d-1})) (1 + G_d)
    navier              -(B_{d-1}/(4 (2 pi)^{d-1}))
    kuttler_sigillito   +(B_{d-1}/(4 (2 pi)^{d-1}))
    neumann             +(B_{d-1}/(4 (2 pi)^{d-1})) (4 f(a)^((1-d)/4) - 1 - J(a,d))

where G_d = Gamma((d+1)/4) / (sqrt(pi) Gamma((d+3)/4)) and J is the arctan
quadrature below.  ``expansion_coefficients`` is the one source of c0 and
c1: the two-term predictors invert N(lambda) = k with them and restate no
Weyl constant.  The one-dimensional problem has no two-term counting
expansion, so d = 1 is rejected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BCKind,
    BoundaryCondition,
    DomainSpec,
    InputError,
    check_index,
    dimensional_constants,
)

__all__ = [
    "ExpansionCoefficients",
    "f_neumann",
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

# The adaptive rule: its default tolerance over the whole interval, the
# nodes per panel, and the most halvings of any panel.
QUADRATURE_TOL = 1e-12
GL_ORDER = 15
GL_MAX_DEPTH = 40


@lru_cache(maxsize=None)
def _gl_nodes() -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    return tuple(x), tuple(w)


def _panel(f, a: float, b: float) -> float:
    x, w = _gl_nodes()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w))


def adaptive_gauss_legendre(f, a: float, b: float,
                            tol: float = QUADRATURE_TOL) -> tuple[float, float]:
    """Adaptive panel-splitting Gauss-Legendre; returns (value, error estimate).

    A panel is accepted when splitting it changes the value by less than its
    share of ``tol``; the reported estimate sums the accepted discrepancies.
    """
    def recurse(lo: float, hi: float, whole: float, budget: float, depth: int):
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        diff = abs(left + right - whole)
        if diff <= budget or depth >= GL_MAX_DEPTH:
            return left + right, diff
        lv, le = recurse(lo, mid, left, budget / 2.0, depth + 1)
        rv, re = recurse(mid, hi, right, budget / 2.0, depth + 1)
        return lv + rv, le + re

    whole = _panel(f, a, b)
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
        raise InputError(f"a={a} outside (-1, 1]")
    return 4.0 * a - 1.0 - 3.0 * a * a + 2.0 * (1.0 - a) * math.sqrt(2.0 * a * a - 2.0 * a + 1.0)


def arctan_g(t: float, a: float, inverse: bool = False) -> float:
    """arctan(g) (or arctan(1/g)) of the ratio

        g(t, a) = sqrt(1 - t^2) (1 + (1-a) t^2)^2 / (sqrt(1 + t^2) (1 - (1-a) t^2)^2)

    via atan2 of numerator and denominator, so it is smooth through the
    double pole at t = 1/sqrt(1-a) (inside (0, 1) for a < 0) and takes the
    value 0 at the removable 0/0 corner t = 1, a = 0.
    """
    num = math.sqrt(max(0.0, 1.0 - t * t)) * (1.0 + (1.0 - a) * t * t) ** 2
    den = math.sqrt(1.0 + t * t) * (1.0 - (1.0 - a) * t * t) ** 2
    return math.atan2(den, num) if inverse else math.atan2(num, den)


def neumann_boundary_integral(a: float, d: int, inverse: bool = False) -> tuple[float, float]:
    """integral_0^1 t^(d-2) arctan(g(t,a)) dt (or with 1/g), with error estimate.

    The substitution t = 1 - u^2 removes the sqrt(1-t) behaviour at t = 1,
    leaving a smooth integrand for the adaptive rule.
    """
    if d < 2:
        raise InputError(f"the boundary integral needs d >= 2, got d={d}")

    def integrand(u: float) -> float:
        t = 1.0 - u * u
        return (t ** (d - 2)) * arctan_g(t, a, inverse) * 2.0 * u

    return adaptive_gauss_legendre(integrand, 0.0, 1.0)


# ----------------------------------------------------------------------------
# Coefficients
# ----------------------------------------------------------------------------

def dirichlet_gamma_ratio(d: int) -> float:
    """G_d = Gamma((d+1)/4) / (sqrt(pi) Gamma((d+3)/4)), decreasing to 0 in d."""
    return math.gamma((d + 1) / 4.0) / (math.sqrt(math.pi) * math.gamma((d + 3) / 4.0))


def dirichlet_arcsin_integral(d: int) -> tuple[float, float, float]:
    """(quadrature, estimate, closed_form) of integral_0^1 t^(d-2) arcsin(t^2) dt.

    The closed form pi (1 - G_d) / (2 (d-1)) is the independent cross-check
    behind the Dirichlet boundary coefficient.
    """
    if d < 2:
        raise InputError(f"the arcsin integral needs d >= 2, got d={d}")

    def integrand(u: float) -> float:
        t = 1.0 - u * u
        return (t ** (d - 2)) * math.asin(min(1.0, t * t)) * 2.0 * u

    value, err = adaptive_gauss_legendre(integrand, 0.0, 1.0)
    closed = math.pi * (1.0 - dirichlet_gamma_ratio(d)) / (2.0 * (d - 1))
    return value, err, closed


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Per-unit-geometry two-term counting coefficients.

    c0 multiplies |Omega| z^(d/4); c1 multiplies |dOmega| z^((d-1)/4).
    """

    c0: float
    c1: float


def _neumann_bracket(a: float, d: int, inverse: bool = False) -> float:
    """Bracket 4 f(a)^((1-d)/4) - 1 - (4(d-1)/pi) * J  (or its 1/g variant)."""
    f = f_neumann(a)
    integral, _ = neumann_boundary_integral(a, d, inverse)
    if inverse:
        return 4.0 * f ** ((1 - d) / 4.0) - 3.0 + 4.0 * (d - 1) / math.pi * integral
    return 4.0 * f ** ((1 - d) / 4.0) - 1.0 - 4.0 * (d - 1) / math.pi * integral


def expansion_coefficients(bc: BoundaryCondition, d: int,
                           neumann_form: str = "arctan_g") -> ExpansionCoefficients:
    """Counting-function coefficients (c0 per unit volume, c1 per unit boundary)."""
    if d < 2:
        raise InputError(f"two-term counting asymptotics need d >= 2, got d={d}")
    bc.check_admissible(d)

    dc = dimensional_constants(d)
    dc_minus = dimensional_constants(d - 1)
    c0 = (2.0 * math.pi) ** -d * dc.ball_volume
    base = dc_minus.ball_volume / (4.0 * (2.0 * math.pi) ** (d - 1))

    if bc.kind is BCKind.DIRICHLET:
        return ExpansionCoefficients(c0, -base * (1.0 + dirichlet_gamma_ratio(d)))
    if bc.kind is BCKind.NAVIER:
        return ExpansionCoefficients(c0, -base)
    if bc.kind is BCKind.KUTTLER_SIGILLITO:
        return ExpansionCoefficients(c0, base)

    # Neumann
    if bc.poisson_ratio == 1.0:
        raise InputError("a = 1 Neumann problem fails the complementing condition")
    if neumann_form not in ("arctan_g", "arctan_inv_g"):
        raise InputError(f"unknown Neumann form {neumann_form!r}")
    bracket = _neumann_bracket(bc.poisson_ratio, d, inverse=(neumann_form == "arctan_inv_g"))
    return ExpansionCoefficients(c0, base * bracket)


# ----------------------------------------------------------------------------
# Predictors
# ----------------------------------------------------------------------------

def _two_terms(bc: BoundaryCondition, dom: DomainSpec, k: int) -> tuple[float, float]:
    """(leading, second) terms of the k-th eigenvalue on ``dom``: the root of
    N(lambda) = c0 |Omega| lambda^(d/4) + c1 |dOmega| lambda^((d-1)/4) = k to
    second order in s = lambda^(1/4).  With s0 = (k / (c0 |Omega|))^(1/d),
    s = s0 - c1 |dOmega| / (d c0 |Omega|), so lambda = s0^4 - 4 c1 |dOmega|
    s0^3 / (d c0 |Omega|)."""
    check_index(k)
    d = dom.dimension
    co = expansion_coefficients(bc, d)
    s0 = (k / (co.c0 * dom.volume)) ** (1.0 / d)
    return s0 ** 4, -4.0 * co.c1 * dom.boundary_measure * s0 ** 3 / (d * co.c0 * dom.volume)


def predict_eigenvalue(bc: BoundaryCondition, dom: DomainSpec, k: int) -> float:
    """Two-term prediction of the k-th eigenvalue on ``dom``, in its dimension
    (asymptotic, smooth-domain hypothesis; exact only in the large-k limit)."""
    return sum(_two_terms(bc, dom, k))


def predict_average(dom: DomainSpec, k: int) -> float:
    """Two-term prediction of the first-k Dirichlet eigenvalue average: the
    mean over j <= k of the terms of ``predict_eigenvalue``, which grow like
    j^(4/d) and j^(3/d)."""
    lead, second = _two_terms(BoundaryCondition(BCKind.DIRICHLET), dom, k)
    d = dom.dimension
    return d / (d + 4.0) * lead + d / (d + 3.0) * second


def predict_average_leading(dom: DomainSpec, k: int) -> float:
    """The Weyl leading term of the average; also the universal lower bound
    for Dirichlet-type averages."""
    check_index(k)
    d = dom.dimension
    dc = dimensional_constants(d)
    return d / (d + 4.0) * dc.classical ** 2 * (k / dom.volume) ** (4.0 / d)
