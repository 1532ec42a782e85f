"""Certified positive roots of cos(g) cosh(g) = 1 and their defects.

Each positive root sits in (pi*n, pi*(n+1)) and is written

    gamma_n = pi*(n + 1/2) + (-1)^(n+1) * r_n,      0 < r_n < pi/2,

so the defect r_n solves sin(r) * cosh(pi*(n+1/2) +/- r) = 1.  The solver
bisects the log-residual in u = log(r), down to adjacent doubles of u, which
resolves r to about |log r| * 2.2e-16 relative (1.1e-13 at n = 222, the last
bisected root) on defects that shrink like e^(-pi*n), and never overflows
cosh.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .core import InputError

__all__ = [
    "GammaRoot",
    "solve_gamma",
    "gamma_root",
    "gamma_value",
    "log_cosh",
    "EXACT_ROOT_CAP",
    "LAST_NORMAL_DEFECT_N",
]

_LOG2 = math.log(2.0)

# Exact bisection is used while pi*(n+1/2) < 700 (comfortably inside double
# range for every intermediate); beyond that the defect is handed over to the
# asymptotic tail r_n = 2 exp(-pi (n+1/2)).
EXACT_ROOT_CAP = 700.0

# The last n whose defect r_n ~ 2 exp(-pi (n+1/2)) is a normal double: 225.
LAST_NORMAL_DEFECT_N = math.floor(math.log(2.0 / sys.float_info.min) / math.pi - 0.5)


def log_cosh(x: float) -> float:
    """log(cosh(x)) without overflow for any double x."""
    ax = abs(x)
    if ax < 20.0:
        return math.log(math.cosh(ax))
    return ax - _LOG2 + math.log1p(math.exp(-2.0 * ax))


def _sign(n: int) -> int:
    """Sign of the defect term: gamma_n = pi(n+1/2) + sign * r_n."""
    return 1 if n % 2 == 1 else -1


@dataclass(frozen=True)
class GammaRoot:
    """One root gamma_n with its defect and relative residual."""

    n: int
    gamma: float
    r: float
    residual: float  # |cos(g) cosh(g) - 1| / cosh(g), evaluated in stable form
    method: str      # "exact" (n=0), "bisection", "asymptotic"


def _log_residual(n: int, r: float) -> float:
    """log( sin(r) * cosh(pi(n+1/2) + sign*r) ); zero exactly at the root."""
    a = math.pi * (n + 0.5)
    return math.log(math.sin(r)) + log_cosh(a + _sign(n) * r)


def _relative_residual(n: int, r: float) -> float:
    """|cos(gamma) cosh(gamma) - 1| / cosh(gamma) = |sin(r) - sech(gamma)|."""
    a = math.pi * (n + 0.5)
    gamma = a + _sign(n) * r
    return abs(math.sin(r) - math.exp(-log_cosh(gamma)))


def solve_gamma(n: int) -> GammaRoot:
    """Bracket and bisect the n-th root; n=0 returns the conventional gamma_0=0.

    The returned root matches the sign pattern (-1)^(n+1): above pi(n+1/2)
    for odd n, below for even n, by a defect r_n in (0, pi/2).
    """
    if n < 0:
        raise InputError(f"root index n={n} must be >= 0")
    if n == 0:
        return GammaRoot(0, 0.0, 0.0, 0.0, "exact")

    a = math.pi * (n + 0.5)
    s = _sign(n)

    if a >= EXACT_ROOT_CAP:
        r = 2.0 * math.exp(-a)  # may underflow gradually; harmless
        gamma = a + s * r
        return GammaRoot(n, gamma, r, 0.0, "asymptotic")

    # Bisect u = log(r).  At u_lo the product sin(r) cosh(...) is < 1 by
    # construction; at r = pi/2 it is >= cosh(pi n) > 1.
    u_lo = -(a + 1.0)
    u_hi = math.log(math.pi / 2.0)
    f_lo = _log_residual(n, math.exp(u_lo))
    f_hi = _log_residual(n, math.exp(u_hi))
    if not (f_lo < 0.0 < f_hi):
        raise RuntimeError(f"root bracket failed sign change at n={n}")

    # Stop at a u-width of 1e-15 or once the midpoint rounds to an endpoint.
    # Past |u| = 8 neighbouring doubles are 1.8e-15 apart, so only the
    # second stop is met there, and r is resolved to about |u| * 2.2e-16
    # relative (1.1e-13 at n = 222).  As f < 0 at u_lo and f >= 0 at u_hi,
    # such a midpoint would leave the bracket unchanged on every later step,
    # so the early stop returns the bits of all 200 steps.
    for _ in range(200):
        u_mid = 0.5 * (u_lo + u_hi)
        if u_mid == u_lo or u_mid == u_hi:
            break
        if _log_residual(n, math.exp(u_mid)) < 0.0:
            u_lo = u_mid
        else:
            u_hi = u_mid
        if u_hi - u_lo <= 1e-15:
            break

    r = 0.5 * (math.exp(u_lo) + math.exp(u_hi))
    gamma = a + s * r
    return GammaRoot(n, gamma, r, _relative_residual(n, r), "bisection")


@lru_cache(maxsize=None)
def gamma_root(n: int) -> GammaRoot:
    """Cached root; shared by all 1D spectra."""
    return solve_gamma(n)


def gamma_value(n: int) -> float:
    """gamma_n with the convention gamma_{-1} = gamma_0 = 0."""
    if n <= 0:
        return 0.0
    return gamma_root(n).gamma
