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

from .core import BoundReport, InputError

__all__ = [
    "GammaRoot",
    "solve_gamma",
    "gamma_root",
    "gamma_value",
    "proposition_bound_report",
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


def _sech(a: float) -> float:
    return math.exp(-log_cosh(a))


def proposition_bound_report(n_max: int) -> list[BoundReport]:
    """Evaluate the defect brackets and tail estimates for n = 1..n_max.

    Upper brackets, the even-n lower bracket, the (0, pi/2) range, strict
    monotonicity and the pi*e^(-pi n) tail are asserted.  The odd-n lower
    bracket is evaluated and recorded only: numerically it exceeds the true
    defect already at n=1 (0.017961 vs 0.017652), so its holds-flag is
    informational.  The product r_n*cosh(pi(n+1/2)) tends to 1 and is
    asserted to lie in [0.9, 1.1] for n >= 5.
    """
    if n_max < 1:
        raise InputError(f"n_max={n_max} must be >= 1")
    out: list[BoundReport] = []
    prev_r = None
    for n in range(1, n_max + 1):
        root = gamma_root(n)
        r = root.r
        a = math.pi * (n + 0.5)
        sech_a = _sech(a)
        params = {"n": n}

        if n % 2 == 1:
            upper = math.asin(sech_a)
            lower = 0.5 * math.asinh(2.0 * sech_a)
            lower_asserted = False
        else:
            upper = math.asin(2.0 * sech_a / (1.0 + math.sqrt(1.0 - 4.0 * sech_a)))
            lower = math.asin(sech_a)
            lower_asserted = True

        # Bracket margins shrink like r_n^2 relative, which falls below double
        # resolution around n = 12, while the log-space evaluation itself
        # carries ~1e-14 relative noise (ulp of log r ~ -140).  The allowance
        # keeps the verdict about the mathematics rather than the last bit.
        fp_tol = 1e-13 * r
        out.append(BoundReport.less_equal(
            "defect-upper-bracket", r, upper,
            "sigma-bound-n-odd" if n % 2 == 1 else "sigma-bound-n-even",
            params=params, tol=fp_tol))
        out.append(BoundReport.less_equal(
            "defect-lower-bracket", lower, r,
            "sigma-bound-n-odd" if n % 2 == 1 else "sigma-bound-n-even",
            params=params, asserted=lower_asserted, tol=fp_tol))
        out.append(BoundReport(
            "defect-positive", (("n", str(n)),), 0.0, r, r, r > 0.0,
            "1st-1d-ev-expansion"))
        out.append(BoundReport.less_equal(
            "defect-below-half-pi", r, math.pi / 2.0, "1st-1d-ev-expansion",
            params=params))
        if prev_r is not None:
            out.append(BoundReport(
                "defect-decreasing", (("n", str(n)),), r, prev_r, prev_r - r,
                r < prev_r, "1st-1d-ev-expansion"))
        out.append(BoundReport.less_equal(
            "defect-exp-tail", r, math.pi * math.exp(-math.pi * n),
            "riesz-1-d", params=params))

        # The defect is positive by construction, so only the unsigned
        # deviation of r_n * cosh(pi(n+1/2)) from 1 is meaningful.  A root is
        # bisected exactly when pi(n+1/2) < EXACT_ROOT_CAP, where cosh is finite.
        if root.method == "asymptotic":
            product = math.exp(math.log(r) + log_cosh(a)) if r > 0.0 else 1.0
        else:
            product = r * math.cosh(a)
        out.append(BoundReport.less_equal(
            "defect-asymptotic-product", abs(product - 1.0), 0.1,
            "gamma-expansion", params=params, asserted=(n >= 5)))

        prev_r = r
    return out
