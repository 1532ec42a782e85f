"""Riesz means, counting functions, and the explicit 1D two-sided bounds.

R_1(z) = sum_j (z - omega_j)_+, the one Riesz mean the bounds concern, is
a finite sum once the spectrum is known past z; it equals the integral of
the counting function, and on the interval it is sandwiched by explicit
polynomials in z^(1/4) whose coefficients follow from the
half-integer/integer lattice sums below.

A spectrum passed in must already reach every threshold asked of it (its
last value at least z); a shorter one raises ``InsufficientSpectrumError``.
Callers on the interval size the spectrum once, from the largest threshold,
with ``spectra1d.count_reaching``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import Literal

import numpy as np

from .core import Spectrum, kahan_sum
from .spectra1d import _check_pair, count_reaching, spectrum_1d

__all__ = [
    "InsufficientSpectrumError",
    "riesz_mean",
    "counting",
    "theorem_bounds_1d",
    "lemma_onedim_bounds",
    "constant_c",
    "second_term_fit",
    "FIT_GRID",
]

_KAHAN_THRESHOLD = 10_000

# Log-spaced thresholds of the second-term regression, 1e4 to 1e9.
FIT_GRID = tuple(np.logspace(4.0, 9.0, 32))


class InsufficientSpectrumError(RuntimeError):
    """The spectrum's last value lies below the requested threshold."""


def counting(spec: Spectrum, z: float) -> int:
    """N(z), the number of eigenvalues strictly below z; raises unless the
    spectrum reaches z, so that no eigenvalue below z can be missing."""
    if not (z >= 0.0):
        raise ValueError(f"z={z} must be >= 0")
    values = spec.values
    if not (values and values[-1] >= z):
        raise InsufficientSpectrumError(
            f"spectrum ends at {values[-1] if values else 'empty'} < z={z}")
    return bisect_left(values, z)


def riesz_mean(spec: Spectrum, z: float) -> float:
    """Exact finite Riesz mean R_1(z) = sum_j (z - omega_j)_+ over the spectrum.

    The positive parts are summed in ascending eigenvalue order, so results
    are bitwise reproducible; the sum is the integral of the counting
    function N(t) over [0, z].
    """
    count = counting(spec, z)
    terms = [z - v for v in spec.values[:count]]
    return kahan_sum(terms) if count > _KAHAN_THRESHOLD else sum(terms)


# ----------------------------------------------------------------------------
# Explicit interval bounds
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def constant_c(term_tol: float = 1e-16) -> float:
    """The exponentially convergent defect-series constant, about 2.51272.

    Terms fall like e^(-pi n) n^3, so truncation once a term drops below
    ``term_tol`` leaves a tail smaller than the term itself.
    """
    total = 0.0
    for n in range(1, 400):
        half = n + 0.5
        e1 = math.exp(-math.pi * n)
        term = (4.0 * (math.pi * e1 * half ** 3 + math.pi ** 3 * e1 ** 3 * half)
                + 6.0 * math.pi ** 2 * e1 ** 2 * half ** 2
                + math.pi ** 4 * e1 ** 4)
        total += term
        if term < term_tol:
            break
    return total


def theorem_bounds_1d(pair: tuple[int, int], z: float) -> tuple[float, float]:
    """Two-sided polynomial envelope for R_1 of the (i,j) interval problem.

    The envelopes share the leading term (4/(5 pi)) z^(5/4); the z-coefficient
    is (i+j-3)/2 and the lower-order coefficients come from the lattice-sum
    lemma plus (for the root-based spectra) the series constant c.
    """
    pair = _check_pair(pair)
    if not (z > 0.0):
        raise ValueError("z must be positive")
    lead = 4.0 / (5.0 * math.pi) * z ** 1.25
    z34, z12, z14 = z ** 0.75, z ** 0.5, z ** 0.25
    c = constant_c()
    linear = (pair[0] + pair[1] - 3) / 2.0 * z

    if pair in ((0, 2), (1, 3)):
        lower = lead + linear - math.pi / 3.0 * z34
        upper = lead + linear + math.pi / 6.0 * z34 + math.pi ** 2 / 12.0 * z12
        return lower, upper

    lower = (lead + linear - 11.0 * math.pi / 6.0 * z34
             - 1.5 * math.pi ** 2 * z12 - 127.0 * math.pi ** 3 / 240.0 * z14 - c)
    upper = (lead + linear + math.pi / 6.0 * z34 + 1.5 * math.pi ** 2 * z12
             + math.pi ** 3 / 30.0 * z14 + math.pi ** 4 / 8.0 + c)
    return lower, upper


def lemma_onedim_bounds(
    R: float, variant: Literal["integers", "half_integers"]
) -> tuple[float, float, float]:
    """(lhs, mid, rhs) for the lattice-sum envelopes; lhs <= mid <= rhs.

    ``mid`` is the brute-force sum minus its main term:
      integers:      sum (R^4 - n^4)_+        - (4/5) R^5 + (1/2) R^4
      half_integers: sum (R^4 - (n+1/2)^4)_+  - (4/5) R^5 + R^4
    """
    if R < 0.0:
        raise ValueError("R must be >= 0")
    if variant == "integers":
        total = 0.0
        n = 1
        while n < R:
            total += R ** 4 - n ** 4
            n += 1
        mid = total - 0.8 * R ** 5 + 0.5 * R ** 4
        lhs = -R ** 3 / 3.0
        rhs = R ** 3 / 6.0 + R ** 2 / 12.0
    elif variant == "half_integers":
        total = 0.0
        n = 1
        while n + 0.5 < R:
            total += R ** 4 - (n + 0.5) ** 4
            n += 1
        mid = total - 0.8 * R ** 5 + R ** 4
        lhs = -11.0 / 6.0 * R ** 3 - 1.5 * R ** 2 - 127.0 / 240.0 * R
        rhs = R ** 3 / 6.0 + 1.5 * R ** 2 + R / 30.0 + 0.125
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return lhs, mid, rhs


def second_term_fit(pair: tuple[int, int]) -> float:
    """Least-squares slope of R_1(z) - (4/(5 pi)) z^(5/4) against z on FIT_GRID.

    A z^(3/4) regressor absorbs the next-order oscillation so the linear
    coefficient converges to (i+j-3)/2 well before z reaches 1e9.
    """
    pair = _check_pair(pair)
    z = np.asarray(FIT_GRID)
    spec = spectrum_1d(pair, count_reaching(z[-1]))
    y = np.array([riesz_mean(spec, zi) for zi in z])
    y -= 4.0 / (5.0 * math.pi) * z ** 1.25
    design = np.column_stack([z, z ** 0.75])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])
