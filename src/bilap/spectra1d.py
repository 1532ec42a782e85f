"""Exact spectra of the six fourth-order interval problems.

The pair (i,j) prescribes which derivatives vanish at both endpoints.  All
six spectra are powers of the roots gamma_n of cos(g) cosh(g) = 1 or of
pi*n, with small kernels:

    (0,1): gamma_n^4          (0,2): (pi n)^4        (0,3): gamma_{n-1}^4
    (1,2): gamma_{n-1}^4      (1,3): (pi (n-1))^4    (2,3): gamma_{n-2}^4

with the convention gamma_{-1} = gamma_0 = 0.  An interval of length L
rescales eigenvalues by L^-4.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import BoundReport, InputError, Spectrum, check_length
from .roots1d import gamma_value

__all__ = [
    "KERNEL_DIMS",
    "ONE_D_PAIRS",
    "spectrum_1d",
    "count_reaching",
    "identity_check",
    "MAX_COUNT",
]

KERNEL_DIMS = {(0, 1): 0, (0, 2): 0, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 2}
# The six admissible derivative pairs (i,j), i < j, of the interval problems.
ONE_D_PAIRS = tuple(KERNEL_DIMS)
# The longest spectrum built: 10^6 values take 3-6 s and 315 MB on a 2-CPU
# machine and reach z = 9.7e25 on the unit interval (``count_reaching``).
# The workloads need at most 2,001.
MAX_COUNT = 10 ** 6


def _check_count(count: int) -> int:
    if count > MAX_COUNT:
        raise InputError(f"count={count} exceeds MAX_COUNT={MAX_COUNT}")
    return count


def _check_pair(pair: Sequence[int]) -> tuple[int, int]:
    """The pair as a tuple of two ints; ``InputError`` unless the whole
    sequence equals one of ONE_D_PAIRS."""
    pair = tuple(pair)
    if pair not in ONE_D_PAIRS:
        raise InputError(f"invalid pair {pair}; expected one of {ONE_D_PAIRS}")
    return tuple(int(v) for v in pair)


def _root_index(pair: tuple[int, int], n: int) -> int:
    """Index into the gamma sequence for the n-th eigenvalue of the pair."""
    i, j = pair
    return n - (i + j - 1) // 2  # (0,1)->n, (0,3)/(1,2)->n-1, (2,3)->n-2


def spectrum_1d(pair: tuple[int, int], count: int, length: float = 1.0) -> Spectrum:
    """First ``count`` eigenvalues of the (i,j) problem on [0, L], at most
    MAX_COUNT of them; ``length`` obeys ``core.check_length``."""
    pair = _check_pair(pair)
    if count < 1:
        raise InputError(f"count={count} must be >= 1")
    _check_count(count)
    scale = check_length(length) ** -4
    values = []
    for n in range(1, count + 1):
        if pair == (0, 2):
            base = (math.pi * n) ** 4
        elif pair == (1, 3):
            base = (math.pi * (n - 1)) ** 4
        else:
            base = gamma_value(_root_index(pair, n)) ** 4
        values.append(base * scale)
    return Spectrum(tuple(values))


def count_reaching(z: float, length: float = 1.0) -> int:
    """A count whose ``spectrum_1d(pair, count, length)`` reaches z for every pair.

    ceil(L z^(1/4) / pi) + 2.  Proof: every positive root has
    gamma_m > pi m (by more than 1.5), and no pair's n-th eigenvalue lags
    the sequences gamma_m^4, (pi m)^4 by more than two indices (the worst is
    (2,3), whose n-th value is gamma_{n-2}^4).  So the n-th eigenvalue of
    every pair is at least (pi (n - 2) / L)^4, which is z or more once
    n - 2 >= L z^(1/4) / pi.  The margin in the root scale is far above
    rounding.  The count exceeds the shortest covering one by at most three
    (pair (0,1), whose n-th root lies below pi (n + 1/2) + 0.02).
    ``InputError`` when the count exceeds MAX_COUNT or ``length`` breaks
    ``core.check_length``.
    """
    if not (0.0 <= z < math.inf):
        raise InputError(f"z={z} must be finite and >= 0")
    return _check_count(math.ceil(check_length(length) * z ** 0.25 / math.pi) + 2)


def identity_check(n_max: int) -> list[BoundReport]:
    """Shared-root identities, entrywise interlacing and the Weyl-type cap.

    The identities hold exactly (bit-for-bit) because all four spectra read
    the same cached root; the interlacing chain and the Neumann bound
    Lambda^(2,3)_n <= pi^4 (n-1)^4 are asserted with zero tolerance.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out: list[BoundReport] = []
    for n in range(1, n_max + 1):
        g4 = gamma_value(n) ** 4
        ids = {
            "(0,3)[n+1]": gamma_value(_root_index((0, 3), n + 1)) ** 4,
            "(1,2)[n+1]": gamma_value(_root_index((1, 2), n + 1)) ** 4,
            "(2,3)[n+2]": gamma_value(_root_index((2, 3), n + 2)) ** 4,
        }
        for label, other in ids.items():
            out.append(BoundReport(
                "identity-shared-root", (("n", str(n)), ("rhs", label)),
                g4, other, other - g4, g4 == other, "riesz-1-d"))

        chain = [
            ("(0,1)>=(0,2)", (math.pi * n) ** 4, g4),
            ("(0,2)>=(0,3)", gamma_value(n - 1) ** 4, (math.pi * n) ** 4),
            ("(0,3)==(1,2)", gamma_value(n - 1) ** 4, gamma_value(n - 1) ** 4),
            ("(1,2)>=(1,3)", (math.pi * (n - 1)) ** 4, gamma_value(n - 1) ** 4),
            ("(1,3)>=(2,3)", gamma_value(n - 2) ** 4, (math.pi * (n - 1)) ** 4),
        ]
        for label, lo, hi in chain:
            out.append(BoundReport.less_equal(
                "interlacing", lo, hi, "riesz-1-d", params={"n": n, "link": label}))

        out.append(BoundReport.less_equal(
            "neumann-weyl-cap", gamma_value(n - 2) ** 4, (math.pi * (n - 1)) ** 4,
            "riesz-1-d", params={"n": n}))
    return out
