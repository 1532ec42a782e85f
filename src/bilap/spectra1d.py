"""Exact spectra and eigenfunctions of the six fourth-order interval problems.

The pair (i,j) prescribes which derivatives vanish at both endpoints.  All
six spectra are powers of the roots gamma_n of cos(g) cosh(g) = 1 or of
pi*n, with small kernels:

    (0,1): gamma_n^4          (0,2): (pi n)^4        (0,3): gamma_{n-1}^4
    (1,2): gamma_{n-1}^4      (1,3): (pi (n-1))^4    (2,3): gamma_{n-2}^4

with the convention gamma_{-1} = gamma_0 = 0.  An interval of length L
rescales eigenvalues by L^-4 and eigenfunction arguments by x/L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import BoundReport, Spectrum
from .roots1d import gamma_value

__all__ = [
    "Eigenfunction1D",
    "KERNEL_DIMS",
    "ONE_D_PAIRS",
    "MAX_EIGENFUNCTION_INDEX",
    "spectrum_1d",
    "count_reaching",
    "eigenfunction_1d",
    "eval_eigenfunction",
    "identity_check",
]

KERNEL_DIMS = {(0, 1): 0, (0, 2): 0, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 2}
# The six admissible derivative pairs (i,j), i < j, of the interval problems.
ONE_D_PAIRS = tuple(KERNEL_DIMS)

# Beyond this index the boundary residuals of the hyperbolic closed forms can
# no longer be certified in double precision; only eigenvalues are exposed.
MAX_EIGENFUNCTION_INDEX = 40

_BC_RESIDUAL_SCALE = 1e-8


def _check_pair(pair: Sequence[int]) -> tuple[int, int]:
    """The pair as a tuple of two ints; ``ValueError`` unless the whole
    sequence equals one of ONE_D_PAIRS."""
    pair = tuple(pair)
    if pair not in ONE_D_PAIRS:
        raise ValueError(f"invalid pair {pair}; expected one of {ONE_D_PAIRS}")
    return tuple(int(v) for v in pair)


def _root_index(pair: tuple[int, int], n: int) -> int:
    """Index into the gamma sequence for the n-th eigenvalue of the pair."""
    i, j = pair
    return n - (i + j - 1) // 2  # (0,1)->n, (0,3)/(1,2)->n-1, (2,3)->n-2


def spectrum_1d(pair: tuple[int, int], count: int, length: float = 1.0) -> Spectrum:
    """First ``count`` eigenvalues of the (i,j) problem on [0, L]."""
    pair = _check_pair(pair)
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (length > 0.0):
        raise ValueError("length must be positive")
    scale = length ** -4
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
    """
    if not (0.0 <= z < math.inf):
        raise ValueError(f"z={z} must be finite and >= 0")
    if not (length > 0.0):
        raise ValueError("length must be positive")
    return math.ceil(length * z ** 0.25 / math.pi) + 2


@dataclass(frozen=True)
class Eigenfunction1D:
    """Closed-form eigenfunction stored as stable basis coefficients.

    ``form == "exp_trig"`` means u(x) = P e^(g x) + Q e^(-g x) + R cos(g x)
    + S sin(g x) on the unit interval; P carries the exponentially small
    combination (A -/+ 1)/2 in exact rewritten form, which avoids the
    catastrophic cancellation of evaluating A cosh - sinh directly.
    ``form == "poly"`` holds kernel elements as polynomial coefficients.
    """

    pair: tuple[int, int]
    n: int
    gamma: float
    coefficient: float  # the normalising ratio A of the closed form (0 for poly)
    form: str           # "exp_trig" | "poly"
    exp_plus: float = 0.0
    exp_minus: float = 0.0
    cos_coef: float = 0.0
    sin_coef: float = 0.0
    poly: tuple[float, ...] = ()
    length: float = 1.0

    def __post_init__(self) -> None:
        _verify_boundary_conditions(self)


def _exp_trig_coefficients(pair: tuple[int, int], g: float) -> tuple[float, float, float, float, float]:
    """A and (P, Q, R, S) for the four hyperbolic closed forms.

    All numerators are rewritten with cosh g - sinh g = e^-g and
    cosh g + sinh g = e^g so that no difference of near-equal large terms
    is ever formed.
    """
    cg, sg, eg = math.cos(g), math.sin(g), math.exp(-g)
    denom = math.cosh(g) - cg
    if pair == (0, 1):
        a = (math.sinh(g) - sg) / denom
        p = (cg - sg - eg) / (2.0 * denom)
        q = (math.exp(g) - sg - cg) / (2.0 * denom)
        return a, p, q, -a, 1.0
    if pair == (0, 3):
        a = (math.sinh(g) + sg) / denom
        p = (sg + cg - eg) / (2.0 * denom)
        q = (math.exp(g) + sg - cg) / (2.0 * denom)
        return a, p, q, -a, -1.0
    if pair == (1, 2):
        a = (math.sinh(g) - sg) / denom
        p = (eg - cg + sg) / (2.0 * denom)
        q = (math.exp(g) - cg - sg) / (2.0 * denom)
        return a, p, q, 1.0, a
    if pair == (2, 3):
        # Free-free form A(cosh + cos) - (sinh + sin); the sinh and sin enter
        # with the same sign, which is what makes u'' and u''' vanish at 0.
        a = (math.sinh(g) - sg) / denom
        p = (cg - sg - eg) / (2.0 * denom)
        q = (math.exp(g) - sg - cg) / (2.0 * denom)
        return a, p, q, a, -1.0
    raise ValueError(f"pair {pair} has no hyperbolic closed form")


def eigenfunction_1d(pair: tuple[int, int], n: int, length: float = 1.0) -> Eigenfunction1D:
    """Closed-form eigenfunction for the n-th mode of the (i,j) problem."""
    pair = _check_pair(pair)
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if n > MAX_EIGENFUNCTION_INDEX:
        raise ValueError(
            f"eigenfunctions are exposed only for n <= {MAX_EIGENFUNCTION_INDEX}")
    if not (length > 0.0):
        raise ValueError("length must be positive")

    if pair == (0, 2):
        g = math.pi * n
        return Eigenfunction1D(pair, n, g, 0.0, "exp_trig", sin_coef=1.0, length=length)
    if pair == (1, 3):
        g = math.pi * (n - 1)
        if n == 1:
            return Eigenfunction1D(pair, n, 0.0, 0.0, "poly", poly=(1.0,), length=length)
        return Eigenfunction1D(pair, n, g, 0.0, "exp_trig", cos_coef=1.0, length=length)

    kernel = KERNEL_DIMS[pair]
    if n <= kernel:
        if pair == (0, 3):
            poly = (0.0, 1.0, -1.0)        # x(1-x)
        elif pair == (1, 2):
            poly = (1.0,)
        else:  # (2,3): kernel {1, x}
            poly = (1.0,) if n == 1 else (0.0, 1.0)
        return Eigenfunction1D(pair, n, 0.0, 0.0, "poly", poly=poly, length=length)

    g = gamma_value(_root_index(pair, n))
    a, p, q, r, s = _exp_trig_coefficients(pair, g)
    return Eigenfunction1D(pair, n, g, a, "exp_trig",
                           exp_plus=p, exp_minus=q, cos_coef=r, sin_coef=s,
                           length=length)


def eval_eigenfunction(ef: Eigenfunction1D, x: float, deriv: int = 0) -> float:
    """Value of the requested derivative (0..3) at x in [0, L]."""
    if deriv not in (0, 1, 2, 3):
        raise ValueError("derivative order must be in {0, 1, 2, 3}")
    if not (0.0 <= x <= ef.length):
        raise ValueError(f"x={x} outside [0, {ef.length}]")
    t = x / ef.length
    chain = ef.length ** -deriv

    if ef.form == "poly":
        coeffs = list(ef.poly)
        for _ in range(deriv):
            coeffs = [k * c for k, c in enumerate(coeffs)][1:]
        val = 0.0
        for c in reversed(coeffs):
            val = val * t + c
        return val * chain

    g = ef.gamma
    p, q, r, s = ef.exp_plus, ef.exp_minus, ef.cos_coef, ef.sin_coef
    for _ in range(deriv):
        p, q, r, s = g * p, -g * q, g * s, -g * r
    return (p * math.exp(g * t) + q * math.exp(-g * t)
            + r * math.cos(g * t) + s * math.sin(g * t)) * chain


def _verify_boundary_conditions(ef: Eigenfunction1D) -> None:
    """Self-check at construction: the pair's derivatives vanish at both ends.

    The tolerance scales like gamma^4 * eps because the stored root is only
    accurate to ~eps*gamma; a wrong closed form fails by O(gamma^3) and is
    always caught.
    """
    i, j = ef.pair
    scale = _BC_RESIDUAL_SCALE + ef.gamma ** 4 * 1e-14
    for end in (0.0, ef.length):
        for order in (i, j):
            res = eval_eigenfunction(ef, end, order) * ef.length ** order
            if abs(res) > scale:
                raise AssertionError(
                    f"boundary residual {res:.3e} at x={end} order={order} "
                    f"for pair {ef.pair}, n={ef.n}")


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
