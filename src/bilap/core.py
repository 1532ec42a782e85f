"""Shared domain types, dimensional constants and rectangle geometry.

Everything here is immutable and pure: boundary-condition tags, interval /
rectangle domains with exact collar (tube) volumes, the dimensional constants
that appear in Weyl terms and trial-function estimates, ordered spectra, and
the ``BoundReport`` record used by every inequality check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "InputError",
    "MIN_LENGTH",
    "MAX_LENGTH",
    "check_length",
    "BCKind",
    "BoundaryCondition",
    "DomainSpec",
    "DimensionalConstants",
    "Spectrum",
    "BoundReport",
    "dimensional_constants",
    "tube_volume",
]


class InputError(ValueError):
    """An argument outside the domain of the function that received it."""


# The admissible lengths of a domain or an interval (``check_length``).
MIN_LENGTH = 1e-30
MAX_LENGTH = 1e30


def check_length(length: float) -> float:
    """``length`` unless it lies outside [MIN_LENGTH, MAX_LENGTH]: then
    ``InputError``.  This is the one length rule; ``DomainSpec`` applies it
    to each side and ``spectra1d`` to its interval length.

    The bounds keep the largest powers of a length that the layers take
    finite and nonzero in float64 (below about 1.8e308, above 2.2e-308),
    with at least 1e30 to spare:
    - L^-4, the scale of ``spectra1d.spectrum_1d``: at most 1e120, times
      values (pi n)^4 < 1e26 for n up to its MAX_COUNT;
    - r^d and r^-4 of ``avp.inscribed_ball_profile``, r = L/2 and d <= 2:
      r^2 at most 2.5e59 and at least 2.5e-61, r^-4 at most 1.6e121 (times
      107 in the Laplacian ratio);
    - h^-4 on the finest grid, h = L/(n+1): the FD stencil and its sine
      form reach 64 h^-4, and the residual norms square that.  For n + 1 up
      to 10^4 (10^8 unknowns, far past what memory holds) h^-4 is at most
      1e136 and the square 4e275; at L = MAX_LENGTH the stencil's entries
      fall to about 1e-120 and the Woodbury inverse's rise to 1e120, whose
      squares stay normal;
    - s0^4 = (k / (c0 |Omega|))^(4/d) of ``semiclassical``'s predictors,
      d >= 2: 1.6e122 k^2 on a square of side MIN_LENGTH.
    """
    if not (MIN_LENGTH <= length <= MAX_LENGTH):
        raise InputError(f"length {length!r} outside [{MIN_LENGTH:g}, {MAX_LENGTH:g}]")
    return length


class BCKind(Enum):
    DIRICHLET = "dirichlet"
    NAVIER = "navier"
    KUTTLER_SIGILLITO = "kuttler_sigillito"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition tag: a d>=2 kind with its Poisson ratio.

    ``poisson_ratio == 1`` is representable only for Navier and
    Kuttler-Sigillito, where the fourth-order problem collapses onto the
    square of the corresponding Laplacian; such instances are flagged as
    limit cases in reports.
    """

    kind: BCKind
    poisson_ratio: float = 0.0

    def __post_init__(self) -> None:
        a = self.poisson_ratio
        if not math.isfinite(a) or a > 1.0:
            raise InputError(f"Poisson ratio {a} out of range (must be <= 1)")
        if a == 1.0 and self.kind in (BCKind.DIRICHLET, BCKind.NEUMANN):
            raise InputError(f"a = 1 is not admissible for {self.kind.value}")

    @property
    def is_limit_case(self) -> bool:
        """True when a = 1 (square-of-Laplacian identification)."""
        return self.poisson_ratio == 1.0

    def check_admissible(self, d: int) -> None:
        """Raise unless the Poisson ratio lies in (-1/(d-1), 1] for dimension d."""
        if d < 2:
            raise InputError(f"Poisson-ratio boundary conditions require d >= 2, got d={d}")
        if not (-1.0 / (d - 1) < self.poisson_ratio <= 1.0):
            raise InputError(
                f"Poisson ratio {self.poisson_ratio} outside (-1/{d - 1}, 1] for d={d}"
            )

    def label(self) -> str:
        if self.kind is BCKind.DIRICHLET:
            return "dirichlet"
        return f"{self.kind.value}(a={self.poisson_ratio:g})"


@dataclass(frozen=True)
class DomainSpec:
    """Interval or axis-aligned rectangle with its derived exact geometry."""

    shape: str  # "interval" | "rectangle"
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.shape == "interval":
            if len(self.lengths) != 1:
                raise InputError(f"interval takes one length, got {self.lengths}")
        elif self.shape == "rectangle":
            if len(self.lengths) != 2:
                raise InputError(f"rectangle takes two side lengths, got {self.lengths}")
        else:
            raise InputError(f"unknown shape {self.shape!r}")
        for length in self.lengths:
            check_length(length)

    @classmethod
    def interval(cls, length: float) -> "DomainSpec":
        return cls("interval", (float(length),))

    @classmethod
    def rectangle(cls, lx: float, ly: float) -> "DomainSpec":
        return cls("rectangle", (float(lx), float(ly)))

    @classmethod
    def square(cls, side: float) -> "DomainSpec":
        return cls.rectangle(side, side)

    @property
    def dimension(self) -> int:
        return 1 if self.shape == "interval" else 2

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    @property
    def boundary_measure(self) -> float:
        """|dOmega|: perimeter for rectangles, endpoint count for intervals."""
        if self.shape == "interval":
            return 2.0
        lx, ly = self.lengths
        return 2.0 * (lx + ly)

    @property
    def inradius(self) -> float:
        return min(self.lengths) / 2.0

    def label(self) -> str:
        if self.shape == "interval":
            return f"interval:{self.lengths[0]:g}"
        lx, ly = self.lengths
        if lx == ly:
            return f"square:{lx:g}"
        return f"rect:{lx:g}x{ly:g}"


def tube_volume(dom: DomainSpec, h: float) -> float:
    """Exact measure of the inner collar {x in Omega : dist(x, dOmega) <= h}.

    Requires 0 <= h <= inradius.  For a rectangle this is inclusion-exclusion
    on the inner rectangle, |Omega| - (Lx-2h)(Ly-2h) = h|dOmega| - 4h^2.
    """
    if not (0.0 <= h <= dom.inradius):
        raise ValueError(f"h={h} outside [0, inradius={dom.inradius}]")
    if dom.shape == "interval":
        return min(2.0 * h, dom.lengths[0])
    lx, ly = dom.lengths
    return lx * ly - (lx - 2.0 * h) * (ly - 2.0 * h)


@dataclass(frozen=True)
class DimensionalConstants:
    """Closed-form constants depending only on the dimension d."""

    d: int
    ball_volume: float          # B_d, volume of the unit d-ball
    classical: float            # C_d = (2 pi)^2 B_d^(-2/d)
    grad_sup: float             # A_d, sup-gradient constant of the mollifier
    lap_sup: float              # Atilde_d, sup-Laplacian constant
    a_d: float
    b_d: float
    c_d: float
    m_d: float                  # second-term constant of the explicit sum bound


# Typed, so that a float such as 2.0 never finds the entry of the int 2 and
# is refused like any other non-int.
@lru_cache(maxsize=None, typed=True)
def dimensional_constants(d: int) -> DimensionalConstants:
    """Evaluate every dimensional constant at integer dimension d >= 1."""
    if not isinstance(d, int) or d < 1:
        raise InputError(f"dimension must be an integer >= 1, got {d!r}")
    b_ball = math.pi ** (d / 2.0) / math.gamma(1.0 + d / 2.0)
    classical = (2.0 * math.pi) ** 2 * b_ball ** (-2.0 / d)
    grad_sup = math.sqrt(8.0 * d * (d + 2) * (d + 4) / (d + 6))
    lap_sup = math.sqrt(64.0 * d * d * (d + 4) ** 2 * (d / (d + 2.0)) ** d)
    a_d = (d + 2) * (d + 4) * (d + 6) * (d + 8) / (384.0 * b_ball)
    b_d = a_d * (d * (d + 8) / 3.0) ** (d / 2.0)
    c_d = (8.0 + d * (d - 2)) * (d + 6) * (d + 8) / 6.0
    m_d = 8.0 * math.sqrt(d * (d + 2) / (d + 6.0)) * (
        2.0 + (d + 6) ** 2 / ((d + 2) ** 2 * (d + 4.0)) * (d / (d + 2.0)) ** d
    )
    return DimensionalConstants(
        d=d, ball_volume=b_ball, classical=classical, grad_sup=grad_sup,
        lap_sup=lap_sup, a_d=a_d, b_d=b_d, c_d=c_d, m_d=m_d,
    )


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenvalue list: finite, nonnegative and nondecreasing.

    A spectrum is plain data: it holds the values it was built with and
    never grows.  A caller that needs values up to a threshold builds the
    spectrum long enough in the first place (``spectra1d.count_reaching``
    sizes the interval spectra).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = self.values
        if any(v < 0.0 or not math.isfinite(v) for v in vals):
            raise ValueError("eigenvalues must be finite and nonnegative")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("eigenvalues must be nondecreasing")

    def __len__(self) -> int:
        return len(self.values)

    def value(self, j: int) -> float:
        """1-based eigenvalue access (omega_j)."""
        if j < 1 or j > len(self.values):
            raise IndexError(f"eigenvalue index {j} outside 1..{len(self.values)}")
        return self.values[j - 1]


class BoundReport(NamedTuple):
    """Record of one inequality check, oriented as lhs <= rhs.

    ``asserted=False`` marks reported-only checks whose holds-flag must not
    affect exit codes (e.g. the odd-n defect lower bracket).  A named
    tuple rather than a frozen dataclass, whose ``__init__`` sets each
    field through ``object.__setattr__``: ``bilap all`` builds 7,696 rows.
    """

    check: str
    params: tuple[tuple[str, str], ...]
    lhs: float
    rhs: float
    margin: float
    holds: bool
    paper_ref: str
    asserted: bool = True

    @classmethod
    def less_equal(
        cls,
        check: str,
        lhs: float,
        rhs: float,
        paper_ref: str,
        *,
        params: dict | None = None,
        asserted: bool = True,
        tol: float = 0.0,
    ) -> "BoundReport":
        items = tuple([(str(k), str(v).replace(" ", "")) for k, v in params.items()]
                      if params else ())
        margin = rhs - lhs
        return cls(check, items, float(lhs), float(rhs), float(margin),
                   bool(lhs <= rhs + tol), paper_ref, asserted)

    @classmethod
    def value_row(cls, check: str, value: float, paper_ref: str = "",
                  params: dict | None = None) -> "BoundReport":
        """Informational row carrying a computed quantity, never asserted."""
        items = tuple([(str(k), str(v).replace(" ", "")) for k, v in params.items()]
                      if params else ())
        value = float(value)
        return cls(check, items, value, value, 0.0, True, paper_ref, False)
