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

__all__ = [
    "BCKind",
    "BoundaryCondition",
    "DomainSpec",
    "DimensionalConstants",
    "Spectrum",
    "BoundReport",
    "dimensional_constants",
    "tube_volume",
    "kahan_sum",
]


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
            raise ValueError(f"Poisson ratio {a} out of range (must be <= 1)")
        if a == 1.0 and self.kind in (BCKind.DIRICHLET, BCKind.NEUMANN):
            raise ValueError(f"a = 1 is not admissible for {self.kind.value}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls(BCKind.DIRICHLET)

    @classmethod
    def navier(cls, a: float) -> "BoundaryCondition":
        return cls(BCKind.NAVIER, poisson_ratio=a)

    @classmethod
    def kuttler_sigillito(cls, a: float) -> "BoundaryCondition":
        return cls(BCKind.KUTTLER_SIGILLITO, poisson_ratio=a)

    @classmethod
    def neumann(cls, a: float) -> "BoundaryCondition":
        return cls(BCKind.NEUMANN, poisson_ratio=a)

    # -- queries -------------------------------------------------------------

    @property
    def is_limit_case(self) -> bool:
        """True when a = 1 (square-of-Laplacian identification)."""
        return self.poisson_ratio == 1.0

    def check_admissible(self, d: int) -> None:
        """Raise unless the Poisson ratio lies in (-1/(d-1), 1] for dimension d."""
        if d < 2:
            raise ValueError("Poisson-ratio boundary conditions require d >= 2")
        if not (-1.0 / (d - 1) < self.poisson_ratio <= 1.0):
            raise ValueError(
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
                raise ValueError("interval takes one length")
        elif self.shape == "rectangle":
            if len(self.lengths) != 2:
                raise ValueError("rectangle takes two side lengths")
        else:
            raise ValueError(f"unknown shape {self.shape!r}")
        if any(not (0.0 < s < math.inf) for s in self.lengths):
            raise ValueError("all lengths must be positive and finite")

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


def dimensional_constants(d: int) -> DimensionalConstants:
    """Evaluate every dimensional constant at integer dimension d >= 1."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d!r}")
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


@dataclass(frozen=True)
class BoundReport:
    """Record of one inequality check, oriented as lhs <= rhs.

    ``asserted=False`` marks reported-only checks whose holds-flag must not
    affect exit codes (e.g. the odd-n defect lower bracket).
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
        items = tuple((str(k), str(v).replace(" ", "")) for k, v in (params or {}).items())
        margin = rhs - lhs
        return cls(check, items, float(lhs), float(rhs), float(margin),
                   bool(lhs <= rhs + tol), paper_ref, asserted)

    @classmethod
    def value_row(cls, check: str, value: float, paper_ref: str = "",
                  params: dict | None = None) -> "BoundReport":
        """Informational row carrying a computed quantity, never asserted."""
        items = tuple((str(k), str(v).replace(" ", "")) for k, v in (params or {}).items())
        return cls(check, items, float(value), float(value), 0.0, True,
                   paper_ref, asserted=False)


def kahan_sum(terms) -> float:
    """Compensated summation; used for Riesz sums beyond 1e4 terms."""
    total = 0.0
    carry = 0.0
    for t in terms:
        y = t - carry
        s = total + y
        carry = (s - total) - y
        total = s
    return total
