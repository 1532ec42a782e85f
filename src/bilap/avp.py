"""Averaged-variational-principle bounds: trial profiles, certified average /
Riesz / heat-trace bounds, individual-eigenvalue sandwiches, and the refined
Young-inequality route to two-sided Neumann bounds.

Two trial families are built: the quartic bump supported in the inscribed
ball (closed-form norms) and the mollified inner-collar indicator
phi_h = 1_{h/2} * eta_{h/2} (grid convolution norms with a recorded
Richardson error estimate).  On a rectangle the collar indicator is the
tensor product of two interval indicators, so each sampled convolution is
two small matrix products.  Grid lines whose convolution windows see the
same indicator values form one row class, so each field is held once per
pair of classes (about 200 x 200 values) rather than once per grid point,
and the trapezoid norms carry each class's summed weights.  Every bound
below is an assertable inequality against an exact 1D or finite-difference
2D spectrum.

The recorded error estimate compares trapezoid sums of the same sampled
fields on the grid and on its [::2, ::2] subgrid, so it reads quadrature
round-off (about 1e-16), not the error of sampling the convolution itself.
On the unit square at h = 0.1, ``lap_l2_sq`` moves 3.9% between
``grid_res`` 96 and 384, ``grad_l2_sq`` 5.8e-5 and ``l2_sq`` 5.9e-6, the
96-point ``l2_sq`` being the larger (the non-conservative direction for
``rho`` and the R_1 lower bound).  The rows use the 96-point norms as they
are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    BoundReport,
    DomainSpec,
    Spectrum,
    dimensional_constants,
    tube_volume,
)

__all__ = [
    "TestFunctionProfile",
    "ResolutionError",
    "ThresholdError",
    "inscribed_ball_profile",
    "mollified_indicator_profile",
    "avg_upper_bound",
    "riesz_lower_bound",
    "partition_lower_bound",
    "rough_bound",
    "explicit_sum_threshold",
    "collar_width_for_k",
    "explicit_sum_bound",
    "step_average_bound",
    "individual_bounds",
    "modulus_bound",
    "KroegerLaptevPoint",
    "kroeger_laptev_refined",
    "kroeger_laptev_report",
    "young_refined",
    "navier_cross_inequalities",
    "EPSILON_DEFAULT",
]

EPSILON_DEFAULT = math.sqrt(2.0)

MAX_QUADRATURE_REL_ERR = 1e-4


class ResolutionError(RuntimeError):
    """Grid quadrature error estimate exceeded the admissible 1e-4."""


class ThresholdError(ValueError):
    """k below the admissible range of the explicit sum bound."""


@dataclass(frozen=True)
class TestFunctionProfile:
    """Concrete trial function with certified squared norms.

    The fields are the measured squared norms and sup only; the dimension
    ``d`` and the density ``rho`` = ||phi||_2^2 / (|Omega| ||phi||_inf^2),
    which must stay below 1 for the average bound, are derived from them.
    Quadrature-backed profiles carry the Richardson relative error estimate
    (closed forms carry 0); ``pessimistic()`` shrinks the L2 mass and
    inflates the gradient/Laplacian masses by that estimate so that any
    bound evaluated from the adjusted profile errs on the conservative side.
    """

    __test__ = False  # not a pytest class, despite the Test* name

    kind: str                     # "inscribed_ball" | "mollified_indicator"
    dom: DomainSpec
    l2_sq: float
    grad_l2_sq: float
    lap_l2_sq: float
    sup_sq: float
    est_rel_err: float = 0.0

    @property
    def d(self) -> int:
        return self.dom.dimension

    @property
    def rho(self) -> float:
        return self.l2_sq / (self.dom.volume * self.sup_sq)

    @property
    def grad_ratio(self) -> float:
        return self.grad_l2_sq / self.l2_sq

    @property
    def lap_ratio(self) -> float:
        return self.lap_l2_sq / self.l2_sq

    def pessimistic(self) -> "TestFunctionProfile":
        if self.est_rel_err == 0.0:
            return self
        e = self.est_rel_err
        return replace(
            self,
            l2_sq=self.l2_sq * (1.0 - e),
            grad_l2_sq=self.grad_l2_sq * (1.0 + e),
            lap_l2_sq=self.lap_l2_sq * (1.0 + e),
        )


def inscribed_ball_profile(dom: DomainSpec) -> TestFunctionProfile:
    """Quartic bump ((|x|/r)^2 - 1)^2 on the inscribed ball, closed-form norms."""
    d = dom.dimension
    r = dom.inradius
    dc = dimensional_constants(d)
    l2 = 384.0 * r ** d * dc.ball_volume / ((d + 2) * (d + 4) * (d + 6) * (d + 8))
    grad_ratio = d * (d + 8) / (3.0 * r * r)
    lap_ratio = (8.0 + d * (d - 2)) * (d + 6) * (d + 8) / (6.0 * r ** 4)
    return TestFunctionProfile(
        kind="inscribed_ball", dom=dom,
        l2_sq=l2, grad_l2_sq=grad_ratio * l2, lap_l2_sq=lap_ratio * l2, sup_sq=1.0,
    )


# ----------------------------------------------------------------------------
# Mollified indicator on rectangles
# ----------------------------------------------------------------------------

def _bump_constant(d: int) -> float:
    return (d * d + 6.0 * d + 8.0) / (8.0 * dimensional_constants(d).ball_volume)


def _kernel_samples(h2: float, dx: float, dy: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sampled eta_{h2}, its gradient components and Laplacian on the offset grid."""
    c = _bump_constant(2)
    kx = int(math.ceil(h2 / dx))
    ky = int(math.ceil(h2 / dy))
    ox = (np.arange(-kx, kx + 1) * dx)[:, None]
    oy = (np.arange(-ky, ky + 1) * dy)[None, :]
    rr = np.hypot(ox, oy) / h2
    inside = rr < 1.0
    base = np.where(inside, (rr * rr - 1.0) ** 2, 0.0)
    eta = c / h2 ** 2 * base
    # f'(r) = 4 c r (r^2 - 1); radial direction (ox, oy)/|o|
    fprime = np.where(inside, 4.0 * c * rr * (rr * rr - 1.0), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_x = np.where(rr > 0.0, ox / (rr * h2), 0.0)
        unit_y = np.where(rr > 0.0, oy / (rr * h2), 0.0)
    gx = fprime * unit_x / h2 ** 3
    gy = fprime * unit_y / h2 ** 3
    # Delta eta = h2^-4 * (f'' + f'/r) = h2^-4 * 8 c (2 r^2 - 1) inside
    lap = np.where(inside, 8.0 * c * (2.0 * rr * rr - 1.0), 0.0) / h2 ** 4
    return eta, gx, gy, lap


def _shift_matrix(a: np.ndarray, half: int) -> np.ndarray:
    """Banded T with T[x, i] = a[x - i + half] (zero out of range), so that
    the centred "same" convolution of outer(a, b) with a (2 half_x + 1) x
    (2 half_y + 1) kernel K is T_a @ K @ T_b.T."""
    padded = np.pad(a, half)
    return np.ascontiguousarray(sliding_window_view(padded, 2 * half + 1)[:, ::-1])


def _row_classes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse): the distinct rows of the 0/1 matrix ``t`` and the
    class of each of its rows, so that t == rows[inverse].  Rows are keyed
    by their packed bits, a few bytes each, rather than by their doubles."""
    bits = np.packbits(t.astype(bool), axis=1)
    keys = bits.view(f"V{bits.shape[1]}").ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return t[first], inverse


def _trapezoid_weights(inverse: np.ndarray, classes: int, step: float) -> np.ndarray:
    """Composite-trapezoid weights of the grid lines summed per class: integer
    counts, minus 1/2 for each end point, times the step (all exact but the
    last product)."""
    counts = np.bincount(inverse, minlength=classes).astype(float)
    counts[inverse[0]] -= 0.5
    counts[inverse[-1]] -= 0.5
    return counts * step


def mollified_indicator_profile(dom: DomainSpec, h: float,
                                grid_res: int = 96) -> TestFunctionProfile:
    """Discrete convolution profile phi_h = 1_{h/2} * eta_{h/2} on a rectangle.

    The collar indicator {dist > h/2} is outer(a, b) with a, b the indicators
    of min(x, lx - x) > h/2 and min(y, ly - y) > h/2, so phi and its sampled
    derivatives are Tx @ K @ Ty.T for each kernel K (``_shift_matrix``).
    Away from the collar edges every row of Tx is the same all-ones or
    all-zeros window, so the grid lines fall into few row classes (about
    four kernel half-widths per axis, some 194 at the default ``grid_res``)
    and each field is formed once per class pair, Ux @ K @ Uy.T with Ux, Uy
    the distinct rows.  The grid resolves h with ``grid_res`` points; norms are
    composite trapezoid sums wx @ F @ wy, where wx, wy are each class's
    summed trapezoid weights (multiplicities), once for the grid and once
    for the half-resolution subgrid that gives the Richardson error
    estimate.  Construction verifies 0 <= phi <= 1 on every class pair and
    phi = 1 on the classes of grid lines away from the collar.
    """
    if dom.shape != "rectangle":
        raise ValueError("mollified profiles are built on rectangles only")
    if not (0.0 < h <= dom.inradius):
        raise ValueError(f"h={h} outside (0, inradius={dom.inradius}]")
    if grid_res < 64:
        raise ValueError("grid_res must be >= 64 points per h")

    lx, ly = dom.lengths
    target = h / grid_res
    mx = 2 * max(2, math.ceil(lx / (2.0 * target)))
    my = 2 * max(2, math.ceil(ly / (2.0 * target)))
    dx, dy = lx / mx, ly / my
    x = np.linspace(0.0, lx, mx + 1)
    y = np.linspace(0.0, ly, my + 1)
    distx = np.minimum(x, lx - x)
    disty = np.minimum(y, ly - y)

    h2 = h / 2.0
    eta, gx_k, gy_k, lap_k = _kernel_samples(h2, dx, dy)
    cell = dx * dy
    mass = eta.sum() * cell
    scale = cell / mass  # renormalise the sampled kernel to unit mass

    ux, cx = _row_classes(_shift_matrix((distx > h2).astype(float), eta.shape[0] // 2))
    uy, cy = _row_classes(_shift_matrix((disty > h2).astype(float), eta.shape[1] // 2))
    phi, gx, gy, lap = ((ux @ (k * scale)) @ uy.T for k in (eta, gx_k, gy_k, lap_k))

    if phi.min() < -1e-10 or phi.max() > 1.0 + 1e-10:
        raise AssertionError(f"phi range [{phi.min()}, {phi.max()}] outside [0, 1]")
    inner = phi[np.ix_(np.unique(cx[distx > h]), np.unique(cy[disty > h]))]
    if inner.size and abs(inner - 1.0).max() > 1e-10:
        raise AssertionError("phi != 1 on the inner region away from the collar")

    nx, ny = len(ux), len(uy)
    fine = (_trapezoid_weights(cx, nx, dx), _trapezoid_weights(cy, ny, dy))
    coarse = (_trapezoid_weights(cx[::2], nx, 2.0 * dx),
              _trapezoid_weights(cy[::2], ny, 2.0 * dy))
    grad_sq = gx * gx + gy * gy
    norms = {}
    errs = {}
    for name, arr in (("l2", phi * phi), ("grad", grad_sq), ("lap", lap * lap)):
        norms[name] = value = float(fine[0] @ arr @ fine[1])
        rough = float(coarse[0] @ arr @ coarse[1])
        errs[name] = abs(value - rough) / (3.0 * abs(value)) if value != 0.0 else 0.0
    est = max(errs.values())
    if est > MAX_QUADRATURE_REL_ERR:
        raise ResolutionError(
            f"quadrature error estimate {est:.2e} exceeds {MAX_QUADRATURE_REL_ERR}; "
            f"raise grid_res (currently {grid_res})")

    return TestFunctionProfile(
        kind="mollified_indicator", dom=dom,
        l2_sq=norms["l2"], grad_l2_sq=norms["grad"], lap_l2_sq=norms["lap"],
        sup_sq=float(phi.max()) ** 2, est_rel_err=est,
    )


# ----------------------------------------------------------------------------
# Bounds from a profile
# ----------------------------------------------------------------------------

def avg_upper_bound(profile: TestFunctionProfile, k: int) -> float:
    """Certified upper bound for the first-k eigenvalue average on the
    profile's domain, in its dimension d.

    (d/(d+4)) C_d^2 (k/|O|)^(4/d) rho^(-4/d)
      + 2 (grad ratio) C_d (k/|O|)^(2/d) rho^(-2/d) + (lap ratio).
    Valid for the clamped average and, by eigenvalue comparison, for the
    Navier and Kuttler-Sigillito averages as well.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = profile.pessimistic()
    rho = p.rho
    if not (rho < 1.0):
        raise ValueError(f"profile density rho={rho} must be < 1")
    d = p.d
    dc = dimensional_constants(d)
    kv = k / p.dom.volume
    return (d / (d + 4.0) * dc.classical ** 2 * kv ** (4.0 / d) * rho ** (-4.0 / d)
            + 2.0 * p.grad_ratio * dc.classical * kv ** (2.0 / d) * rho ** (-2.0 / d)
            + p.lap_ratio)


def riesz_lower_bound(profile: TestFunctionProfile, z: float) -> float:
    """Lower bound for R_1(z) from the profile (sup-norm majorised form).

    With 0 <= phi <= 1 the eigenfunction-weighted sum is below R_1(z), so

      R_1(z) >= (4/(d+4)) (2 pi)^-d B_d ||phi||_2^2 (z - lap ratio)_+^(d/4+1)
                - 2 (2 pi)^-d B_d ||grad phi||_2^2 (z - lap ratio)_+^(d/4+1/2).
    """
    if not (z > 0.0):
        raise ValueError("z must be positive")
    p = profile.pessimistic()
    if p.sup_sq > 1.0 + 1e-12:
        raise ValueError("the R_1 corollary needs a profile with sup |phi| <= 1")
    d = p.d
    dc = dimensional_constants(d)
    shifted = max(0.0, z - p.lap_ratio)
    pref = (2.0 * math.pi) ** -d * dc.ball_volume
    return (4.0 / (d + 4.0) * pref * p.l2_sq * shifted ** (d / 4.0 + 1.0)
            - 2.0 * pref * p.grad_l2_sq * shifted ** (d / 4.0 + 0.5))


def partition_lower_bound(profile: TestFunctionProfile, t: float) -> tuple[float, float]:
    """(weighted, unweighted) heat-trace lower bounds at time t > 0.

    ``weighted`` bounds the phi-weighted trace (Laplace transform of the
    Riesz bound); ``unweighted`` bounds sum_j exp(-Lambda_j t) itself, so a
    truncated spectrum can only make the verified inequality easier.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    p = profile.pessimistic()
    d = p.d
    dc = dimensional_constants(d)
    pref = (2.0 * math.pi) ** -d * dc.ball_volume
    g_main = math.gamma(2.0 + d / 4.0)
    g_grad = math.gamma(1.5 + d / 4.0)
    damp = math.exp(-p.lap_ratio * t)
    weighted = (4.0 / (d + 4.0) * pref * g_main * p.l2_sq * damp * t ** (-d / 4.0)
                - 2.0 * pref * g_grad * p.grad_l2_sq * damp * t ** (0.5 - d / 4.0))
    vol = p.dom.volume
    unweighted = (4.0 / (d + 4.0) * pref * g_main * t ** (-d / 4.0) * vol
                  - 4.0 / (d + 4.0) * pref * g_main * t ** (-d / 4.0)
                  * ((t * p.lap_l2_sq + vol * p.sup_sq - p.l2_sq) / p.sup_sq)
                  - 2.0 * pref * g_grad * p.grad_ratio * t ** (0.5 - d / 4.0))
    return weighted, unweighted


# ----------------------------------------------------------------------------
# Geometry-explicit average bounds
# ----------------------------------------------------------------------------

def rough_bound(dom: DomainSpec, d: int, k: int) -> float:
    """Inradius-only average upper bound (valid for every k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dc = dimensional_constants(d)
    vol = dom.volume
    kv = k / vol
    return dom.inradius ** -4 * (
        d / (d + 4.0) * dc.classical ** 2 * (dc.a_d * vol) ** (4.0 / d) * kv ** (4.0 / d)
        + 2.0 * dc.classical * (dc.b_d * vol) ** (2.0 / d) * kv ** (2.0 / d)
        + dc.c_d)


def collar_width_for_k(dom: DomainSpec, d: int, k: int,
                       eps: float = EPSILON_DEFAULT) -> float:
    """Collar width h(k) = sqrt((d+4)/4) A_d C_d^(-1/2) (k/|O|)^(-1/d) eps."""
    dc = dimensional_constants(d)
    return (math.sqrt((d + 4.0) / 4.0) * dc.grad_sup / math.sqrt(dc.classical)
            * (k / dom.volume) ** (-1.0 / d) * eps)


def explicit_sum_threshold(dom: DomainSpec, d: int,
                           eps: float = EPSILON_DEFAULT) -> float:
    """Smallest admissible k: the collar width h(k) must not exceed the
    inradius, i.e. k >= |O| ((d+4)/4)^(d/2) (A_d eps / (C_d^(1/2) r))^d."""
    dc = dimensional_constants(d)
    return dom.volume * ((d + 4.0) / 4.0) ** (d / 2.0) \
        * (dc.grad_sup * eps / (math.sqrt(dc.classical) * dom.inradius)) ** d


def step_average_bound(dom: DomainSpec, d: int, k: int, h: float) -> float:
    """Certified average upper bound at collar width h with the exact |w_h|.

    Branches on the dimension exactly as the derivation does: the d = 2, 3
    route replaces the Bernoulli step by the factored density estimate.
    """
    if not (0.0 < h <= dom.inradius):
        raise ValueError(f"h={h} outside (0, inradius]")
    dc = dimensional_constants(d)
    vol = dom.volume
    w = tube_volume(dom, h)
    rem_vol = vol - w
    if rem_vol <= 0.0:
        return math.inf
    kv = k / vol
    main = d / (d + 4.0) * dc.classical ** 2 * kv ** (4.0 / d)
    if d >= 4:
        t1 = 4.0 / (d + 4.0) * dc.classical ** 2 * kv ** (4.0 / d) * (w / rem_vol)
    else:
        t1 = (2.0 / (d + 4.0) * dc.classical ** 2 * kv ** (4.0 / d)
              * (2.0 * vol / rem_vol) * (w / rem_vol))
    t2 = (2.0 * dc.grad_sup ** 2 * w / (h * h * rem_vol)
          * dc.classical * kv ** (2.0 / d) * (vol / rem_vol) ** (2.0 / d))
    t3 = dc.lap_sup ** 2 * w / (h ** 4 * rem_vol)
    return main + t1 + t2 + t3


def _epsilon_bracket(d: int, eps: float) -> float:
    dc = dimensional_constants(d)
    return eps + 2.0 / eps + 4.0 / (d + 4.0) * dc.lap_sup ** 2 / dc.grad_sup ** 4 / eps ** 3


def second_term_coefficient(dom: DomainSpec, d: int,
                            eps: float = EPSILON_DEFAULT) -> float:
    """Coefficient A with second-term = A k^(3/d); at eps = sqrt(2) this is
    M_d (|dO|/|O|) C_d^(3/2) |O|^(-3/d), the constant fed to the individual
    eigenvalue sandwich."""
    dc = dimensional_constants(d)
    return (math.sqrt(4.0 / (d + 4.0)) * dc.grad_sup * dc.classical ** 1.5
            * (dom.boundary_measure / dom.volume) * dom.volume ** (-3.0 / d)
            * _epsilon_bracket(d, eps))


def explicit_sum_bound(dom: DomainSpec, d: int, k: int,
                       eps: float = EPSILON_DEFAULT) -> tuple[float, float, float]:
    """(main, second, remainder): asymptotically sharp average upper bound.

    main   = (d/(d+4)) C_d^2 (k/|O|)^(4/d)
    second = M_d (|dO|/|O|) C_d^(3/2) (k/|O|)^(3/d)      (at eps = sqrt(2))
    remainder = certified collar bound minus the two model terms, so that
    main + second + remainder is exactly the certified bound at h(k).

    Raises ThresholdError when h(k) would exceed the inradius.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    threshold = explicit_sum_threshold(dom, d, eps)
    if k < threshold:
        raise ThresholdError(
            f"k={k} below admissible threshold {threshold:.3f}; use rough_bound")
    dc = dimensional_constants(d)
    vol, per = dom.volume, dom.boundary_measure
    kv = k / vol
    main = d / (d + 4.0) * dc.classical ** 2 * kv ** (4.0 / d)
    second = (math.sqrt(4.0 / (d + 4.0)) * dc.grad_sup * dc.classical ** 1.5
              * kv ** (3.0 / d) * (per / vol) * _epsilon_bracket(d, eps))
    h = collar_width_for_k(dom, d, k, eps)
    certified = step_average_bound(dom, d, k, h)
    return main, second, certified - main - second


# ----------------------------------------------------------------------------
# Individual eigenvalue sandwich
# ----------------------------------------------------------------------------

def individual_bounds(dom: DomainSpec, d: int, A: float, k: int) -> tuple[float, float]:
    """Asymptotically Weyl-sharp sandwich from the averaged bounds.

    ``lower`` bounds Lambda_k from below; ``upper`` bounds Lambda_{k+1} (and
    therefore Lambda_k as well) from above.  ``A`` is the second-term
    coefficient of an average upper bound, normally
    explicit_sum_bound's second / (k/|O|)^(3/d).
    """
    if not (A > 0.0):
        raise ValueError("A must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    dc = dimensional_constants(d)
    vol = dom.volume
    c2 = dc.classical ** 2
    v4, v3 = vol ** (4.0 / d), vol ** (3.0 / d)
    lead = c2 * (k / vol) ** (4.0 / d)
    c7 = (6.0 * (d + 1) / (d * (d + 4.0)) * c2 / v4 + 2.0 * A / v3) * k ** (3.5 / d)
    c52 = 1.5 * (9.0 + 12.0 * d) / (4.0 * d * d) * k ** (2.5 / d) / v3
    lower = (lead - c7
             + (c2 / (d * (d + 4.0) * v4) + (d + 3.0) / d * A / v3) * k ** (3.0 / d)
             - c52
             + 9.0 * A / (16.0 * d * d) * k ** (2.0 / d) / v3)
    upper = (lead + c7
             + (9.0 * c2 / (d * (d + 4.0) * v4) + (d + 3.0) / d * A / v3) * k ** (3.0 / d)
             + c52
             + 81.0 * A / (16.0 * d * d) * k ** (2.0 / d) / v3)
    return lower, upper


def modulus_bound(dom: DomainSpec, d: int, A: float, k: int) -> float:
    """Envelope C(d, |O|, A) k^(7/(2d)) dominating |Lambda_k - Weyl term|.

    The constant collects every subleading coefficient of the two displays
    (each k-power below 7/(2d) is majorised by k^(7/(2d)) for k >= 1).
    """
    dc = dimensional_constants(d)
    vol = dom.volume
    c2 = dc.classical ** 2
    v4, v3 = vol ** (4.0 / d), vol ** (3.0 / d)
    c7 = 6.0 * (d + 1) / (d * (d + 4.0)) * c2 / v4 + 2.0 * A / v3
    c3 = 9.0 * c2 / (d * (d + 4.0) * v4) + (d + 3.0) / d * A / v3
    c52 = 1.5 * (9.0 + 12.0 * d) / (4.0 * d * d) / v3
    c2t = 81.0 * A / (16.0 * d * d) / v3
    return (c7 + c3 + c52 + c2t) * k ** (3.5 / d)


# ----------------------------------------------------------------------------
# Refined Kroeger-Laptev route
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class KroegerLaptevPoint:
    """m_k, the normalised average S_k, and the two-sided interval for the
    next eigenvalue (None when S_k > 1, a reported violation)."""

    k: int
    m_k: float
    s_k: float
    interval: Optional[tuple[float, float]]


def kroeger_laptev_refined(spec: Spectrum, dom: DomainSpec, d: int, k: int) -> KroegerLaptevPoint:
    """Evaluate the refined average bound at index k.

    m_k = C_d^2 (k/|O|)^(4/d);  S_k = ((d+4)/d) (avg of first k) / m_k;
    when S_k <= 1 the next eigenvalue lies in m_k (1 -/+ sqrt(1-S_k))^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(spec.values) < k + 1:
        raise ValueError(f"need at least {k + 1} eigenvalues, have {len(spec.values)}")
    dc = dimensional_constants(d)
    m_k = dc.classical ** 2 * (k / dom.volume) ** (4.0 / d)
    avg = sum(spec.values[:k]) / k
    s_k = (d + 4.0) / d * avg / m_k
    if s_k > 1.0:
        return KroegerLaptevPoint(k, m_k, s_k, None)
    root = math.sqrt(1.0 - s_k)
    return KroegerLaptevPoint(k, m_k, s_k, (m_k * (1.0 - root) ** 2, m_k * (1.0 + root) ** 2))


def kroeger_laptev_report(spec: Spectrum, dom: DomainSpec, d: int,
                          k_max: int) -> list[BoundReport]:
    """Reports: S_k <= 1, interval containment of omega_{k+1}, and the
    quadratic form m_k (1 - S_k) >= (sqrt(omega_{k+1}) - sqrt(m_k))^2."""
    label = "kroeger-laptev-extrapolated-d1"
    out: list[BoundReport] = []
    for k in range(1, k_max + 1):
        pt = kroeger_laptev_refined(spec, dom, d, k)
        params = {"k": k}
        out.append(BoundReport.less_equal(
            f"{label}-sk", pt.s_k, 1.0, "technical_lemma", params=params))
        nxt = spec.value(k + 1)
        if pt.interval is None:
            out.append(BoundReport(
                f"{label}-interval", (("k", str(k)),), math.nan, math.nan,
                math.nan, False, "technical_lemma", asserted=False))
            continue
        lo, hi = pt.interval
        out.append(BoundReport.less_equal(
            f"{label}-interval-lower", lo, nxt, "technical_lemma", params=params))
        out.append(BoundReport.less_equal(
            f"{label}-interval-upper", nxt, hi, "technical_lemma", params=params))
        out.append(BoundReport.less_equal(
            f"{label}-quadratic", (math.sqrt(nxt) - math.sqrt(pt.m_k)) ** 2,
            pt.m_k * (1.0 - pt.s_k), "technical_lemma", params=params,
            tol=1e-12 * pt.m_k))
    return out


def young_refined(p: float, x: float) -> tuple[float, float]:
    """(y, bound) with y = (p+1) x - p - x^(p+1) and bound = -p (1-sqrt(x))^2;
    the sharpened Young inequality asserts y <= bound."""
    if p < 0.0 or x < 0.0:
        raise ValueError("p and x must be >= 0")
    y = (p + 1.0) * x - p - x ** (p + 1.0)
    return y, -p * (1.0 - math.sqrt(x)) ** 2


# ----------------------------------------------------------------------------
# Cross inequalities between Laplacian spectra and fourth-order energies
# ----------------------------------------------------------------------------

def navier_cross_inequalities(
    lap_dirichlet: Spectrum,
    lap_neumann: Spectrum,
    navier_energies: Sequence[tuple[float, float]],
    n: int,
    m: int,
    N: int,
    tol: float = 0.0,
) -> list[BoundReport]:
    """Averaged-principle comparisons between Laplacian eigenvalues and the
    gradient/Hessian energies of fourth-order eigenfunctions.

    navier_energies[k] = (grad_energy, hessian_energy) of the k-th (1-based
    k <= N) eigenfunction.  Two reports:

      sum_{j<=n} (lambda_{n+1} - lambda_j)         >= sum_{k<=N} (lambda_{n+1} - grad_k)
      sum_{2<=j<=m} (mu_{m+1} - mu_j) mu_j         >= sum_{k<=N} (mu_{m+1} grad_k - hess_k)
    """
    if n < 1 or m < 1 or N < 0:
        raise ValueError("n, m must be >= 1 and N >= 0")
    if len(navier_energies) < N:
        raise ValueError(f"need {N} energy pairs, have {len(navier_energies)}")
    if len(lap_dirichlet.values) < n + 1 or len(lap_neumann.values) < m + 1:
        raise ValueError("Laplacian spectra too short for requested n, m")

    lam = lap_dirichlet.values
    mu = lap_neumann.values
    params = {"n": n, "m": m, "N": N}

    rhs1 = sum(lam[n] - lam[j] for j in range(n))
    lhs1 = sum(lam[n] - navier_energies[k][0] for k in range(N))
    rhs2 = sum((mu[m] - mu[j]) * mu[j] for j in range(1, m))
    lhs2 = sum(mu[m] * navier_energies[k][0] - navier_energies[k][1] for k in range(N))

    return [
        BoundReport.less_equal("cross-gradient-sum", lhs1, rhs1, "prima",
                               params=params, tol=tol),
        BoundReport.less_equal("cross-hessian-sum", lhs2, rhs2, "seconda",
                               params=params, tol=tol),
    ]
