"""Averaged-variational-principle bounds: trial profiles, certified average /
Riesz / heat-trace bounds, individual-eigenvalue sandwiches, and the refined
Young-inequality route to two-sided Neumann bounds.

Two trial families are built: the quartic bump supported in the inscribed
ball (closed-form norms) and the mollified inner-collar indicator
phi_h = 1_{h/2} * eta_{h/2} (grid convolution norms with a recorded
Richardson error estimate).  On a rectangle the collar indicator is the
tensor product of two interval indicators, so each sampled field is the
convolution Ta @ K @ Tb.T of a small kernel K with their windows, and each
trapezoid norm of it is a quadratic form in the two 1D Gram matrices of the
windows (about 97 x 97); no field over the grid is formed.  Every bound
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
from typing import Optional

import numpy as np

from . import semiclassical
from .core import (
    BoundReport,
    DomainSpec,
    InputError,
    Spectrum,
    dimensional_constants,
    tube_volume,
)

__all__ = [
    "TestFunctionProfile",
    "ResolutionError",
    "inscribed_ball_profile",
    "mollified_indicator_profile",
    "avg_upper_bound",
    "riesz_lower_bound",
    "partition_lower_bound",
    "explicit_sum_threshold",
    "collar_width_for_k",
    "explicit_sum_bound",
    "step_average_bound",
    "individual_bounds",
    "KroegerLaptevPoint",
    "kroeger_laptev_refined",
    "kroeger_laptev_report",
    "young_refined",
    "EPSILON_DEFAULT",
    "MAX_GRID_RES",
    "MAX_AXIS_SAMPLES",
    "MAX_RIESZ_Z",
]

EPSILON_DEFAULT = math.sqrt(2.0)

MAX_QUADRATURE_REL_ERR = 1e-4

# Size limits of the sampled collar profile.  Its kernel arrays have sides of
# at most grid_res + 3 points, so about (grid_res + 3)^2 entries each, and
# each sampled axis has about L grid_res / h points.  At both limits at once
# the profile's tracemalloc peak is about 176 MB.
MAX_GRID_RES = 1024
MAX_AXIS_SAMPLES = 10 ** 6
# The largest z of ``riesz_lower_bound``.  Its largest power of z,
# z^(d/4+1) with d <= 2, is then at most 1e225, and times ||phi||_2^2 of a
# domain of sides up to core.MAX_LENGTH (at most 1e60) it stays finite.
MAX_RIESZ_Z = 1e150


class ResolutionError(RuntimeError):
    """Grid quadrature error estimate exceeded the admissible 1e-4."""


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


def _window_gram(inside: np.ndarray, half: int, step: float, stride: int) -> np.ndarray:
    """T.T @ diag(w) @ T for the windows T[x, i] = inside[x - i + half] (zero
    out of range) of the points x = 0, stride, 2 stride, ... and their
    trapezoid weights w at spacing stride * step.

    ``inside`` is one run of ones [first, last], so the points whose window
    holds ones at both i and j are x in [first + max(i, j) - half,
    last + min(i, j) - half].  Their weights are summed as integers in units
    of stride * step / 2, so each entry is rounded once.
    """
    first, last = np.flatnonzero(inside)[[0, -1]]
    points = (len(inside) - 1) // stride + 1
    units = np.full(points, 2)
    units[0] -= 1
    units[-1] -= 1
    cum = np.concatenate(([0], np.cumsum(units)))
    i = np.arange(2 * half + 1)
    lo = np.clip(-((half - first - np.maximum.outer(i, i)) // stride), 0, points)
    hi = np.clip((last - half + np.minimum.outer(i, i)) // stride + 1, 0, points)
    return np.maximum(cum[hi] - cum[lo], 0) * (0.5 * stride * step)


def _centre_line(a: np.ndarray, b: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """phi = T_a K T_b.T on the grid line through the middle point of the
    axis of ``a``: that point's window of ``a`` collapses K to a 1D kernel,
    which is convolved with ``b``."""
    half_a, half_b = kernel.shape[0] // 2, kernel.shape[1] // 2
    mid = len(a) // 2
    window = np.pad(a, half_a)[mid:mid + 2 * half_a + 1][::-1]
    return np.convolve(b, window @ kernel)[half_b:half_b + len(b)]


def mollified_indicator_profile(dom: DomainSpec, h: float,
                                grid_res: int = 96) -> TestFunctionProfile:
    """Discrete convolution profile phi_h = 1_{h/2} * eta_{h/2} on a rectangle.

    The collar indicator {dist > h/2} is outer(a, b) with a, b the indicators
    of min(x, lx - x) > h/2 and min(y, ly - y) > h/2, so phi and its sampled
    derivatives are F = Ta @ K @ Tb.T for each kernel K, with Ta, Tb the
    convolution windows of a, b.  A trapezoid norm sum w_x w_y F^2 is then
    sum(Ga * (K @ Gb @ K.T)) in the windows' Gram matrices (``_window_gram``),
    taken on the grid, which resolves h with ``grid_res`` points, and on its
    [::2, ::2] subgrid for the Richardson error estimate.

    Construction verifies eta >= 0, so 0 <= phi <= 1 once eta has unit mass.
    Each window sum of the symmetric, radially decreasing eta falls as the
    window leaves the middle of the run, so phi peaks on the two centre lines
    (``_centre_line``): sup phi is read there, and phi = 1 is verified at
    their points away from the collar (dist > h), hence on every such pair.
    """
    if dom.shape != "rectangle":
        raise InputError(f"mollified profiles are built on rectangles only, not {dom.label()}")
    if not (0.0 < h <= dom.inradius):
        raise InputError(f"h={h} outside (0, inradius={dom.inradius}]")
    if not 64 <= grid_res <= MAX_GRID_RES:
        raise InputError(f"grid_res={grid_res} outside 64..{MAX_GRID_RES} points per h")

    lx, ly = dom.lengths
    target = h / grid_res
    if max(lx, ly) > target * (MAX_AXIS_SAMPLES - 3):  # an axis has < L / target + 3 points
        raise InputError(f"h={h} at grid_res={grid_res} puts more than {MAX_AXIS_SAMPLES} "
                         f"samples on an axis")
    mx = 2 * max(2, math.ceil(lx / (2.0 * target)))
    my = 2 * max(2, math.ceil(ly / (2.0 * target)))
    dx, dy = lx / mx, ly / my
    x = np.linspace(0.0, lx, mx + 1)
    y = np.linspace(0.0, ly, my + 1)
    distx = np.minimum(x, lx - x)
    disty = np.minimum(y, ly - y)

    h2 = h / 2.0
    eta, gx_k, gy_k, lap_k = _kernel_samples(h2, dx, dy)
    if eta.min() < 0.0:
        raise AssertionError(f"phi range outside [0, 1]: sampled eta dips to {eta.min()}")
    cell = dx * dy
    mass = eta.sum() * cell
    scale = cell / mass  # renormalise the sampled kernel to unit mass
    ax, ay = distx > h2, disty > h2
    kx, ky = eta.shape[0] // 2, eta.shape[1] // 2

    unit_eta = eta * scale
    lines = (_centre_line(ax, ay, unit_eta), _centre_line(ay, ax, unit_eta.T))
    inner = np.concatenate((lines[0][disty > h], lines[1][distx > h]))
    if inner.size and abs(inner - 1.0).max() > 1e-10:
        raise AssertionError("phi != 1 on the inner region away from the collar")

    # the grid (stride 1) and its [::2, ::2] subgrid
    grams = [(_window_gram(ax, kx, dx, s), _window_gram(ay, ky, dy, s)) for s in (1, 2)]
    norms = {}
    errs = {}
    for name, kernels in (("l2", (eta,)), ("grad", (gx_k, gy_k)), ("lap", (lap_k,))):
        scaled = [k * scale for k in kernels]
        value, rough = (sum(float(np.sum(ga * (k @ gb @ k.T))) for k in scaled)
                        for ga, gb in grams)
        norms[name] = value
        errs[name] = abs(value - rough) / (3.0 * abs(value)) if value != 0.0 else 0.0
    est = max(errs.values())
    if est > MAX_QUADRATURE_REL_ERR:
        raise ResolutionError(
            f"quadrature error estimate {est:.2e} exceeds {MAX_QUADRATURE_REL_ERR}; "
            f"raise grid_res (currently {grid_res})")

    return TestFunctionProfile(
        kind="mollified_indicator", dom=dom,
        l2_sq=norms["l2"], grad_l2_sq=norms["grad"], lap_l2_sq=norms["lap"],
        sup_sq=float(max(line.max() for line in lines)) ** 2, est_rel_err=est,
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
        raise InputError(f"k={k} must be >= 1")
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

    ``InputError`` unless 0 < z <= MAX_RIESZ_Z.
    """
    if not (0.0 < z <= MAX_RIESZ_Z):
        raise InputError(f"z={z} outside (0, {MAX_RIESZ_Z:g}]")
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
    if not (0.0 < t < math.inf):
        raise InputError(f"t={t} must be positive and finite")
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

def collar_width_for_k(dom: DomainSpec, k: int, eps: float = EPSILON_DEFAULT) -> float:
    """Collar width h(k) = sqrt((d+4)/4) A_d C_d^(-1/2) (k/|O|)^(-1/d) eps."""
    d = dom.dimension
    dc = dimensional_constants(d)
    return (math.sqrt((d + 4.0) / 4.0) * dc.grad_sup / math.sqrt(dc.classical)
            * (k / dom.volume) ** (-1.0 / d) * eps)


def explicit_sum_threshold(dom: DomainSpec, eps: float = EPSILON_DEFAULT) -> float:
    """Smallest admissible k: the collar width h(k) = h(1) k^(-1/d) must not
    exceed the inradius r, i.e. k >= (h(1) / r)^d."""
    return (collar_width_for_k(dom, 1, eps) / dom.inradius) ** dom.dimension


def step_average_bound(dom: DomainSpec, k: int, h: float) -> float:
    """Certified average upper bound at collar width h with the exact |w_h|.

    ``DomainSpec`` makes d = 1 or 2, where the derivation replaces the
    Bernoulli step (its d >= 4 route) by the factored density estimate.
    """
    if not (0.0 < h <= dom.inradius):
        raise ValueError(f"h={h} outside (0, inradius]")
    d = dom.dimension
    dc = dimensional_constants(d)
    vol = dom.volume
    w = tube_volume(dom, h)
    rem_vol = vol - w
    if rem_vol <= 0.0:
        return math.inf
    kv = k / vol
    main = semiclassical.predict_average_leading(dom, k)
    t1 = (2.0 / (d + 4.0) * dc.classical ** 2 * kv ** (4.0 / d)
          * (2.0 * vol / rem_vol) * (w / rem_vol))
    t2 = (2.0 * dc.grad_sup ** 2 * w / (h * h * rem_vol)
          * dc.classical * kv ** (2.0 / d) * (vol / rem_vol) ** (2.0 / d))
    t3 = dc.lap_sup ** 2 * w / (h ** 4 * rem_vol)
    return main + t1 + t2 + t3


def second_term_coefficient(dom: DomainSpec, eps: float = EPSILON_DEFAULT) -> float:
    """Coefficient A with second-term = A k^(3/d); at eps = sqrt(2) this is
    M_d (|dO|/|O|) C_d^(3/2) |O|^(-3/d), the constant of the individual
    eigenvalue sandwich."""
    d = dom.dimension
    dc = dimensional_constants(d)
    return (math.sqrt(4.0 / (d + 4.0)) * dc.grad_sup * dc.classical ** 1.5
            * (dom.boundary_measure / dom.volume) * dom.volume ** (-3.0 / d)
            * (eps + 2.0 / eps + 4.0 / (d + 4.0) * dc.lap_sup ** 2 / dc.grad_sup ** 4 / eps ** 3))


def explicit_sum_bound(dom: DomainSpec, k: int,
                       eps: float = EPSILON_DEFAULT) -> tuple[float, float, float]:
    """(main, second, remainder): asymptotically sharp average upper bound.

    main   = (d/(d+4)) C_d^2 (k/|O|)^(4/d), ``predict_average_leading``
    second = ``second_term_coefficient(dom, eps)`` k^(3/d)
    remainder = certified collar bound minus the two model terms, so that
    main + second + remainder is exactly the certified bound at h(k).

    Raises ``InputError`` when k lies below ``explicit_sum_threshold(dom, eps)``,
    where h(k) would exceed the inradius.
    """
    if k < 1:
        raise InputError(f"k={k} must be >= 1")
    threshold = explicit_sum_threshold(dom, eps)
    if k < threshold:
        raise InputError(
            f"k={k} below admissible threshold {threshold:.3f}; "
            f"use the inscribed-ball bound")
    main = semiclassical.predict_average_leading(dom, k)
    second = second_term_coefficient(dom, eps) * k ** (3.0 / dom.dimension)
    certified = step_average_bound(dom, k, collar_width_for_k(dom, k, eps))
    return main, second, certified - main - second


# ----------------------------------------------------------------------------
# Individual eigenvalue sandwich
# ----------------------------------------------------------------------------

def individual_bounds(dom: DomainSpec, k: int) -> tuple[float, float]:
    """Asymptotically Weyl-sharp sandwich from the averaged bounds.

    ``lower`` bounds Lambda_k from below; ``upper`` bounds Lambda_{k+1} (and
    therefore Lambda_k as well) from above.  The second-term constant A is
    that of the explicit sum bound, ``second_term_coefficient(dom)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d, A = dom.dimension, second_term_coefficient(dom)
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


def _kroeger_laptev_points(spec: Spectrum, dom: DomainSpec, k_max: int):
    """Refined average bounds for k = 1..k_max in the dimension of ``dom``, from a
    running sum: m_k = C_d^2 (k/|O|)^(4/d), S_k = ((d+4)/d) (avg of first k) / m_k,
    and when S_k <= 1 the next eigenvalue lies in m_k (1 -/+ sqrt(1-S_k))^2."""
    if not 1 <= k_max < len(spec.values):
        raise InputError(f"k={k_max} needs k >= 1 and k + 1 eigenvalues, have {len(spec.values)}")
    d = dom.dimension
    c2 = dimensional_constants(d).classical ** 2
    total = 0.0
    for k, value in enumerate(spec.values[:k_max], start=1):
        total += value
        m_k = c2 * (k / dom.volume) ** (4.0 / d)
        s_k = (d + 4.0) / d * (total / k) / m_k
        root = None if s_k > 1.0 else math.sqrt(1.0 - s_k)
        interval = None if root is None else (m_k * (1.0 - root) ** 2, m_k * (1.0 + root) ** 2)
        yield KroegerLaptevPoint(k, m_k, s_k, interval)


def kroeger_laptev_refined(spec: Spectrum, dom: DomainSpec, k: int) -> KroegerLaptevPoint:
    """The refined average bound at index k (``_kroeger_laptev_points``)."""
    *_, point = _kroeger_laptev_points(spec, dom, k)
    return point


def kroeger_laptev_report(spec: Spectrum, dom: DomainSpec, k_max: int) -> list[BoundReport]:
    """Reports: S_k <= 1, interval containment of omega_{k+1}, and the
    quadratic form m_k (1 - S_k) >= (sqrt(omega_{k+1}) - sqrt(m_k))^2,
    labelled with the dimension of ``dom``, for k = 1..k_max."""
    label = f"kroeger-laptev-extrapolated-d{dom.dimension}"
    out: list[BoundReport] = []
    for pt in _kroeger_laptev_points(spec, dom, k_max):
        params = {"k": pt.k}
        out.append(BoundReport.less_equal(
            f"{label}-sk", pt.s_k, 1.0, "technical_lemma", params=params))
        nxt = spec.value(pt.k + 1)
        if pt.interval is None:
            out.append(BoundReport(
                f"{label}-interval", (("k", str(pt.k)),), math.nan, math.nan,
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

