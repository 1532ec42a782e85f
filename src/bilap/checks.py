"""The twelve acceptance criteria, each defined once, and every criterion row.

``REGISTRY`` is an ordered tuple of checks.  Each check maps a ``Context``
to the ``BoundReport`` rows of one or more criteria: ``bilap all`` emits the
rows of every check in registry order, and the acceptance suite runs each
check and asserts the rows of each criterion.  Row order is part of the
report, so where two criteria interleave their rows (3 and 5, pair by pair)
one check carries both ids and names the criterion of each row.

This is the one module that builds criterion rows: the numeric layers
return numbers, and the builders below turn them into rows for the registry
and the single-purpose subcommands alike.

Every grid, mode count and mollifier width of the sweep is a constant here.
Layer functions are called through their modules (``eig2d.clamped_spectrum_fd``,
``roots1d.gamma_root``, not a name bound at import), so rebinding a module
attribute, as a timing wrapper does, reaches every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import avp, eig2d, riesz, roots1d, semiclassical, spectra1d
from .core import (BCKind, BoundaryCondition, BoundReport, DomainSpec, InputError, Spectrum,
                   dimensional_constants)

__all__ = ["Check", "Context", "REGISTRY", "run_all", "gamma_residual_row", "defect_rows",
           "identity_rows", "riesz_rows", "lattice_rows", "kroeger_laptev_rows",
           "comparison_rows"]

ROOT_COUNT = 50                           # criteria 1, 2, 12: n = 1..50
RIESZ_Z = np.logspace(0.0, 8.0, 200)      # criterion 3 thresholds
LATTICE_R = np.linspace(0.0, 200.0, 500)  # criterion 4 radii
NEUMANN_A = (-0.3, 0.0, 0.5, 0.9)         # criterion 6 Poisson ratios, d = 2..4
KL_K = 500                                # criterion 10: k = 1..500
YOUNG_LATTICE = np.linspace(0.0, 10.0, 101)
FD_GRIDS = (64, 128)                      # criteria 7, 8, 11: ladder n and 2n; 9: heat trace on n
FD_MODES = 50
COMPARE_MODES = 10                        # criterion 7: 2D chain j = 1..10
COMPARISON_1D_MODES = 50                  # criterion 7: exact 1D chain j = 1..50
AVERAGE_K = range(1, 31)                  # criterion 8
HEAT_T = (1e-3, 1e-4)
MOLLIFIER_H, MOLLIFIER_RES = 0.1, 96      # criteria 8, 9
INDIVIDUAL_K = range(20, 51)              # criterion 11


class Context:
    """Shared inputs of the checks on the unit square, each built once: each
    FD grid's first FD_MODES modes, their Richardson ladder, the two profiles."""

    def __init__(self) -> None:
        self.dom = DomainSpec.square(1.0)
        self._fd: dict[int, Spectrum] = {}

    def fd(self, n: int) -> Spectrum:
        """First FD_MODES clamped eigenvalues on the n x n interior grid."""
        if n not in self._fd:
            self._fd[n] = eig2d.clamped_spectrum_fd(self.dom, n, FD_MODES)
        return self._fd[n]

    @cached_property
    def richardson(self) -> tuple[list[float], list[float]]:
        """(limits, bands) of the first FD_MODES clamped eigenvalues over FD_GRIDS."""
        return eig2d.richardson_ladder(*map(self.fd, FD_GRIDS), FD_MODES)

    @cached_property
    def ball(self) -> avp.TestFunctionProfile:
        return avp.inscribed_ball_profile(self.dom)

    @cached_property
    def mollified(self) -> avp.TestFunctionProfile:
        """Mollified collar indicator of width MOLLIFIER_H at MOLLIFIER_RES points per h."""
        return avp.mollified_indicator_profile(self.dom, MOLLIFIER_H, MOLLIFIER_RES)


@dataclass(frozen=True)
class Check:
    ids: tuple[int, ...]
    title: str
    budget_s: float  # wall-time budget of ``run``, shared inputs included
    run: Callable[[Context], list[BoundReport]]
    # (row check name, criterion) for rows not of the first id
    row_criteria: tuple[tuple[str, int], ...] = ()

    def criterion(self, row: BoundReport) -> int:
        """The criterion that ``row`` of this check belongs to."""
        return dict(self.row_criteria).get(row.check, self.ids[0])


# ----------------------------------------------------------------------------
# Row builders shared with the single-purpose subcommands
# ----------------------------------------------------------------------------

def gamma_residual_row(n: int) -> BoundReport:
    """The n-th certified root solves its frequency equation to 1e-9."""
    return BoundReport.less_equal(
        "gamma-residual", roots1d.gamma_root(n).residual, 1e-9, "1-d-ev-equation",
        params={"n": n})


def defect_rows(n_max: int) -> list[BoundReport]:
    """Defect brackets and tail estimates for n = 1..n_max.

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
        root = roots1d.gamma_root(n)
        r = root.r
        a = math.pi * (n + 0.5)
        sech_a = math.exp(-roots1d.log_cosh(a))
        params = {"n": n}

        if n % 2 == 1:
            ref = "sigma-bound-n-odd"
            upper = math.asin(sech_a)
            lower = 0.5 * math.asinh(2.0 * sech_a)
            lower_asserted = False
        else:
            ref = "sigma-bound-n-even"
            upper = math.asin(2.0 * sech_a / (1.0 + math.sqrt(1.0 - 4.0 * sech_a)))
            lower = math.asin(sech_a)
            lower_asserted = True

        # Bracket margins shrink like r_n^2 relative, which falls below double
        # resolution around n = 12, while the log-space evaluation itself
        # carries ~1e-14 relative noise (ulp of log r ~ -140).  The allowance
        # keeps the verdict about the mathematics rather than the last bit.
        fp_tol = 1e-13 * r
        out.append(BoundReport.less_equal(
            "defect-upper-bracket", r, upper, ref, params=params, tol=fp_tol))
        out.append(BoundReport.less_equal(
            "defect-lower-bracket", lower, r, ref, params=params, asserted=lower_asserted,
            tol=fp_tol))
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
        # bisected exactly when pi(n+1/2) < roots1d.EXACT_ROOT_CAP, where cosh is finite.
        if root.method == "asymptotic":
            product = math.exp(math.log(r) + roots1d.log_cosh(a)) if r > 0.0 else 1.0
        else:
            product = r * math.cosh(a)
        out.append(BoundReport.less_equal(
            "defect-asymptotic-product", abs(product - 1.0), 0.1,
            "gamma-expansion", params=params, asserted=(n >= 5)))

        prev_r = r
    return out


def identity_rows(n_max: int) -> list[BoundReport]:
    """Shared-root identities, entrywise interlacing and the Weyl-type cap of
    the six interval spectra, each read from its ``spectrum_1d``.

    The n-th (0,1) value gamma_n^4 equals the (n+1)-th (0,3) and (1,2)
    values and the (n+2)-th (2,3) value exactly (bit-for-bit), because all
    four read the same cached root.  The interlacing chain
    (0,1) >= (0,2) >= (0,3) = (1,2) >= (1,3) >= (2,3) in ``ONE_D_PAIRS``
    order and the Neumann bound Lambda^(2,3)_n <= pi^4 (n-1)^4 are asserted
    with zero tolerance.
    """
    if n_max < 1:
        raise InputError(f"n_max={n_max} must be >= 1")
    lam = {pair: spectra1d.spectrum_1d(pair, n_max + 2) for pair in spectra1d.ONE_D_PAIRS}
    out: list[BoundReport] = []
    for n in range(1, n_max + 1):
        g4 = lam[0, 1].value(n)
        for label, other in (("(0,3)[n+1]", lam[0, 3].value(n + 1)),
                             ("(1,2)[n+1]", lam[1, 2].value(n + 1)),
                             ("(2,3)[n+2]", lam[2, 3].value(n + 2))):
            out.append(BoundReport(
                "identity-shared-root", (("n", str(n)), ("rhs", label)),
                g4, other, other - g4, g4 == other, "riesz-1-d"))
        for hi, lo in zip(spectra1d.ONE_D_PAIRS, spectra1d.ONE_D_PAIRS[1:]):
            link = "==" if (hi, lo) == ((0, 3), (1, 2)) else ">="
            out.append(BoundReport.less_equal(
                "interlacing", lam[lo].value(n), lam[hi].value(n), "riesz-1-d",
                params={"n": n, "link": f"({hi[0]},{hi[1]}){link}({lo[0]},{lo[1]})"}))
        out.append(BoundReport.less_equal(
            "neumann-weyl-cap", lam[2, 3].value(n), (math.pi * (n - 1)) ** 4,
            "riesz-1-d", params={"n": n}))
    return out


def riesz_rows(pair: tuple[int, int], zs: Sequence[float]) -> list[BoundReport]:
    """lower <= R_1(z) <= upper for the exact spectrum of ``pair``, built
    once, long enough for the largest z."""
    spec = spectra1d.spectrum_1d(pair, spectra1d.count_reaching(max(zs, default=0.0)))
    rows = []
    for z in zs:
        r1 = riesz.riesz_mean(spec, float(z))
        lower, upper = riesz.theorem_bounds_1d(pair, float(z))
        rows.append(BoundReport.less_equal(
            "riesz-lower", lower, r1, "riesz-1-d", params={"pair": pair, "z": z}))
        rows.append(BoundReport.less_equal(
            "riesz-upper", r1, upper, "riesz-1-d", params={"pair": pair, "z": z}))
    return rows


def lattice_rows(radii: Sequence[float]) -> list[BoundReport]:
    """Both lattice-sum chains at each radius."""
    rows = []
    for R in radii:
        for variant, ref in (("integers", "onedim1"), ("half_integers", "onedim2")):
            lhs, mid, rhs = riesz.lemma_onedim_bounds(float(R), variant)
            rows.append(BoundReport.less_equal(
                "lattice-sum-lower", lhs, mid, ref, params={"R": R, "variant": variant}))
            rows.append(BoundReport.less_equal(
                "lattice-sum-upper", mid, rhs, ref, params={"R": R, "variant": variant}))
    return rows


def kroeger_laptev_rows(spec: Spectrum, dom: DomainSpec, k_max: int) -> list[BoundReport]:
    """Refined Kroeger-Laptev rows for k = 1..k_max, labelled with and computed
    in the dimension d of ``dom``.

    From a running sum, m_k = C_d^2 (k/|O|)^(4/d) and S_k = ((d+4)/d)
    (avg of the first k) / m_k <= 1.  When S_k <= 1 the next eigenvalue
    omega_{k+1} lies in m_k (1 -/+ sqrt(1-S_k))^2 and satisfies the quadratic
    form m_k (1 - S_k) >= (sqrt(omega_{k+1}) - sqrt(m_k))^2; when S_k > 1 a
    NaN interval row reports the violation.  ``InputError`` unless
    k_max >= 1 and ``spec`` holds k_max + 1 values.
    """
    if not 1 <= k_max < len(spec.values):
        raise InputError(f"k={k_max} needs k >= 1 and k + 1 eigenvalues, have {len(spec.values)}")
    d = dom.dimension
    c2 = dimensional_constants(d).classical ** 2
    label = f"kroeger-laptev-extrapolated-d{d}"
    out: list[BoundReport] = []
    total = 0.0
    for k, value in enumerate(spec.values[:k_max], start=1):
        total += value
        m_k = c2 * (k / dom.volume) ** (4.0 / d)
        s_k = (d + 4.0) / d * (total / k) / m_k
        params = {"k": k}
        out.append(BoundReport.less_equal(
            f"{label}-sk", s_k, 1.0, "technical_lemma", params=params))
        if s_k > 1.0:
            out.append(BoundReport(
                f"{label}-interval", (("k", str(k)),), math.nan, math.nan,
                math.nan, False, "technical_lemma", asserted=False))
            continue
        root = math.sqrt(1.0 - s_k)
        nxt = spec.value(k + 1)
        out.append(BoundReport.less_equal(
            f"{label}-interval-lower", m_k * (1.0 - root) ** 2, nxt, "technical_lemma",
            params=params))
        out.append(BoundReport.less_equal(
            f"{label}-interval-upper", nxt, m_k * (1.0 + root) ** 2, "technical_lemma",
            params=params))
        out.append(BoundReport.less_equal(
            f"{label}-quadratic", (math.sqrt(nxt) - math.sqrt(m_k)) ** 2,
            m_k * (1.0 - s_k), "technical_lemma", params=params, tol=1e-12 * m_k))
    return out


def comparison_rows(dom: DomainSpec, limits: Sequence[float],
                    bands: Sequence[float]) -> list[BoundReport]:
    """Eigenvalue comparison chain: 2D against Richardson bands, 1D exactly.

    2D rows check lambda_j^2 <= Lambda_j (and its a = 1 restatement) for
    j = 1..len(limits) against the clamped ``limits`` lowered by their
    ``bands``, as ``eig2d.richardson_ladder`` gives them.  1D rows run the
    exact chain Lambda^(2,3) <= Lambda^(1,3) = mu^2 and lambda^2 =
    Lambda^(0,2) <= Lambda^(0,1) with zero tolerance for
    j = 1..COMPARISON_1D_MODES.
    """
    out: list[BoundReport] = []
    if len(limits):
        lam = eig2d.laplacian_spectrum_exact(dom, len(limits))
        for j, (limit, band) in enumerate(zip(limits, bands), start=1):
            lam_sq = lam.value(j) ** 2
            out.append(BoundReport.less_equal(
                "laplacian-sq-below-clamped", lam_sq, limit - band, "fullchain",
                params={"j": j, "domain": dom.label()}))
            out.append(BoundReport.less_equal(
                "navier-a1-below-clamped", lam_sq, limit - band, "dirnav",
                params={"j": j, "a": 1, "domain": dom.label()}))

    spectra = [spectra1d.spectrum_1d(pair, COMPARISON_1D_MODES)
               for pair in ((0, 1), (0, 2), (1, 3), (2, 3))]
    for j in range(1, COMPARISON_1D_MODES + 1):
        s01, s02, s13, s23 = (spec.value(j) for spec in spectra)
        for check, lhs, rhs, ref in (
                ("1d-neumann-below-ks", s23, s13, "dirnav"),
                ("1d-ks-equals-mu-sq", abs(s13 - (math.pi * (j - 1)) ** 4), 0.0, "fullchain2"),
                ("1d-navier-below-dirichlet", s02, s01, "dirnav"),
                ("1d-lambda-sq-below-clamped", s02, s01, "fullchain")):
            out.append(BoundReport.less_equal(check, lhs, rhs, ref, params={"j": j}))
    return out


# ----------------------------------------------------------------------------
# The criteria
# ----------------------------------------------------------------------------

def _roots(ctx: Context) -> list[BoundReport]:
    rows = defect_rows(ROOT_COUNT)
    rows.extend(gamma_residual_row(n) for n in range(1, ROOT_COUNT + 1))
    rows.extend(identity_rows(ROOT_COUNT))
    return rows


def _riesz(ctx: Context) -> list[BoundReport]:
    rows = []
    for pair in spectra1d.KERNEL_DIMS:
        rows.extend(riesz_rows(pair, RIESZ_Z))
        slope = riesz.second_term_fit(pair)
        target = (pair[0] + pair[1] - 3) / 2.0
        rows.append(BoundReport.less_equal(
            "second-term-slope", abs(slope - target), 0.05, "riesz-1-d",
            params={"pair": pair, "slope": slope}))
    return rows


def _lattice(ctx: Context) -> list[BoundReport]:
    return lattice_rows(LATTICE_R)


def _series_constant(ctx: Context) -> list[BoundReport]:
    c = riesz.constant_c()
    return [BoundReport.less_equal(
        "series-constant-window", abs(c - 2.51272), 1e-4, "c", params={"c": c})]


def _coefficients(ctx: Context) -> list[BoundReport]:
    rows = []
    for d in (2, 3, 4):
        for a in NEUMANN_A:
            bc = BoundaryCondition(BCKind.NEUMANN, a)
            ca = semiclassical.expansion_coefficients(bc, d, "arctan_g")
            cb = semiclassical.expansion_coefficients(bc, d, "arctan_inv_g")
            rows.append(BoundReport.less_equal(
                "neumann-c1-forms-agree", abs(ca.c1 - cb.c1), 1e-9, "c1neu",
                params={"d": d, "a": a}))
        quad, _, closed = semiclassical.dirichlet_arcsin_integral(d)
        rows.append(BoundReport.less_equal(
            "dirichlet-c1-quadrature", abs(quad - closed), 1e-9, "c1dir",
            params={"d": d}))
    return rows


def _kroeger_laptev(ctx: Context) -> list[BoundReport]:
    rows = kroeger_laptev_rows(
        spectra1d.spectrum_1d((2, 3), KL_K + 1), DomainSpec.interval(1.0), KL_K)
    worst_young = -math.inf
    for p in YOUNG_LATTICE:
        for x in YOUNG_LATTICE:
            y, bound = avp.young_refined(float(p), float(x))
            worst_young = max(worst_young, y - bound)
    rows.append(BoundReport.less_equal(
        "young-refined-lattice", worst_young, 1e-12, "technical_lemma",
        params={"grid": f"{len(YOUNG_LATTICE)}x{len(YOUNG_LATTICE)}"}))
    return rows


def _comparison(ctx: Context) -> list[BoundReport]:
    limits, bands = ctx.richardson
    return comparison_rows(ctx.dom, limits[:COMPARE_MODES], bands[:COMPARE_MODES])


def _averages(ctx: Context) -> list[BoundReport]:
    limits, bands = ctx.richardson
    profiles = (ctx.ball, ctx.mollified)
    rows = []
    for k in AVERAGE_K:
        fd_avg = sum(limits[:k]) / k
        band = sum(bands[:k]) / k
        rows.append(BoundReport.less_equal(
            "average-lower-weyl", semiclassical.predict_average_leading(ctx.dom, k),
            fd_avg + band, "weyl_dirichlet_biharmonic", params={"k": k}))
        for prof in profiles:
            rows.append(BoundReport.less_equal(
                "average-upper-avp", fd_avg - band,
                avp.avg_upper_bound(prof, k),
                "evsums-DirichletbiLaplacian1", params={"k": k, "profile": prof.kind}))
    return rows


def _heat_trace(ctx: Context) -> list[BoundReport]:
    # every term is positive, so the truncated trace lies below the full one
    # and a lower bound under it is under the full trace too
    values = ctx.fd(FD_GRIDS[0]).values
    rows = []
    for t in HEAT_T:
        trace = sum(math.exp(-v * t) for v in values)
        _, unweighted = avp.partition_lower_bound(ctx.mollified, t)
        rows.append(BoundReport.less_equal(
            "heat-trace-lower", unweighted, trace,
            "part-fct-estimate-small-times_bi", params={"t": t}))
    return rows


def _individual(ctx: Context) -> list[BoundReport]:
    limits, bands = ctx.richardson
    rows = []
    for k in INDIVIDUAL_K:
        lower, upper = avp.individual_bounds(ctx.dom, k)
        rows.append(BoundReport.less_equal(
            "individual-lower", lower, limits[k - 1] + bands[k - 1],
            "dirichlet_ineq_1_2", params={"k": k}))
        rows.append(BoundReport.less_equal(
            "individual-upper", limits[k - 1] - bands[k - 1], upper,
            "dirichlet_ineq_2_2", params={"k": k}))
    return rows


def _sharpness(ctx: Context) -> list[BoundReport]:
    return [BoundReport.less_equal(
        "two-term-sharpness", roots1d.gamma_root(k).r,
        math.pi * math.exp(-math.pi * k), "1st-1d-ev-expansion", params={"k": k})
        for k in range(1, ROOT_COUNT + 1)]


REGISTRY: tuple[Check, ...] = (
    Check((1, 2), "certified roots with residuals <= 1e-9, defect brackets "
          "(odd-n lower bracket reported only), shared-root identities", 2.0, _roots,
          row_criteria=(("defect-upper-bracket", 2), ("defect-lower-bracket", 2))),
    Check((3, 5), "six pairs x 200 z in [1, 1e8]: lower <= R_1 <= upper; "
          "linear coefficient (i+j-3)/2 +- 0.05", 40.0, _riesz,
          row_criteria=(("second-term-slope", 5),)),
    Check((4,), "both lattice-sum chains on 500 radii in [0, 200]", 5.0, _lattice),
    Check((3,), "series constant c within 1e-4 of 2.51272", 1.0, _series_constant),
    Check((6,), "Neumann c1 forms agree to 1e-9 (d = 2..4); "
          "Dirichlet c1 matches quadrature", 5.0, _coefficients),
    Check((10,), "S_k <= 1 and interval containment for k <= 500; "
          "sharpened Young on a 101x101 lattice", 5.0, _kroeger_laptev),
    Check((7,), "1D chain exact for j <= 50; lambda_j^2 <= Lambda_j for j <= 10 "
          "under Richardson bands", 180.0, _comparison),
    Check((8,), "leading term <= FD average <= AVP bound (ball and mollified "
          "profiles) for k <= 30", 180.0, _averages),
    Check((9,), "heat-trace lower bound below the 50-mode FD trace "
          "at t = 1e-3, 1e-4", 30.0, _heat_trace),
    Check((11,), "FD Lambda_k inside the individual sandwich for k = 20..50",
          120.0, _individual),
    Check((12,), "defect r_k <= pi e^(-pi k) for k <= 50", 1.0, _sharpness),
)


def run_all(ctx: Context) -> list[BoundReport]:
    """Rows of every check, in registry order."""
    return [row for check in REGISTRY for row in check.run(ctx)]
