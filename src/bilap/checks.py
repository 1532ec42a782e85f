"""The twelve acceptance criteria, each defined once.

``REGISTRY`` is an ordered tuple of checks.  Each check maps a ``Context``
to the ``BoundReport`` rows of one or more criteria: ``bilap all`` emits the
rows of every check in registry order, and the acceptance suite runs each
check and asserts the rows of each criterion.  Row order is part of the
report, so where two criteria interleave their rows (3 and 5, pair by pair)
one check carries both ids and names the criterion of each row.

Every grid, mode count and mollifier width of the sweep is a constant here.
Layer functions are called through their modules (``eig2d.clamped_spectrum_fd``,
not a name bound at import), so rebinding a module attribute, as a timing
wrapper does, reaches every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import avp, eig2d, riesz, roots1d, semiclassical, spectra1d
from .core import BoundaryCondition, BoundReport, DomainSpec, Spectrum

__all__ = ["Check", "Context", "REGISTRY", "run_all", "riesz_rows", "lattice_rows"]

ROOT_COUNT = 50                           # criteria 1, 2, 12: n = 1..50
RIESZ_Z = np.logspace(0.0, 8.0, 200)      # criterion 3 thresholds
LATTICE_R = np.linspace(0.0, 200.0, 500)  # criterion 4 radii
NEUMANN_A = (-0.3, 0.0, 0.5, 0.9)         # criterion 6 Poisson ratios, d = 2..4
KL_K = 500                                # criterion 10: k = 1..500
YOUNG_LATTICE = np.linspace(0.0, 10.0, 101)
FD_GRIDS = (32, 64, 128)                  # criteria 7, 8, 11: Richardson ladder
FD_MODES = 50
COMPARE_MODES = 10                        # criterion 7: 2D chain j = 1..10
AVERAGE_K = range(1, 31)                  # criterion 8
HEAT_GRID, HEAT_MODES = 64, 200           # criterion 9: truncated heat trace
HEAT_T = (1e-3, 1e-4)
MOLLIFIER_H, MOLLIFIER_RES = 0.1, 96      # criteria 8, 9
INDIVIDUAL_K = range(20, 51)              # criterion 11
# the mode count each FD grid is solved at: the most any check reads from it
FD_SOLVE_MODES = {n: FD_MODES for n in FD_GRIDS} | {HEAT_GRID: max(FD_MODES, HEAT_MODES)}


class Context:
    """Shared inputs of the checks on the unit square, each built once.

    Each FD grid is solved once, at the largest mode count any check needs
    on it (FD_SOLVE_MODES), and smaller requests are slices of that solve.
    """

    def __init__(self) -> None:
        self.dom = DomainSpec.square(1.0)
        self._fd: dict[int, Spectrum] = {}
        self._mollified: dict[float, avp.TestFunctionProfile] = {}

    def fd(self, n: int, k: int) -> Spectrum:
        """First k clamped eigenvalues on the n x n interior grid."""
        if n not in self._fd or len(self._fd[n]) < k:
            self._fd[n] = eig2d.clamped_spectrum_fd(
                self.dom, n, max(k, FD_SOLVE_MODES.get(n, 0)))
        spec = self._fd[n]
        return spec if len(spec) == k else Spectrum(spec.values[:k])

    @cached_property
    def richardson(self) -> tuple[list[float], list[float]]:
        """(limits, bands) of the first FD_MODES clamped eigenvalues over FD_GRIDS."""
        return eig2d.richardson_ladder([self.fd(n, FD_MODES) for n in FD_GRIDS], FD_MODES)

    @cached_property
    def ball(self) -> avp.TestFunctionProfile:
        return avp.inscribed_ball_profile(self.dom)

    def mollified(self, h: float) -> avp.TestFunctionProfile:
        """Mollified collar indicator of width h at MOLLIFIER_RES points per h."""
        if h not in self._mollified:
            self._mollified[h] = avp.mollified_indicator_profile(self.dom, h, MOLLIFIER_RES)
        return self._mollified[h]


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


# ----------------------------------------------------------------------------
# The criteria
# ----------------------------------------------------------------------------

def _roots(ctx: Context) -> list[BoundReport]:
    rows = roots1d.proposition_bound_report(ROOT_COUNT)
    for n in range(1, ROOT_COUNT + 1):
        rows.append(BoundReport.less_equal(
            "gamma-residual", roots1d.gamma_root(n).residual, 1e-9, "1-d-ev-equation",
            params={"n": n}))
    rows.extend(spectra1d.identity_check(ROOT_COUNT))
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
            ca = semiclassical.expansion_coefficients(
                BoundaryCondition.neumann(a), d, "arctan_g")
            cb = semiclassical.expansion_coefficients(
                BoundaryCondition.neumann(a), d, "arctan_inv_g")
            rows.append(BoundReport.less_equal(
                "neumann-c1-forms-agree", abs(ca.c1 - cb.c1), 1e-9, "c1neu",
                params={"d": d, "a": a}))
        quad, _, closed = semiclassical.dirichlet_arcsin_integral(d)
        rows.append(BoundReport.less_equal(
            "dirichlet-c1-quadrature", abs(quad - closed), 1e-9, "c1dir",
            params={"d": d}))
    return rows


def _kroeger_laptev(ctx: Context) -> list[BoundReport]:
    spec23 = spectra1d.spectrum_1d((2, 3), KL_K + 2)
    rows = avp.kroeger_laptev_report(spec23, DomainSpec.interval(1.0), 1, KL_K)
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
    return eig2d.comparison_report(ctx.dom, limits[:COMPARE_MODES], bands[:COMPARE_MODES])


def _averages(ctx: Context) -> list[BoundReport]:
    limits, bands = ctx.richardson
    profiles = (ctx.ball, ctx.mollified(MOLLIFIER_H))
    rows = []
    for k in AVERAGE_K:
        fd_avg = sum(limits[:k]) / k
        band = sum(bands[:k]) / k
        rows.append(BoundReport.less_equal(
            "average-lower-weyl", semiclassical.predict_average_leading(2, ctx.dom, k),
            fd_avg + band, "weyl_dirichlet_biharmonic", params={"k": k}))
        for prof in profiles:
            rows.append(BoundReport.less_equal(
                "average-upper-avp", fd_avg - band,
                avp.avg_upper_bound(prof, k),
                "evsums-DirichletbiLaplacian1", params={"k": k, "profile": prof.kind}))
    return rows


def _heat_trace(ctx: Context) -> list[BoundReport]:
    heat = ctx.fd(HEAT_GRID, HEAT_MODES)
    rows = []
    for t in HEAT_T:
        trace = sum(math.exp(-v * t) for v in heat.values)
        _, unweighted = avp.partition_lower_bound(ctx.mollified(MOLLIFIER_H), t)
        rows.append(BoundReport.less_equal(
            "heat-trace-lower", unweighted, trace,
            "part-fct-estimate-small-times_bi", params={"t": t}))
    return rows


def _individual(ctx: Context) -> list[BoundReport]:
    limits, bands = ctx.richardson
    A = avp.second_term_coefficient(ctx.dom, 2)
    rows = []
    for k in INDIVIDUAL_K:
        lower, upper = avp.individual_bounds(ctx.dom, 2, A, k)
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
    Check((9,), "heat-trace lower bound below the truncated FD trace "
          "at t = 1e-3, 1e-4", 30.0, _heat_trace),
    Check((11,), "FD Lambda_k inside the individual sandwich for k = 20..50",
          120.0, _individual),
    Check((12,), "defect r_k <= pi e^(-pi k) for k <= 50", 1.0, _sharpness),
)


def run_all(ctx: Context) -> list[BoundReport]:
    """Rows of every check, in registry order."""
    return [row for check in REGISTRY for row in check.run(ctx)]
