"""Trial-function profiles and every averaged-variational bound."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

import bilap
from bilap import avp
from bilap.avp import (
    EPSILON_DEFAULT,
    MAX_QUADRATURE_REL_ERR,
    ResolutionError,
    TestFunctionProfile,
    ThresholdError,
    _kernel_samples,
    _shift_matrix,
    avg_upper_bound,
    collar_width_for_k,
    explicit_sum_bound,
    explicit_sum_threshold,
    individual_bounds,
    inscribed_ball_profile,
    kroeger_laptev_refined,
    kroeger_laptev_report,
    modulus_bound,
    mollified_indicator_profile,
    navier_cross_inequalities,
    partition_lower_bound,
    riesz_lower_bound,
    rough_bound,
    second_term_coefficient,
    step_average_bound,
    young_refined,
)
from bilap.checks import AVERAGE_K, INDIVIDUAL_K, MOLLIFIER_RES
from bilap.core import DomainSpec, Spectrum, dimensional_constants
from bilap.eig2d import (
    Grid2D,
    _trapz2,
    assemble_dirichlet_laplacian,
    form_energies,
    laplacian_spectrum_exact,
    neumann_laplacian_spectrum_exact,
    smallest_eigs,
)
from bilap.semiclassical import adaptive_gauss_legendre, predict_average_leading
from bilap.spectra1d import spectrum_1d


class TestInscribedBallProfile:
    def test_closed_form_ratios_unit_square(self, unit_square):
        p = inscribed_ball_profile(unit_square)
        assert p.grad_ratio == pytest.approx(80.0 / 3.0, rel=1e-14)
        assert p.lap_ratio == pytest.approx(8 * 8 * 10 / (6 * (1 / 16)), rel=1e-14)
        assert p.sup_sq == 1.0
        assert p.rho == pytest.approx(p.l2_sq / unit_square.volume, rel=1e-15)

    def test_norms_against_radial_quadrature(self, unit_square):
        """The closed forms against an independent radial-integral oracle."""
        p = inscribed_ball_profile(unit_square)
        d, r = 2, unit_square.inradius
        sphere = d * dimensional_constants(d).ball_volume  # surface of unit sphere

        def radial(f):
            val, _ = adaptive_gauss_legendre(
                lambda s: f(s) * s ** (d - 1), 0.0, r, tol=1e-13)
            return sphere * val

        l2 = radial(lambda s: (s * s / r ** 2 - 1.0) ** 4)
        grad = radial(lambda s: 16.0 * s * s * (s * s - r * r) ** 2 / r ** 8)
        lap = radial(lambda s: ((4 * (d + 2) * s * s - 4 * d * r * r) / r ** 4) ** 2)
        assert p.l2_sq == pytest.approx(l2, rel=1e-8)
        assert p.grad_l2_sq == pytest.approx(grad, rel=1e-8)
        assert p.lap_l2_sq == pytest.approx(lap, rel=1e-8)


class TestMollifiedProfile:
    def test_lemma_sup_bounds(self, unit_square):
        """The sampled sups of |grad phi| and |Delta phi| over the profile's
        grid, formed per row class (every grid line has one), stay below
        A_d / h and Atilde_d / h^2."""
        dc = dimensional_constants(2)
        side = unit_square.lengths[0]
        for h in (0.1, 0.05):
            m = 2 * math.ceil(side / (2.0 * h / MOLLIFIER_RES))
            x = np.linspace(0.0, side, m + 1)
            eta, gx_k, gy_k, lap_k = _kernel_samples(h / 2.0, side / m, side / m)
            indicator = (np.minimum(x, side - x) > h / 2.0).astype(float)
            u, _ = avp._row_classes(_shift_matrix(indicator, eta.shape[0] // 2))
            gx, gy, lap = (u @ (k / eta.sum()) @ u.T for k in (gx_k, gy_k, lap_k))
            assert np.sqrt((gx * gx + gy * gy).max()) <= dc.grad_sup / h
            assert np.abs(lap).max() <= dc.lap_sup / h ** 2

    def test_l2_mass_between_inner_volume_and_total(self, unit_square, mollified_profiles):
        from bilap.core import tube_volume
        for h, p in mollified_profiles.items():
            assert unit_square.volume - tube_volume(unit_square, h) <= p.l2_sq <= unit_square.volume

    def test_recorded_error_within_gate(self, mollified_profiles):
        for p in mollified_profiles.values():
            assert p.kind == "mollified_indicator"
            assert p.est_rel_err <= 1e-4

    def test_rho_below_one(self, mollified_profiles):
        for p in mollified_profiles.values():
            assert 0.0 < p.rho < 1.0

    def test_domain_and_resolution_validation(self, unit_square):
        with pytest.raises(ValueError):
            mollified_indicator_profile(unit_square, 0.6, 96)  # h > inradius
        with pytest.raises(ValueError):
            mollified_indicator_profile(unit_square, 0.1, 32)  # under-resolved
        with pytest.raises(ValueError):
            mollified_indicator_profile(DomainSpec.interval(1.0), 0.1, 96)
        with pytest.raises(ResolutionError):  # estimate 1.5e-4 at h = inradius
            mollified_indicator_profile(unit_square, 0.5, 64)

    def test_interior_check_sees_every_row_class(self, unit_square, monkeypatch):
        # one grid line away from the collar misses its own cell of the
        # indicator, so phi < 1 there while staying inside [0, 1]
        shift = avp._shift_matrix

        def holed(a, half):
            t = shift(a, half)
            t[len(t) // 3, half] = 0.0
            return t

        monkeypatch.setattr(avp, "_shift_matrix", holed)
        with pytest.raises(AssertionError, match="phi != 1"):
            mollified_indicator_profile(unit_square, 0.1, MOLLIFIER_RES)

    @pytest.mark.parametrize("shape, kernel", [((97, 131), (13, 13)), ((100, 64), (13, 15)),
                                               ((8, 9), (11, 3))])
    def test_convolution_matches_scipy_signal(self, shape, kernel):
        """The separable route on random outer(a, b) and a random odd kernel,
        including one wider than the array, against scipy.signal."""
        rng = np.random.default_rng(0)
        a, b, k = rng.random(shape[0]), rng.random(shape[1]), rng.random(kernel)
        ref = fftconvolve(np.outer(a, b), k, mode="same")
        got = _shift_matrix(a, kernel[0] // 2) @ k @ _shift_matrix(b, kernel[1] // 2).T
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_separable_convolution_matches_scipy_signal(self, data):
        """T_a @ K @ T_b.T is the centred "same" convolution of outer(a, b)."""
        def interval_indicator(n):
            # [lo, hi) may touch either end of the array or miss both
            lo = data.draw(st.integers(0, n))
            hi = data.draw(st.integers(lo, n))
            a = np.zeros(n)
            a[lo:hi] = 1.0
            return a

        a = interval_indicator(data.draw(st.integers(1, 40), label="nx"))
        b = interval_indicator(data.draw(st.integers(1, 40), label="ny"))
        # a sampled mollifier of 1..8 cells per half-width; gx_k and gy_k are
        # antisymmetric, so a transposed or flipped route fails on them
        h2 = data.draw(st.floats(0.05, 1.0), label="h2")
        dx = h2 / data.draw(st.floats(0.6, 8.0), label="cells_x")
        dy = h2 / data.draw(st.floats(0.6, 8.0), label="cells_y")
        kernel = _kernel_samples(h2, dx, dy)[data.draw(st.integers(0, 3), label="which")]
        kx, ky = kernel.shape[0] // 2, kernel.shape[1] // 2
        ref = fftconvolve(np.outer(a, b), kernel, mode="same")
        got = _shift_matrix(a, kx) @ kernel @ _shift_matrix(b, ky).T
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_norms_match_a_2d_fft_convolution(self, unit_square, mollified_profiles):
        """The profile against the same sampled kernels convolved with the
        full 2D collar indicator by ``scipy.signal.fftconvolve``."""
        h = 0.1
        (lx, ly), target = unit_square.lengths, h / MOLLIFIER_RES
        m = 2 * math.ceil(lx / (2.0 * target))
        x, y = np.linspace(0.0, lx, m + 1), np.linspace(0.0, ly, m + 1)
        dx, dy = lx / m, ly / m
        dist = np.minimum.outer(np.minimum(x, lx - x), np.minimum(y, ly - y))
        indicator = (dist > h / 2.0).astype(float)
        eta, gx_k, gy_k, lap_k = _kernel_samples(h / 2.0, dx, dy)
        scale = 1.0 / eta.sum()
        phi, gx, gy, lap = (fftconvolve(indicator, k * scale, mode="same")
                            for k in (eta, gx_k, gy_k, lap_k))
        grad_sq = gx * gx + gy * gy
        expected = {
            "l2_sq": _trapz2(phi * phi, dx, dy),
            "grad_l2_sq": _trapz2(grad_sq, dx, dy),
            "lap_l2_sq": _trapz2(lap * lap, dx, dy),
            "sup_sq": phi.max() ** 2,
        }
        # est_rel_err is left out: it is round-off (about 1e-16) on either route
        p = mollified_profiles[h]
        for name, value in expected.items():
            assert getattr(p, name) == pytest.approx(value, rel=1e-12), name

    @settings(max_examples=25, deadline=None)
    @given(lx=st.floats(0.5, 1.0), ly=st.floats(0.5, 1.0),
           frac=st.floats(0.3, 1.0, exclude_min=True), grid_res=st.integers(64, 80))
    def test_row_classes_match_the_full_grid(self, lx, ly, frac, grid_res):
        """The class-pair profile against the fields formed at every grid
        point, Tx @ K @ Ty.T, and summed by ``_trapz2``."""
        dom = DomainSpec.rectangle(lx, ly)
        h = frac * dom.inradius
        target, h2 = h / grid_res, h / 2.0
        mx, my = (2 * max(2, math.ceil(length / (2.0 * target))) for length in (lx, ly))
        x, y = np.linspace(0.0, lx, mx + 1), np.linspace(0.0, ly, my + 1)
        dx, dy = lx / mx, ly / my
        eta, gx_k, gy_k, lap_k = _kernel_samples(h2, dx, dy)
        tx = _shift_matrix((np.minimum(x, lx - x) > h2).astype(float), eta.shape[0] // 2)
        ty = _shift_matrix((np.minimum(y, ly - y) > h2).astype(float), eta.shape[1] // 2)
        scale = 1.0 / eta.sum()
        phi, gx, gy, lap = (tx @ (k * scale) @ ty.T for k in (eta, gx_k, gy_k, lap_k))
        grad_sq = gx * gx + gy * gy
        expected = {"sup_sq": phi.max() ** 2}
        errs = []
        for name, arr in (("l2_sq", phi * phi), ("grad_l2_sq", grad_sq),
                          ("lap_l2_sq", lap * lap)):
            expected[name] = fine = _trapz2(arr, dx, dy)
            coarse = _trapz2(arr[::2, ::2], 2.0 * dx, 2.0 * dy)
            errs.append(abs(fine - coarse) / (3.0 * abs(fine)))
        if max(errs) > MAX_QUADRATURE_REL_ERR:  # near h = inradius at low grid_res
            with pytest.raises(ResolutionError):
                mollified_indicator_profile(dom, h, grid_res)
            return
        p = mollified_indicator_profile(dom, h, grid_res)
        for name, value in expected.items():
            assert getattr(p, name) == pytest.approx(value, rel=1e-12), name
        assert abs(p.est_rel_err - max(errs)) <= 1e-14

    def test_peak_memory_below_one_full_grid_array(self):
        # rect:1x2 at h = 0.05 samples 1921 x 3841 points; one double array
        # over that grid is 59 MB
        tracemalloc.start()
        try:
            mollified_indicator_profile(DomainSpec.rectangle(1.0, 2.0), 0.05, MOLLIFIER_RES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1921 * 3841 * 8

    def test_cli_import_leaves_scipy_signal_out(self):
        code = ("import sys, bilap.cli; "
                "sys.exit(any(m in sys.modules for m in ('scipy.signal', 'scipy.fft')))")
        env = {**os.environ, "PYTHONPATH": str(Path(bilap.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_pessimistic_adjustment_directions(self, mollified_profiles):
        p = mollified_profiles[0.1]
        q = p.pessimistic()
        assert q.l2_sq <= p.l2_sq
        assert q.grad_l2_sq >= p.grad_l2_sq
        assert q.lap_l2_sq >= p.lap_l2_sq
        assert q.rho <= p.rho


class TestAverageUpperBound:
    def test_idealised_profile_collapses_to_leading_term(self, unit_square):
        ideal = TestFunctionProfile(
            kind="inscribed_ball", dom=unit_square, l2_sq=1.0 - 1e-12,
            grad_l2_sq=0.0, lap_l2_sq=0.0, sup_sq=1.0)
        for k in (1, 5, 20):
            bound = avg_upper_bound(ideal, k)
            assert bound == pytest.approx(predict_average_leading(2, unit_square, k), rel=1e-9)

    def test_monotone_in_energy_ratios(self, unit_square):
        p = inscribed_ball_profile(unit_square)
        bump_grad = replace(p, grad_l2_sq=p.grad_l2_sq * 1.5)
        bump_lap = replace(p, lap_l2_sq=p.lap_l2_sq * 1.5)
        base = avg_upper_bound(p, 5)
        assert avg_upper_bound(bump_grad, 5) > base
        assert avg_upper_bound(bump_lap, 5) > base

    def test_dominates_fd_average(self, unit_square, clamped_richardson, mollified_profiles):
        limits, bands = clamped_richardson
        profiles = [inscribed_ball_profile(unit_square), mollified_profiles[0.1]]
        for k in AVERAGE_K:
            fd_avg = limits[:k].mean()
            band = bands[:k].mean()
            for p in profiles:
                assert fd_avg - band <= avg_upper_bound(p, k)

    def test_rho_precondition(self, unit_square):
        bad = TestFunctionProfile(
            kind="inscribed_ball", dom=unit_square, l2_sq=1.0,
            grad_l2_sq=1.0, lap_l2_sq=1.0, sup_sq=1.0)
        with pytest.raises(ValueError):
            avg_upper_bound(bad, 1)


class TestRieszLowerBound:
    def test_zero_below_laplacian_ratio(self, unit_square):
        p = inscribed_ball_profile(unit_square)
        assert riesz_lower_bound(p, p.lap_ratio * 0.5) == 0.0

    def test_leading_coefficient_at_large_z(self, unit_square):
        p = inscribed_ball_profile(unit_square)
        z = 1e18
        expected = 4.0 / 6.0 * (2 * math.pi) ** -2 * math.pi * p.l2_sq
        assert riesz_lower_bound(p, z) / z ** 1.5 == pytest.approx(expected, rel=1e-6)

    def test_below_fd_riesz_mean(self, unit_square, clamped_64_200, mollified_profiles):
        for z in (1e5, 5e5, 2e6):
            fd_r1 = float(np.clip(z - clamped_64_200, 0.0, None).sum())
            for p in (mollified_profiles[0.05], mollified_profiles[0.1]):
                assert riesz_lower_bound(p, z) <= fd_r1

    def test_informative_at_moderate_z(self, unit_square, clamped_64_200, mollified_profiles):
        # above the profile's Laplacian ratio the bound is strictly positive
        p = mollified_profiles[0.1]
        z = 2e6
        bound = riesz_lower_bound(p, z)
        assert bound > 0.0
        assert bound <= float(np.clip(z - clamped_64_200, 0.0, None).sum())


class TestPartitionLowerBound:
    def test_gamma_factor_d2(self):
        assert math.gamma(2.0 + 0.5) == pytest.approx(3 * math.sqrt(math.pi) / 4, rel=1e-15)

    def test_below_truncated_fd_heat_trace(self, clamped_64_200, mollified_profiles):
        for t in (1e-3, 1e-4):
            trace = float(np.exp(-clamped_64_200 * t).sum())
            for p in mollified_profiles.values():
                _, unweighted = partition_lower_bound(p, t)
                assert unweighted <= trace

    def test_large_time_degrades_gracefully(self, mollified_profiles):
        weighted, unweighted = partition_lower_bound(mollified_profiles[0.1], 1e6)
        assert math.isfinite(weighted) and math.isfinite(unweighted)

    def test_time_validation(self, mollified_profiles):
        with pytest.raises(ValueError):
            partition_lower_bound(mollified_profiles[0.1], 0.0)


class TestRoughBound:
    def test_homothety_scaling(self):
        # dilating the domain by s at fixed mode index scales the bound by
        # s^-4, the natural fourth-order covariance
        small, big = DomainSpec.square(1.0), DomainSpec.square(2.0)
        for k in (1, 10, 40):
            assert rough_bound(big, 2, k) == pytest.approx(
                rough_bound(small, 2, k) / 16.0, rel=1e-12)

    def test_dominates_fd_first_eigenvalue(self, unit_square, clamped_richardson):
        limits, bands = clamped_richardson
        assert rough_bound(unit_square, 2, 1) >= limits[0] - bands[0]

    def test_dominates_fd_averages(self, unit_square, clamped_richardson):
        limits, _ = clamped_richardson
        for k in (1, 5, 10, 30, 50):
            assert rough_bound(unit_square, 2, k) >= limits[:k].mean()


class TestExplicitSumBound:
    def test_threshold_is_collar_feasibility(self, unit_square):
        k0 = explicit_sum_threshold(unit_square, 2)
        h_at = collar_width_for_k(unit_square, 2, math.ceil(k0))
        assert h_at <= unit_square.inradius
        assert collar_width_for_k(unit_square, 2, math.floor(k0) - 1) > unit_square.inradius

    def test_below_threshold_raises(self, unit_square):
        with pytest.raises(ThresholdError):
            explicit_sum_bound(unit_square, 2, 10)

    def test_certified_sum_dominates_fd_average(self, unit_square, clamped_richardson):
        limits, _ = clamped_richardson
        k0 = math.ceil(explicit_sum_threshold(unit_square, 2))
        for k in range(k0, 51):
            main, second, rem = explicit_sum_bound(unit_square, 2, k)
            assert limits[:k].mean() <= main + second + rem

    def test_sum_equals_step_bound(self, unit_square):
        k = 100
        main, second, rem = explicit_sum_bound(unit_square, 2, k)
        h = collar_width_for_k(unit_square, 2, k)
        assert main + second + rem == pytest.approx(
            step_average_bound(unit_square, 2, k, h), rel=1e-12)

    def test_remainder_vanishes_against_second_term(self, unit_square):
        ratios = []
        for k in (100, 1000, 10000):
            _, _, rem = explicit_sum_bound(unit_square, 2, k)
            ratios.append(rem / k ** 1.5)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_remainder_k_to_2_over_d_envelope(self, unit_square):
        # on convex rectangles the remainder is O(k^(2/d)); the normalised
        # sequence must be bounded by its early maximum
        seq = [explicit_sum_bound(unit_square, 2, k)[2] / k for k in (200, 1000, 5000, 20000)]
        assert max(seq) == seq[0]

    def test_second_coefficient_matches_m_d(self, unit_square):
        dc = dimensional_constants(2)
        k = 64
        _, second, _ = explicit_sum_bound(unit_square, 2, k)
        expected = dc.m_d * unit_square.boundary_measure / unit_square.volume \
            * dc.classical ** 1.5 * (k / unit_square.volume) ** 1.5
        assert second == pytest.approx(expected, rel=1e-12)
        assert second_term_coefficient(unit_square, 2) * k ** 1.5 == pytest.approx(
            second, rel=1e-12)

    def test_epsilon_sweep_stays_certified(self, unit_square, clamped_richardson):
        limits, _ = clamped_richardson
        fd_avg = limits.mean()  # first 50 modes
        for eps in (1.0, 1.2, EPSILON_DEFAULT, 1.45):
            main, second, rem = explicit_sum_bound(unit_square, 2, 50, eps=eps)
            assert fd_avg <= main + second + rem, eps
        # wider collars push the feasibility threshold above k = 50
        with pytest.raises(ThresholdError):
            explicit_sum_bound(unit_square, 2, 50, eps=2.0)


@pytest.fixture(scope="module")
def gap_ratios(unit_square):
    from bilap.semiclassical import predict_average
    ratios = []
    for k in (100, 1000, 10000):
        h = collar_width_for_k(unit_square, 2, k)
        profile = mollified_indicator_profile(unit_square, h, 64)
        bound_gap = avg_upper_bound(profile, k) \
            - predict_average_leading(2, unit_square, k)
        weyl_gap = predict_average(2, unit_square, k) \
            - predict_average_leading(2, unit_square, k)
        ratios.append(bound_gap / weyl_gap)
    return ratios


class TestCollarFamilyTrend:
    """avg_upper_bound with the h(k) collar family against the two-term
    average prediction over k in {1e2, 1e3, 1e4}."""

    def test_gap_ratio_decreases_toward_a_constant(self, gap_ratios):
        assert gap_ratios[0] > gap_ratios[1] > gap_ratios[2]
        assert gap_ratios[2] < 0.5 * gap_ratios[0]

    def test_gap_stays_below_certified_second_term(self, unit_square):
        A = second_term_coefficient(unit_square, 2)
        for k in (1000, 10000):
            h = collar_width_for_k(unit_square, 2, k)
            profile = mollified_indicator_profile(unit_square, h, 64)
            bound_gap = avg_upper_bound(profile, k) \
                - predict_average_leading(2, unit_square, k)
            assert bound_gap <= A * k ** 1.5

    @pytest.mark.xfail(
        strict=True,
        reason="the collar family at eps = sqrt(2) limits its average-bound "
               "gap to ~3.5x the two-term gap (measured 4.06 at k = 1e4), "
               "not 2x; see the decisions ledger")
    def test_gap_within_twice_the_two_term_gap(self, gap_ratios):
        assert gap_ratios[2] <= 2.0


class TestIndividualBounds:
    def test_leading_terms_coincide(self, unit_square):
        # the correction is O(k^(7/(2d))), i.e. relative O(k^(-1/4)) at d=2
        A = second_term_coefficient(unit_square, 2)
        lead = lambda k: dimensional_constants(2).classical ** 2 * k ** 2
        deviations = []
        for k in (10 ** 12, 10 ** 16):
            lower, upper = individual_bounds(unit_square, 2, A, k)
            deviations.append(max(abs(lower / lead(k) - 1.0), abs(upper / lead(k) - 1.0)))
        assert deviations[1] <= 1e-2
        assert deviations[1] <= 0.15 * deviations[0]  # ~ (1e4)^(1/4) gain

    def test_envelope_exponent(self, unit_square):
        A = second_term_coefficient(unit_square, 2)
        assert modulus_bound(unit_square, 2, A, 4 * 10 ** 6) / \
            modulus_bound(unit_square, 2, A, 10 ** 6) == pytest.approx(4 ** (7 / 4), rel=1e-12)

    def test_fd_sandwich_20_to_50(self, unit_square, clamped_richardson):
        A = second_term_coefficient(unit_square, 2)
        limits, bands = clamped_richardson
        for k in INDIVIDUAL_K:
            lower, upper = individual_bounds(unit_square, 2, A, k)
            assert lower <= limits[k - 1] + bands[k - 1]
            assert limits[k - 1] - bands[k - 1] <= upper

    def test_envelope_contains_fd_values(self, unit_square, clamped_richardson):
        A = second_term_coefficient(unit_square, 2)
        limits, bands = clamped_richardson
        lead = dimensional_constants(2).classical ** 2
        for k in INDIVIDUAL_K:
            dev = abs(limits[k - 1] - lead * k ** 2)
            assert dev <= modulus_bound(unit_square, 2, A, k) + bands[k - 1]

    def test_validation(self, unit_square):
        with pytest.raises(ValueError):
            individual_bounds(unit_square, 2, -1.0, 5)
        with pytest.raises(ValueError):
            individual_bounds(unit_square, 2, 1.0, 0)


class TestKroegerLaptev:
    def test_1d_neumann_k10(self):
        spec = spectrum_1d((2, 3), 12)
        dom = DomainSpec.interval(1.0)
        pt = kroeger_laptev_refined(spec, dom, 1, 10)
        assert pt.s_k < 1.0
        lo, hi = pt.interval
        assert lo <= spec.value(11) <= hi

    def test_1d_neumann_full_range(self):
        spec = spectrum_1d((2, 3), 501)
        dom = DomainSpec.interval(1.0)
        reports = kroeger_laptev_report(spec, dom, 1, 500)
        assert all(r.holds for r in reports if r.asserted)

    def test_interval_collapses_when_s_equals_one(self):
        # synthetic spectrum whose first-k average saturates the bound
        dom = DomainSpec.interval(1.0)
        m1 = dimensional_constants(1).classical ** 2  # m_k at k=1
        sat = m1 / 5.0  # (d+4)/d = 5 at d=1
        spec = Spectrum((sat, sat))
        pt = kroeger_laptev_refined(spec, dom, 1, 1)
        assert pt.s_k == pytest.approx(1.0, rel=1e-15)
        lo, hi = pt.interval
        assert lo == pytest.approx(pt.m_k) and hi == pytest.approx(pt.m_k)

    def test_violation_reported_not_raised(self):
        dom = DomainSpec.interval(1.0)
        big = dimensional_constants(1).classical ** 2  # eigenvalue above m_1
        spec = Spectrum((big, big))
        pt = kroeger_laptev_refined(spec, dom, 1, 1)
        assert pt.s_k > 1.0 and pt.interval is None

    def test_needs_k_plus_one_values(self):
        spec = spectrum_1d((2, 3), 5)
        with pytest.raises(ValueError):
            kroeger_laptev_refined(spec, DomainSpec.interval(1.0), 1, 5)


class TestYoungRefined:
    def test_identity_cases(self):
        assert young_refined(2.0, 1.0) == (0.0, 0.0)
        y, bound = young_refined(3.0, 0.0)
        assert y == -3.0 and bound == -3.0

    def test_direct_arithmetic_case(self):
        y, bound = young_refined(0.5, 4.0)
        assert y == pytest.approx(1.5 * 4 - 0.5 - 8.0)  # = -2.5
        assert bound == pytest.approx(-0.5)
        assert y <= bound

    def test_random_sweep(self):
        rng = np.random.default_rng(20260810)
        pts = rng.uniform(0.0, 10.0, size=(10_000, 2))
        for p, x in pts:
            y, bound = young_refined(p, x)
            assert y <= bound + 1e-12

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            young_refined(-1.0, 1.0)


@pytest.fixture(scope="module")
def spectra(unit_square):
    return (laplacian_spectrum_exact(unit_square, 12),
            neumann_laplacian_spectrum_exact(unit_square, 12))


class TestCrossInequalities:
    def test_empty_rhs_trivially_holds(self, spectra):
        lam, mu = spectra
        reports = navier_cross_inequalities(lam, mu, [], 3, 3, 0)
        assert all(r.holds for r in reports)

    def test_exact_energy_oracle_sweep(self, spectra):
        # a = 1 eigenfunctions are sine products; energies are (lam, lam^2)
        lam, mu = spectra
        energies = [(lam.value(k), lam.value(k) ** 2) for k in range(1, 11)]
        for n in range(1, 11):
            for m in range(1, 11):
                for N in range(0, 11):
                    reports = navier_cross_inequalities(lam, mu, energies, n, m, N,
                                                        tol=1e-9)
                    assert all(r.holds for r in reports), (n, m, N)

    def test_fd_energies_within_refinement_band(self, spectra, unit_square):
        lam, mu = spectra

        def energies_on(n):
            grid = Grid2D(n, n, unit_square)
            _, vecs = smallest_eigs(assemble_dirichlet_laplacian(grid), 8)
            cell = grid.hx * grid.hy
            out = []
            for k in range(8):
                v = vecs[:, k] / math.sqrt(cell * float((vecs[:, k] ** 2).sum()))
                g, _, hs = form_energies(v, grid)
                out.append((g, hs))
            return out

        e48, e96 = energies_on(48), energies_on(96)
        gap_g = max(abs(a[0] - b[0]) for a, b in zip(e48, e96))
        gap_h = max(abs(a[1] - b[1]) for a, b in zip(e48, e96))
        for n, m, N in ((5, 5, 5), (8, 8, 8), (3, 6, 4)):
            tol = 3 * N * (mu.value(m + 1) * gap_g + gap_h)
            reports = navier_cross_inequalities(lam, mu, e96, n, m, N, tol=tol)
            assert all(r.holds for r in reports), (n, m, N)

    def test_length_validation(self, spectra):
        lam, mu = spectra
        with pytest.raises(ValueError):
            navier_cross_inequalities(lam, mu, [(1.0, 1.0)], 3, 3, 5)
