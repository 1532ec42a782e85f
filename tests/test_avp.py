"""Trial-function profiles and every averaged-variational bound."""

import functools
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import fftconvolve

import bilap
from bilap import avp, semiclassical
from bilap.avp import (
    EPSILON_DEFAULT,
    MAX_AXIS_SAMPLES,
    MAX_GRID_RES,
    TestFunctionProfile,
    _kernel_samples,
    _window_gram,
    avg_upper_bound,
    collar_width_for_k,
    explicit_sum_bound,
    explicit_sum_threshold,
    individual_bounds,
    inscribed_ball_profile,
    kroeger_laptev_refined,
    kroeger_laptev_report,
    mollified_indicator_profile,
    partition_lower_bound,
    riesz_lower_bound,
    second_term_coefficient,
    step_average_bound,
    young_refined,
)
from bilap.checks import AVERAGE_K, INDIVIDUAL_K, MOLLIFIER_RES
from bilap.core import (
    BCKind,
    BoundaryCondition,
    BoundReport,
    DomainSpec,
    InputError,
    Spectrum,
    dimensional_constants,
)
from bilap.semiclassical import adaptive_gauss_legendre, predict_average_leading
from bilap.spectra1d import spectrum_1d


def trapz2(arr: np.ndarray, dx: float, dy: float) -> float:
    """Composite trapezoid rule on a grid of spacing dx along axis 0, dy along axis 1."""
    return float(np.trapezoid(np.trapezoid(arr, dx=dy, axis=1), dx=dx))


def window_matrix(a: np.ndarray, half: int) -> np.ndarray:
    """Banded T with T[x, i] = a[x - i + half] (zero out of range), so that
    the centred "same" convolution of outer(a, b) with a (2 half_x + 1) x
    (2 half_y + 1) kernel K is T_a @ K @ T_b.T."""
    return sliding_window_view(np.pad(a, half), 2 * half + 1)[:, ::-1]


def run_indicator(n: int, lo: int, hi: int) -> np.ndarray:
    """The 0/1 array of length n with ones on [lo, hi)."""
    a = np.zeros(n)
    a[lo:hi] = 1.0
    return a


def quadratic_norm(a: np.ndarray, b: np.ndarray, kernel: np.ndarray,
                   dx: float, dy: float) -> float:
    """The trapezoid norm of T_a K T_b.T as the profile forms it:
    sum(Ga * (K @ Gb @ K.T)) in the window Gram matrices."""
    ga = _window_gram(a > 0.0, kernel.shape[0] // 2, dx)
    gb = _window_gram(b > 0.0, kernel.shape[1] // 2, dy)
    return float(np.sum(ga * (kernel @ gb @ kernel.T)))


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
        grid, formed once per distinct window row, stay below A_d / h and
        Atilde_d / h^2."""
        dc = dimensional_constants(2)
        side = unit_square.lengths[0]
        for h in (0.1, 0.05):
            m = 2 * math.ceil(side / (2.0 * h / MOLLIFIER_RES))
            x = np.linspace(0.0, side, m + 1)
            eta, gx_k, gy_k, lap_k = _kernel_samples(h / 2.0, side / m, side / m)
            indicator = (np.minimum(x, side - x) > h / 2.0).astype(float)
            u = np.unique(window_matrix(indicator, eta.shape[0] // 2), axis=0)
            gx, gy, lap = (u @ (k / eta.sum()) @ u.T for k in (gx_k, gy_k, lap_k))
            assert np.sqrt((gx * gx + gy * gy).max()) <= dc.grad_sup / h
            assert np.abs(lap).max() <= dc.lap_sup / h ** 2

    def test_l2_mass_between_inner_volume_and_total(self, unit_square, mollified_profiles):
        from bilap.core import tube_volume
        for h, p in mollified_profiles.items():
            assert unit_square.volume - tube_volume(unit_square, h) <= p.l2_sq <= unit_square.volume

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
        # h = inradius at the coarsest grid_res is a profile
        assert 0.0 < mollified_indicator_profile(unit_square, 0.5, 64).rho < 1.0

    @pytest.mark.parametrize("which", [0, 1])
    def test_interior_check_sees_the_centre_lines(self, unit_square, monkeypatch, which):
        # one point away from the collar on either centre line dips below 1
        # while staying inside [0, 1]
        line = avp._centre_line
        calls = []

        def dipped(a, b, kernel):
            out = line(a, b, kernel)
            if len(calls) == which:
                out[len(out) // 3] = 0.5
            calls.append(None)
            return out

        monkeypatch.setattr(avp, "_centre_line", dipped)
        with pytest.raises(AssertionError, match="phi != 1"):
            mollified_indicator_profile(unit_square, 0.1, MOLLIFIER_RES)
        assert len(calls) == 2

    @pytest.mark.parametrize("shape, kernel", [((97, 131), (13, 13)), ((100, 64), (13, 15)),
                                               ((8, 9), (11, 3))])
    def test_convolution_matches_scipy_signal(self, shape, kernel):
        """The quadratic form on outer(a, b) of two random runs and a random
        odd kernel, including one wider than the array, against the
        trapezoid norm of the scipy.signal convolution."""
        rng = np.random.default_rng(0)
        a, b = (run_indicator(n, *sorted(rng.choice(n + 1, 2, replace=False)))
                for n in shape)
        k = rng.random(kernel)
        dx, dy = 0.3, 0.7
        field = fftconvolve(np.outer(a, b), k, mode="same")
        ref = trapz2(field ** 2, dx, dy)
        assert abs(quadratic_norm(a, b, k, dx, dy) - ref) <= 1e-13 * ref

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_separable_convolution_matches_scipy_signal(self, data):
        """sum(Ga * (K @ Gb @ K.T)) is the trapezoid norm of the centred
        "same" convolution of outer(a, b) with K."""
        def interval_indicator(n):
            # [lo, hi) may touch either end of the array or miss both
            lo = data.draw(st.integers(0, n - 1))
            hi = data.draw(st.integers(lo + 1, n))
            return run_indicator(n, lo, hi)

        a = interval_indicator(data.draw(st.integers(1, 40), label="nx"))
        b = interval_indicator(data.draw(st.integers(1, 40), label="ny"))
        # a sampled mollifier of 1..8 cells per half-width; gx_k and gy_k are
        # antisymmetric, so a transposed or flipped route fails on them
        h2 = data.draw(st.floats(0.05, 1.0), label="h2")
        dx = h2 / data.draw(st.floats(0.6, 8.0), label="cells_x")
        dy = h2 / data.draw(st.floats(0.6, 8.0), label="cells_y")
        kernel = _kernel_samples(h2, dx, dy)[data.draw(st.integers(0, 3), label="which")]
        field = fftconvolve(np.outer(a, b), kernel, mode="same")
        ref = trapz2(field ** 2, dx, dy)
        got = quadratic_norm(a, b, kernel, dx, dy)
        # where the exact field vanishes, fftconvolve leaves round-off of
        # about 1e-16 of the field's peak rather than zeros
        floor = np.abs(field).max() ** 2 * len(a) * dx * len(b) * dy
        assert abs(got - ref) <= 1e-13 * (ref + floor)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_window_gram_matches_the_explicit_product(self, data):
        """The interval sums of ``_window_gram`` against T.T @ diag(w) @ T
        formed from the window matrix and the trapezoid weights, each entry
        summed exactly by ``math.fsum`` (a float GEMM rounds at every step
        and drifts up to about 1.2e-15 on these sizes)."""
        n = data.draw(st.integers(1, 60), label="n")
        # the run touches either end of the array or neither
        lo = data.draw(st.integers(0, n - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, n), label="hi")
        half = data.draw(st.integers(0, 12), label="half")
        step = data.draw(st.floats(1e-3, 10.0), label="step")
        t = window_matrix(run_indicator(n, lo, hi), half)
        w = np.full(len(t), step)
        w[0] -= 0.5 * step
        w[-1] -= 0.5 * step
        cols = range(t.shape[1])
        ref = np.array([[math.fsum(w * t[:, i] * t[:, j]) for j in cols] for i in cols])
        got = _window_gram(run_indicator(n, lo, hi) > 0.0, half, step)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

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
            "l2_sq": trapz2(phi * phi, dx, dy),
            "grad_l2_sq": trapz2(grad_sq, dx, dy),
            "lap_l2_sq": trapz2(lap * lap, dx, dy),
            "sup_sq": phi.max() ** 2,
        }
        p = mollified_profiles[h]
        for name, value in expected.items():
            assert getattr(p, name) == pytest.approx(value, rel=1e-12), name

    @settings(max_examples=25, deadline=None)
    @given(lx=st.floats(0.5, 1.0), ly=st.floats(0.5, 1.0),
           frac=st.floats(0.3, 1.0, exclude_min=True), grid_res=st.integers(64, 80))
    def test_norms_match_the_full_grid(self, lx, ly, frac, grid_res):
        """The profile against the fields formed at every grid point,
        Tx @ K @ Ty.T, and summed by ``trapz2``."""
        dom = DomainSpec.rectangle(lx, ly)
        h = frac * dom.inradius
        target, h2 = h / grid_res, h / 2.0
        mx, my = (2 * max(2, math.ceil(length / (2.0 * target))) for length in (lx, ly))
        x, y = np.linspace(0.0, lx, mx + 1), np.linspace(0.0, ly, my + 1)
        dx, dy = lx / mx, ly / my
        eta, gx_k, gy_k, lap_k = _kernel_samples(h2, dx, dy)
        tx = window_matrix((np.minimum(x, lx - x) > h2).astype(float), eta.shape[0] // 2)
        ty = window_matrix((np.minimum(y, ly - y) > h2).astype(float), eta.shape[1] // 2)
        scale = 1.0 / eta.sum()
        phi, gx, gy, lap = (tx @ (k * scale) @ ty.T for k in (eta, gx_k, gy_k, lap_k))
        expected = {"sup_sq": phi.max() ** 2, "l2_sq": trapz2(phi * phi, dx, dy),
                    "grad_l2_sq": trapz2(gx * gx + gy * gy, dx, dy),
                    "lap_l2_sq": trapz2(lap * lap, dx, dy)}
        p = mollified_indicator_profile(dom, h, grid_res)
        for name, value in expected.items():
            assert getattr(p, name) == pytest.approx(value, rel=1e-12), name

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

    def test_peak_memory_at_the_size_limits(self):
        # the largest kernels on axes of just under MAX_AXIS_SAMPLES points
        h = 1.001 * MAX_GRID_RES / (MAX_AXIS_SAMPLES - 3)
        tracemalloc.start()
        try:
            mollified_indicator_profile(DomainSpec.square(1.0), h, MAX_GRID_RES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200e6

    def test_cli_import_leaves_scipy_signal_out(self):
        code = ("import sys, bilap.cli; "
                "sys.exit(any(m in sys.modules for m in ('scipy.signal', 'scipy.fft')))")
        env = {**os.environ, "PYTHONPATH": str(Path(bilap.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_cli_runs_leave_scipy_solvers_and_numpy_random_out(self, tmp_path):
        # the FD layer is numpy alone: `all` (Krylov bases), `eig2d` at
        # 24^2 and k = 400 (whole-basis blocks) and `compare`; the Lanczos start
        # block is closed form, so numpy.random stays out too.  Neither a
        # CSV nor a JSON report loads any scipy module, and a JSON meta
        # records no scipy version
        report = tmp_path / "report"
        code = "\n".join([
            "import json, sys",
            "from bilap.cli import main",
            "runs = [['all'],",
            "        ['eig2d', '--domain', 'rect:1x1.65', '--grids', '24', '--k', '400'],",
            "        ['compare', '--domain', 'rect:1x1.65', '--grids', '24,48,96', '--k', '10']]",
            f"codes = [main([*argv, '--out', {str(report)!r}]) for argv in runs]",
            "metas = []",
            "for argv in (runs[0], runs[1], ['constants']):",
            f"    codes.append(main([*argv, '--format', 'json', '--out', {str(report)!r}]))",
            f"    metas.append(json.loads(open({str(report)!r}).read())['meta'])",
            "loaded = [m for m in sys.modules",
            "          if m == 'scipy' or m.startswith(('scipy.', 'numpy.random'))]",
            "print(codes, loaded, metas)",
            "sys.exit(codes != [0] * 6 or bool(loaded) or any('scipy' in m for m in metas))",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(bilap.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        assert run.returncode == 0, run.stdout + run.stderr


class TestAverageUpperBound:
    def test_idealised_profile_collapses_to_leading_term(self, unit_square):
        ideal = TestFunctionProfile(
            kind="inscribed_ball", dom=unit_square, l2_sq=1.0 - 1e-12,
            grad_l2_sq=0.0, lap_l2_sq=0.0, sup_sq=1.0)
        for k in (1, 5, 20):
            bound = avg_upper_bound(ideal, k)
            assert bound == pytest.approx(predict_average_leading(unit_square, k), rel=1e-9)

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


def ball_bound(dom: DomainSpec, k: int) -> float:
    """The paper's rough (inradius-only) average bound: the inscribed-ball
    profile's average bound."""
    return avg_upper_bound(inscribed_ball_profile(dom), k)


class TestRoughBound:
    def test_homothety_scaling(self):
        # dilating the domain by s at fixed mode index scales the bound by
        # s^-4, the natural fourth-order covariance
        small, big = DomainSpec.square(1.0), DomainSpec.square(2.0)
        for k in (1, 10, 40):
            assert ball_bound(big, k) == pytest.approx(
                ball_bound(small, k) / 16.0, rel=1e-12)

    def test_dominates_fd_first_eigenvalue(self, unit_square, clamped_richardson):
        limits, bands = clamped_richardson
        assert ball_bound(unit_square, 1) >= limits[0] - bands[0]

    def test_dominates_fd_averages(self, unit_square, clamped_richardson):
        limits, _ = clamped_richardson
        for k in (1, 5, 10, 30, 50):
            assert ball_bound(unit_square, k) >= limits[:k].mean()

    @pytest.mark.parametrize("dom", [DomainSpec.interval(1.0), DomainSpec.interval(3.7),
                                     DomainSpec.square(1.0), DomainSpec.rectangle(1.0, 2.0)],
                             ids=["interval:1", "interval:3.7", "square:1", "rect:1x2"])
    def test_equals_the_paper_form(self, dom):
        # r^-4 ((d/(d+4)) C_d^2 (a_d |O|)^(4/d) (k/|O|)^(4/d)
        #       + 2 C_d (b_d |O|)^(2/d) (k/|O|)^(2/d) + c_d)
        d = dom.dimension
        dc = dimensional_constants(d)
        vol = dom.volume
        for k in range(1, 201):
            kv = k / vol
            paper = dom.inradius ** -4 * (
                d / (d + 4.0) * dc.classical ** 2 * (dc.a_d * vol) ** (4.0 / d) * kv ** (4.0 / d)
                + 2.0 * dc.classical * (dc.b_d * vol) ** (2.0 / d) * kv ** (2.0 / d)
                + dc.c_d)
            assert ball_bound(dom, k) == pytest.approx(paper, rel=1e-14), k


class TestExplicitSumBound:
    def test_threshold_is_collar_feasibility(self, unit_square):
        k0 = explicit_sum_threshold(unit_square)
        h_at = collar_width_for_k(unit_square, math.ceil(k0))
        assert h_at <= unit_square.inradius
        assert collar_width_for_k(unit_square, math.floor(k0) - 1) > unit_square.inradius

    def test_below_threshold_raises(self, unit_square):
        with pytest.raises(InputError):
            explicit_sum_bound(unit_square, 10)

    def test_certified_sum_dominates_fd_average(self, unit_square, clamped_richardson):
        limits, _ = clamped_richardson
        k0 = math.ceil(explicit_sum_threshold(unit_square))
        for k in range(k0, 51):
            main, second, rem = explicit_sum_bound(unit_square, k)
            assert limits[:k].mean() <= main + second + rem

    def test_sum_equals_step_bound(self, unit_square):
        k = 100
        main, second, rem = explicit_sum_bound(unit_square, k)
        h = collar_width_for_k(unit_square, k)
        assert main + second + rem == pytest.approx(
            step_average_bound(unit_square, k, h), rel=1e-12)

    def test_remainder_vanishes_against_second_term(self, unit_square):
        ratios = []
        for k in (100, 1000, 10000):
            _, _, rem = explicit_sum_bound(unit_square, k)
            ratios.append(rem / k ** 1.5)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_remainder_k_to_2_over_d_envelope(self, unit_square):
        # on convex rectangles the remainder is O(k^(2/d)); the normalised
        # sequence must be bounded by its early maximum
        seq = [explicit_sum_bound(unit_square, k)[2] / k for k in (200, 1000, 5000, 20000)]
        assert max(seq) == seq[0]

    def test_second_coefficient_matches_m_d(self, unit_square):
        dc = dimensional_constants(2)
        k = 64
        _, second, _ = explicit_sum_bound(unit_square, k)
        expected = dc.m_d * unit_square.boundary_measure / unit_square.volume \
            * dc.classical ** 1.5 * (k / unit_square.volume) ** 1.5
        assert second == pytest.approx(expected, rel=1e-12)
        assert second_term_coefficient(unit_square) * k ** 1.5 == pytest.approx(
            second, rel=1e-12)

    def test_epsilon_sweep_stays_certified(self, unit_square, clamped_richardson):
        limits, _ = clamped_richardson
        fd_avg = limits.mean()  # first 50 modes
        for eps in (1.0, 1.2, EPSILON_DEFAULT, 1.45):
            main, second, rem = explicit_sum_bound(unit_square, 50, eps=eps)
            assert fd_avg <= main + second + rem, eps
        # wider collars push the feasibility threshold above k = 50
        with pytest.raises(InputError):
            explicit_sum_bound(unit_square, 50, eps=2.0)


@pytest.fixture(scope="module")
def gap_ratios(unit_square):
    from bilap.semiclassical import predict_average
    ratios = []
    for k in (100, 1000, 10000):
        h = collar_width_for_k(unit_square, k)
        profile = mollified_indicator_profile(unit_square, h, 64)
        bound_gap = avg_upper_bound(profile, k) \
            - predict_average_leading(unit_square, k)
        weyl_gap = predict_average(unit_square, k) \
            - predict_average_leading(unit_square, k)
        ratios.append(bound_gap / weyl_gap)
    return ratios


class TestCollarFamilyTrend:
    """avg_upper_bound with the h(k) collar family against the two-term
    average prediction over k in {1e2, 1e3, 1e4}."""

    def test_gap_ratio_decreases_toward_a_constant(self, gap_ratios):
        assert gap_ratios[0] > gap_ratios[1] > gap_ratios[2]
        assert gap_ratios[2] < 0.5 * gap_ratios[0]

    def test_gap_stays_below_certified_second_term(self, unit_square):
        A = second_term_coefficient(unit_square)
        for k in (1000, 10000):
            h = collar_width_for_k(unit_square, k)
            profile = mollified_indicator_profile(unit_square, h, 64)
            bound_gap = avg_upper_bound(profile, k) \
                - predict_average_leading(unit_square, k)
            assert bound_gap <= A * k ** 1.5

    @pytest.mark.xfail(
        strict=True,
        reason="the collar family at eps = sqrt(2) limits its average-bound "
               "gap to ~3.5x the two-term gap (measured 4.06 at k = 1e4), "
               "not 2x; see the xfail paragraph of the README's test section")
    def test_gap_within_twice_the_two_term_gap(self, gap_ratios):
        assert gap_ratios[2] <= 2.0


class TestIndividualBounds:
    def test_leading_terms_coincide(self, unit_square):
        # the correction is O(k^(7/(2d))), i.e. relative O(k^(-1/4)) at d=2
        lead = lambda k: dimensional_constants(2).classical ** 2 * k ** 2
        deviations = []
        for k in (10 ** 12, 10 ** 16):
            lower, upper = individual_bounds(unit_square, k)
            deviations.append(max(abs(lower / lead(k) - 1.0), abs(upper / lead(k) - 1.0)))
        assert deviations[1] <= 1e-2
        assert deviations[1] <= 0.15 * deviations[0]  # ~ (1e4)^(1/4) gain

    def test_fd_sandwich_20_to_50(self, unit_square, clamped_richardson):
        limits, bands = clamped_richardson
        for k in INDIVIDUAL_K:
            lower, upper = individual_bounds(unit_square, k)
            assert lower <= limits[k - 1] + bands[k - 1]
            assert limits[k - 1] - bands[k - 1] <= upper

    def test_validation(self, unit_square):
        with pytest.raises(ValueError):
            individual_bounds(unit_square, 0)


class TestKroegerLaptev:
    def test_1d_neumann_k10(self):
        spec = spectrum_1d((2, 3), 12)
        dom = DomainSpec.interval(1.0)
        pt = kroeger_laptev_refined(spec, dom, 10)
        assert pt.s_k < 1.0
        lo, hi = pt.interval
        assert lo <= spec.value(11) <= hi

    def test_1d_neumann_full_range(self):
        spec = spectrum_1d((2, 3), 501)
        dom = DomainSpec.interval(1.0)
        reports = kroeger_laptev_report(spec, dom, 500)
        assert all(r.holds for r in reports if r.asserted)

    def test_square_rows_are_labelled_and_computed_in_d2(self, unit_square, check_context):
        spec = check_context.fd(32)
        reports = kroeger_laptev_report(spec, unit_square, 3)
        assert reports and all(r.check.startswith("kroeger-laptev-extrapolated-d2-")
                               for r in reports)
        # S_1 = ((d+4)/d) Lambda_1 / m_1 with m_1 = C_2^2 |O|^(-2) = 16 pi^2
        assert reports[0].lhs == pytest.approx(3.0 * spec.value(1) / (16.0 * math.pi ** 2),
                                               rel=1e-14)

    def test_interval_collapses_when_s_equals_one(self):
        # synthetic spectrum whose first-k average saturates the bound
        dom = DomainSpec.interval(1.0)
        m1 = dimensional_constants(1).classical ** 2  # m_k at k=1
        sat = m1 / 5.0  # (d+4)/d = 5 at d=1
        spec = Spectrum((sat, sat))
        pt = kroeger_laptev_refined(spec, dom, 1)
        assert pt.s_k == pytest.approx(1.0, rel=1e-15)
        lo, hi = pt.interval
        assert lo == pytest.approx(pt.m_k) and hi == pytest.approx(pt.m_k)

    def test_violation_reported_not_raised(self):
        dom = DomainSpec.interval(1.0)
        big = dimensional_constants(1).classical ** 2  # eigenvalue above m_1
        spec = Spectrum((big, big))
        pt = kroeger_laptev_refined(spec, dom, 1)
        assert pt.s_k > 1.0 and pt.interval is None

    def test_report_equals_the_per_k_sum(self):
        # the running sum adds the values left to right, as sum() does for
        # floats before Python 3.12, so every row keeps its bits
        k_max = 2000
        spec = spectrum_1d((2, 3), k_max + 1)
        dom = DomainSpec.interval(1.0)
        m = dimensional_constants(1).classical ** 2
        oracle = []
        for k in range(1, k_max + 1):
            total = functools.reduce(operator.add, spec.values[:k])
            m_k = m * k ** 4.0
            s_k = 5.0 * (total / k) / m_k
            nxt, root = spec.value(k + 1), math.sqrt(1.0 - s_k)
            params = {"k": k}
            oracle += [
                BoundReport.less_equal("kroeger-laptev-extrapolated-d1-sk", s_k, 1.0,
                                       "technical_lemma", params=params),
                BoundReport.less_equal("kroeger-laptev-extrapolated-d1-interval-lower",
                                       m_k * (1.0 - root) ** 2, nxt, "technical_lemma",
                                       params=params),
                BoundReport.less_equal("kroeger-laptev-extrapolated-d1-interval-upper",
                                       nxt, m_k * (1.0 + root) ** 2, "technical_lemma",
                                       params=params),
                BoundReport.less_equal("kroeger-laptev-extrapolated-d1-quadratic",
                                       (math.sqrt(nxt) - math.sqrt(m_k)) ** 2,
                                       m_k * (1.0 - s_k), "technical_lemma", params=params,
                                       tol=1e-12 * m_k)]
        assert kroeger_laptev_report(spec, dom, k_max) == oracle

    def test_needs_k_plus_one_values(self):
        spec = spectrum_1d((2, 3), 5)
        with pytest.raises(ValueError):
            kroeger_laptev_refined(spec, DomainSpec.interval(1.0), 5)


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



def _dilated(dom: DomainSpec, t: float) -> DomainSpec:
    return DomainSpec(dom.shape, tuple(t * side for side in dom.lengths))


def _ball(dom: DomainSpec, t: float) -> TestFunctionProfile:
    return inscribed_ball_profile(_dilated(dom, t))


def _explicit_sum(dom: DomainSpec, k: int, t: float) -> tuple[float, float, float]:
    # k counts from the smallest admissible k, which dilation leaves alone
    k += math.ceil(explicit_sum_threshold(dom))
    return explicit_sum_bound(_dilated(dom, t), k)


_INTERVALS = st.builds(DomainSpec.interval, st.floats(0.5, 2.0))
_RECTANGLES = st.builds(DomainSpec.rectangle, st.floats(0.5, 2.0), st.floats(0.5, 2.0))
_DOMAINS = st.one_of(_INTERVALS, _RECTANGLES)

# (domains, power p, f(dom, k, u, t)): f evaluates a quantity on the domain
# dilated by t, its arguments dilated with it (a length by t, a spectral
# parameter z by t^-4, a heat time s by t^4), and f(dom, k, u, t) must equal
# t^p f(dom, k, u, 1).  ``u`` >= 2 places z = u R and s = 1 / (u R), R the
# ball profile's Laplacian ratio, away from the cancellation at z = R.
_DILATION_LAWS = {
    "predict_average_leading": (_DOMAINS, -4, lambda dom, k, u, t:
                                semiclassical.predict_average_leading(_dilated(dom, t), k)),
    "predict_average": (_RECTANGLES, -4, lambda dom, k, u, t:
                        semiclassical.predict_average(_dilated(dom, t), k)),
    "predict_eigenvalue": (_RECTANGLES, -4, lambda dom, k, u, t: tuple(
        semiclassical.predict_eigenvalue(BoundaryCondition(kind), _dilated(dom, t), k)
        for kind in BCKind)),
    "second_term_coefficient": (_DOMAINS, -4, lambda dom, k, u, t:
                                second_term_coefficient(_dilated(dom, t))),
    "collar_width_for_k": (_DOMAINS, 1, lambda dom, k, u, t:
                           collar_width_for_k(_dilated(dom, t), k)),
    # h from r/10^4 to r/2, r the inradius: near r, |Omega| - |w_h| cancels;
    # |w_h| itself is the closed form h|dOmega| - 4h^2, exact for small h
    "step_average_bound": (_DOMAINS, -4, lambda dom, k, u, t: step_average_bound(
        _dilated(dom, t), k, t * dom.inradius / u)),
    "explicit_sum_bound": (_DOMAINS, -4, lambda dom, k, u, t: _explicit_sum(dom, k, t)),
    "avg_upper_bound": (_DOMAINS, -4, lambda dom, k, u, t: avg_upper_bound(_ball(dom, t), k)),
    "riesz_lower_bound": (_DOMAINS, -4, lambda dom, k, u, t: riesz_lower_bound(
        _ball(dom, t), t ** -4 * u * _ball(dom, 1.0).lap_ratio)),
    "weighted_heat_bound": (_DOMAINS, 0, lambda dom, k, u, t: partition_lower_bound(
        _ball(dom, t), t ** 4 / (u * _ball(dom, 1.0).lap_ratio))[0]),
    "individual_bounds": (_DOMAINS, -4, lambda dom, k, u, t:
                          individual_bounds(_dilated(dom, t), k)),
    "unweighted_heat_bound": (_DOMAINS, 0, lambda dom, k, u, t: partition_lower_bound(
        _ball(dom, t), t ** 4 / (u * _ball(dom, 1.0).lap_ratio))[1]),
}
_BROKEN_LAWS = {
    "individual_bounds": "individual_bounds divides A = second_term_coefficient(dom), "
                         "which carries |Omega|^(-3/d), by |Omega|^(3/d) again "
                         "(FOUND in CHANGES.md)",
    "unweighted_heat_bound": "the gradient term of partition_lower_bound's unweighted "
                             "bound lacks a factor |Omega|, so it scales like t^-d "
                             "(FOUND in CHANGES.md)",
}


class TestDilation:
    """Fourth-order scaling: dilating the domain by t multiplies every
    eigenvalue by t^-4, so every bound and prediction must follow, to 1e-12
    of its size.  A tuple is held to 1e-12 of the sum of its magnitudes: the
    remainder of ``explicit_sum_bound`` is a difference of near-equal terms."""

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=_BROKEN_LAWS[name]))
        if name in _BROKEN_LAWS else name for name in _DILATION_LAWS])
    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(1e-3, 1e3), k=st.integers(1, 10 ** 4), u=st.floats(2.0, 1e4),
           data=st.data())
    @example(t=3.0, k=20, u=10.0, data=None)
    def test_scales_like_an_eigenvalue(self, name, t, k, u, data):
        domains, power, law = _DILATION_LAWS[name]
        dom = DomainSpec.square(1.0) if data is None else data.draw(domains, label="dom")
        scaled = np.atleast_1d(law(dom, k, u, t))
        expected = t ** power * np.atleast_1d(law(dom, k, u, 1.0))
        assert np.abs(scaled - expected).max() <= 1e-12 * np.abs(expected).sum()
