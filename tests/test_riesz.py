"""Riesz means, counting functions, explicit envelopes, lattice sums, fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilap.checks import LATTICE_R, RIESZ_Z
from bilap.core import Spectrum
from bilap.riesz import (
    InsufficientSpectrumError,
    constant_c,
    counting,
    lemma_onedim_bounds,
    riesz_mean,
    second_term_fit,
    theorem_bounds_1d,
)
from bilap.spectra1d import ONE_D_PAIRS, count_reaching, spectrum_1d

PI4 = math.pi ** 4


class TestRieszMean:
    def test_below_bottom_of_spectrum(self):
        spec = spectrum_1d((0, 1), 4)
        assert riesz_mean(spec, 100.0) == 0.0

    def test_navier_single_term(self):
        spec = spectrum_1d((0, 2), 4)
        assert riesz_mean(spec, 16 * PI4) == pytest.approx(15 * PI4, rel=1e-15)
        assert counting(spec, 16 * PI4) == 1

    def test_kernel_shift_identity(self):
        # Neumann mean equals the clamped mean plus 2z (two zero modes)
        s23 = spectrum_1d((2, 3), count_reaching(1e6))
        s01 = spectrum_1d((0, 1), count_reaching(1e6))
        for z in (1e2, 1e4, 1e6):
            assert riesz_mean(s23, z) == riesz_mean(s01, z) + 2 * z

    def test_counting_integral_against_telescoped_form(self):
        z = 2e4
        spec = spectrum_1d((1, 2), count_reaching(z))
        vals = [v for v in spec.values if v < z]
        steps = sum((i + 1) * (([*vals, z][i + 1]) - vals[i]) for i in range(len(vals)))
        assert riesz_mean(spec, z) == pytest.approx(steps, rel=1e-12)

    def test_monotone_and_convex_in_z(self):
        spec = spectrum_1d((0, 1), 16)
        zs = np.linspace(0.0, 5e5, 401)
        vals = [riesz_mean(spec, float(z)) for z in zs]
        diffs = np.diff(vals)
        assert (diffs >= -1e-9).all()
        assert (np.diff(diffs) >= -1e-6).all()  # slopes N(z) nondecreasing

    def test_counting_strictness(self):
        spec = spectrum_1d((0, 2), 4)
        assert counting(spec, 16 * PI4) == 1
        assert counting(spec, 16 * PI4 + 1.0) == 2

    def test_neumann_kernel_counted(self):
        spec = spectrum_1d((2, 3), 4)
        assert counting(spec, 1.0) == 2

    def test_extension_on_demand(self):
        assert counting(spectrum_1d((0, 1), count_reaching(1e8)), 1e8) == 31

    def test_insufficient_spectrum_error(self):
        frozen = Spectrum((1.0, 2.0))
        short = spectrum_1d((0, 1), 2)  # ends at gamma_2^4, about 3803
        for spec, z in ((frozen, 10.0), (short, 1e4)):
            with pytest.raises(InsufficientSpectrumError):
                riesz_mean(spec, z)
            with pytest.raises(InsufficientSpectrumError):
                counting(spec, z)
        assert counting(frozen, 2.0) == 1  # a spectrum ending exactly at z covers it

    @settings(max_examples=200, deadline=None)
    @given(pair=st.sampled_from(ONE_D_PAIRS), length=st.floats(0.1, 10.0),
           z=st.floats(0.0, 1e12) | st.sampled_from([0.0, 1.0, math.pi ** 4, 1e8, 1e12]))
    def test_count_reaching_covers_every_pair(self, pair, length, z):
        count = count_reaching(z, length)
        spec = spectrum_1d(pair, count, length)
        assert spec.values[-1] >= z
        # at most three values past the shortest spectrum that reaches z
        assert count <= 4 or spec.values[count - 5] < z
        longer = spectrum_1d(pair, 2 * count, length)
        assert riesz_mean(spec, z) == riesz_mean(longer, z)
        assert counting(spec, z) == counting(longer, z)

    def test_count_reaching_rejects_invalid_thresholds(self):
        for z in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                count_reaching(z)
        with pytest.raises(ValueError):
            count_reaching(1.0, 0.0)

    def test_invalid_arguments(self):
        spec = spectrum_1d((0, 1), 2)
        for z in (-1.0, math.nan):
            with pytest.raises(ValueError):
                riesz_mean(spec, z)
            with pytest.raises(ValueError):
                counting(spec, z)


class TestSeriesConstant:
    def test_value_window(self):
        c = constant_c()
        assert abs(c - 2.51272) <= 1e-4
        assert 2.0 < c < 3.0

    def test_truncation_stability(self):
        # tail is geometric; moving the cutoff far out changes nothing
        assert abs(constant_c(1e-16) - constant_c(1e-22)) < 1e-15


class TestTheoremBounds:
    def test_navier_example_values(self):
        z = 16 * PI4
        lower, upper = theorem_bounds_1d((0, 2), z)
        assert lower / PI4 == pytest.approx(14.9333333, abs=1e-6)
        assert upper / PI4 == pytest.approx(19.2666667, abs=1e-6)
        spec = spectrum_1d((0, 2), 4)
        assert lower <= riesz_mean(spec, z) <= upper

    def test_ks_navier_differ_by_z_exactly(self):
        for z in (10.0, 1e4, 1e7):
            lo_n, up_n = theorem_bounds_1d((0, 2), z)
            lo_k, up_k = theorem_bounds_1d((1, 3), z)
            assert lo_k - lo_n == pytest.approx(z, rel=1e-15)
            assert up_k - up_n == pytest.approx(z, rel=1e-15)

    def test_small_z_straddles_zero(self):
        lower, upper = theorem_bounds_1d((0, 1), 1e-6)
        assert lower <= 0.0 <= upper

    def test_lower_never_exceeds_upper(self):
        for pair in ONE_D_PAIRS:
            for z in np.logspace(-3, 9, 50):
                lower, upper = theorem_bounds_1d(pair, float(z))
                assert lower <= upper

    def test_full_sweep_all_pairs(self):
        """lower <= R_1(z) <= upper on 200 log-spaced z in [1, 1e8]."""
        for pair in ONE_D_PAIRS:
            spec = spectrum_1d(pair, count_reaching(RIESZ_Z[-1]))
            for z in RIESZ_Z:
                r1 = riesz_mean(spec, float(z))
                lower, upper = theorem_bounds_1d(pair, float(z))
                assert lower <= r1 <= upper, (pair, z)


class TestLatticeSumLemma:
    def test_r0_trivial(self):
        assert lemma_onedim_bounds(0.0, "integers") == (0.0, 0.0, 0.0)

    def test_r1_integers_example(self):
        lhs, mid, rhs = lemma_onedim_bounds(1.0, "integers")
        assert lhs == pytest.approx(-1.0 / 3.0)
        assert mid == pytest.approx(-0.3)
        assert rhs == pytest.approx(0.25)

    def test_half_integers_brute_force_point(self):
        R = 10.5
        lhs, mid, rhs = lemma_onedim_bounds(R, "half_integers")
        brute = sum(R ** 4 - (n + 0.5) ** 4 for n in range(1, 10))
        assert mid == pytest.approx(brute - 0.8 * R ** 5 + R ** 4, rel=1e-12)
        assert lhs <= mid <= rhs

    def test_sweep_500_values(self):
        for R in LATTICE_R:
            for variant in ("integers", "half_integers"):
                lhs, mid, rhs = lemma_onedim_bounds(float(R), variant)
                assert lhs <= mid <= rhs, (R, variant)

    def test_invalid_variant_and_range(self):
        with pytest.raises(ValueError):
            lemma_onedim_bounds(1.0, "thirds")
        with pytest.raises(ValueError):
            lemma_onedim_bounds(-1.0, "integers")


class TestSecondTermFit:
    def test_all_pairs_recover_linear_coefficient(self):
        for pair in ONE_D_PAIRS:
            slope = second_term_fit(pair)
            assert abs(slope - (pair[0] + pair[1] - 3) / 2.0) <= 0.05, pair
