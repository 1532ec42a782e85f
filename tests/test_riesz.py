"""Riesz means, counting functions, explicit envelopes, lattice sums, fits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilap.checks import LATTICE_R, RIESZ_Z
from bilap.core import Spectrum
from bilap.riesz import (
    InsufficientSpectrumError,
    MAX_LATTICE_R,
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

    def test_long_sum_is_correctly_rounded(self):
        # 12,022 positive parts, where a plain left-to-right sum is 29 ulps off
        z = math.sqrt(12_000) + 0.1
        spec = Spectrum(tuple(math.sqrt(j) for j in range(12_100)))
        exact = sum((Fraction(z - v) for v in spec.values if v < z), Fraction(0))
        assert riesz_mean(spec, z) == float(exact)

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
        # tail is geometric; summing far past the 1e-16 cutoff (the 39th term
        # is below 1e-50) changes nothing
        def term(n: int) -> float:
            half, e1 = n + 0.5, math.exp(-math.pi * n)
            return (4.0 * (math.pi * e1 * half ** 3 + math.pi ** 3 * e1 ** 3 * half)
                    + 6.0 * math.pi ** 2 * e1 ** 2 * half ** 2 + math.pi ** 4 * e1 ** 4)

        assert abs(constant_c() - math.fsum(term(n) for n in range(1, 40))) < 1e-15


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


def lattice_oracle(R: float, variant: str) -> tuple[float, float, float]:
    """The lattice sums as a scalar loop adding one term at a time, from
    n = 1, with Python's float powers."""
    total = 0.0
    n = 1
    if variant == "integers":
        while n < R:
            total += R ** 4 - n ** 4
            n += 1
        return (-R ** 3 / 3.0, total - 0.8 * R ** 5 + 0.5 * R ** 4,
                R ** 3 / 6.0 + R ** 2 / 12.0)
    while n + 0.5 < R:
        total += R ** 4 - (n + 0.5) ** 4
        n += 1
    return (-11.0 / 6.0 * R ** 3 - 1.5 * R ** 2 - 127.0 / 240.0 * R,
            total - 0.8 * R ** 5 + R ** 4,
            R ** 3 / 6.0 + 1.5 * R ** 2 + R / 30.0 + 0.125)


def lattice_exact(R: Fraction, variant: str) -> tuple[Fraction, Fraction, Fraction]:
    """(lhs, mid, rhs) in exact rational arithmetic."""
    off, main = (0, Fraction(1, 2)) if variant == "integers" else (1, Fraction(1))
    count = max(math.ceil(R - Fraction(off, 2)) - 1, 0)  # nodes (2n + off)/2 < R, n >= 1
    fourth_powers = Fraction(sum((2 * n + off) ** 4 for n in range(1, count + 1)), 16)
    mid = count * R ** 4 - fourth_powers - Fraction(4, 5) * R ** 5 + main * R ** 4
    if variant == "integers":
        return -R ** 3 / 3, mid, R ** 3 / 6 + R ** 2 / 12
    return (-Fraction(11, 6) * R ** 3 - Fraction(3, 2) * R ** 2 - Fraction(127, 240) * R, mid,
            R ** 3 / 6 + Fraction(3, 2) * R ** 2 + R / 30 + Fraction(1, 8))


_lattice_radii = (st.floats(0.0, 200.0)
                  | st.integers(0, 200).map(float)
                  | st.integers(0, 399).map(lambda m: m + 0.5)
                  | st.sampled_from([float(R) for R in LATTICE_R]))


class TestLatticeSumLemma:
    @given(R=_lattice_radii, variant=st.sampled_from(["integers", "half_integers"]))
    def test_equals_the_scalar_loop(self, R, variant):
        got = lemma_onedim_bounds(R, variant)
        assert all(type(v) is float for v in got)
        assert got == lattice_oracle(R, variant)

    def test_every_criterion_radius_equals_the_scalar_loop(self):
        for R in LATTICE_R:
            for variant in ("integers", "half_integers"):
                assert lemma_onedim_bounds(float(R), variant) == \
                    lattice_oracle(float(R), variant), (R, variant)

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

    def test_float_verdicts_equal_the_exact_ones_up_to_the_cap(self):
        # integer radii carry the smallest exact margins: R/30 on the
        # integers lower row, about 3R^2/2 on the half-integers upper row
        for twice in range(2 * MAX_LATTICE_R + 1):
            for variant in ("integers", "half_integers"):
                lhs, mid, rhs = lemma_onedim_bounds(twice / 2.0, variant)
                exact = lattice_exact(Fraction(twice, 2), variant)
                assert (lhs <= mid, mid <= rhs) == (exact[0] <= exact[1], exact[1] <= exact[2])

    def test_invalid_variant_and_range(self):
        with pytest.raises(ValueError):
            lemma_onedim_bounds(1.0, "thirds")
        # inf has no finite lattice sum; past the cap float rows misjudge
        for R in (-1.0, math.nan, math.inf, math.nextafter(MAX_LATTICE_R, math.inf)):
            with pytest.raises(ValueError):
                lemma_onedim_bounds(R, "integers")


class TestSecondTermFit:
    def test_all_pairs_recover_linear_coefficient(self):
        for pair in ONE_D_PAIRS:
            slope = second_term_fit(pair)
            assert abs(slope - (pair[0] + pair[1] - 3) / 2.0) <= 0.05, pair
