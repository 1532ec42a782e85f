"""Exact interval spectra, eigenfunctions, and the shared-root identities."""

import math

import pytest

from bilap.core import ONE_D_PAIRS
from bilap.roots1d import gamma_value
from bilap.spectra1d import (
    KERNEL_DIMS,
    MAX_EIGENFUNCTION_INDEX,
    eigenfunction_1d,
    eval_eigenfunction,
    identity_check,
    spectrum_1d,
)

GAMMA_1_FOURTH = 500.5639017404325  # gamma_1^4 from the bisection oracle


class TestSpectrum1D:
    def test_navier_values(self):
        spec = spectrum_1d((0, 2), 5)
        assert spec.value(3) == pytest.approx(81 * math.pi ** 4, rel=1e-15)

    def test_neumann_kernel(self):
        spec = spectrum_1d((2, 3), 5)
        assert spec.values[0] == 0.0 and spec.values[1] == 0.0
        assert spec.kernel_dim == 2
        assert spec.value(3) == pytest.approx(GAMMA_1_FOURTH, rel=1e-12)

    def test_clamped_first_value(self):
        spec = spectrum_1d((0, 1), 1)
        assert spec.value(1) == pytest.approx(GAMMA_1_FOURTH, rel=1e-12)
        assert spec.value(1) == pytest.approx(500.564, abs=5e-4)

    def test_kernel_dimensions(self):
        for pair, dim in KERNEL_DIMS.items():
            assert spectrum_1d(pair, 10).kernel_dim == dim

    def test_monotone_values(self):
        for pair in ONE_D_PAIRS:
            vals = spectrum_1d(pair, 100).values
            assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_length_scaling(self):
        unit = spectrum_1d((0, 1), 5)
        scaled = spectrum_1d((0, 1), 5, length=2.0)
        for j in range(1, 6):
            assert scaled.value(j) == pytest.approx(unit.value(j) / 16.0, rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            spectrum_1d((1, 0), 5)
        with pytest.raises(ValueError):
            spectrum_1d((0, 1), 0)
        with pytest.raises(ValueError):
            spectrum_1d((0, 1), 5, length=0.0)

    def test_clamped_fourth_roots_two_term_sharp(self):
        # |Lambda_k^(1/4) - pi(k+1/2)| <= pi e^(-pi k), with a 4-ulp allowance
        # once the tail falls below double resolution (k > 8)
        spec = spectrum_1d((0, 1), 50)
        for k in range(1, 51):
            tail = math.pi * math.exp(-math.pi * k)
            target = math.pi * (k + 0.5)
            fourth_root = math.sqrt(math.sqrt(spec.value(k)))
            assert abs(fourth_root - gamma_value(k)) <= 4 * math.ulp(target)
            allowance = 0.0 if k <= 8 else 4 * math.ulp(target)
            assert abs(fourth_root - target) <= tail + allowance, k


class TestEigenfunctions:
    def test_clamped_boundary_values(self):
        ef = eigenfunction_1d((0, 1), 1)
        assert eval_eigenfunction(ef, 0.0, 0) == pytest.approx(0.0, abs=1e-12)
        assert eval_eigenfunction(ef, 0.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_conditions_all_pairs(self):
        # absolute 1e-8 through n = 25; gamma^4 * eps floor beyond
        for pair in ONE_D_PAIRS:
            for n in range(1, MAX_EIGENFUNCTION_INDEX + 1):
                ef = eigenfunction_1d(pair, n)
                tol = 1e-8 if n <= 25 else 1e-8 * math.cosh(min(ef.gamma, 700.0))
                for x in (0.0, 1.0):
                    for order in pair:
                        assert abs(eval_eigenfunction(ef, x, order)) <= tol, (pair, n, x, order)

    def test_neumann_kernel_elements(self):
        const = eigenfunction_1d((2, 3), 1)
        linear = eigenfunction_1d((2, 3), 2)
        assert eval_eigenfunction(const, 0.37, 0) == 1.0
        assert eval_eigenfunction(linear, 0.37, 0) == pytest.approx(0.37)
        assert eval_eigenfunction(linear, 0.5, 2) == 0.0

    def test_dirichlet_neumann_kernel_parabola(self):
        ef = eigenfunction_1d((0, 3), 1)
        assert eval_eigenfunction(ef, 0.25, 0) == pytest.approx(0.25 * 0.75)
        assert eval_eigenfunction(ef, 0.0, 0) == 0.0
        assert eval_eigenfunction(ef, 0.5, 3) == 0.0

    def test_ode_identity_closed_form(self):
        """u'''' = Lambda u at interior samples, via the closed-form basis."""
        for pair in ONE_D_PAIRS:
            spec = spectrum_1d(pair, MAX_EIGENFUNCTION_INDEX)
            for n in (1, 2, 5, 12, 25, 40):
                ef = eigenfunction_1d(pair, n)
                lam = spec.value(n)
                g = ef.gamma
                p, q, r, s = ef.exp_plus, ef.exp_minus, ef.cos_coef, ef.sin_coef
                if ef.form == "poly":
                    continue  # kernel/trig polynomials handled separately
                for k in range(4):
                    p, q, r, s = g * p, -g * q, g * s, -g * r
                for i in range(1, 10):
                    x = i / 10.0
                    u4 = (p * math.exp(g * x) + q * math.exp(-g * x)
                          + r * math.cos(g * x) + s * math.sin(g * x))
                    u = eval_eigenfunction(ef, x, 0)
                    if abs(u) > 1e-6:
                        assert u4 == pytest.approx(lam * u, rel=1e-6), (pair, n, x)

    def test_l2_norm_positive_by_quadrature(self):
        from bilap.semiclassical import adaptive_gauss_legendre
        for n in (1, 3, 7):
            ef = eigenfunction_1d((0, 1), n)
            val, _ = adaptive_gauss_legendre(
                lambda x: eval_eigenfunction(ef, x, 0) ** 2, 0.0, 1.0, tol=1e-10)
            assert val > 0.0

    def test_length_rescaling(self):
        unit = eigenfunction_1d((0, 1), 2)
        stretched = eigenfunction_1d((0, 1), 2, length=2.0)
        assert eval_eigenfunction(stretched, 1.0, 0) == pytest.approx(
            eval_eigenfunction(unit, 0.5, 0), rel=1e-12)
        assert eval_eigenfunction(stretched, 1.0, 1) == pytest.approx(
            0.5 * eval_eigenfunction(unit, 0.5, 1), rel=1e-12)

    def test_index_cap_and_argument_validation(self):
        with pytest.raises(ValueError):
            eigenfunction_1d((0, 1), MAX_EIGENFUNCTION_INDEX + 1)
        ef = eigenfunction_1d((0, 1), 1)
        with pytest.raises(ValueError):
            eval_eigenfunction(ef, -0.1, 0)
        with pytest.raises(ValueError):
            eval_eigenfunction(ef, 0.5, 4)


class TestIdentities:
    def test_shared_root_identities_exact(self):
        reports = [r for r in identity_check(50) if r.check == "identity-shared-root"]
        assert len(reports) == 150
        assert all(r.holds and r.margin == 0.0 for r in reports)

    def test_identity_values(self):
        s01 = spectrum_1d((0, 1), 10)
        s03 = spectrum_1d((0, 3), 11)
        s12 = spectrum_1d((1, 2), 11)
        s23 = spectrum_1d((2, 3), 12)
        for n in range(1, 11):
            assert s01.value(n) == s03.value(n + 1) == s12.value(n + 1) == s23.value(n + 2)

    def test_interlacing_and_weyl_cap(self):
        reports = identity_check(100)
        assert all(r.holds for r in reports if r.check == "interlacing")
        assert all(r.holds for r in reports if r.check == "neumann-weyl-cap")

    def test_weyl_cap_example(self):
        # third Neumann value is gamma_1^4 <= pi^4 2^4
        s23 = spectrum_1d((2, 3), 3)
        assert s23.value(3) <= math.pi ** 4 * 16

    def test_interlacing_example_n4(self):
        assert 256 * math.pi ** 4 > gamma_value(3) ** 4
