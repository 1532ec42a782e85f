"""Weyl-law coefficients, the Neumann quadrature, and two-term predictors."""

import math

import numpy as np
import pytest

from bilap.core import BCKind, BoundaryCondition, DomainSpec, dimensional_constants
from bilap.semiclassical import (
    adaptive_gauss_legendre,
    arctan_g,
    dirichlet_arcsin_integral,
    dirichlet_gamma_ratio,
    expansion_coefficients,
    f_neumann,
    neumann_boundary_integral,
    predict_average,
    predict_average_leading,
    predict_eigenvalue,
)


class TestFNeumann:
    def test_exact_one_at_zero(self):
        assert f_neumann(0.0) == 1.0

    def test_half_value(self):
        assert f_neumann(0.5) == pytest.approx(0.957107, abs=1e-6)

    def test_monotone_decreasing_and_in_unit_interval(self):
        grid = np.linspace(0.0, 0.999, 1000)
        vals = [f_neumann(float(a)) for a in grid]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    def test_limit_blowup_exponent(self):
        # f -> 0 as a -> 1-, so f^((1-d)/4) diverges for d >= 2
        assert f_neumann(1.0 - 1e-8) < 1e-7
        assert f_neumann(1.0 - 1e-8) ** (-0.25) > 1e1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            f_neumann(-1.0)


class TestGNeumann:
    def test_unity_at_origin(self):
        # g(0, a) = 1
        for a in (-0.5, 0.0, 0.7):
            assert arctan_g(0.0, a) == math.pi / 4.0

    def test_zero_at_one(self):
        # g(1, a) = 0; a = 0 is a removable 0/0 corner, where the arctan
        # takes the conventional endpoint value 0
        for a in (-0.5, 0.3, 0.7, 0.0):
            assert arctan_g(1.0, a) == 0.0

    def test_frozen_value(self):
        expected = math.sqrt(0.75) * 1.25 ** 2 / (math.sqrt(1.25) * 0.75 ** 2)
        assert arctan_g(0.5, 0.0) == pytest.approx(math.atan(expected), rel=1e-15)
        assert math.tan(arctan_g(0.5, 0.0)) == pytest.approx(2.1516, abs=1e-4)

    def test_arctan_is_continuous_through_the_pole(self):
        a = -0.3
        t_pole = 1.0 / math.sqrt(1.0 - a)
        assert arctan_g(t_pole, a) == pytest.approx(math.pi / 2.0)
        assert arctan_g(t_pole - 1e-9, a) == pytest.approx(math.pi / 2.0, abs=1e-6)
        assert arctan_g(t_pole + 1e-9, a) == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_arctan_complement_identity(self):
        for a in (-0.3, 0.0, 0.5, 0.9):
            for t in np.linspace(0.05, 0.95, 19):
                total = arctan_g(float(t), a) + arctan_g(float(t), a, inverse=True)
                assert total == pytest.approx(math.pi / 2.0, rel=1e-14)


class TestExpansionCoefficients:
    def test_c0_is_weyl_constant(self):
        for d in (2, 3, 4):
            co = expansion_coefficients(BoundaryCondition(BCKind.DIRICHLET), d)
            dc = dimensional_constants(d)
            assert co.c0 == pytest.approx((2 * math.pi) ** -d * dc.ball_volume, rel=1e-15)

    def test_navier_d2_closed_form(self):
        co = expansion_coefficients(BoundaryCondition(BCKind.NAVIER, 0.4), 2)
        assert co.c1 == pytest.approx(-1.0 / (4 * math.pi), rel=1e-14)

    def test_dirichlet_d2_value(self):
        co = expansion_coefficients(BoundaryCondition(BCKind.DIRICHLET), 2)
        assert co.c1 == pytest.approx(-0.140276, abs=1e-6)

    def test_sign_pattern(self):
        for d in (2, 3):
            cd = expansion_coefficients(BoundaryCondition(BCKind.DIRICHLET), d).c1
            cn = expansion_coefficients(BoundaryCondition(BCKind.NAVIER, 0.2), d).c1
            ck = expansion_coefficients(BoundaryCondition(BCKind.KUTTLER_SIGILLITO, 0.2), d).c1
            assert cd < 0.0 and cn < 0.0 and ck > 0.0
            assert ck == pytest.approx(-cn, rel=1e-15)

    def test_dirichlet_quadrature_cross_check(self):
        for d in (2, 3, 4):
            quad, est, closed = dirichlet_arcsin_integral(d)
            assert abs(quad - closed) <= 1e-9
            assert est <= 1e-10

    def test_neumann_two_forms_agree(self):
        for d in (2, 3, 4):
            for a in (-0.3, 0.0, 0.5, 0.9):
                bc = BoundaryCondition(BCKind.NEUMANN, a)
                ca = expansion_coefficients(bc, d, "arctan_g")
                cb = expansion_coefficients(bc, d, "arctan_inv_g")
                assert abs(ca.c1 - cb.c1) <= 1e-9, (d, a)
                assert neumann_boundary_integral(a, d)[1] <= 1e-10

    def test_neumann_a0_matches_f_equals_one_shortcut(self):
        # with f(0) = 1 the bracket is 3 - (4(d-1)/pi) * integral
        d = 3
        integral, _ = neumann_boundary_integral(0.0, d)
        base = dimensional_constants(d - 1).ball_volume / (4 * (2 * math.pi) ** (d - 1))
        expected = base * (3.0 - 4.0 * (d - 1) / math.pi * integral)
        co = expansion_coefficients(BoundaryCondition(BCKind.NEUMANN, 0.0), d)
        assert co.c1 == pytest.approx(expected, rel=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            expansion_coefficients(BoundaryCondition(BCKind.DIRICHLET), 1)
        with pytest.raises(ValueError):
            expansion_coefficients(BoundaryCondition(BCKind.NAVIER, -0.9), 3)  # outside (-1/2, 1]

    def test_navier_ks_limit_case_allowed(self):
        co = expansion_coefficients(BoundaryCondition(BCKind.NAVIER, 1.0), 2)
        assert co.c1 < 0.0


class TestLargeDimensionLimits:
    def test_gamma_ratio_bracket_tends_to_one(self):
        values = [1.0 + dirichlet_gamma_ratio(d) for d in range(2, 51)]
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
        assert values[-1] < 1.2
        assert values[0] > 1.7


class TestPredictors:
    def setup_method(self):
        self.dom = DomainSpec.square(1.0)

    def test_dirichlet_k100_closed_form(self):
        c2 = (4 * math.pi) ** 2
        expected = c2 * 100 ** 2 + (c2 * 2 / (2 * math.sqrt(math.pi))) \
            * (1 + dirichlet_gamma_ratio(2)) * 4 * 100 ** 1.5
        got = predict_eigenvalue(BoundaryCondition(BCKind.DIRICHLET), self.dom, 100)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_second_term_signs(self):
        lead = (4 * math.pi) ** 2 * 100
        pd = predict_eigenvalue(BoundaryCondition(BCKind.DIRICHLET), self.dom, 10)
        pk = predict_eigenvalue(BoundaryCondition(BCKind.KUTTLER_SIGILLITO, 0.3), self.dom, 10)
        assert pd > lead > pk

    def test_navier_independent_of_a(self):
        vals = {predict_eigenvalue(BoundaryCondition(BCKind.NAVIER, a), self.dom, 7)
                for a in (-0.5, 0.0, 0.5, 1.0)}
        assert len(vals) == 1

    def test_prediction_order_matches_eigenvalue_comparisons(self):
        # large-k predicted ordering: dirichlet >= navier >= ks >= neumann(0.3)
        k = 10 ** 6
        pd = predict_eigenvalue(BoundaryCondition(BCKind.DIRICHLET), self.dom, k)
        pn = predict_eigenvalue(BoundaryCondition(BCKind.NAVIER, 0.3), self.dom, k)
        pk = predict_eigenvalue(BoundaryCondition(BCKind.KUTTLER_SIGILLITO, 0.3), self.dom, k)
        assert pd >= pn >= pk

    def test_average_leading_term(self):
        got = predict_average_leading(self.dom, 10)
        assert got == pytest.approx((1.0 / 3.0) * 16 * math.pi ** 2 * 100, rel=1e-14)

    def test_average_ratios(self):
        d = 2
        lead_avg = predict_average_leading(self.dom, 50)
        lead_single = (4 * math.pi) ** 2 * 50 ** 2
        assert lead_avg / lead_single == pytest.approx(d / (d + 4.0), rel=1e-14)
        second_avg = predict_average(self.dom, 50) - lead_avg
        second_single = predict_eigenvalue(
            BoundaryCondition(BCKind.DIRICHLET), self.dom, 50) - lead_single
        assert second_avg / second_single == pytest.approx(d / (d + 3.0), rel=1e-12)

    def test_d1_unsupported(self):
        with pytest.raises(ValueError):
            predict_eigenvalue(BoundaryCondition(BCKind.DIRICHLET), DomainSpec.interval(1.0), 5)
        with pytest.raises(ValueError):
            predict_average(DomainSpec.interval(1.0), 5)


class TestQuadratureHelper:
    def test_polynomial_exact(self):
        val, err = adaptive_gauss_legendre(lambda x: x ** 7 - 2 * x + 1, 0.0, 2.0)
        assert val == pytest.approx(2.0 ** 8 / 8 - 4 + 2, rel=1e-14)
        assert err <= 1e-12

    def test_sqrt_singularity_endpoint(self):
        val, _ = adaptive_gauss_legendre(lambda x: math.sqrt(x), 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-10)
