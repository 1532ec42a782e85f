"""Exact interval spectra, their closed-form eigenfunctions, and the
shared-root identities."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bilap.checks import identity_rows
from bilap.roots1d import gamma_value
from bilap.core import InputError
from bilap.spectra1d import (
    KERNEL_DIMS,
    MAX_COUNT,
    ONE_D_PAIRS,
    count_reaching,
    spectrum_1d,
)

GAMMA_1_FOURTH = 500.5639017404325  # gamma_1^4 from the bisection oracle


class TestSpectrum1D:
    def test_navier_values(self):
        spec = spectrum_1d((0, 2), 5)
        assert spec.value(3) == pytest.approx(81 * math.pi ** 4, rel=1e-15)

    def test_neumann_kernel(self):
        spec = spectrum_1d((2, 3), 5)
        assert spec.values[0] == 0.0 and spec.values[1] == 0.0 < spec.values[2]
        assert spec.value(3) == pytest.approx(GAMMA_1_FOURTH, rel=1e-12)

    def test_clamped_first_value(self):
        spec = spectrum_1d((0, 1), 1)
        assert spec.value(1) == pytest.approx(GAMMA_1_FOURTH, rel=1e-12)
        assert spec.value(1) == pytest.approx(500.564, abs=5e-4)

    def test_zero_modes_per_pair(self):
        for pair, dim in KERNEL_DIMS.items():
            assert spectrum_1d(pair, 10).values.count(0.0) == dim

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

    def test_counts_past_the_cap_are_input_errors(self):
        # a count is refused before any value is built
        assert count_reaching(9.7e25) <= MAX_COUNT
        for build in (lambda: spectrum_1d((0, 1), MAX_COUNT + 1),
                      lambda: count_reaching(1e26), lambda: count_reaching(1e40)):
            with pytest.raises(InputError, match="exceeds MAX_COUNT=1000000"):
                build()

    # short lists, float pairs, and valid pairs cut short or with a third entry
    @given(pair=st.lists(st.integers(-1, 4), min_size=1, max_size=3).map(tuple)
           | st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.sampled_from([1.0, 1.5]))
           | st.sampled_from(ONE_D_PAIRS).flatmap(
               lambda p: st.sampled_from([p, p[:1], p + (p[1],), p + (7,)])))
    def test_one_d_pair_validation(self, pair):
        if pair in ONE_D_PAIRS:
            assert len(spectrum_1d(pair, 3)) == 3
        else:
            with pytest.raises(ValueError):
                spectrum_1d(pair, 3)

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


# Closed-form eigenfunctions on [0, 1], built from the root gamma = Lambda_n^(1/4)
# of the n-th value that ``spectrum_1d`` returns, so that a vanishing boundary
# residual certifies that value.
MAX_EIGENFUNCTION_INDEX = 40


def exp_trig_coefficients(pair, g):
    """(P, Q, R, S) of u(x) = P e^(g x) + Q e^(-g x) + R cos(g x) + S sin(g x)
    for the four root-based pairs, normalised by A = (sinh g -/+ sin g) /
    (cosh g - cos g).  P carries the exponentially small combination
    (A -/+ 1)/2, rewritten with cosh g - sinh g = e^-g and cosh g + sinh g
    = e^g so that no difference of near-equal large terms is formed."""
    cg, sg, eg = math.cos(g), math.sin(g), math.exp(-g)
    denom = math.cosh(g) - cg
    if pair == (0, 1):
        a = (math.sinh(g) - sg) / denom
        p = (cg - sg - eg) / (2.0 * denom)
        q = (math.exp(g) - sg - cg) / (2.0 * denom)
        return p, q, -a, 1.0
    if pair == (0, 3):
        a = (math.sinh(g) + sg) / denom
        p = (sg + cg - eg) / (2.0 * denom)
        q = (math.exp(g) + sg - cg) / (2.0 * denom)
        return p, q, -a, -1.0
    if pair == (1, 2):
        a = (math.sinh(g) - sg) / denom
        p = (eg - cg + sg) / (2.0 * denom)
        q = (math.exp(g) - cg - sg) / (2.0 * denom)
        return p, q, 1.0, a
    # (2,3): A(cosh + cos) - (sinh + sin); the sinh and sin enter with the
    # same sign, which is what makes u'' and u''' vanish at 0
    a = (math.sinh(g) - sg) / denom
    p = (cg - sg - eg) / (2.0 * denom)
    q = (math.exp(g) - sg - cg) / (2.0 * denom)
    return p, q, a, -1.0


def eval_eigenfunction(pair, n, x, deriv):
    """Derivative ``deriv`` at x of the n-th eigenfunction of the pair."""
    g = math.sqrt(math.sqrt(spectrum_1d(pair, n).value(n)))
    if g == 0.0:  # kernel: x(1-x) for (0,3); 1, then x for (2,3); 1 otherwise
        poly = (0.0, 1.0, -1.0) if pair == (0, 3) else (1.0,) if n == 1 else (0.0, 1.0)
        for _ in range(deriv):
            poly = [k * c for k, c in enumerate(poly)][1:]
        return sum(c * x ** k for k, c in enumerate(poly))
    if pair == (0, 2):
        p, q, r, s = 0.0, 0.0, 0.0, 1.0
    elif pair == (1, 3):
        p, q, r, s = 0.0, 0.0, 1.0, 0.0
    else:
        p, q, r, s = exp_trig_coefficients(pair, g)
    for _ in range(deriv):
        p, q, r, s = g * p, -g * q, g * s, -g * r
    return p * math.exp(g * x) + q * math.exp(-g * x) + r * math.cos(g * x) + s * math.sin(g * x)


class TestEigenfunctions:
    def test_boundary_conditions_all_pairs(self):
        # absolute 1e-8 through n = 25; gamma^4 * eps floor beyond
        for pair in ONE_D_PAIRS:
            for n in range(1, MAX_EIGENFUNCTION_INDEX + 1):
                gamma = math.sqrt(math.sqrt(spectrum_1d(pair, n).value(n)))
                tol = 1e-8 if n <= 25 else 1e-8 * math.cosh(min(gamma, 700.0))
                for x in (0.0, 1.0):
                    for order in pair:
                        assert abs(eval_eigenfunction(pair, n, x, order)) <= tol, (pair, n, x, order)


class TestIdentities:
    def test_shared_root_identities_exact(self):
        reports = [r for r in identity_rows(50) if r.check == "identity-shared-root"]
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
        reports = identity_rows(100)
        assert all(r.holds for r in reports if r.check == "interlacing")
        assert all(r.holds for r in reports if r.check == "neumann-weyl-cap")

    def test_weyl_cap_example(self):
        # third Neumann value is gamma_1^4 <= pi^4 2^4
        s23 = spectrum_1d((2, 3), 3)
        assert s23.value(3) <= math.pi ** 4 * 16

    def test_interlacing_example_n4(self):
        assert 256 * math.pi ** 4 > gamma_value(3) ** 4
