"""Core domain types and dimensional constants."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bilap.core import (
    BCKind,
    BoundaryCondition,
    BoundReport,
    DomainSpec,
    Spectrum,
    dimensional_constants,
    kahan_sum,
    tube_volume,
)


def gamma_half_oracle(d: int) -> float:
    """Gamma(1 + d/2) from exact integer/half-integer recursions."""
    if d % 2 == 0:
        return float(math.factorial(d // 2))
    m = (d + 1) // 2  # 1 + d/2 = m + 1/2
    return math.factorial(2 * m) / (4 ** m * math.factorial(m)) * math.sqrt(math.pi)


class TestDimensionalConstants:
    def test_ball_volume_against_exact_gamma(self):
        for d in range(1, 11):
            oracle = math.pi ** (d / 2.0) / gamma_half_oracle(d)
            dc = dimensional_constants(d)
            assert abs(dc.ball_volume - oracle) <= 1e-12 * oracle
            classical = (2 * math.pi) ** 2 * oracle ** (-2.0 / d)
            assert abs(dc.classical - classical) <= 1e-12 * classical

    def test_d2_values(self):
        dc = dimensional_constants(2)
        assert dc.ball_volume == pytest.approx(math.pi, rel=1e-15)
        assert dc.classical == pytest.approx(4 * math.pi, rel=1e-15)
        assert dc.grad_sup ** 2 == pytest.approx(48.0, rel=1e-14)
        assert dc.lap_sup ** 2 == pytest.approx(2304.0, rel=1e-14)
        assert dc.m_d == pytest.approx(52.0 / 3.0, rel=1e-14)
        assert dc.a_d == pytest.approx(5.0 / math.pi, rel=1e-14)
        assert dc.c_d == pytest.approx(320.0 / 3.0, rel=1e-14)

    def test_d1_values(self):
        dc = dimensional_constants(1)
        assert dc.ball_volume == pytest.approx(2.0, rel=1e-15)
        assert dc.classical == pytest.approx(math.pi ** 2, rel=1e-15)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            dimensional_constants(0)
        with pytest.raises(ValueError):
            dimensional_constants(-3)


class TestDomainSpec:
    def test_rectangle_geometry(self):
        dom = DomainSpec.rectangle(2.0, 1.0)
        assert dom.volume == 2.0
        assert dom.boundary_measure == 6.0
        assert dom.inradius == 0.5
        assert dom.dimension == 2

    def test_interval_geometry(self):
        dom = DomainSpec.interval(3.0)
        assert dom.volume == 3.0
        assert dom.inradius == 1.5
        assert dom.dimension == 1

    def test_positive_lengths_required(self):
        with pytest.raises(ValueError):
            DomainSpec.rectangle(0.0, 1.0)
        with pytest.raises(ValueError):
            DomainSpec.interval(-1.0)
        with pytest.raises(ValueError):
            DomainSpec.rectangle(1.0, math.inf)

    @given(shape=st.sampled_from(["interval", "rectangle", "disc", ""]),
           lengths=st.lists(st.floats(), max_size=3))
    def test_validation(self, shape, lengths):
        arity = {"interval": 1, "rectangle": 2}.get(shape)
        if len(lengths) == arity and all(0.0 < s < math.inf for s in lengths):
            dom = DomainSpec(shape, tuple(lengths))
            assert dom.dimension == arity
            assert dom.volume == math.prod(lengths)
            assert dom.inradius == min(lengths) / 2.0
        else:
            with pytest.raises(ValueError):
                DomainSpec(shape, tuple(lengths))


class TestTubeVolume:
    def test_unit_square_endpoints(self):
        dom = DomainSpec.square(1.0)
        assert tube_volume(dom, 0.0) == 0.0
        assert tube_volume(dom, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_rectangle_example(self):
        dom = DomainSpec.rectangle(2.0, 1.0)
        assert tube_volume(dom, 0.1) == pytest.approx(0.56, abs=1e-14)

    def test_ratio_tends_to_perimeter_with_corner_constant(self):
        # |w_h|/h = |dO| - 4h exactly, so the deficit is 4h.
        dom = DomainSpec.rectangle(2.0, 1.0)
        for h in (1e-2, 1e-3, 1e-4):
            ratio = tube_volume(dom, h) / h
            assert abs(ratio - dom.boundary_measure) == pytest.approx(4.0 * h, rel=1e-6)

    def test_interval_collar(self):
        dom = DomainSpec.interval(2.0)
        assert tube_volume(dom, 0.25) == 0.5
        assert tube_volume(dom, 1.0) == 2.0

    def test_domain_errors(self):
        dom = DomainSpec.square(1.0)
        with pytest.raises(ValueError):
            tube_volume(dom, -0.1)
        with pytest.raises(ValueError):
            tube_volume(dom, 0.6)


class TestBoundaryCondition:
    def test_a_equal_one_only_for_navier_ks(self):
        assert BoundaryCondition.navier(1.0).is_limit_case
        assert BoundaryCondition.kuttler_sigillito(1.0).is_limit_case
        with pytest.raises(ValueError):
            BoundaryCondition.neumann(1.0)
        with pytest.raises(ValueError):
            BoundaryCondition(BCKind.DIRICHLET, poisson_ratio=1.0)

    def test_admissible_range_depends_on_dimension(self):
        bc = BoundaryCondition.navier(-0.6)
        bc.check_admissible(2)  # (-1, 1]
        with pytest.raises(ValueError):
            bc.check_admissible(3)  # (-1/2, 1]

    @given(kind=st.sampled_from(BCKind),
           a=st.floats() | st.sampled_from([1.0, -1.0, -0.5, math.nextafter(1.0, 2.0)]),
           d=st.integers(2, 6))
    def test_poisson_ratio_validation(self, kind, a, d):
        limit_forbidden = kind in (BCKind.DIRICHLET, BCKind.NEUMANN)
        if math.isfinite(a) and a <= 1.0 and not (a == 1.0 and limit_forbidden):
            bc = BoundaryCondition(kind, poisson_ratio=a)
            assert bc.is_limit_case == (a == 1.0)
            if -1.0 / (d - 1) < a:
                bc.check_admissible(d)
            else:
                with pytest.raises(ValueError):
                    bc.check_admissible(d)
        else:
            with pytest.raises(ValueError):
                BoundaryCondition(kind, poisson_ratio=a)


class TestSpectrum:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Spectrum((2.0, 1.0))

    def test_nonnegative_enforced(self):
        with pytest.raises(ValueError):
            Spectrum((-1.0, 2.0))

    @given(values=st.lists(st.floats(0.0, 1e300) | st.just(0.0), max_size=8).map(sorted),
           data=st.data())
    def test_invariants(self, values, data):
        assert Spectrum(tuple(values)).values == tuple(values)
        if not values:
            return
        # each broken list stays nondecreasing where it compares at all
        i = data.draw(st.integers(0, len(values) - 1))
        for broken in ([-data.draw(st.floats(5e-324, 1e300)), *values[1:]],
                       [*values[:-1], math.inf],
                       [*values[:i], math.nan, *values[i + 1:]]):
            with pytest.raises(ValueError):  # negative or non-finite
                Spectrum(tuple(broken))
        assume(values[0] < values[-1])
        with pytest.raises(ValueError):
            Spectrum(tuple(values[::-1]))

    def test_one_based_access(self):
        spec = Spectrum((1.0, 2.0, 3.0))
        assert spec.value(1) == 1.0
        with pytest.raises(IndexError):
            spec.value(4)


class TestBoundReport:
    def test_less_equal_margin_and_holds(self):
        r = BoundReport.less_equal("t", 1.0, 2.0, "ref", params={"k": 3})
        assert r.holds and r.margin == 1.0 and r.params == (("k", "3"),)
        assert not BoundReport.less_equal("t", 2.0, 1.0, "ref").holds

    def test_value_row_never_asserted(self):
        r = BoundReport.value_row("v", 1.5, "ref")
        assert not r.asserted and r.holds


def test_kahan_sum_beats_plain_sum():
    terms = [0.1] * 10 ** 5 + [1e-13] * 10 ** 5
    exact = math.fsum(terms)
    assert abs(kahan_sum(terms) - exact) <= 1e-12
    assert abs(kahan_sum(terms) - exact) <= abs(sum(terms) - exact)
