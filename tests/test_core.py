"""Core domain types, dimensional constants, and the package's exports."""

import dataclasses
import importlib
import math
import pkgutil

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import bilap
from bilap import avp, checks, eig2d, riesz, roots1d, semiclassical, spectra1d
from bilap.core import (
    BCKind,
    BoundaryCondition,
    BoundReport,
    MAX_INDEX,
    MAX_LENGTH,
    MIN_LENGTH,
    DomainSpec,
    InputError,
    Spectrum,
    check_index,
    dimensional_constants,
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

    def test_cached_value_is_never_handed_to_a_float(self):
        assert dimensional_constants(2) is dimensional_constants(2)
        with pytest.raises(ValueError):
            dimensional_constants(2.0)


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

    # any float, admissible lengths, and the ends of the admissible range
    # with their neighbours
    @given(shape=st.sampled_from(["interval", "rectangle", "disc", ""]),
           lengths=st.lists(st.floats() | st.floats(MIN_LENGTH, MAX_LENGTH) | st.sampled_from(
               [math.nextafter(s, t) for s in (MIN_LENGTH, MAX_LENGTH)
                for t in (0.0, s, math.inf)]), max_size=3))
    def test_validation(self, shape, lengths):
        arity = {"interval": 1, "rectangle": 2}.get(shape)
        if len(lengths) == arity and all(MIN_LENGTH <= s <= MAX_LENGTH for s in lengths):
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
        assert BoundaryCondition(BCKind.NAVIER, 1.0).is_limit_case
        assert BoundaryCondition(BCKind.KUTTLER_SIGILLITO, 1.0).is_limit_case
        with pytest.raises(ValueError):
            BoundaryCondition(BCKind.NEUMANN, 1.0)
        with pytest.raises(ValueError):
            BoundaryCondition(BCKind.DIRICHLET, poisson_ratio=1.0)

    def test_admissible_range_depends_on_dimension(self):
        bc = BoundaryCondition(BCKind.NAVIER, -0.6)
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

    def test_fields_cannot_be_assigned(self):
        r = BoundReport.less_equal("t", 2.0, 1.0, "ref")
        with pytest.raises(AttributeError):
            r.holds = True
        assert r == ("t", (), 2.0, 1.0, -1.0, False, "ref", True)


@pytest.mark.parametrize(
    "name", ["bilap", *(f"bilap.{m.name}" for m in pkgutil.iter_modules(bilap.__path__))])
def test_all_names_only_attributes_of_the_module(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


@pytest.mark.parametrize("layer", [roots1d, spectra1d, riesz, semiclassical, avp, eig2d],
                         ids=lambda module: module.__name__)
def test_numeric_layers_build_no_rows(layer):
    """The layers return numbers; ``bilap.checks`` alone turns them into rows."""
    assert not hasattr(layer, "BoundReport")


SQUARE = DomainSpec.square(1.0)
INTERVAL = DomainSpec.interval(1.0)


def _ball() -> avp.TestFunctionProfile:
    return avp.inscribed_ball_profile(SQUARE)


def _dense_ball() -> avp.TestFunctionProfile:
    """A profile whose density rho reaches 1, which no trial function has."""
    prof = _ball()
    return dataclasses.replace(prof, l2_sq=2.0 * SQUARE.volume * prof.sup_sq)


def _neumann_a1() -> BoundaryCondition:
    """The a = 1 Neumann tag, which the constructor refuses, built past it."""
    bc = object.__new__(BoundaryCondition)
    object.__setattr__(bc, "kind", BCKind.NEUMANN)
    object.__setattr__(bc, "poisson_ratio", 1.0)
    return bc


def _block() -> eig2d.DiscreteOperator:
    return eig2d.assemble_clamped_bilaplacian(eig2d.Grid2D(4, 4, SQUARE), (1, 1))


_SPEC = Spectrum((1.0, 2.0, 3.0))


# Each argument check that a flag's value can reach raises InputError, which
# the CLI reports as a configuration error; an internal invariant raises a
# plain ValueError, which it reports as an internal error.
@pytest.mark.parametrize("call, input_error", [
    (lambda: BoundaryCondition(BCKind.NAVIER, 2.0), True),
    (lambda: BoundaryCondition(BCKind.NEUMANN, 1.0), True),
    (lambda: BoundaryCondition(BCKind.NAVIER, -0.6).check_admissible(3), True),
    (lambda: BoundaryCondition(BCKind.NAVIER).check_admissible(1), True),
    (lambda: DomainSpec.square(0.0), True),
    (lambda: DomainSpec("disk", (1.0,)), True),
    (lambda: dimensional_constants(0), True),
    (lambda: spectra1d.spectrum_1d((1, 0), 3), True),
    (lambda: spectra1d.spectrum_1d((0, 1), 0), True),
    (lambda: spectra1d.spectrum_1d((0, 1), 3, math.inf), True),
    (lambda: spectra1d.count_reaching(math.nan), True),
    (lambda: spectra1d.count_reaching(1.0, 0.0), True),
    (lambda: riesz.counting(_SPEC, -1.0), True),
    (lambda: riesz.theorem_bounds_1d((0, 1), 0.0), True),
    (lambda: riesz.lemma_onedim_bounds(math.inf, "integers"), True),
    (lambda: semiclassical.f_neumann(-1.0), True),
    (lambda: semiclassical.expansion_coefficients(BoundaryCondition(BCKind.DIRICHLET), 1), True),
    (lambda: semiclassical.expansion_coefficients(_neumann_a1(), 2), True),
    (lambda: semiclassical.predict_eigenvalue(BoundaryCondition(BCKind.DIRICHLET), SQUARE, 0),
     True),
    (lambda: avp.mollified_indicator_profile(INTERVAL, 0.1), True),
    (lambda: avp.mollified_indicator_profile(SQUARE, 0.6), True),
    (lambda: avp.mollified_indicator_profile(SQUARE, 0.1, 10), True),
    (lambda: avp.avg_upper_bound(_ball(), 0), True),
    (lambda: avp.riesz_lower_bound(_ball(), math.inf), True),
    (lambda: avp.partition_lower_bound(_ball(), 0.0), True),
    (lambda: avp.explicit_sum_bound(SQUARE, 0), True),
    (lambda: checks.kroeger_laptev_rows(_SPEC, INTERVAL, 0), True),
    (lambda: checks.kroeger_laptev_rows(_SPEC, INTERVAL, 3), True),
    (lambda: eig2d.Grid2D(1, 4, SQUARE), True),
    (lambda: eig2d.Grid2D(4, 4, INTERVAL), True),
    (lambda: eig2d.clamped_spectrum_fd(SQUARE, 3, 10), True),
    (lambda: eig2d.smallest_eigs(_block(), _block().dim + 1), False),
    (lambda: avp.avg_upper_bound(_dense_ball(), 1), False),
])
def test_argument_checks_raise_input_error(call, input_error):
    with pytest.raises(ValueError) as info:
        call()
    assert isinstance(info.value, InputError) is input_error


_DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)
_TINY_INTERVAL = DomainSpec.interval(MIN_LENGTH)


# Rules of layer functions that no flag reaches today; a new caller's bad
# argument is still a configuration error, not an internal one.
@pytest.mark.parametrize("call", [
    lambda: avp.step_average_bound(SQUARE, 10, 0.0),
    lambda: avp.step_average_bound(SQUARE, 10, 0.6),
    lambda: avp.individual_bounds(SQUARE, 0),
    lambda: avp.young_refined(-1.0, 1.0),
    lambda: avp.young_refined(1.0, -1.0),
    lambda: tube_volume(SQUARE, 0.6),
    lambda: semiclassical.predict_average_leading(SQUARE, 0),
    lambda: semiclassical.neumann_boundary_integral(0.0, 1),
    lambda: semiclassical.dirichlet_arcsin_integral(1),
    lambda: eig2d.laplacian_spectrum_exact(INTERVAL, 3),
    lambda: eig2d.laplacian_spectrum_exact(SQUARE, 0),
    lambda: eig2d.neumann_laplacian_spectrum_exact(INTERVAL, 3),
    lambda: eig2d.neumann_laplacian_spectrum_exact(SQUARE, 0),
    lambda: roots1d.solve_gamma(-1),
    lambda: checks.defect_rows(0),
    lambda: checks.identity_rows(0),
    # the index rule, where the bounds overflowed or k was no float
    lambda: check_index(0),
    lambda: check_index(MAX_INDEX + 1),
    lambda: avp.avg_upper_bound(avp.inscribed_ball_profile(_TINY_INTERVAL), 10 ** 50),
    lambda: avp.explicit_sum_bound(SQUARE, 10 ** 400),
    lambda: avp.individual_bounds(SQUARE, 10 ** 400),
    lambda: semiclassical.predict_eigenvalue(_DIRICHLET, SQUARE, 10 ** 200),
    lambda: semiclassical.predict_average(SQUARE, 10 ** 400),
], ids=["step-h-0", "step-h-above-inradius", "individual-k", "young-p", "young-x",
        "tube-h", "average-leading-k", "boundary-integral-d", "arcsin-integral-d",
        "dirichlet-shape", "dirichlet-count", "neumann-shape", "neumann-count",
        "solve-gamma", "proposition-report", "identity-check", "index-0",
        "index-past-cap", "average-1e50", "explicit-sum-1e400", "individual-1e400",
        "predict-1e200", "predict-average-1e400"])
def test_layer_rules_raise_input_error(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("dom", [_TINY_INTERVAL, DomainSpec.interval(MAX_LENGTH),
                                 DomainSpec.square(MIN_LENGTH),
                                 DomainSpec.rectangle(MIN_LENGTH, MAX_LENGTH),
                                 DomainSpec.square(MAX_LENGTH)],
                         ids=["interval-min", "interval-max", "square-min", "strip", "square-max"])
def test_bounds_are_finite_up_to_the_index_cap(dom):
    assert check_index(MAX_INDEX) == MAX_INDEX
    for k in (1, MAX_INDEX):
        values = [avp.avg_upper_bound(avp.inscribed_ball_profile(dom), k),
                  *avp.individual_bounds(dom, k),
                  semiclassical.predict_average_leading(dom, k)]
        if k >= avp.explicit_sum_threshold(dom):
            values.extend(avp.explicit_sum_bound(dom, k))
        if dom.dimension == 2:
            values += [semiclassical.predict_eigenvalue(_DIRICHLET, dom, k),
                       semiclassical.predict_average(dom, k)]
        assert all(math.isfinite(v) for v in values), (k, values)
