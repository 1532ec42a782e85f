"""Roots of cos(g) cosh(g) = 1 against an independent bisection oracle."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bilap import roots1d
from bilap.roots1d import (
    EXACT_ROOT_CAP,
    GammaRoot,
    gamma_root,
    gamma_value,
    log_cosh,
    solve_gamma,
)
from bilap.checks import defect_rows


def oracle_bisect(lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection on cos(g) cosh(g) - 1; independent of the solver path."""
    f = lambda g: math.cos(g) * math.cosh(g) - 1.0
    flo = f(lo)
    assert flo * f(hi) < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def full_bisection(n: int) -> tuple[GammaRoot, tuple[float, float]]:
    """The root bisection in u = log r run for all 200 steps, stopping early
    only at a u-width of 1e-15, with its final bracket."""
    a = math.pi * (n + 0.5)
    s = 1 if n % 2 == 1 else -1
    u_lo, u_hi = -(a + 1.0), math.log(math.pi / 2.0)
    for _ in range(200):
        u_mid = 0.5 * (u_lo + u_hi)
        if roots1d._log_residual(n, math.exp(u_mid)) < 0.0:
            u_lo = u_mid
        else:
            u_hi = u_mid
        if u_hi - u_lo <= 1e-15:
            break
    r = 0.5 * (math.exp(u_lo) + math.exp(u_hi))
    root = GammaRoot(n, a + s * r, r, roots1d._relative_residual(n, r), "bisection")
    return root, (u_lo, u_hi)


# Every root index that is bisected rather than taken from the asymptotic tail.
BISECTED = range(1, math.ceil(EXACT_ROOT_CAP / math.pi - 0.5))

# First root from the oracle over [3 pi/2, 2 pi]; frozen reference value.
GAMMA_1 = 4.730040744862704


class TestSolveGamma:
    def test_gamma0_is_zero(self):
        root = solve_gamma(0)
        assert root.gamma == 0.0 and root.r == 0.0

    def test_gamma1_against_oracle(self):
        oracle = oracle_bisect(1.5 * math.pi, 2.0 * math.pi)
        assert abs(oracle - GAMMA_1) < 1e-12
        root = solve_gamma(1)
        assert abs(root.gamma - oracle) < 1e-12
        assert abs(root.gamma - 4.7300407449) <= 1e-9

    def test_roots_match_oracle_for_small_n(self):
        for n in range(1, 9):
            oracle = oracle_bisect(math.pi * n, math.pi * (n + 1))
            assert abs(gamma_value(n) - oracle) <= 1e-11 * max(1.0, oracle)

    def test_sign_pattern(self):
        # odd n above pi(n+1/2), even n below
        assert gamma_value(1) > 1.5 * math.pi
        assert gamma_value(2) < 2.5 * math.pi
        assert gamma_value(3) > 3.5 * math.pi

    # 2 exp(-pi (n + 1/2)) underflows to zero past n = 236
    @given(n=st.integers(200, 235))
    @example(n=222)
    def test_roots_and_defects_across_the_hand_over(self, n):
        """n = 222 is the last bisected root (EXACT_ROOT_CAP), 223 the first
        asymptotic one."""
        lo, hi = solve_gamma(n), solve_gamma(n + 1)
        for root in (lo, hi):
            assert math.pi * root.n < root.gamma < math.pi * (root.n + 1)
        assert 0.0 < hi.r < lo.r
        assert lo.method == ("bisection" if n <= 222 else "asymptotic")

    def test_bisection_equals_the_full_200_steps(self):
        assert BISECTED[-1] == 222
        for n in BISECTED:
            root, (u_lo, u_hi) = full_bisection(n)
            assert solve_gamma(n) == root, n
            assert u_hi - u_lo <= 1e-15 or math.nextafter(u_lo, math.inf) == u_hi, n

    def test_bisection_stops_when_the_bracket_is_exhausted(self, monkeypatch):
        # 12,119 calls; the full loop makes 44,550, 200 steps for every n >= 3
        calls = 0
        residual = roots1d._log_residual

        def counted(n, r):
            nonlocal calls
            calls += 1
            return residual(n, r)

        monkeypatch.setattr(roots1d, "_log_residual", counted)
        for n in BISECTED:
            solve_gamma(n)
        assert calls < 13_000

    def test_asymptotic_fallback_beyond_cap(self):
        n = int(EXACT_ROOT_CAP / math.pi) + 5
        root = solve_gamma(n)
        assert root.method == "asymptotic"
        assert root.gamma == pytest.approx(math.pi * (n + 0.5), rel=1e-12)


class TestResidualsAndDefects:
    def test_relative_residual_below_1e9_for_n_up_to_50(self):
        for n in range(1, 51):
            root = gamma_root(n)
            assert root.residual <= 1e-9
            direct = abs(math.cos(root.gamma) * math.cosh(root.gamma) - 1.0) \
                / math.cosh(root.gamma)
            assert direct <= 1e-9

    def test_defect_condition(self):
        # 1 = sin(r_n) cosh(pi(n+1/2) + (-1)^(n+1) r_n) to 1e-9 relative
        for n in (1, 2, 5, 10, 30):
            r = gamma_root(n).r
            sign = 1 if n % 2 == 1 else -1
            lhs = math.sin(r) * math.cosh(math.pi * (n + 0.5) + sign * r)
            assert abs(lhs - 1.0) <= 1e-9

    def test_defect_strictly_decreasing(self):
        rs = [gamma_root(n).r for n in range(1, 51)]
        assert all(rs[i + 1] < rs[i] for i in range(len(rs) - 1))

    def test_defect_exponential_tail(self):
        for n in range(1, 51):
            assert gamma_root(n).r <= math.pi * math.exp(-math.pi * n)

    def test_defect_times_cosh_near_one(self):
        for n in range(5, 51):
            product = gamma_root(n).r * math.cosh(math.pi * (n + 0.5))
            assert 0.9 <= product <= 1.1

    def test_first_defect_value(self):
        assert gamma_root(1).r == pytest.approx(0.0176518, abs=5e-7)


@pytest.fixture(scope="module")
def report():
    return defect_rows(50)


class TestPropositionReport:
    def test_upper_brackets_hold(self, report):
        rows = [r for r in report if r.check == "defect-upper-bracket"]
        assert len(rows) == 50
        assert all(r.holds and r.asserted for r in rows)

    def test_even_lower_brackets_hold(self, report):
        rows = [r for r in report if r.check == "defect-lower-bracket" and r.asserted]
        assert rows and all(r.holds for r in rows)
        assert all(int(dict(r.params)["n"]) % 2 == 0 for r in rows)

    def test_odd_lower_bracket_reported_not_asserted(self, report):
        rows = [r for r in report if r.check == "defect-lower-bracket" and not r.asserted]
        assert len(rows) == 25
        assert all(int(dict(r.params)["n"]) % 2 == 1 for r in rows)
        n1 = next(r for r in rows if dict(r.params)["n"] == "1")
        # documented discrepancy: the stated odd-n lower bound exceeds r_1
        assert not n1.holds
        assert n1.lhs == pytest.approx(0.017961, abs=5e-6)

    def test_first_upper_bracket_value(self, report):
        n1 = next(r for r in report
                  if r.check == "defect-upper-bracket" and dict(r.params)["n"] == "1")
        assert n1.rhs == pytest.approx(math.asin(1.0 / math.cosh(1.5 * math.pi)), rel=1e-12)
        assert n1.rhs == pytest.approx(0.017966, abs=5e-7)

    def test_range_and_monotonicity_rows(self, report):
        assert all(r.holds for r in report if r.check in
                   ("defect-positive", "defect-below-half-pi", "defect-decreasing"))

    def test_requires_positive_n_max(self):
        with pytest.raises(ValueError):
            defect_rows(0)


def test_log_cosh_accuracy_and_range():
    for x in (0.0, 0.5, 5.0, 19.9, 20.1, 50.0):
        assert log_cosh(x) == pytest.approx(math.log(math.cosh(x)), rel=1e-14)
    # far beyond overflow range of cosh itself
    assert log_cosh(5000.0) == pytest.approx(5000.0 - math.log(2.0), rel=1e-15)
