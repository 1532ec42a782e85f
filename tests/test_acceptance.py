"""Acceptance suite: every criterion of the check registry at its tolerance.

Each criterion test runs the registry checks that carry its id (each check
once per session) and asserts that the criterion has asserted rows, that all
of them hold, and that each check stays within its time budget.  It prints
one PASS/FAIL line per check (visible under ``pytest -s``) before its
assertions fire.  The registry is the one ``bilap all`` runs, and the shared
inputs come from the session ``Context`` (see conftest.py).
"""

import time

import pytest

from bilap import checks
from bilap.core import Spectrum


@pytest.fixture(scope="session")
def check_runs(check_context):
    """(rows, elapsed seconds) of a registry check, run once per session."""
    runs: dict[checks.Check, tuple[list, float]] = {}

    def run(check: checks.Check):
        if check not in runs:
            t0 = time.perf_counter()
            rows = check.run(check_context)
            runs[check] = rows, time.perf_counter() - t0
        return runs[check]

    return run


def _assert_criterion(number: int, check_runs) -> None:
    carriers = [c for c in checks.REGISTRY if number in c.ids]
    assert carriers, f"no registry check carries criterion {number}"
    for check in carriers:
        rows, elapsed = check_runs(check)
        asserted = [r for r in rows if r.asserted and check.criterion(r) == number]
        failed = [r for r in asserted if not r.holds]
        ok = bool(asserted) and not failed and elapsed < check.budget_s
        print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: "
              f"{check.title} [{elapsed:.2f}s]")
        assert asserted, "no asserted rows"
        assert not failed, failed[:5]
        assert elapsed < check.budget_s


def test_registry_carries_criteria_1_to_12():
    assert sorted({i for c in checks.REGISTRY for i in c.ids}) == list(range(1, 13))
    for check in checks.REGISTRY:
        assert {i for _, i in check.row_criteria} <= set(check.ids)


def test_context_solves_each_grid_once(monkeypatch):
    solved = []

    def solve(dom, n, k):
        solved.append((n, k))
        return Spectrum(tuple(float(n + j) for j in range(k)))

    monkeypatch.setattr(checks.eig2d, "clamped_spectrum_fd", solve)
    ctx = checks.Context()
    fd = {n: ctx.fd(n, checks.FD_MODES) for n in checks.FD_GRIDS}
    heat = ctx.fd(checks.HEAT_GRID, checks.HEAT_MODES)
    assert ctx.fd(checks.HEAT_GRID, checks.FD_MODES) == fd[checks.HEAT_GRID]
    assert solved == [(n, checks.FD_SOLVE_MODES[n]) for n in checks.FD_GRIDS]
    assert fd[checks.HEAT_GRID].values == heat.values[:checks.FD_MODES]
    assert len(heat) == checks.HEAT_MODES


def test_criterion_01_roots(check_runs):
    _assert_criterion(1, check_runs)


def test_criterion_02_proposition_brackets(check_runs):
    _assert_criterion(2, check_runs)


def test_criterion_03_riesz_envelopes(check_runs):
    _assert_criterion(3, check_runs)


def test_criterion_04_lattice_sums(check_runs):
    _assert_criterion(4, check_runs)


def test_criterion_05_second_term_fit(check_runs):
    _assert_criterion(5, check_runs)


def test_criterion_06_semiclassical_constants(check_runs):
    _assert_criterion(6, check_runs)


def test_criterion_07_comparison_chain(check_runs):
    _assert_criterion(7, check_runs)


def test_criterion_08_average_sandwich(check_runs):
    _assert_criterion(8, check_runs)


def test_criterion_09_heat_trace(check_runs):
    _assert_criterion(9, check_runs)


def test_criterion_10_kroeger_laptev(check_runs):
    _assert_criterion(10, check_runs)


def test_criterion_11_individual_sandwich(check_runs):
    _assert_criterion(11, check_runs)


def test_criterion_12_two_term_sharpness(check_runs):
    _assert_criterion(12, check_runs)
