"""Finite-difference operators, solvers, energies, and the comparison chain."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from bilap import eig2d
from bilap.core import DomainSpec
from bilap.eig2d import (
    DiscreteOperator,
    Grid2D,
    assemble_clamped_bilaplacian,
    assemble_dirichlet_laplacian,
    clamped_spectrum_fd,
    comparison_report,
    discrete_laplacian_eigenvalues,
    form_energies,
    laplacian_spectrum_exact,
    navier1_spectrum_exact,
    neumann_laplacian_spectrum_exact,
    richardson_extrapolate,
    smallest_eigs,
)
from bilap.roots1d import gamma_value

PI2 = math.pi ** 2


class TestExactSpectra:
    def test_unit_square_laplacian(self, unit_square):
        spec = laplacian_spectrum_exact(unit_square, 3)
        assert spec.value(1) == pytest.approx(2 * PI2, rel=1e-15)
        assert spec.value(2) == pytest.approx(5 * PI2, rel=1e-15)
        assert spec.value(3) == pytest.approx(5 * PI2, rel=1e-15)

    def test_rectangle_first_value(self):
        spec = laplacian_spectrum_exact(DomainSpec.rectangle(2.0, 1.0), 1)
        assert spec.value(1) == pytest.approx(5 * PI2 / 4, rel=1e-15)

    def test_navier1_squares(self, unit_square):
        lap = laplacian_spectrum_exact(unit_square, 20)
        nav = navier1_spectrum_exact(unit_square, 20)
        assert nav.value(1) == pytest.approx(4 * math.pi ** 4, rel=1e-15)
        for j in range(1, 21):
            assert nav.value(j) == lap.value(j) ** 2

    def test_degeneracy_pattern_preserved(self, unit_square):
        lap = laplacian_spectrum_exact(unit_square, 30).values
        nav = navier1_spectrum_exact(unit_square, 30).values
        for i in range(29):
            assert (lap[i] == lap[i + 1]) == (nav[i] == nav[i + 1])

    def test_homothety_scaling(self):
        base = navier1_spectrum_exact(DomainSpec.square(1.0), 10)
        scaled = navier1_spectrum_exact(DomainSpec.square(2.0), 10)
        for j in range(1, 11):
            assert scaled.value(j) == pytest.approx(base.value(j) / 16.0, rel=1e-14)

    def test_neumann_kernel(self, unit_square):
        spec = neumann_laplacian_spectrum_exact(unit_square, 4)
        assert spec.values[0] == 0.0 < spec.values[1]


class TestAssembly:
    def test_interior_stencil_center(self, unit_square):
        grid = Grid2D(8, 8, unit_square)
        mat = assemble_clamped_bilaplacian(grid).matrix
        h4 = grid.hx ** 4
        center = lambda i, j: mat[i * 8 + j, i * 8 + j]
        assert center(3, 3) * h4 == pytest.approx(20.0, rel=1e-13)
        assert center(0, 3) * h4 == pytest.approx(21.0, rel=1e-13)  # edge ghost
        assert center(0, 0) * h4 == pytest.approx(22.0, rel=1e-13)  # corner ghosts

    def test_interior_stencil_pattern(self, unit_square):
        grid = Grid2D(9, 9, unit_square)
        mat = assemble_clamped_bilaplacian(grid).matrix.toarray()
        h4 = grid.hx ** 4
        c = 4 * 9 + 4  # node (4,4)
        assert mat[c, c - 1] * h4 == pytest.approx(-8.0, rel=1e-13)
        assert mat[c, c - 9] * h4 == pytest.approx(-8.0, rel=1e-13)
        assert mat[c, c - 10] * h4 == pytest.approx(2.0, rel=1e-13)
        assert mat[c, c - 18] * h4 == pytest.approx(1.0, rel=1e-13)

    def test_symmetry(self, unit_square):
        op = assemble_clamped_bilaplacian(Grid2D(10, 7, unit_square))
        assert op.symmetry_defect() == 0.0

    def test_positive_semidefinite(self, unit_square):
        op = assemble_clamped_bilaplacian(Grid2D(10, 10, unit_square))
        values, _ = smallest_eigs(op, 1)
        assert values[0] > 0.0

    def test_clamped_dominates_squared_laplacian(self, unit_square):
        # Weyl monotonicity of the nonnegative diagonal ghost correction
        for n in (16, 24):
            grid = Grid2D(n, n, unit_square)
            lap = assemble_dirichlet_laplacian(grid)
            sq = DiscreteOperator(grid, (lap.matrix @ lap.matrix).tocsr())
            cl = assemble_clamped_bilaplacian(grid)
            v_sq, _ = smallest_eigs(sq, 20)
            v_cl, _ = smallest_eigs(cl, 20)
            assert (v_cl >= v_sq - 1e-8 * abs(v_sq)).all()
            assert v_cl[0] > v_sq[0]

    def test_squared_spectrum_is_elementwise_square(self, unit_square):
        grid = Grid2D(12, 12, unit_square)
        lap = assemble_dirichlet_laplacian(grid)
        sq = DiscreteOperator(grid, (lap.matrix @ lap.matrix).tocsr())
        v_lap, _ = smallest_eigs(lap, 12)
        v_sq, _ = smallest_eigs(sq, 12)
        assert np.abs(np.sort(v_lap ** 2) - v_sq).max() <= 1e-8 * v_sq[-1]


class TestSolver:
    def test_discrete_laplacian_closed_form(self, unit_square):
        grid = Grid2D(14, 11, unit_square)
        op = assemble_dirichlet_laplacian(grid)
        values, _ = smallest_eigs(op, 15)
        oracle = discrete_laplacian_eigenvalues(grid)[:15]
        assert np.abs(values - oracle).max() <= 1e-10 * oracle[-1]

    def test_three_by_three_hand_assembled(self, unit_square):
        # independent dense assembly of the 3x3 grid as an oracle
        grid = Grid2D(3, 3, unit_square)
        h2 = grid.hx ** 2
        dense = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                r = i * 3 + j
                dense[r, r] = 4.0 / h2
                for ii, jj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    if 0 <= ii < 3 and 0 <= jj < 3:
                        dense[r, ii * 3 + jj] = -1.0 / h2
        oracle = np.sort(np.linalg.eigvalsh(dense))
        values, _ = smallest_eigs(assemble_dirichlet_laplacian(grid), 9)
        assert np.abs(values - oracle).max() <= 1e-10 * oracle[-1]

    def test_diagonal_operator(self, unit_square):
        grid = Grid2D(3, 3, unit_square)
        diag = sp.diags(np.arange(9, 0, -1.0)).tocsr()
        op = DiscreteOperator(grid, diag)
        values, vectors = smallest_eigs(op, 3)
        assert list(values) == [1.0, 2.0, 3.0]
        assert np.abs(vectors.T @ vectors - np.eye(3)).max() <= 1e-12

    def test_residuals_and_orthonormality(self, unit_square):
        grid = Grid2D(20, 20, unit_square)
        op = assemble_clamped_bilaplacian(grid)
        values, vectors = smallest_eigs(op, 8)
        norm = op.norm_inf()
        for i in range(8):
            res = op.matrix @ vectors[:, i] - values[i] * vectors[:, i]
            assert np.abs(res).max() <= 1e-8 * norm
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(8)).max() <= 1e-10

    def test_sparse_path_matches_dense(self, unit_square):
        grid = Grid2D(18, 18, unit_square)
        op = assemble_clamped_bilaplacian(grid)
        dense_vals, _ = smallest_eigs(op, 6)
        sparse_vals, _ = smallest_eigs(op, 6, dense_limit=10)
        assert (np.abs(dense_vals - sparse_vals) / dense_vals).max() <= 1e-10

    @pytest.mark.parametrize("n, k", [(32, 50), (48, 100)])
    def test_shift_invert_matches_dense_on_double_eigenvalues(self, unit_square, n, k):
        op = assemble_clamped_bilaplacian(Grid2D(n, n, unit_square))
        sparse_vals, _ = smallest_eigs(op, k, dense_limit=0)
        dense_vals, _ = smallest_eigs(op, k, dense_limit=op.dim)
        assert (np.diff(dense_vals) <= 1e-10 * dense_vals[1:]).any()
        assert (np.abs(sparse_vals - dense_vals) / dense_vals).max() <= 1e-10

    def test_larger_solve_slices_to_a_smaller_one(self, unit_square, clamped_64_200):
        assert len(clamped_64_200) == 200
        small = np.array(clamped_spectrum_fd(unit_square, 64, 50).values)
        assert (np.abs(clamped_64_200[:50] - small) / small).max() <= 1e-10

    @staticmethod
    def _patched_eigsh(monkeypatch, alter):
        eigsh = eig2d.spla.eigsh

        def patched(matrix, k, **kwargs):
            values, vectors = eigsh(matrix, k=k + 1, **kwargs)
            return alter(values, vectors, k)

        monkeypatch.setattr(eig2d.spla, "eigsh", patched)

    def test_dropped_copy_of_a_double_eigenvalue_raises(self, unit_square, monkeypatch):
        # lambda_2 = lambda_3 on the square: return one copy and lambda_7 instead
        def drop_second(values, vectors, k):
            order = np.argsort(values)
            keep = np.delete(order, 1)
            return values[keep], vectors[:, keep]

        self._patched_eigsh(monkeypatch, drop_second)
        op = assemble_clamped_bilaplacian(Grid2D(32, 32, unit_square))
        with pytest.raises(RuntimeError, match="eigenvalues lie below"):
            smallest_eigs(op, 6)

    def test_inaccurate_eigenvalue_raises(self, unit_square, monkeypatch):
        def perturb(values, vectors, k):
            values = values[:k].copy()
            values[0] *= 1.0 + 1e-6
            return values, vectors[:, :k]

        self._patched_eigsh(monkeypatch, perturb)
        op = assemble_clamped_bilaplacian(Grid2D(32, 32, unit_square))
        with pytest.raises(RuntimeError, match="residual"):
            smallest_eigs(op, 6)

    def test_sign_convention(self, unit_square):
        grid = Grid2D(16, 16, unit_square)
        _, vectors = smallest_eigs(assemble_dirichlet_laplacian(grid), 4)
        for i in range(4):
            v = vectors[:, i]
            first = v[np.abs(v) > 1e-12 * np.abs(v).max()][0]
            assert first > 0.0

    def test_non_symmetric_rejected(self, unit_square):
        grid = Grid2D(3, 3, unit_square)
        mat = sp.csr_matrix(np.triu(np.ones((9, 9))))
        with pytest.raises(ValueError):
            smallest_eigs(DiscreteOperator(grid, mat), 2)

    def test_richardson_exponent_near_two(self, clamped_fd):
        gaps = [clamped_fd[32][0] - clamped_fd[64][0],
                clamped_fd[64][0] - clamped_fd[128][0]]
        order = math.log2(abs(gaps[0] / gaps[1]))
        assert order == pytest.approx(2.0, abs=0.5)

    def test_clamped_beam_1d_analog(self):
        """n x 1 reduction: the fourth-difference beam matrix with reflected
        ghosts reproduces the first clamped-beam eigenvalue at O(h^2)."""
        def beam_lambda1(n: int) -> float:
            h = 1.0 / (n + 1)
            main = np.full(n, 6.0)
            main[0] += 1.0
            main[-1] += 1.0
            mat = (np.diag(main) + np.diag(np.full(n - 1, -4.0), 1)
                   + np.diag(np.full(n - 1, -4.0), -1)
                   + np.diag(np.full(n - 2, 1.0), 2) + np.diag(np.full(n - 2, 1.0), -2))
            return float(np.linalg.eigvalsh(mat / h ** 4)[0])

        exact = gamma_value(1) ** 4
        err = [abs(beam_lambda1(n) - exact) for n in (40, 80)]
        assert err[1] <= err[0] / 3.0  # ~second order
        assert err[1] <= 0.01 * exact


class TestFormEnergies:
    def test_constant_vector_free_boundary(self, unit_square):
        grid = Grid2D(16, 16, unit_square)
        energies = form_energies(np.ones(grid.dim), grid, boundary="free")
        assert energies == (0.0, 0.0, 0.0)

    def test_sine_product_gradient_energy_converges(self, unit_square):
        errs = []
        for n in (16, 32, 64):
            grid = Grid2D(n, n, unit_square)
            x = np.linspace(grid.hx, 1 - grid.hx, n)
            u = 2.0 * np.outer(np.sin(math.pi * x), np.sin(math.pi * x))
            g, lap, hess = form_energies(u, grid)
            errs.append(abs(g - 2 * PI2))
            assert hess == pytest.approx(lap, rel=0.2)
        assert errs[2] <= errs[0] / 8.0  #\appr O(h^2)
        assert errs[2] <= 0.02

    def test_cauchy_schwarz_discrete(self, unit_square, clamped_fd):
        """(int |grad u|^2)^2 <= int u^2 * int (lap u)^2 on clamped modes,
        where the continuum inequality is strict with a real margin."""
        grid = Grid2D(32, 32, unit_square)
        op = assemble_clamped_bilaplacian(grid)
        _, vectors = smallest_eigs(op, 6)
        cell = grid.hx * grid.hy
        for i in range(6):
            v = vectors[:, i] / math.sqrt(cell * float((vectors[:, i] ** 2).sum()))
            g, lap, _ = form_energies(v, grid)
            assert g * g <= lap * 1.02  # discrete quadratures carry O(h^2) slack

    def test_unknown_boundary_mode(self, unit_square):
        grid = Grid2D(8, 8, unit_square)
        with pytest.raises(ValueError):
            form_energies(np.ones(64), grid, boundary="periodic")


class TestComparisonReport:
    def test_1d_chain_zero_tolerance(self):
        reports = comparison_report(DomainSpec.square(1.0), [], [], n_max_1d=50)
        assert reports and all(r.holds for r in reports)

    def test_2d_chain_with_fixtures(self, unit_square, clamped_richardson):
        limits, bands = clamped_richardson
        reports = comparison_report(unit_square, limits[:10], bands[:10])
        two_d = [r for r in reports if r.check in
                 ("laplacian-sq-below-clamped", "navier-a1-below-clamped")]
        assert len(two_d) == 20
        assert all(r.holds for r in two_d)
        # strict positive margin against the a=1 identity
        assert all(r.margin > 0.0 for r in two_d)

    def test_richardson_helper(self):
        limit, band = richardson_extrapolate(1.0, 1.75, 1.9375)
        assert limit == pytest.approx(2.0, rel=1e-12)
        assert band == pytest.approx(3 * 0.1875, rel=1e-12)


class TestGrid:
    def test_spacings(self, unit_square):
        grid = Grid2D(31, 63, unit_square)
        assert grid.hx == pytest.approx(1.0 / 32)
        assert grid.hy == pytest.approx(1.0 / 64)

    def test_validation(self, unit_square):
        with pytest.raises(ValueError):
            Grid2D(1, 5, unit_square)
        with pytest.raises(ValueError):
            Grid2D(4, 4, DomainSpec.interval(1.0))
