"""Finite-difference operators, solvers, and the comparison chain."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import fd_oracle
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from fd_oracle import SparseOperator, assemble_clamped_full, assemble_dirichlet_laplacian
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilap import checks, cli, eig2d
from bilap.core import DomainSpec, Spectrum
from bilap.eig2d import (
    DiscreteOperator,
    Grid2D,
    assemble_clamped_bilaplacian,
    clamped_spectrum_fd,
    comparison_report,
    discrete_laplacian_eigenvalues,
    laplacian_spectrum_exact,
    navier1_spectrum_exact,
    neumann_laplacian_spectrum_exact,
    richardson_ladder,
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
        mat = assemble_clamped_full(grid).matrix
        h4 = grid.hx ** 4
        center = lambda i, j: mat[i * 8 + j, i * 8 + j]
        assert center(3, 3) * h4 == pytest.approx(20.0, rel=1e-13)
        assert center(0, 3) * h4 == pytest.approx(21.0, rel=1e-13)  # edge ghost
        assert center(0, 0) * h4 == pytest.approx(22.0, rel=1e-13)  # corner ghosts

    def test_interior_stencil_pattern(self, unit_square):
        grid = Grid2D(9, 9, unit_square)
        mat = assemble_clamped_full(grid).matrix.toarray()
        h4 = grid.hx ** 4
        c = 4 * 9 + 4  # node (4,4)
        assert mat[c, c - 1] * h4 == pytest.approx(-8.0, rel=1e-13)
        assert mat[c, c - 9] * h4 == pytest.approx(-8.0, rel=1e-13)
        assert mat[c, c - 10] * h4 == pytest.approx(2.0, rel=1e-13)
        assert mat[c, c - 18] * h4 == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("n", [*range(2, 41), 48, 64, 72, 96, 128])
    def test_blocks_equal_the_sparse_product_bit_for_bit(self, n):
        # the entries, and the products with them in float64 and in
        # np.longdouble, equal those of the sparse block: the block values are
        # Rayleigh quotients on them, and summing the diagonal in another order
        # moves 47 entries of the 96^2 even-even block of 1 x 1.65 by one ulp
        # and its lowest quotients by 8.3e-12
        for aspect in (1.0, 1.3, 1.45, 1.65):
            grid = Grid2D(n, n, DomainSpec.rectangle(1.0, aspect))
            for parity in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                op = assemble_clamped_bilaplacian(grid, parity)
                block = fd_oracle.to_sparse(op)
                oracle = fd_oracle.assemble_block(grid, parity)
                for mat in (block, oracle):
                    mat.eliminate_zeros()
                    mat.sort_indices()
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(block, part), getattr(oracle, part))
                x = np.cos(np.arange(2 * block.shape[0]) * 0.7).reshape(-1, 2)
                for dtype in (np.float64, np.longdouble):
                    image = op.matvec(x.astype(dtype))
                    assert np.array_equal(image, oracle.astype(dtype) @ x.astype(dtype))

    def test_positive_semidefinite(self, unit_square):
        assert clamped_spectrum_fd(unit_square, 10, 1).value(1) > 0.0

    def test_clamped_dominates_squared_laplacian(self, unit_square):
        # Weyl monotonicity of the nonnegative diagonal ghost correction
        for n in (16, 24):
            grid = Grid2D(n, n, unit_square)
            lap = assemble_dirichlet_laplacian(grid)
            sq = SparseOperator(grid, (lap.matrix @ lap.matrix).tocsr())
            v_sq, _ = fd_oracle.smallest_eigs(sq, 20)
            v_cl = np.array(clamped_spectrum_fd(unit_square, n, 20).values)
            assert (v_cl >= v_sq - 1e-8 * abs(v_sq)).all()
            assert v_cl[0] > v_sq[0]

    def test_squared_spectrum_is_elementwise_square(self, unit_square):
        grid = Grid2D(12, 12, unit_square)
        lap = assemble_dirichlet_laplacian(grid)
        sq = SparseOperator(grid, (lap.matrix @ lap.matrix).tocsr())
        v_lap, _ = fd_oracle.smallest_eigs(lap, 12)
        v_sq, _ = fd_oracle.smallest_eigs(sq, 12)
        assert np.abs(np.sort(v_lap ** 2) - v_sq).max() <= 1e-8 * v_sq[-1]


def _dense_quotients(op: DiscreteOperator, k: int) -> np.ndarray:
    """The k smallest Rayleigh quotients of a dense solve's vectors of a block."""
    vectors = np.linalg.eigh(fd_oracle.to_sparse(op).toarray())[1][:, :k]
    return np.sort(eig2d._rayleigh_quotients(op, vectors))


class TestSolver:
    def test_discrete_laplacian_closed_form(self, unit_square):
        grid = Grid2D(14, 11, unit_square)
        op = assemble_dirichlet_laplacian(grid)
        values, _ = fd_oracle.smallest_eigs(op, 15)
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
        values, _ = fd_oracle.smallest_eigs(assemble_dirichlet_laplacian(grid), 9)
        assert np.abs(values - oracle).max() <= 1e-10 * oracle[-1]

    def test_diagonal_operator(self, unit_square):
        grid = Grid2D(3, 3, unit_square)
        diag = sp.diags(np.arange(9, 0, -1.0)).tocsr()
        op = SparseOperator(grid, diag)
        values, vectors = fd_oracle.smallest_eigs(op, 3)
        assert list(values) == [1.0, 2.0, 3.0]
        assert np.abs(vectors.T @ vectors - np.eye(3)).max() <= 1e-12

    def test_residuals_and_orthonormality(self, unit_square):
        grid = Grid2D(20, 20, unit_square)
        op = assemble_clamped_bilaplacian(grid, (1, 1))
        values, vectors = smallest_eigs(op, 8)
        norm = op.norm_inf()
        residuals = op.matvec(vectors) - vectors * values
        for i in range(8):
            assert np.abs(residuals[:, i]).max() <= 1e-8 * norm
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(8)).max() <= 1e-10

    def test_sparse_path_matches_dense(self, unit_square):
        op = assemble_clamped_bilaplacian(Grid2D(18, 18, unit_square), (1, -1))
        dense_vals = np.linalg.eigvalsh(fd_oracle.to_sparse(op).toarray())[:6]
        sparse_vals, _ = smallest_eigs(op, 6)
        assert (np.abs(dense_vals - sparse_vals) / dense_vals).max() <= 1e-10

    @pytest.mark.parametrize("n, parity, k", [(39, (1, 1), 133), (47, (1, 1), 192)])
    def test_lanczos_for_a_third_of_a_block_matches_dense(self, unit_square, n, parity, k):
        # the largest Lanczos solves relative to the block, lambda_k / lambda_1
        # 2e4 to 4e4, against the quotients of a dense solve's vectors
        op = assemble_clamped_bilaplacian(Grid2D(n, n, unit_square), parity)
        assert 3 * k <= op.dim < 3 * k + 3
        values, _ = smallest_eigs(op, k)
        dense = _dense_quotients(op, k)
        assert (np.abs(values - dense) / dense).max() <= 1e-12

    @pytest.mark.parametrize("n, k", [(32, 50), (48, 100)])
    def test_shift_invert_matches_dense_on_double_eigenvalues(self, unit_square, n, k):
        # every block takes the Lanczos path; the doubles of the square pair
        # the even-odd with the odd-even block
        calls = []
        lanczos = eig2d._lanczos

        def counted(form, modes):
            calls.append(modes)
            return lanczos(form, modes)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eig2d, "_lanczos", counted)
            sparse_vals = np.array(clamped_spectrum_fd(unit_square, n, k).values)
        # the dense values, polished like the block values: raw eigh values of
        # the full 48^2 matrix sit up to 1.2e-10 off
        full = assemble_clamped_full(Grid2D(n, n, unit_square))
        _, vectors = fd_oracle.smallest_eigs(full, k, dense_limit=full.dim)
        dense_vals = np.sort(eig2d._rayleigh_quotients(full, vectors))
        assert len(calls) >= 4
        assert (np.diff(dense_vals) <= 1e-10 * dense_vals[1:]).any()
        assert (np.abs(sparse_vals - dense_vals) / dense_vals).max() <= 1e-10

    def test_larger_solve_slices_to_a_smaller_one(self, unit_square, clamped_64_200):
        assert len(clamped_64_200) == 200
        small = np.array(clamped_spectrum_fd(unit_square, 64, 50).values)
        assert (np.abs(clamped_64_200[:50] - small) / small).max() <= 1e-10

    @staticmethod
    def _patched_eigsh(monkeypatch, alter):
        eigsh = spla.eigsh

        def patched(matrix, k, **kwargs):
            values, vectors = eigsh(matrix, k=k + 1, **kwargs)
            return alter(values, vectors, k)

        monkeypatch.setattr(fd_oracle.spla, "eigsh", patched)

    @staticmethod
    def _patched_lanczos(monkeypatch, alter):
        lanczos = eig2d._lanczos
        monkeypatch.setattr(eig2d, "_lanczos", lambda form, k: alter(lanczos(form, k + 1), k))

    def test_dropped_copy_of_a_double_eigenvalue_raises(self, unit_square, monkeypatch):
        # lambda_2 = lambda_3 on the square: return one copy and lambda_7 instead
        def drop_second(values, vectors, k):
            order = np.argsort(values)
            keep = np.delete(order, 1)
            return values[keep], vectors[:, keep]

        self._patched_eigsh(monkeypatch, drop_second)
        op = assemble_clamped_full(Grid2D(32, 32, unit_square))
        with pytest.raises(RuntimeError, match="eigenvalues lie below"):
            fd_oracle.smallest_eigs(op, 6)

    def test_inaccurate_eigenvalue_raises(self, unit_square, monkeypatch):
        def perturb(values, vectors, k):
            values = values[:k].copy()
            values[0] *= 1.0 + 1e-6
            return values, vectors[:, :k]

        self._patched_eigsh(monkeypatch, perturb)
        op = assemble_clamped_full(Grid2D(32, 32, unit_square))
        with pytest.raises(RuntimeError, match="residual"):
            fd_oracle.smallest_eigs(op, 6)

    @staticmethod
    def _block(unit_square) -> DiscreteOperator:
        op = assemble_clamped_bilaplacian(Grid2D(32, 32, unit_square), (1, -1))
        assert op.form is not None
        return op

    def test_dropped_eigenvalue_of_a_block_raises(self, unit_square, monkeypatch):
        # the block path inverts the sine form and counts by Haynsworth
        # inertia: return the vectors of lambda_1 and lambda_3..lambda_7
        self._patched_lanczos(monkeypatch, lambda vectors, k: np.delete(vectors, 1, axis=1))
        with pytest.raises(RuntimeError, match="eigenvalues lie below"):
            smallest_eigs(self._block(unit_square), 6, dense_limit=0)

    def test_inaccurate_vector_of_a_block_raises(self, unit_square, monkeypatch):
        # block values are the Rayleigh quotients of the returned vectors, so
        # an inaccurate pair must come from its vector
        def perturb(vectors, k):
            vectors = vectors[:, :k].copy()
            vectors[:, 0] += 1e-6 * vectors[:, 1]
            vectors[:, 0] /= np.linalg.norm(vectors[:, 0])
            return vectors

        self._patched_lanczos(monkeypatch, perturb)
        with pytest.raises(RuntimeError, match="residual"):
            smallest_eigs(self._block(unit_square), 6, dense_limit=0)

    def test_block_eigenvalue_to_extended_precision(self):
        # lambda_1 of the even-even block of the 96^2 grid on 1 x 1.65: a
        # 40-digit Rayleigh quotient on the assembled matrix gives the reference
        dom = DomainSpec.rectangle(1.0, 1.65)
        op = assemble_clamped_bilaplacian(Grid2D(96, 96, dom), (1, 1))
        values, _ = smallest_eigs(op, 15)
        reference = 674.3956736688158628
        assert abs(values[0] - reference) <= 1e-13 * reference

    def test_longdouble_is_extended_precision(self):
        assert np.finfo(np.longdouble).eps <= 2.0 ** -63, (
            "the Rayleigh-quotient step of block solves (eig2d._rayleigh_quotients) "
            "needs an extended-precision np.longdouble")

    def test_richardson_exponent_near_two(self, check_context):
        lam1 = [check_context.fd(n).value(1) for n in (32, 64, 128)]
        gaps = [lam1[0] - lam1[1], lam1[1] - lam1[2]]
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


def _parity_basis(n: int, parity: int) -> np.ndarray:
    """Orthonormal columns spanning the vectors v with v[n-1-i] = parity v[i]."""
    cols = []
    for i in range(n // 2):
        col = np.zeros(n)
        col[i], col[n - 1 - i] = 1.0, float(parity)
        cols.append(col / math.sqrt(2.0))
    if n % 2 and parity > 0:
        col = np.zeros(n)
        col[n // 2] = 1.0
        cols.append(col)
    return np.array(cols).T


class TestParityBlocks:
    @pytest.mark.parametrize("nx", [2, 3])
    @pytest.mark.parametrize("ny", [2, 3])
    @pytest.mark.parametrize("px", [1, -1])
    @pytest.mark.parametrize("py", [1, -1])
    def test_block_is_the_folded_full_operator(self, nx, ny, px, py):
        grid = Grid2D(nx, ny, DomainSpec.rectangle(1.0, 1.45))
        full = assemble_clamped_full(grid)
        q = np.kron(_parity_basis(nx, px), _parity_basis(ny, py))
        block = assemble_clamped_bilaplacian(grid, (px, py))
        assert block.parity == (px, py)
        oracle = q.T @ full.matrix.toarray() @ q
        dense = fd_oracle.to_sparse(block).toarray()
        assert np.abs(dense - oracle).max() <= 1e-12 * full.norm_inf()
        assert block.norm_inf() == np.abs(dense).sum(axis=1).max()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 20), lx=st.floats(0.5, 2.0), ly=st.floats(0.5, 2.0),
           data=st.data())
    def test_block_solve_matches_a_dense_solve_of_the_full_operator(self, n, lx, ly, data):
        k = data.draw(st.integers(1, n * n), label="k")
        dom = DomainSpec.rectangle(lx, ly)
        full = assemble_clamped_full(Grid2D(n, n, dom)).matrix.toarray()
        oracle = np.linalg.eigvalsh(full)[:k]
        values = np.array(clamped_spectrum_fd(dom, n, k).values)
        assert (np.abs(values - oracle) / oracle).max() <= 1e-10

    @staticmethod
    def _counted_solves(monkeypatch) -> list[tuple[int, int]]:
        calls = []
        solve = eig2d.smallest_eigs

        def counted(op, k):
            calls.append((op.dim, k))
            return solve(op, k)

        monkeypatch.setattr(eig2d, "smallest_eigs", counted)
        return calls

    @pytest.mark.parametrize("initial", [lambda k: 1, lambda k: k // 4])
    def test_short_blocks_are_solved_again(self, monkeypatch, initial):
        # k // 4 modes per block give 48 values, but the even-even block holds
        # 14 of the first 48: only the coverage certificate asks for more
        dom = DomainSpec.rectangle(1.0, 1.45)
        expected = np.array(clamped_spectrum_fd(dom, 24, 48).values)
        calls = self._counted_solves(monkeypatch)
        monkeypatch.setattr(eig2d, "_initial_block_modes", initial)
        values = np.array(clamped_spectrum_fd(dom, 24, 48).values)
        assert len(calls) > 4
        assert (np.abs(values - expected) / expected).max() <= 1e-10

    @pytest.mark.parametrize("n", checks.FD_GRIDS)
    def test_sweep_grids_factorise_only_blocks(self, monkeypatch, unit_square, n):
        calls = self._counted_solves(monkeypatch)
        clamped_spectrum_fd(unit_square, n, checks.FD_MODES)
        assert len(calls) >= 4
        assert max(dim for dim, _ in calls) <= math.ceil(n / 2) ** 2

    @pytest.mark.parametrize("n", checks.FD_GRIDS)
    def test_sweep_grids_never_reach_superlu(self, monkeypatch, unit_square, n):
        def refuse(*args, **kwargs):
            raise AssertionError("SuperLU factorisation")

        monkeypatch.setattr(spla, "splu", refuse)
        # ARPACK's shift-invert mode factorises through its own splu binding
        monkeypatch.setattr(sys.modules[spla.eigsh.__module__], "splu", refuse)
        values = clamped_spectrum_fd(unit_square, n, checks.FD_MODES).values
        assert len(values) == checks.FD_MODES

    @staticmethod
    def _counted_inverses(monkeypatch) -> list[int]:
        calls = []
        inverse = eig2d.SineForm.inverse

        def counted(form):
            calls.append(form.diag.size)
            return inverse(form)

        monkeypatch.setattr(eig2d.SineForm, "inverse", counted)
        return calls

    @pytest.mark.parametrize("k", [100, 10])
    def test_blocks_with_a_form_skip_dense_lapack(self, monkeypatch, k):
        # the 48^2 blocks have 576 unknowns and are asked for at most a third
        # of them, so each runs the Krylov iteration on its Woodbury inverse
        inverses = self._counted_inverses(monkeypatch)
        solved = self._solved_blocks(monkeypatch)
        values = clamped_spectrum_fd(DomainSpec.rectangle(1.0, 1.65), 48, k).values
        assert len(values) == k
        assert len(inverses) == len(solved) >= 4
        assert all(3 * len(block_values) <= op.dim for op, block_values, _ in solved)

    @staticmethod
    def _solved_blocks(monkeypatch) -> list[tuple[DiscreteOperator, np.ndarray, np.ndarray]]:
        solved = []
        solve = eig2d.smallest_eigs

        def recorded(op, k):
            values, vectors = solve(op, k)
            solved.append((op, values, vectors))
            return values, vectors

        monkeypatch.setattr(eig2d, "smallest_eigs", recorded)
        return solved

    @pytest.mark.parametrize("n, k", [(16, 200), (24, 400)])
    def test_blocks_asked_for_a_third_take_the_whole_basis(self, monkeypatch, n, k):
        # no Krylov iteration, so no Woodbury inverse is built
        inverses = self._counted_inverses(monkeypatch)
        solved = self._solved_blocks(monkeypatch)
        clamped_spectrum_fd(DomainSpec.rectangle(1.0, 1.65), n, k)
        assert len(solved) >= 4 and not inverses
        for op, values, vectors in solved:
            assert 3 * len(values) > op.dim
            np.testing.assert_array_equal(values, eig2d._rayleigh_quotients(op, vectors))

    @pytest.mark.parametrize("n, k", [(16, 200), (24, 400)])
    def test_whole_basis_blocks_match_dense(self, monkeypatch, n, k):
        # the whole-basis step against the quotients of a dense solve's vectors
        solved = self._solved_blocks(monkeypatch)
        clamped_spectrum_fd(DomainSpec.rectangle(1.0, 1.65), n, k)
        for op, values, _ in solved:
            dense = _dense_quotients(op, len(values))
            assert (np.abs(values - dense) / dense).max() <= 1e-12

    @pytest.mark.parametrize("n, k, rtol", [(48, 100, 0.0), (24, 400, 1e-15)])
    def test_block_values_barely_depend_on_the_blas_thread_count(self, n, k, rtol):
        # 48^2 blocks run the Krylov iteration, 24^2 blocks at k = 400 take
        # the whole sine basis
        code = ("import json; from bilap.core import DomainSpec; "
                "from bilap.eig2d import clamped_spectrum_fd; "
                "print(json.dumps(clamped_spectrum_fd(DomainSpec.rectangle(1.0, 1.6), "
                f"{n}, {k}).values))")
        base = {v: e for v, e in os.environ.items() if v not in cli.BLAS_THREAD_VARS}
        base["PYTHONPATH"] = str(Path(eig2d.__file__).parents[1])
        runs = [np.array(json.loads(subprocess.run(
            [sys.executable, "-c", code], env={**base, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True).stdout)) for threads in ("1", "2")]
        assert (np.abs(runs[0] - runs[1]) <= rtol * runs[0]).all()

    def test_mode_count_validation(self, unit_square):
        for k in (0, 17):
            with pytest.raises(ValueError, match="outside"):
                clamped_spectrum_fd(unit_square, 4, k)


class TestSineForm:
    @pytest.mark.parametrize("n", range(2, 41))
    @pytest.mark.parametrize("parity", [1, -1])
    def test_closed_form_pairs_diagonalise_the_folded_factor(self, n, parity):
        h = 1.0 / (n + 1)
        main, off, _ = eig2d._second_difference(n, h, parity)
        factor = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        basis, theta = eig2d._sine_factor(n, h, parity)
        scale = np.abs(factor).max()
        assert basis.shape == factor.shape
        assert np.abs(basis.T @ basis - np.eye(len(theta))).max() <= 1e-14
        assert np.abs(basis @ np.diag(theta) @ basis.T - factor).max() <= 1e-14 * scale
        assert np.abs(factor @ basis - basis * theta).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n", [7, 8, 33])
    @pytest.mark.parametrize("parity", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_woodbury_inverse_inverts_the_assembled_block(self, n, parity):
        grid = Grid2D(n, n + 3, DomainSpec.rectangle(1.0, 1.37))
        op = assemble_clamped_bilaplacian(grid, parity)
        form = op.form
        b = np.random.default_rng(n).standard_normal((op.dim, 3))
        sine = (np.kron(form.basis_x, form.basis_y).T @ b).T.reshape(3, *form.diag.shape)
        x = form.to_grid(form.inverse()(sine))
        assert np.linalg.norm(op.matvec(x) - b) <= 1e-10 * np.linalg.norm(b)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 31), aspect=st.sampled_from([1.0, 1.37]),
           px=st.sampled_from([1, -1]), py=st.sampled_from([1, -1]),
           drawn=st.lists(st.floats(0.0, 1.1), min_size=1, max_size=10),
           entry_index=st.integers(0, 10 ** 6))
    # sigma = lambda_max of the even-even 6^2 block: the exact operator counts
    # 9 eigenvalues below it and eigvalsh 8, so the shift is dropped
    @example(n=6, aspect=1.0, px=1, py=1, drawn=[1.0], entry_index=0)
    def test_inertia_count_matches_a_dense_count(self, n, aspect, px, py, drawn,
                                                 entry_index):
        """Haynsworth count against an eigvalsh count of the assembled block at
        drawn shifts and at +-1e-8 relative of the ten lowest eigenvalues; a
        shift equal to an entry of D raises RuntimeError, it is not stepped.

        A drawn shift within 1e-8 relative of an eigenvalue is dropped: the
        count is that of the exact operator, whose eigenvalues may sit on the
        other side of such a shift from the assembled matrix's, which is why
        ``_inertia_shift`` keeps that margin below the largest returned value."""
        op = assemble_clamped_bilaplacian(Grid2D(n, n, DomainSpec.rectangle(1.0, aspect)),
                                          (px, py))
        values = np.linalg.eigvalsh(fd_oracle.to_sparse(op).toarray())
        near = [v * (1.0 + s * 1e-8) for v in values[:10] for s in (-1, 1)]
        clear = [sigma for sigma in (u * values[-1] for u in drawn)
                 if np.all(np.abs(values - sigma) > 1e-8 * values)]
        for sigma in near + clear:
            assert op.form.count_below(sigma) == np.count_nonzero(values < sigma)
        diag = np.sort(op.form.diag.ravel())
        with pytest.raises(RuntimeError, match="coincides"):
            op.form.count_below(float(diag[entry_index % diag.size]))

    def test_only_parity_blocks_carry_a_form(self, unit_square):
        grid = Grid2D(6, 5, unit_square)
        assert not hasattr(assemble_clamped_full(grid), "form")
        for parity in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            block = assemble_clamped_bilaplacian(grid, parity)
            assert block.form.diag.size == block.dim
        assert assemble_clamped_bilaplacian(grid, (-1, 1)).form.diag.shape == (3, 3)


class TestComparisonReport:
    def test_1d_chain_zero_tolerance(self):
        reports = comparison_report(DomainSpec.square(1.0), [], [])
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
        limits, bands = richardson_ladder(Spectrum((1.75,)), Spectrum((1.9375,)), 1)
        assert limits[0] == pytest.approx(2.0, rel=1e-12)
        assert bands[0] == pytest.approx(3 * 0.1875, rel=1e-12)


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
