"""The scipy oracle of the finite-difference layer.

``bilap.eig2d`` builds and solves only the parity blocks of the clamped
matrix, with numpy alone.  The tests check it against operators assembled
here with ``scipy.sparse``: the full clamped matrix, the Dirichlet
Laplacian, and each parity block as the sparse product L @ L that
``eig2d.assemble_clamped_bilaplacian`` reproduces bit for bit.
``smallest_eigs`` solves these with dense LAPACK or ARPACK shift-invert and
hands the vectors to ``eig2d._certify``, which makes the values and checks
them as for a block solve.  The values here are the oracle's own quotients,
the full extended-precision row sums x.(A x), and its inertia count is the
number of negative pivots of a SuperLU LDL^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bilap import eig2d
from bilap.eig2d import DiscreteOperator, Grid2D


@dataclass(frozen=True)
class SparseOperator:
    """A symmetric sparse matrix on ``grid``, with the interface that
    ``eig2d._certify`` reads."""

    grid: Grid2D
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def label(self) -> str:
        return f"{self.grid.nx}x{self.grid.ny} grid"

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.astype(x.dtype) @ x

    def quotients(self, vectors: np.ndarray) -> np.ndarray:
        """Rayleigh quotients v.(A v) / v.v from the full row sums of A v in
        ``np.longdouble``, a formula independent of the block's upper-half
        accumulation (``DiscreteOperator.quotients``)."""
        wide = np.array(vectors.T, dtype=np.longdouble, order="C")
        image = np.ascontiguousarray(self.matvec(wide.T).T)
        return ((wide * image).sum(axis=1) / (wide * wide).sum(axis=1)).astype(float)

    def norm_inf(self) -> float:
        return float(np.abs(self.matrix).sum(axis=1).max())

    def count_below(self, sigma: float) -> int:
        """Negative pivots of a symmetric SuperLU LDL^T of A - sigma I
        (Sylvester's law of inertia)."""
        shifted = (self.matrix - sigma * sp.identity(self.dim, format="csr")).tocsc()
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise RuntimeError("inertia count needs a symmetric permutation")
        return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _full_factor(n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(main, off, edge) of the unfolded factor: the Dirichlet second
    difference (2, -1)/h^2 and the ghost correction 2/h^4 on both edge rows."""
    edge = np.zeros(n)
    edge[0] = edge[-1] = 2.0 / h ** 4
    ih2 = 1.0 / h ** 2
    return np.full(n, 2.0) * ih2, np.full(n - 1, -1.0) * ih2, edge


def _laplacian(factor_x, factor_y) -> sp.csr_matrix:
    """kronsum of the two second differences, rows ordered x-major."""
    (ax, bx, _), (ay, by, _) = factor_x, factor_y
    return sp.kronsum(sp.diags([ay, by, by], [0, 1, -1]),
                      sp.diags([ax, bx, bx], [0, 1, -1])).tocsr()


def _squared(factor_x, factor_y) -> sp.csr_matrix:
    """L @ L plus the ghost correction, symmetrised."""
    lap = _laplacian(factor_x, factor_y)
    ex, ey = factor_x[2], factor_y[2]
    mat = (lap @ lap + sp.diags((ex[:, None] + ey[None, :]).ravel())).tocsr()
    return ((mat + mat.T) * 0.5).tocsr()


def assemble_dirichlet_laplacian(grid: Grid2D) -> SparseOperator:
    """Standard 5-point stencil with zero boundary values."""
    return SparseOperator(grid, _laplacian(_full_factor(grid.nx, grid.hx),
                                           _full_factor(grid.ny, grid.hy)))


def assemble_clamped_full(grid: Grid2D) -> SparseOperator:
    """The full 13-point clamped matrix with ghost reflection u_{-1} = u_1."""
    return SparseOperator(grid, _squared(_full_factor(grid.nx, grid.hx),
                                         _full_factor(grid.ny, grid.hy)))


def assemble_block(grid: Grid2D, parity: tuple[int, int]) -> sp.csr_matrix:
    """A parity block as the sparse product of its folded factors."""
    return _squared(eig2d._second_difference(grid.nx, grid.hx, parity[0]),
                    eig2d._second_difference(grid.ny, grid.hy, parity[1]))


def to_sparse(op: DiscreteOperator) -> sp.csr_matrix:
    """The stencil of a block as a sparse matrix, entry for entry."""
    index = np.arange(op.dim)
    rows, cols, vals = [index], [index], [op.centre]
    for shift, coef in op.couplings:
        lower = index[:len(coef)]
        rows += [lower, lower + shift]
        cols += [lower + shift, lower]
        vals += [coef, coef]
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(op.dim, op.dim)).tocsr()


def smallest_eigs(op: SparseOperator, k: int,
                  dense_limit: int = eig2d.DENSE_LIMIT) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs, certified by ``eig2d._certify``: the vectors
    of a dense LAPACK subset solve when 3 k > dim or dim <= ``dense_limit``,
    else of ARPACK shift-invert at 0 with a fixed start vector."""
    if 3 * k > op.dim or op.dim <= dense_limit:
        vectors = scipy.linalg.eigh(op.matrix.toarray(), subset_by_index=[0, k - 1])[1]
    else:
        v0 = np.full(op.dim, 1.0 / math.sqrt(op.dim))
        vectors = spla.eigsh(op.matrix.tocsc(), k=k, sigma=0.0, which="LM", v0=v0,
                             tol=0.0)[1]
    return eig2d._certify(op, vectors)
