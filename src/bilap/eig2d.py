"""Finite-difference eigensolvers on rectangles.

The Dirichlet Laplacian uses the 5-point stencil; the clamped fourth-order
operator is its 13-point square plus the ghost-reflection correction
u_{-1} = u_{1} that encodes a vanishing normal derivative.  The correction
only touches diagonal entries (+2/hx^4 per adjacent edge in x, +2/hy^4 in
y), so the clamped matrix is exactly the squared Laplacian plus a
nonnegative diagonal; entrywise domination of the squared spectrum is
therefore an identity on every grid.

Both matrices commute with the mirror reflections i -> nx-1-i and
j -> ny-1-j, so the clamped matrix splits into four parity blocks, even or
odd in x times even or odd in y, of about a quarter of the unknowns each.
Every matrix, full or block, is assembled from the same folded 1D
second-difference factors (``assemble_clamped_bilaplacian``).
``clamped_spectrum_fd`` solves the blocks in place of the full operator and
merges their values; each block solve carries the residual and inertia
certificates of ``smallest_eigs``, and coverage is certified as well: a
block solved short of its dimension must prove that none of its unreturned
eigenvalues lies at or below the merged k-th value.  The merged values
agree with a solve of the full operator, which the tests keep as the
oracle, to 1e-10 relative.

A parity block is also known in closed form (``SineForm``): in the sine
eigenbasis of its folded factors it is a diagonal plus a correction of rank
m_x + m_y, its side lengths.  Block solves invert that form by the Woodbury
identity and count eigenvalues by Haynsworth inertia additivity, so no block
is ever factorised; dense LAPACK takes a block only when more than a third
of its spectrum is asked for, and SuperLU serves only operators without
such a form.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import BoundReport, DomainSpec, Spectrum
from .spectra1d import spectrum_1d

__all__ = [
    "Grid2D",
    "DiscreteOperator",
    "SineForm",
    "DENSE_LIMIT",
    "laplacian_spectrum_exact",
    "navier1_spectrum_exact",
    "neumann_laplacian_spectrum_exact",
    "assemble_dirichlet_laplacian",
    "assemble_clamped_bilaplacian",
    "smallest_eigs",
    "discrete_laplacian_eigenvalues",
    "richardson_ladder",
    "comparison_report",
]

# Dense symmetric solves serve any solve asking for more than a third of the
# spectrum (3 k > dim), where ARPACK needs nearly the whole space, and
# operators without a sine form up to this many unknowns; only the tests
# build those.  Every other solve, of any size, goes through the
# deterministic shift-invert Lanczos path.  Both paths are certified.
DENSE_LIMIT = 600
# Each eigenpair must satisfy ||A v - lambda v||_2 <= RESIDUAL_TOL ||A||_inf
# (a backward error; measured at most 6e-15 on the clamped grids 32^2..128^2).
RESIDUAL_TOL = 1e-12
# The exact 1D comparison chain runs over modes j = 1..COMPARISON_1D_MODES.
COMPARISON_1D_MODES = 50


@dataclass(frozen=True)
class Grid2D:
    """Uniform interior grid on a rectangle: nx*ny unknowns, spacing
    hx = Lx/(nx+1), hy = Ly/(ny+1)."""

    nx: int
    ny: int
    dom: DomainSpec

    def __post_init__(self) -> None:
        if self.dom.shape != "rectangle":
            raise ValueError("grids are defined on rectangles")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least 2 interior points per direction")

    @property
    def hx(self) -> float:
        return self.dom.lengths[0] / (self.nx + 1)

    @property
    def hy(self) -> float:
        return self.dom.lengths[1] / (self.ny + 1)

    @property
    def dim(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class DiscreteOperator:
    """A symmetric matrix on ``grid``: the full operator, or with ``parity``
    = (px, py) its block of vectors with mirror parity px in x, py in y.
    ``form``, when set, is the closed-form structure of ``matrix``."""

    grid: Grid2D
    matrix: sp.csr_matrix
    parity: tuple[int, int] | None = None
    form: SineForm | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def label(self) -> str:
        grid = f"{self.grid.nx}x{self.grid.ny} grid"
        if self.parity is None:
            return grid
        name = {1: "even", -1: "odd"}
        return f"{grid}, {name[self.parity[0]]}-{name[self.parity[1]]} block"

    def symmetry_defect(self) -> float:
        diff = self.matrix - self.matrix.T
        return 0.0 if diff.nnz == 0 else float(np.abs(diff.data).max())

    def norm_inf(self) -> float:
        return float(np.abs(self.matrix).sum(axis=1).max())


# ----------------------------------------------------------------------------
# Exact separable spectra
# ----------------------------------------------------------------------------

def _separable_values(dom: DomainSpec, count: int, offset: int) -> list[float]:
    """Smallest ``count`` values of pi^2 (m^2/Lx^2 + n^2/Ly^2), m,n >= offset,
    by lazy expansion of the index lattice."""
    lx, ly = dom.lengths
    pi2 = math.pi ** 2

    def val(m: int, n: int) -> float:
        return pi2 * (m * m / (lx * lx) + n * n / (ly * ly))

    heap = [(val(offset, offset), offset, offset)]
    seen = {(offset, offset)}
    out: list[float] = []
    while len(out) < count:
        v, m, n = heapq.heappop(heap)
        out.append(v)
        for mm, nn in ((m + 1, n), (m, n + 1)):
            if (mm, nn) not in seen:
                seen.add((mm, nn))
                heapq.heappush(heap, (val(mm, nn), mm, nn))
    return out


def laplacian_spectrum_exact(dom: DomainSpec, count: int) -> Spectrum:
    """Dirichlet Laplacian eigenvalues pi^2 (m^2/Lx^2 + n^2/Ly^2), m, n >= 1."""
    if dom.shape != "rectangle":
        raise ValueError("separable spectra need a rectangle")
    if count < 1:
        raise ValueError("count must be >= 1")
    return Spectrum(tuple(_separable_values(dom, count, offset=1)))


def neumann_laplacian_spectrum_exact(dom: DomainSpec, count: int) -> Spectrum:
    """Neumann Laplacian eigenvalues (m, n >= 0, starting from the kernel)."""
    if dom.shape != "rectangle":
        raise ValueError("separable spectra need a rectangle")
    if count < 1:
        raise ValueError("count must be >= 1")
    return Spectrum(tuple(_separable_values(dom, count, offset=0)))


def navier1_spectrum_exact(dom: DomainSpec, count: int) -> Spectrum:
    """a = 1 fourth-order spectrum: squares of the Dirichlet Laplacian values."""
    lap = laplacian_spectrum_exact(dom, count)
    return Spectrum(tuple(v * v for v in lap.values))


# ----------------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------------

def _second_difference(n: int, h: float,
                       parity: int | None = None) -> tuple[sp.dia_matrix, np.ndarray]:
    """1D factor of the assembly on n interior points of spacing h: the
    Dirichlet second difference (2, -1)/h^2 and the diagonal of the clamped
    ghost correction, 2/h^4 on each edge row.

    With ``parity`` = +1 or -1 both are restricted to the vectors that are
    even or odd under i -> n-1-i, in the orthonormal basis
    (e_i + parity e_{n-1-i})/sqrt(2), i < n//2, and for even vectors of odd
    n also e_centre.  Folding changes only the last row: for even n the
    mirror neighbour v_{n/2} = parity v_{n/2-1} makes the last diagonal
    entry 2 - parity; for odd n the even block couples the centre line with
    -sqrt(2), and the odd block, which vanishes there, is the plain
    Dirichlet factor of n//2 points.
    """
    size = n if parity is None else (n + 1) // 2 if parity > 0 else n // 2
    main = np.full(size, 2.0)
    off = np.full(size - 1, -1.0)
    edge = np.zeros(size)
    edge[0] = 2.0 / h ** 4
    if parity is None:
        edge[-1] = 2.0 / h ** 4
    elif n % 2 == 0:
        main[-1] -= parity
    elif parity > 0:
        off[-1] = -math.sqrt(2.0)
    ih2 = 1.0 / h ** 2
    return sp.diags([main * ih2, off * ih2, off * ih2], [0, 1, -1]), edge


def _sine_factor(n: int, h: float, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs (basis, theta) of the folded factor
    ``_second_difference(n, h, parity)``: column c of ``basis`` is the unit
    eigenvector of value theta_c = 4/h^2 sin^2(pi k / 2(n+1)).

    They are the Dirichlet sine modes sin(pi k (i+1)/(n+1)), which are even
    under the mirror for odd k and odd for even k, written in the folded
    basis: entry i is 2 sin(pi k (i+1)/(n+1)) / sqrt(n+1), except the centre
    row of the even factor of odd n, which holds a single point and so lacks
    the sqrt(2) of a mirror pair.
    """
    k = np.arange(1 if parity > 0 else 2, n + 1, 2)
    rows = np.arange(1, len(k) + 1)
    basis = 2.0 * np.sin(np.pi * np.outer(rows, k) / (n + 1)) / math.sqrt(n + 1)
    if parity > 0 and n % 2:
        basis[-1] /= math.sqrt(2.0)
    theta = 4.0 / h ** 2 * np.sin(np.pi * k / (2 * (n + 1))) ** 2
    return basis, theta


@dataclass(frozen=True)
class SineForm:
    """A clamped parity block in the sine eigenbasis Q = Sx (x) Sy of its
    folded factors (``_sine_factor``): Q^T A Q = D + U C U^T with

    - D = diag((theta_x_i + theta_y_j)^2), the square of the block Laplacian,
      stored as the m_x x m_y array ``diag``;
    - U = [u_x (x) I, I (x) u_y], u the first row of each basis: the folded
      ghost correction sits on the first row of each factor only;
    - C = diag(c_x I, c_y I), c = 2/h^4.

    This is the exact operator; the assembled float matrix differs from it
    by rounding.  On the low eigenvalues the two differ by up to 6.3e-10
    relative (measured on lambda_1 of the 128^2 grid's even-even block over
    the square and 1 x 1.3..1.65 rectangles; at most 1.1e-10 on grids up to
    96^2), a difference that grows about as ||A|| / lambda_1, like n^4.
    """

    basis_x: np.ndarray
    basis_y: np.ndarray
    diag: np.ndarray
    c_x: float
    c_y: float

    @classmethod
    def of(cls, grid: Grid2D, parity: tuple[int, int]) -> "SineForm":
        sx, theta_x = _sine_factor(grid.nx, grid.hx, parity[0])
        sy, theta_y = _sine_factor(grid.ny, grid.hy, parity[1])
        return cls(sx, sy, (theta_x[:, None] + theta_y[None, :]) ** 2,
                   2.0 / grid.hx ** 4, 2.0 / grid.hy ** 4)

    def capacitance(self, sigma: float) -> np.ndarray:
        """T(sigma) = C^-1 + U^T (D - sigma)^-1 U, of size m_y + m_x (the
        u_x (x) I columns first).  ``RuntimeError`` if sigma equals an entry
        of D, where T is undefined."""
        if np.any(self.diag == sigma):
            raise RuntimeError(f"inertia shift {sigma!r} coincides with a diagonal "
                               "entry of the sine form")
        w = 1.0 / (self.diag - sigma)
        u_x, u_y = self.basis_x[0], self.basis_y[0]
        cross = u_x[:, None] * w * u_y[None, :]
        return np.block([[np.diag(u_x ** 2 @ w + 1.0 / self.c_x), cross.T],
                         [cross, np.diag(w @ u_y ** 2 + 1.0 / self.c_y)]])

    def count_below(self, sigma: float) -> int:
        """Number of eigenvalues below sigma, by Haynsworth inertia additivity
        on [[D - sigma, U], [U^T, -C^-1]]: its Schur complements give
        neg(A - sigma) = #{D < sigma} + #{eigenvalues of T(sigma) > 0} - (m_x + m_y).
        A sigma equal to an entry of D is not stepped around: it raises
        ``RuntimeError`` (see ``capacitance``)."""
        t = self.capacitance(sigma)
        return (int(np.count_nonzero(self.diag < sigma))
                + int(np.count_nonzero(np.linalg.eigvalsh(t) > 0.0)) - t.shape[0])

    def inverse(self) -> spla.LinearOperator:
        """A^-1 by the Woodbury identity: Q (D^-1 - D^-1 U T(0)^-1 U^T D^-1) Q^T,
        four products with the m x m sine bases and one solve of size
        m_x + m_y per vector."""
        sx, sy, d = self.basis_x, self.basis_y, self.diag
        u_x, u_y = sx[0], sy[0]
        m_x, m_y = d.shape
        chol = scipy.linalg.cho_factor(self.capacitance(0.0))

        def solve(b: np.ndarray) -> np.ndarray:
            z = sx.T @ b.reshape(m_x, m_y) @ sy / d
            s = scipy.linalg.cho_solve(chol, np.concatenate([u_x @ z, z @ u_y]))
            z -= (np.outer(u_x, s[:m_y]) + np.outer(s[m_y:], u_y)) / d
            return (sx @ z @ sy.T).ravel()

        return spla.LinearOperator((d.size, d.size), matvec=solve, dtype=float)


def assemble_dirichlet_laplacian(grid: Grid2D) -> DiscreteOperator:
    """Standard 5-point stencil with zero boundary values."""
    dx, _ = _second_difference(grid.nx, grid.hx)
    dy, _ = _second_difference(grid.ny, grid.hy)
    mat = sp.kronsum(dy, dx).tocsr()  # rows ordered x-major: index = i*ny + j
    return DiscreteOperator(grid, mat)


def assemble_clamped_bilaplacian(grid: Grid2D,
                                 parity: tuple[int, int] | None = None) -> DiscreteOperator:
    """13-point squared-Laplacian stencil with ghost reflection u_{-1} = u_1.

    Equals L @ L plus a diagonal correction of +2/hx^4 on columns adjacent
    to a vertical edge and +2/hy^4 adjacent to a horizontal edge; symmetric
    positive semidefinite by construction.  With ``parity`` = (px, py), each
    +1 or -1, this is the block Q^T A Q on the vectors of mirror parity px
    in x and py in y, built the same way from the folded factors of
    ``_second_difference``: L_b = kronsum(Dy_b, Dx_b) is the block of L, and
    the block of the square is L_b @ L_b because L maps each parity class
    into itself.  A block also carries its closed form, ``SineForm``.
    """
    px, py = parity if parity is not None else (None, None)
    dx, ex = _second_difference(grid.nx, grid.hx, px)
    dy, ey = _second_difference(grid.ny, grid.hy, py)
    lap = sp.kronsum(dy, dx).tocsr()
    mat = (lap @ lap + sp.diags((ex[:, None] + ey[None, :]).ravel())).tocsr()
    # squared-sparse products can carry eps-size asymmetry; symmetrise exactly
    mat = ((mat + mat.T) * 0.5).tocsr()
    form = SineForm.of(grid, parity) if parity is not None else None
    return DiscreteOperator(grid, mat, parity, form)


def discrete_laplacian_eigenvalues(grid: Grid2D) -> np.ndarray:
    """Closed-form spectrum of the 5-point operator (solver oracle)."""
    nx, ny = grid.nx, grid.ny
    sx = 4.0 / grid.hx ** 2 * np.sin(np.arange(1, nx + 1) * math.pi / (2 * (nx + 1))) ** 2
    sy = 4.0 / grid.hy ** 2 * np.sin(np.arange(1, ny + 1) * math.pi / (2 * (ny + 1))) ** 2
    return np.sort((sx[:, None] + sy[None, :]).ravel())


# ----------------------------------------------------------------------------
# Solving
# ----------------------------------------------------------------------------

def smallest_eigs(op: DiscreteOperator, k: int,
                  dense_limit: int = DENSE_LIMIT) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of the symmetric operator, certified.

    When 3 k > dim, or for an operator without a sine form of at most
    ``dense_limit`` unknowns, this is a dense LAPACK subset solve; otherwise
    a deterministic shift-invert Lanczos (fixed start vector).  The Lanczos
    path applies the Woodbury inverse of ``op.form`` when the operator has
    one, and else lets ARPACK factorise the matrix with SuperLU.  On an
    operator with a form, either path's values are then replaced by the
    Rayleigh quotients of their vectors on ``op.matrix``, summed in extended
    precision (``_rayleigh_quotients``): the Woodbury inverse is that of the
    exact operator, whose values differ from those of the assembled float
    matrix (``SineForm``: up to 6.3e-10 relative on 128^2), and dense
    ``eigh`` values sit up to 1.8e-11 off the quotients of their own
    vectors, with bits that depend on the BLAS thread count.  Either result
    must pass ``_certify`` (residual bound and inertia count) or
    ``RuntimeError`` is raised.  Values ascend; vectors are orthonormal,
    each with the sign the solver returned.  The inertia count proves that
    every eigenvalue not returned lies at or above
    ``_inertia_floor(op, values[-1])``.  ``clamped_spectrum_fd`` solves each
    parity block of the clamped matrix here and reads that floor as its
    coverage certificate: no block may hide an eigenvalue at or below the
    merged k-th value; the merged values agree with a solve of the full
    operator to 1e-10 relative.
    """
    if k < 1 or k > op.dim:
        raise ValueError(f"k={k} outside 1..{op.dim}")
    defect = op.symmetry_defect()
    if defect > 1e-12 * max(1.0, op.norm_inf()):
        raise ValueError(f"operator is not symmetric (defect {defect:.3e})")

    if 3 * k > op.dim or (op.form is None and op.dim <= dense_limit):
        dense = op.matrix.toarray()
        values, vectors = scipy.linalg.eigh(dense, subset_by_index=[0, k - 1])
    else:
        v0 = np.full(op.dim, 1.0 / math.sqrt(op.dim))
        if op.form is None:
            values, vectors = spla.eigsh(op.matrix.tocsc(), k=k, sigma=0.0,
                                         which="LM", v0=v0, tol=0.0)
        else:
            values, vectors = spla.eigsh(op.matrix, k=k, sigma=0.0, which="LM", v0=v0,
                                         tol=0.0, OPinv=op.form.inverse())
    if op.form is not None:
        values = _rayleigh_quotients(op, vectors)
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    _certify(op, values, vectors)
    return values, vectors


def _rayleigh_quotients(op: DiscreteOperator, vectors: np.ndarray) -> np.ndarray:
    """v^T A v / v^T v of each column on the assembled matrix, in
    ``np.longdouble``: the quotient cancels terms of size ||A|| down to the
    smallest eigenvalues, which float64 sums leave up to 1.2e-11 relative off
    (measured on the 96^2 and 128^2 blocks)."""
    wide = vectors.astype(np.longdouble)
    quotients = (wide * (op.matrix.astype(np.longdouble) @ wide)).sum(axis=0)
    return (quotients / (wide * wide).sum(axis=0)).astype(float)


def _inertia_shift(top: float, residual: float) -> float:
    """Shift of the inertia count below the largest returned value ``top``:
    by its residual and a relative 1e-8 that takes in numerically split
    copies of a multiple eigenvalue."""
    return top - residual - 1e-8 * abs(top)


def _inertia_floor(op: DiscreteOperator, top: float) -> float:
    """Lower bound on every eigenvalue of ``op`` that a certified solve with
    largest value ``top`` did not return: the inertia shift at the largest
    residual ``_certify`` admits, which is at or below the shift it used."""
    return _inertia_shift(top, RESIDUAL_TOL * op.norm_inf())


def _certify(op: DiscreteOperator, values: np.ndarray, vectors: np.ndarray) -> None:
    """Raise ``RuntimeError`` unless the ascending eigenpairs are the smallest.

    Each residual ||A v - lambda v||_2 on the assembled matrix must stay
    within RESIDUAL_TOL ||A||_inf; for symmetric A a true eigenvalue then lies
    within it of each value.  An inertia count at sigma = ``_inertia_shift``
    of lambda_k must find exactly as many eigenvalues of A below sigma as
    were returned: a copy of a multiple eigenvalue that Lanczos dropped shows
    as one count too many.  With ``op.form`` the count is by Haynsworth
    inertia additivity (``SineForm.count_below``) and is that of the exact
    operator, whose low eigenvalues lie within 6.3e-10 relative (measured on
    128^2 grids) of the assembled matrix's, inside sigma's 1e-8 offset below
    lambda_k; were the offset ever crossed, on far finer grids, the counts
    would disagree and raise, not pass;
    otherwise it is a Sylvester count on the SuperLU LDL^T factorisation of
    A - sigma I (Parlett, The Symmetric Eigenvalue Problem).
    """
    residuals = np.linalg.norm(op.matrix @ vectors - vectors * values, axis=0)
    bound = RESIDUAL_TOL * op.norm_inf()
    if residuals.max() > bound:
        j = int(residuals.argmax())
        raise RuntimeError(f"eigenpair {j + 1} residual {residuals[j]:.3e} "
                           f"above {bound:.3e} on the {op.label}")
    sigma = _inertia_shift(values[-1], residuals[-1])
    below = _count_below(op, sigma)
    returned = int(np.count_nonzero(values < sigma))
    if below != returned:
        raise RuntimeError(f"{below} eigenvalues lie below {sigma:.6e} but the solve "
                           f"returned {returned} on the {op.label}")


def _count_below(op: DiscreteOperator, sigma: float) -> int:
    """Number of eigenvalues of ``op`` below sigma: from its sine form, or
    the negative pivots of a symmetric SuperLU LDL^T of A - sigma I."""
    if op.form is not None:
        return op.form.count_below(sigma)
    shifted = (op.matrix - sigma * sp.identity(op.dim, format="csr")).tocsc()
    lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("inertia count needs a symmetric permutation")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


# ----------------------------------------------------------------------------
# Refinement studies and the eigenvalue comparison chain
# ----------------------------------------------------------------------------

def _initial_block_modes(k: int) -> int:
    """Modes first asked of each parity block for k merged values: a quarter
    of k and a margin for the blocks that are even across a mirror line,
    which hold more of the low modes (measured need: at most k/4 + 6 for
    k <= 400 on squares and 1 x 1.3..1.65 rectangles)."""
    return k // 4 + math.isqrt(k) // 2 + 2


def clamped_spectrum_fd(dom: DomainSpec, n: int, k: int) -> Spectrum:
    """First k clamped eigenvalues on an n x n interior grid, solved and
    certified one parity block at a time.

    The clamped matrix commutes with both mirror reflections of the grid, so
    its spectrum is the union of those of the four parity blocks of
    ``assemble_clamped_bilaplacian(grid, parity)``, each of at most
    ceil(n/2)^2 unknowns.  Each block goes through ``smallest_eigs`` (residual
    bound and inertia count, both through the block's ``SineForm``: a
    Woodbury inverse for the Lanczos path and a Haynsworth count of the
    exact operator, so nothing is factorised); the values are merged and
    the smallest k kept.
    Coverage is certified, not assumed: a block solved short of its
    dimension must have its inertia floor strictly above the merged k-th
    value, so that none of its unreturned eigenvalues lies at or below it;
    otherwise the block is solved again at twice the modes.

    The values agree with a solve of the full operator to 1e-10 relative
    (measured: at most 5.8e-11 over squares and 1 x 1.45 rectangles, n = 7..128
    and k up to 400), and the first values of a larger solve agree with a
    k-mode solve to the same tolerance, so callers may slice one solve; the
    spectrum cache, which keeps the values bit for bit, is keyed on the
    exact (domain, n, k) that was solved."""
    if not 1 <= k <= n * n:
        raise ValueError(f"k={k} outside 1..{n * n}")
    grid = Grid2D(n, n, dom)
    blocks = [assemble_clamped_bilaplacian(grid, (px, py)) for px in (1, -1) for py in (1, -1)]
    values = [smallest_eigs(op, min(_initial_block_modes(k), op.dim))[0] for op in blocks]
    while True:
        merged = np.sort(np.concatenate(values))
        kth = merged[k - 1] if len(merged) >= k else math.inf
        short = [i for i, op in enumerate(blocks)
                 if len(values[i]) < op.dim and _inertia_floor(op, values[i][-1]) <= kth]
        if not short:
            return Spectrum(tuple(float(v) for v in merged[:k]))
        for i in short:
            values[i] = smallest_eigs(blocks[i], min(2 * len(values[i]), blocks[i].dim))[0]


def richardson_ladder(mid: Spectrum, fine: Spectrum,
                      count: int) -> tuple[list[float], list[float]]:
    """(limits, bands) of the first ``count`` modes from grids n x n (``mid``)
    and 2n x 2n (``fine``), the error budget of every FD-derived row: per mode,
    limit = fine + (fine - mid)/3 (second order, ratio 2), band = 3|fine - mid|."""
    limits, bands = [], []
    for j in range(1, count + 1):
        m, f = mid.value(j), fine.value(j)
        limits.append(f + (f - m) / 3.0)
        bands.append(3.0 * abs(f - m))
    return limits, bands


def comparison_report(dom: DomainSpec, limits: Sequence[float],
                      bands: Sequence[float]) -> list[BoundReport]:
    """Eigenvalue comparison chain: 2D against Richardson bands, 1D exactly.

    2D rows check lambda_j^2 <= Lambda_j (and its a = 1 restatement) for
    j = 1..len(limits) against the clamped ``limits`` lowered by their
    ``bands``, as ``richardson_ladder`` gives them.  1D rows run the exact chain
    Lambda^(2,3) <= Lambda^(1,3) = mu^2 and lambda^2 = Lambda^(0,2) <=
    Lambda^(0,1) with zero tolerance for j = 1..COMPARISON_1D_MODES.
    """
    out: list[BoundReport] = []
    if len(limits):
        lam = laplacian_spectrum_exact(dom, len(limits))
        for j, (limit, band) in enumerate(zip(limits, bands), start=1):
            lam_sq = lam.value(j) ** 2
            out.append(BoundReport.less_equal(
                "laplacian-sq-below-clamped", lam_sq, limit - band, "fullchain",
                params={"j": j, "domain": dom.label()}))
            out.append(BoundReport.less_equal(
                "navier-a1-below-clamped", lam_sq, limit - band, "dirnav",
                params={"j": j, "a": 1, "domain": dom.label()}))

    spec_01 = spectrum_1d((0, 1), COMPARISON_1D_MODES)
    spec_02 = spectrum_1d((0, 2), COMPARISON_1D_MODES)
    spec_13 = spectrum_1d((1, 3), COMPARISON_1D_MODES)
    spec_23 = spectrum_1d((2, 3), COMPARISON_1D_MODES)
    for j in range(1, COMPARISON_1D_MODES + 1):
        mu_sq = (math.pi * (j - 1)) ** 4
        out.append(BoundReport.less_equal(
            "1d-neumann-below-ks", spec_23.value(j), spec_13.value(j), "dirnav",
            params={"j": j}))
        out.append(BoundReport.less_equal(
            "1d-ks-equals-mu-sq", abs(spec_13.value(j) - mu_sq), 0.0, "fullchain2",
            params={"j": j}))
        out.append(BoundReport.less_equal(
            "1d-navier-below-dirichlet", spec_02.value(j), spec_01.value(j), "dirnav",
            params={"j": j}))
        out.append(BoundReport.less_equal(
            "1d-lambda-sq-below-clamped", spec_02.value(j), spec_01.value(j),
            "fullchain", params={"j": j}))
    return out
