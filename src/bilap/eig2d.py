"""Finite-difference eigensolvers on rectangles.

The clamped fourth-order operator is the 13-point square of the 5-point
Dirichlet Laplacian plus the ghost-reflection correction u_{-1} = u_{1}
that encodes a vanishing normal derivative.  The correction only touches
diagonal entries (+2/hx^4 per adjacent edge in x, +2/hy^4 in y), so the
clamped matrix is exactly the squared Laplacian plus a nonnegative
diagonal; entrywise domination of the squared spectrum is therefore an
identity on every grid.

The matrix commutes with the mirror reflections i -> nx-1-i and
j -> ny-1-j, so it splits into four parity blocks, even or odd in x times
even or odd in y, of about a quarter of the unknowns each, and only the
blocks are ever built.  A block is held as the coefficient arrays of its
13-point stencil (``assemble_clamped_bilaplacian``), formed from folded 1D
second-difference factors with exactly the float operations of the sparse
product L @ L, so its entries are those of the squared Laplacian block bit
for bit.  ``clamped_spectrum_fd`` solves the blocks and merges their
values; each block solve carries the residual and inertia certificates of
``smallest_eigs``, and coverage is certified as well: a block solved short
of its dimension must prove that none of its unreturned eigenvalues lies at
or below the merged k-th value.  The merged values agree with a solve of
the full operator, which the tests assemble with scipy as the oracle, to
1e-10 relative.

A parity block is also known in closed form (``SineForm``): in the sine
eigenbasis of its folded factors it is a diagonal plus a correction of rank
m_x + m_y, its side lengths.  Block solves take their vectors from a
Rayleigh-Ritz step on it in those sine coordinates, over a block Lanczos
basis of its Woodbury inverse, or over the whole block when more than a
third of its spectrum is asked for, and count eigenvalues by Haynsworth
inertia additivity, so no block is ever factorised or formed as a matrix.
Everything here is numpy: no solve imports scipy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import BoundReport, DomainSpec, InputError, Spectrum
from .spectra1d import spectrum_1d

__all__ = [
    "Grid2D",
    "DiscreteOperator",
    "SineForm",
    "DENSE_LIMIT",
    "clamped_spectrum_fd",
    "fd_grid",
    "laplacian_spectrum_exact",
    "navier1_spectrum_exact",
    "neumann_laplacian_spectrum_exact",
    "assemble_clamped_bilaplacian",
    "smallest_eigs",
    "discrete_laplacian_eigenvalues",
    "richardson_ladder",
    "comparison_report",
]

# The ``dense_limit`` default of ``smallest_eigs``, which no solve reads:
# every block, of any size, takes the one certified ``_lanczos`` route.
DENSE_LIMIT = 600
# Each eigenpair must satisfy ||A v - lambda v||_2 <= RESIDUAL_TOL ||A||_inf
# (a backward error; measured at most 6e-15 on the clamped grids 32^2..128^2).
RESIDUAL_TOL = 1e-12
# The exact 1D comparison chain runs over modes j = 1..COMPARISON_1D_MODES.
COMPARISON_1D_MODES = 50
# A Lanczos Ritz pair (theta, y) of the inverse is converged once its
# residual ||A^-1 y - theta y|| estimate is at most LANCZOS_TOL theta.
LANCZOS_TOL = 1e-14


@dataclass(frozen=True)
class Grid2D:
    """Uniform interior grid on a rectangle: nx*ny unknowns, spacing
    hx = Lx/(nx+1), hy = Ly/(ny+1)."""

    nx: int
    ny: int
    dom: DomainSpec

    def __post_init__(self) -> None:
        if self.dom.shape != "rectangle":
            raise InputError(f"grids are defined on rectangles, not {self.dom.label()}")
        if self.nx < 2 or self.ny < 2:
            raise InputError(f"need at least 2 interior points per direction, "
                             f"got {self.nx}x{self.ny}")

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
    """The block of the clamped matrix on ``grid`` of the vectors with mirror
    parity ``parity`` = (px, py), px in x and py in y, as its 13-point
    stencil.  Unknowns are ordered x-major on the m_x x m_y block grid,
    index = i*m_y + j; ``centre`` is the diagonal, and ``couplings`` holds
    for each upper stencil offset the pair (s, c) of its index shift and
    entries: entry (p, p + s), and its mirror (p + s, p), is c[p], zero
    where the offset leaves the grid.  In each row the nonzero entries of
    the offsets come in ascending column order.  ``form`` is the closed
    form of the same block."""

    grid: Grid2D
    parity: tuple[int, int]
    centre: np.ndarray = field(compare=False, repr=False)
    couplings: tuple[tuple[int, np.ndarray], ...] = field(compare=False, repr=False)
    form: SineForm = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.centre.size

    @property
    def label(self) -> str:
        name = {1: "even", -1: "odd"}
        return (f"{self.grid.nx}x{self.grid.ny} grid, "
                f"{name[self.parity[0]]}-{name[self.parity[1]]} block")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x for the columns of x (dim x b), in x's dtype, float64 or
        ``np.longdouble``.  Each row sums its terms from zero in ascending
        column order, as a sparse matrix-vector product does, so the result
        equals that of the sparse block bit for bit."""
        rows = np.ascontiguousarray(x.T)
        out = np.zeros_like(rows)
        for s, coef in reversed(self.couplings):
            out[:, s:] += coef * rows[:, :-s]
        out += self.centre * rows
        for s, coef in self.couplings:
            out[:, :-s] += coef * rows[:, s:]
        return out.T

    def norm_inf(self) -> float:
        rows = np.abs(self.centre)
        for s, coef in self.couplings:
            rows[:-s] += np.abs(coef)
            rows[s:] += np.abs(coef)
        return float(rows.max())

    def count_below(self, sigma: float) -> int:
        """Number of eigenvalues below sigma: the Haynsworth count of
        ``form`` (``SineForm.count_below``)."""
        return self.form.count_below(sigma)


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
                       parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Folded 1D factor of the assembly on n interior points of spacing h:
    (main, off, edge), the diagonal and off-diagonal of the Dirichlet second
    difference (2, -1)/h^2 and the diagonal of the clamped ghost correction,
    2/h^4 on the edge row, restricted to the vectors that are even
    (``parity`` = +1) or odd (-1) under i -> n-1-i.

    The basis is the orthonormal (e_i + parity e_{n-1-i})/sqrt(2), i < n//2,
    and for even vectors of odd n also e_centre.  Folding changes only the
    last row: for even n the mirror neighbour v_{n/2} = parity v_{n/2-1}
    makes the last diagonal entry 2 - parity; for odd n the even block
    couples the centre line with -sqrt(2), and the odd block, which vanishes
    there, is the plain Dirichlet factor of n//2 points.  The far edge's
    ghost correction folds onto the same first row, which holds it once.
    """
    size = (n + 1) // 2 if parity > 0 else n // 2
    main = np.full(size, 2.0)
    off = np.full(size - 1, -1.0)
    edge = np.zeros(size)
    edge[0] = 2.0 / h ** 4
    if n % 2 == 0:
        main[-1] -= parity
    elif parity > 0:
        off[-1] = -math.sqrt(2.0)
    ih2 = 1.0 / h ** 2
    return main * ih2, off * ih2, edge


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

    Sine coordinates are m_x x m_y arrays, or stacks of them, indexed like
    ``diag``.  This is the exact operator; the assembled float matrix differs
    from it by rounding.  On the low eigenvalues the two differ by up to
    6.3e-10 relative (measured on lambda_1 of the 128^2 grid's even-even
    block over the square and 1 x 1.3..1.65 rectangles; at most 1.1e-10 on
    grids up to 96^2), a difference that grows about as ||A|| / lambda_1,
    like n^4.
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

    def inverse(self) -> Callable[[np.ndarray], np.ndarray]:
        """A^-1 in sine coordinates, by the Woodbury identity
        D^-1 - D^-1 U T(0)^-1 U^T D^-1: a function of a stack of b sine
        coordinate arrays (b x m_x x m_y) that costs two contractions with
        u_x and u_y and one product with T(0)^-1, whose Cholesky factor is
        inverted once here; T(0) is positive definite."""
        d = self.diag
        u_x, u_y = self.basis_x[0], self.basis_y[0]
        m_y = d.shape[1]
        factor_inv = np.linalg.inv(np.linalg.cholesky(self.capacitance(0.0)))
        t_inv = factor_inv.T @ factor_inv

        def solve(z: np.ndarray) -> np.ndarray:
            w = z / d
            s = np.concatenate([u_x @ w, w @ u_y], axis=-1) @ t_inv
            w -= (u_x[:, None] * s[:, None, :m_y] + s[:, m_y:, None] * u_y) / d
            return w

        return solve

    def apply(self, z: np.ndarray) -> np.ndarray:
        """(D + U C U^T) z for a stack of b sine coordinate arrays."""
        u_x, u_y = self.basis_x[0], self.basis_y[0]
        s_y, s_x = self.c_x * (u_x @ z), self.c_y * (z @ u_y)
        return self.diag * z + u_x[:, None] * s_y[:, None, :] + s_x[:, :, None] * u_y

    def to_grid(self, z: np.ndarray) -> np.ndarray:
        """The grid vectors Q z of a stack of b sine coordinate arrays, as
        the columns of a dim x b array."""
        grid = self.basis_x @ z @ self.basis_y.T
        return grid.reshape(len(z), -1).T


def assemble_clamped_bilaplacian(grid: Grid2D, parity: tuple[int, int]) -> DiscreteOperator:
    """The parity block (px, py) of the 13-point squared-Laplacian stencil
    with ghost reflection u_{-1} = u_1, each parity +1 or -1.

    The full matrix is L @ L plus a diagonal correction of +2/hx^4 on
    columns adjacent to a vertical edge and +2/hy^4 adjacent to a horizontal
    edge, symmetric positive semidefinite by construction.  L maps each
    parity class into itself, so the block is L_b @ L_b plus the folded
    correction, L_b = kron(Dx_b, I) + kron(I, Dy_b) the block of L built from
    the folded factors of ``_second_difference``.  With a = Dx_b + Dy_b on
    the diagonal of L_b and b_x, b_y its off-diagonals, the entries of the
    square are the sums of products that a sparse L_b @ L_b forms, in its
    order: the diagonal sums b_x^2, b_y^2, a^2, b_y^2, b_x^2 over the
    neighbours in ascending column order, each nearest-neighbour entry
    a b + b a', the diagonal neighbours b_x b_y + b_y b_x = 2 b_x b_y and the
    second neighbours one product.  So the entries equal those of the sparse
    product bit for bit, which the tests check.  A block also carries its
    closed form, ``SineForm``.
    """
    ax, bx, ex = _second_difference(grid.nx, grid.hx, parity[0])
    ay, by, ey = _second_difference(grid.ny, grid.hy, parity[1])
    m_x, m_y = len(ax), len(ay)
    a = ax[:, None] + ay[None, :]
    bx2 = np.zeros((m_x + 1, m_y))
    bx2[1:-1] = (bx * bx)[:, None]
    by2 = np.zeros((m_x, m_y + 1))
    by2[:, 1:-1] = by * by
    centre = bx2[:-1] + by2[:, :-1]
    centre = centre + a * a
    centre = centre + by2[:, 1:]
    centre = centre + bx2[1:]
    centre = centre + (ex[:, None] + ey[None, :])
    diagonal = 2.0 * (bx[:, None] * by[None, :])
    # (di, dj, entry coupling (i, j) with (i + di, j + dj)), in the order in
    # which a row meets them, by ascending column
    stencil = (
        (0, 1, a[:, :-1] * by + by * a[:, 1:]),
        (0, 2, by[:-1] * by[1:] + np.zeros((m_x, 1))),
        (1, -1, diagonal),
        (1, 0, a[:-1] * bx[:, None] + bx[:, None] * a[1:]),
        (1, 1, diagonal),
        (2, 0, (bx[:-1] * bx[1:])[:, None] + np.zeros(m_y)),
    )
    dim = m_x * m_y
    couplings = []
    for di, dj, coef in stencil:
        shift = di * m_y + dj
        if 0 < shift < dim:
            padded = np.zeros((m_x, m_y))
            padded[:m_x - di, max(0, -dj):m_y - max(0, dj)] = coef
            couplings.append((shift, padded.ravel()[:dim - shift]))
    return DiscreteOperator(grid, parity, centre.ravel(), tuple(couplings),
                            SineForm.of(grid, parity))


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
    """k smallest eigenpairs of a parity block, certified.

    The vectors come from a Rayleigh-Ritz step on ``op.form`` (``_lanczos``):
    over a deterministic block Lanczos basis of its Woodbury inverse, or
    over the whole block when 3 k > dim.  ``dense_limit`` is not read; it
    stays in the signature for callers that bind it by name.  The values are
    the Rayleigh quotients of the vectors on the assembled stencil, summed
    in extended precision (``_rayleigh_quotients``): the form is the exact
    operator, whose values differ from those of the assembled float matrix
    (``SineForm``: up to 6.3e-10 relative on 128^2).  The result must pass
    ``_certify`` (residual bound and inertia count) or ``RuntimeError`` is
    raised.  Values ascend; vectors are orthonormal, each with the sign the
    solver returned.  The inertia count proves that every eigenvalue not
    returned lies at or above ``_inertia_floor(op, values[-1])``.
    ``clamped_spectrum_fd`` solves each parity block of the clamped matrix
    here and reads that floor as its coverage certificate: no block may hide
    an eigenvalue at or below the merged k-th value; the merged values agree
    with a solve of the full operator to 1e-10 relative.
    """
    if k < 1 or k > op.dim:
        raise ValueError(f"k={k} outside 1..{op.dim}")
    vectors = _lanczos(op.form, k)
    values = _rayleigh_quotients(op, vectors)
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    _certify(op, values, vectors)
    return values, vectors


def _lanczos(form: SineForm, k: int) -> np.ndarray:
    """Ritz vectors (dim x k) of the k largest eigenvalues of A^-1, that is
    of the k smallest of A, by a block Lanczos of block size 2 with full
    reorthogonalisation, run in sine coordinates on ``form.inverse()``.
    When 3 k > dim there is no iteration and no inverse: the Rayleigh-Ritz
    step below runs on the whole sine basis, the identity, which is the
    space a Krylov run would reach at full span.

    The start block is closed form: two additive-recurrence (Weyl)
    sequences frac(i phi) - 1/2, phi the golden ratio, which have no
    symmetry that could hide an eigenvector, smoothed by one inverse so
    that every Krylov vector lies in the range of A^-1.  Each step
    orthogonalises A^-1 of the newest block twice against the whole basis
    (Gram-Schmidt twice) and takes the next block and the coupling B from
    its QR factorisation; the projection of A^-1 is then block tridiagonal,
    with the diagonal blocks V_j^T A^-1 V_j and the couplings B.  Its
    eigenpairs (theta, s) give the Ritz pairs, and the Lanczos relation
    bounds each residual ||A^-1 y - theta y|| by ||B s_last||; the solve
    stops when each of the top k is at most LANCZOS_TOL theta, or when the
    basis spans the block.

    The vectors returned are those of a Rayleigh-Ritz step with A itself
    (``_rayleigh_ritz``) on the whole Krylov basis.  The Ritz vectors of A^-1
    carry errors of order eps/lambda_1 from its rounding, which A magnifies
    by lambda_k/lambda_1 in the residual, past the RESIDUAL_TOL bound when
    k is near a third of the dimension of the 39^2 to 63^2 blocks of the
    square; the vectors of the A step meet it.
    """
    shape = form.diag.shape
    dim = form.diag.size
    if 3 * k > dim:
        return _rayleigh_ritz(form, np.eye(dim), k)
    solve = form.inverse()
    weyl = (np.arange(1, 2 * dim + 1) * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0 - 0.5
    start = solve(weyl.reshape(2, *shape)).reshape(2, dim)
    basis = np.empty((min(dim, 4 * k + 8), dim))
    basis[:2] = np.linalg.qr(start.T)[0].T
    size, done = 2, 0
    steps: list[tuple[int, np.ndarray, np.ndarray]] = []
    check = 3 * k
    while True:
        block = basis[done:size]
        w = solve(block.reshape(-1, *shape)).reshape(len(block), dim)
        alpha = block @ w.T
        for _ in range(2):
            w -= (w @ basis[:size].T) @ basis[:size]
        grow = min(len(block), dim - size)
        q, beta = np.linalg.qr(w.T)
        if size + grow > len(basis):
            basis = np.concatenate([basis, np.empty((min(len(basis), dim - len(basis)), dim))])
        basis[size:size + grow] = q.T[:grow]
        steps.append((done, (alpha + alpha.T) / 2.0, beta[:grow]))
        done, size = size, size + grow
        if grow and done < check:
            continue
        projected = np.zeros((done, done))
        for start_row, alpha, beta in steps:
            stop = start_row + len(alpha)
            projected[start_row:stop, start_row:stop] = alpha
            if stop < done:
                projected[stop:stop + len(beta), start_row:stop] = beta
                projected[start_row:stop, stop:stop + len(beta)] = beta.T
        theta, s = np.linalg.eigh(projected)
        theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
        last, _, beta = steps[-1]
        residual = np.linalg.norm(beta @ s[last:], axis=0)
        if not grow or (residual <= LANCZOS_TOL * theta).all():
            return _rayleigh_ritz(form, basis[:done], k)
        check = done + max(2, done // 8)


def _rayleigh_ritz(form: SineForm, basis: np.ndarray, k: int) -> np.ndarray:
    """Grid vectors (dim x k) of the k smallest Ritz pairs of A (``form.apply``)
    on the span of the orthonormal rows of ``basis``, in sine coordinates."""
    size, dim = basis.shape
    shape = form.diag.shape
    image = form.apply(basis.reshape(size, *shape)).reshape(size, dim)
    # two rows at a time, like the products of the Lanczos steps: a square
    # product's bits depend on the BLAS thread count
    gram = np.concatenate([image[i:i + 2] @ basis.T for i in range(0, size, 2)])
    rotation = np.linalg.eigh((gram + gram.T) / 2.0)[1][:, :k]
    return form.to_grid((rotation.T @ basis).reshape(k, *shape))


def _rayleigh_quotients(op: DiscreteOperator, vectors: np.ndarray) -> np.ndarray:
    """v^T A v / v^T v of each column on the assembled stencil, in
    ``np.longdouble``: the quotient cancels terms of size ||A|| down to the
    smallest eigenvalues, which float64 sums leave up to 1.2e-11 relative off
    (measured on the 96^2 and 128^2 blocks).  The sums run along contiguous
    rows, so their order, and the bits, do not depend on the layout of
    ``vectors``."""
    wide = np.ascontiguousarray(vectors.T, dtype=np.longdouble)
    image = op.matvec(wide.T).T
    quotients = np.ascontiguousarray(wide * image).sum(axis=1)
    return (quotients / (wide * wide).sum(axis=1)).astype(float)


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
    of lambda_k (``op.count_below``) must find exactly as many eigenvalues
    of A below sigma as were returned: a copy of a multiple eigenvalue that
    Lanczos dropped shows as one count too many.  A block counts by
    Haynsworth inertia additivity on its sine form, the count of the exact
    operator, whose low eigenvalues lie within 6.3e-10 relative (measured on
    128^2 grids) of the assembled matrix's, inside sigma's 1e-8 offset below
    lambda_k; were the offset ever crossed, on far finer grids, the counts
    would disagree and raise, not pass.
    """
    residuals = np.linalg.norm(op.matvec(vectors) - vectors * values, axis=0)
    bound = RESIDUAL_TOL * op.norm_inf()
    if residuals.max() > bound:
        j = int(residuals.argmax())
        raise RuntimeError(f"eigenpair {j + 1} residual {residuals[j]:.3e} "
                           f"above {bound:.3e} on the {op.label}")
    sigma = _inertia_shift(values[-1], residuals[-1])
    below = op.count_below(sigma)
    returned = int(np.count_nonzero(values < sigma))
    if below != returned:
        raise RuntimeError(f"{below} eigenvalues lie below {sigma:.6e} but the solve "
                           f"returned {returned} on the {op.label}")


# ----------------------------------------------------------------------------
# Refinement studies and the eigenvalue comparison chain
# ----------------------------------------------------------------------------

def _initial_block_modes(k: int) -> int:
    """Modes first asked of each parity block for k merged values: a quarter
    of k and a margin for the blocks that are even across a mirror line,
    which hold more of the low modes (measured need: at most k/4 + 6 for
    k <= 400 on squares and 1 x 1.3..1.65 rectangles)."""
    return k // 4 + math.isqrt(k) // 2 + 2


def fd_grid(dom: DomainSpec, n: int, k: int) -> Grid2D:
    """The n x n grid of a k-mode ``clamped_spectrum_fd`` solve on ``dom``;
    ``InputError`` unless 1 <= k <= n^2 and ``Grid2D`` takes it."""
    if not 1 <= k <= n * n:
        raise InputError(f"k={k} outside 1..{n * n}")
    return Grid2D(n, n, dom)


def clamped_spectrum_fd(dom: DomainSpec, n: int, k: int) -> Spectrum:
    """First k clamped eigenvalues on an n x n interior grid, solved and
    certified one parity block at a time.

    The clamped matrix commutes with both mirror reflections of the grid, so
    its spectrum is the union of those of the four parity blocks of
    ``assemble_clamped_bilaplacian(grid, parity)``, each of at most
    ceil(n/2)^2 unknowns.  Each block goes through ``smallest_eigs`` (residual
    bound and inertia count, both through the block's ``SineForm``: a
    Woodbury inverse for the Krylov basis and a Haynsworth count of the
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
    grid = fd_grid(dom, n, k)
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
