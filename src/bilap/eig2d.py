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
or below the merged k-th value.  On a square grid the odd-even block is the
even-odd block with x and y swapped, a permutation of the same matrix; a
guard checks this exactly (equal n and h, and the assembled diagonals equal
bit for bit up to the transpose, the one array whose sums are not symmetric
in x and y), and then the even-odd solve stands for both, so a square
solves three blocks.  The merged values agree with a solve of the full
operator, which the tests assemble with scipy as the oracle, to
1e-10 relative.

A parity block is also known in closed form (``SineForm``): in the sine
eigenbasis of its folded factors it is a diagonal plus a correction of rank
m_x + m_y, its side lengths.  Block solves take their vectors from a
Rayleigh-Ritz step on it in those sine coordinates, over a block Lanczos
basis of its Woodbury inverse that grows until the Ritz pairs meet the
residual bound, or over the whole block when more than a third of its
spectrum is asked for, and count eigenvalues by Haynsworth inertia
additivity, so no block is ever factorised or formed as a matrix.  The
values are Rayleigh quotients on the assembled stencil, summed in extended
precision, and the residuals are float64 products bounded above with their
rounding (``_certify``).  Everything here is numpy: no solve imports scipy,
and no row is built here (``checks.comparison_rows``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import DomainSpec, InputError, Spectrum

__all__ = [
    "Grid2D",
    "DiscreteOperator",
    "SineForm",
    "DENSE_LIMIT",
    "MAX_FD_GRID",
    "MAX_FD_MODES",
    "MAX_FD_ASPECT",
    "LADDER_POINTS_PER_MODE",
    "clamped_spectrum_fd",
    "fd_grid",
    "laplacian_spectrum_exact",
    "navier1_spectrum_exact",
    "neumann_laplacian_spectrum_exact",
    "assemble_clamped_bilaplacian",
    "smallest_eigs",
    "discrete_laplacian_eigenvalues",
    "richardson_ladder",
    "ladder_modes",
]

# The ``dense_limit`` default of ``smallest_eigs``, which no solve reads:
# every block, of any size, takes the one certified ``_lanczos`` route.
DENSE_LIMIT = 600
# Each eigenpair must satisfy ||A v - lambda v||_2 <= RESIDUAL_TOL ||A||_inf
# (a backward error; measured at most 6e-15 on the clamped grids 32^2..128^2).
RESIDUAL_TOL = 1e-12
# The largest grid side n and mode count k of a solve (``fd_grid``).  The
# cost grows with both, and a block asked for more than a third of its modes
# holds several dim x dim arrays.  Measured in fresh processes on one BLAS
# thread (unit square): 128^2 at k = 50 takes 0.17 s and 40 MB max RSS,
# 256^2 at k = 50 0.87 s and 66 MB, and the largest solve the caps admit,
# 256^2 at k = 400, 16-18 s and 175 MB (also on 1 x 1.65); 512^2 at k = 10
# took 1.4 s and 139 MB, 1024^2 8.2 s and 428 MB.
MAX_FD_GRID = 256
MAX_FD_MODES = 400
# The largest aspect ratio max(L)/min(L) of a solved rectangle (``fd_grid``):
# the Haynsworth count's capacitance matrix holds h^4/2 of the long side.  The
# first sampled count to go wrong came at aspect 87.5 (10^2 grid, k = 5); up to
# 50 every sample certified (grids 2-64 at k <= 50, 256^2 at k = 400).
MAX_FD_ASPECT = 50
LADDER_POINTS_PER_MODE = 64  # grid points n^2 per mode and unit of aspect (``ladder_modes``)


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

    def quotients(self, vectors: np.ndarray) -> np.ndarray:
        """Rayleigh quotients v.(A v) / v.v of the columns of ``vectors``,
        summed in ``np.longdouble`` from the upper half of the stencil: each
        row accumulates acc_p = c0_p v_p + sum_{s>0} 2 c_s[p] v_{p+s} (the
        doubling is exact), and the quotient is sum_p v_p acc_p / sum_p v_p^2,
        half the stencil passes of the full row sums of A v.  Grouped by
        row, the terms cancel locally before the pairwise sum over the rows;
        the same quadratic form summed coupling by coupling over the whole
        vector cancels across whole sums instead and lands up to 4.2e-13 off
        the exact quotient on the 128^2 square's blocks.  The sums run along
        contiguous rows, so their bits do not depend on the layout of
        ``vectors``."""
        wide = np.array(vectors.T, dtype=np.longdouble, order="C")
        acc = self.centre * wide
        term = np.empty_like(wide)
        for s, coef in self.couplings:
            np.multiply(2.0 * coef, wide[:, s:], out=term[:, :-s])
            acc[:, :-s] += term[:, :-s]
        acc *= wide
        np.square(wide, out=term)
        return (acc.sum(axis=1) / term.sum(axis=1)).astype(float)

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

def _separable_values(dom: DomainSpec, count: int, offset: int) -> Spectrum:
    """Smallest ``count`` values of pi^2 (m^2/Lx^2 + n^2/Ly^2), m,n >= offset,
    by lazy expansion of the index lattice; ``InputError`` unless ``dom`` is
    a rectangle and count >= 1."""
    if dom.shape != "rectangle":
        raise InputError(f"separable spectra need a rectangle, not {dom.label()}")
    if count < 1:
        raise InputError(f"count={count} must be >= 1")
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
    return Spectrum(tuple(out))


def laplacian_spectrum_exact(dom: DomainSpec, count: int) -> Spectrum:
    """Dirichlet Laplacian eigenvalues pi^2 (m^2/Lx^2 + n^2/Ly^2), m, n >= 1."""
    return _separable_values(dom, count, offset=1)


def neumann_laplacian_spectrum_exact(dom: DomainSpec, count: int) -> Spectrum:
    """Neumann Laplacian eigenvalues (m, n >= 0, starting from the kernel)."""
    return _separable_values(dom, count, offset=0)


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
    """k smallest eigenpairs of a parity block, certified: ``_certify`` of
    the vectors of ``_lanczos``, a Rayleigh-Ritz step on ``op.form`` over a
    block Krylov basis of its Woodbury inverse, or over the whole block when
    3 k > dim.  ``dense_limit`` is not read; it stays in the signature for
    callers that bind it by name.  Values ascend; vectors are orthonormal,
    each with the sign the solver returned.  The inertia count proves that
    every eigenvalue not returned lies at or above
    ``_inertia_floor(op, values[-1])``, which ``clamped_spectrum_fd`` reads
    as its coverage certificate.
    """
    if k < 1 or k > op.dim:
        raise ValueError(f"k={k} outside 1..{op.dim}")
    return _certify(op, _lanczos(op, k))


def _lanczos(op: DiscreteOperator, k: int) -> np.ndarray:
    """Grid vectors (dim x k) of the k smallest Ritz pairs of A on a block
    Krylov space of A^-1 (block size 2, full reorthogonalisation), run in
    sine coordinates on ``op.form.inverse()``; when 3 k > dim, on the whole
    sine basis, the identity, with no iteration and no inverse.

    The start block is closed form: two additive-recurrence (Weyl)
    sequences frac(i phi) - 1/2, phi the golden ratio, which have no
    symmetry that could hide an eigenvector, smoothed by one inverse.  Each
    step orthogonalises A^-1 of the newest block twice against the basis
    and appends the QR factor of the rest.  From 3 k basis vectors on, and
    then every max(6, size/8) more, a Rayleigh-Ritz step with A itself
    (``_rayleigh_ritz``, which keeps the Gram rows of the check before and
    forms only those of the new basis rows) checks the pairs it would
    return: the solve stops once every residual ||A y - theta y|| on the
    exact form is within half of ``_certify``'s bound RESIDUAL_TOL ||A||_inf,
    leaving the other half to the rounding of the assembled matrix, or once
    the basis spans the block.
    """
    form = op.form
    shape = form.diag.shape
    dim = form.diag.size
    if 3 * k > dim:
        return _rayleigh_ritz(form, np.eye(dim), k)[0]
    tol = RESIDUAL_TOL * op.norm_inf() / 2.0
    solve = form.inverse()
    weyl = (np.arange(1, 2 * dim + 1) * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0 - 0.5
    start = solve(weyl.reshape(2, *shape)).reshape(2, dim)
    basis = np.empty((min(dim, 4 * k + 8), dim))
    basis[:2] = np.linalg.qr(start.T)[0].T
    size, done = 2, 0
    check = 3 * k
    gram = np.empty((0, 0))
    while True:
        block = basis[done:size]
        w = solve(block.reshape(-1, *shape)).reshape(len(block), dim)
        for _ in range(2):
            w -= (w @ basis[:size].T) @ basis[:size]
        grow = min(len(block), dim - size)
        if size + grow > len(basis):
            basis = np.concatenate([basis, np.empty((min(len(basis), dim - len(basis)), dim))])
        basis[size:size + grow] = np.linalg.qr(w.T)[0].T[:grow]
        done, size = size, size + grow
        if grow and done < check:
            continue
        vectors, residuals, gram = _rayleigh_ritz(form, basis[:done], k, gram)
        if not grow or residuals.max() <= tol:
            return vectors
        check = done + max(6, done // 8)


def _rayleigh_ritz(form: SineForm, basis: np.ndarray, k: int,
                   known: np.ndarray = np.empty((0, 0))
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid vectors (dim x k) of the k smallest Ritz pairs (theta, y) of A
    (``form.apply``) on the span of the orthonormal rows of ``basis``, in
    sine coordinates, their residuals ||A y - theta y|| on the form, and the
    Gram matrix of A on the basis.  ``known`` is that Gram matrix on the
    leading rows, from an earlier step on the same basis: only the rows past
    it are formed, and its columns past it are those rows' transpose."""
    size, dim = basis.shape
    shape = form.diag.shape
    old = len(known)
    # A of 16 rows per call, few Python-level calls that never hold the
    # images of all new rows at once (that raised the peak RSS of ``bilap
    # all`` by 3.7%).  Each chunk's product with the basis is taken two rows
    # at a time, the shape of the Lanczos steps, because a wider product's
    # bits depend on the BLAS thread count.
    chunk = 16
    gram = np.empty((size, size))
    gram[:old, :old] = known
    for start in range(old, size, chunk):
        images = form.apply(basis[start:start + chunk].reshape(-1, *shape)).reshape(-1, dim)
        for i in range(0, len(images), 2):
            gram[start + i:start + i + 2] = images[i:i + 2] @ basis.T
    gram[:old, old:] = gram[old:, :old].T
    theta, rotation = np.linalg.eigh((gram + gram.T) / 2.0)
    ritz = (rotation[:, :k].T @ basis).reshape(k, *shape)
    residuals = (form.apply(ritz) - theta[:k, None, None] * ritz).reshape(k, dim)
    return form.to_grid(ritz), np.linalg.norm(residuals, axis=1), gram


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


def _residual_bounds(op: DiscreteOperator, vectors: np.ndarray,
                     values: np.ndarray) -> np.ndarray:
    """Upper bounds on the exact residuals ||A v - lambda v||_2 of the columns
    v of ``vectors`` and their float64 ``values``: the float64 residuals of
    ``op.matvec`` plus 16 u ||A||_inf ||v||_2, u = 2^-53 the unit roundoff.

    The allowance covers the rounding of each step.  A row of A v sums at
    most 13 products from zero, so its error is at most
    gamma_13 sum_q |A_pq| |v_q|, gamma_13 = 13u/(1 - 13u), and over all rows
    at most gamma_13 || |A| |v| ||_2 <= gamma_13 ||A||_inf ||v||_2 (|A| is
    symmetric, so its 2-norm is at most its row-sum norm).  lambda v rounds
    each entry by at most u |lambda| |v_p|, within u ||A||_inf ||v||_2 in
    all, since |lambda| <= ||A||_inf.  The subtraction and the norm round
    the computed residual itself, by a relative (dim + 2) u; on a residual
    that passes, at most RESIDUAL_TOL ||A||_inf, that is below
    u ||A||_inf for any dim below 1e12.  The sum, under 15.01 u ||A||_inf
    ||v||_2, is rounded up to 16 u: about 1.8e-3 of the certificate's bound
    RESIDUAL_TOL ||A||_inf for a unit vector, so a computed residual that
    passes proves the exact one within the bound."""
    image = op.matvec(vectors)
    image -= vectors * values
    residuals = np.linalg.norm(image, axis=0)
    allowance = 8.0 * np.finfo(float).eps * op.norm_inf()
    return residuals + allowance * np.linalg.norm(vectors, axis=0)


def _certify(op: DiscreteOperator, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors), the columns of ``vectors`` in ascending order of
    their Rayleigh quotients on the assembled matrix; ``RuntimeError`` unless
    they are the smallest eigenpairs.  This is where every FD value is made.

    The values are ``op.quotients``, summed in ``np.longdouble``: the
    quotient cancels terms of size ||A|| down to the smallest eigenvalues,
    which float64 sums leave up to 1.2e-11 relative off (measured on the
    96^2 and 128^2 blocks); the extended sums are within 5.9e-15 of the exact
    quotient of the same float vector (measured on the lowest, second and
    top vectors of every block of the 128^2 square and the 72^2 and 96^2
    grids of 1 x 1.65).  A residual is judged in units of ||A||_inf, against
    which float64 rounding is small, so it is formed in float64 and bounded
    above with its rounding (``_residual_bounds``).
    Each residual ||A v - lambda v||_2 must stay within
    RESIDUAL_TOL ||A||_inf; for symmetric A a true eigenvalue then lies
    within it of each value.  An inertia count at sigma = ``_inertia_shift``
    of lambda_k (``op.count_below``) must find exactly as many eigenvalues
    below sigma as were returned: a copy of a multiple eigenvalue that the
    solve dropped shows as one count too many.  A block counts by
    Haynsworth inertia additivity on its sine form, the count of the exact
    operator, whose low eigenvalues lie within 6.3e-10 relative (measured on
    128^2 grids) of the assembled matrix's, inside sigma's 1e-8 offset below
    lambda_k; were the offset ever crossed, on far finer grids, the counts
    would disagree and raise, not pass.
    """
    values = op.quotients(vectors)
    residuals = _residual_bounds(op, vectors, values)
    order = np.argsort(values, kind="stable")
    values, vectors, residuals = values[order], vectors[:, order], residuals[order]
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
    return values, vectors


# ----------------------------------------------------------------------------
# The clamped spectrum on a grid and its Richardson ladder
# ----------------------------------------------------------------------------

def _initial_block_modes(k: int) -> int:
    """Modes first asked of each parity block for k merged values: a quarter
    of k and a margin for the blocks that are even across a mirror line,
    which hold more of the low modes (measured need: at most k/4 + 6 for
    k <= 400 on squares and 1 x 1.3..1.65 rectangles)."""
    return k // 4 + math.isqrt(k) // 2 + 2


def fd_grid(dom: DomainSpec, n: int, k: int) -> Grid2D:
    """The n x n grid of a k-mode ``clamped_spectrum_fd`` solve on ``dom``;
    ``InputError`` unless n <= MAX_FD_GRID, 1 <= k <= min(n^2, MAX_FD_MODES),
    the aspect ratio is at most MAX_FD_ASPECT and ``Grid2D`` takes it."""
    if n > MAX_FD_GRID:
        raise InputError(f"grid n={n} above MAX_FD_GRID={MAX_FD_GRID}")
    if max(dom.lengths) > MAX_FD_ASPECT * min(dom.lengths):
        raise InputError(f"{dom.label()} is longer than MAX_FD_ASPECT={MAX_FD_ASPECT} widths")
    if not 1 <= k <= min(n * n, MAX_FD_MODES):
        raise InputError(f"k={k} outside 1..{min(n * n, MAX_FD_MODES)}")
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
    On a square the mirror x <-> y maps the even-odd block onto the odd-even
    block, which is why every lambda_mn = lambda_nm is double.  When
    ``_is_mirror_twin`` finds the assembled odd-even block equal to the
    even-odd one with x and y swapped (equal n and h, and ``centre`` equal to
    the transpose bit for bit), the odd-even block is not solved: the
    even-odd values stand for both, in the first pass and in the coverage
    loop, so each such double is a bit-identical pair.  The two blocks are
    one matrix up to a permutation, so the residual bound, inertia count and
    inertia floor of one hold for the other.
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
    twin = _is_mirror_twin(blocks[1], blocks[2])
    if twin:
        del blocks[2]
    values = [smallest_eigs(op, min(_initial_block_modes(k), op.dim))[0] for op in blocks]
    while True:
        merged = np.sort(np.concatenate(values + [values[1]] if twin else values))
        kth = merged[k - 1] if len(merged) >= k else math.inf
        short = [i for i, op in enumerate(blocks)
                 if len(values[i]) < op.dim and _inertia_floor(op, values[i][-1]) <= kth]
        if not short:
            return Spectrum(tuple(float(v) for v in merged[:k]))
        for i in short:
            values[i] = smallest_eigs(blocks[i], min(2 * len(values[i]), blocks[i].dim))[0]


def _is_mirror_twin(even_odd: DiscreteOperator, odd_even: DiscreteOperator) -> bool:
    """Whether the odd-even block is the even-odd block with x and y swapped,
    the same matrix up to a permutation of its unknowns and so of the same
    spectrum.  On a square grid (equal n and h) the two blocks are built from
    the same two folded factors, and every coupling from them by commutative
    products and sums; only ``centre`` adds its x and y terms in a fixed
    x-then-y order, so it is compared bit for bit with the transpose."""
    grid = even_odd.grid
    return (grid.nx == grid.ny and grid.hx == grid.hy
            and np.array_equal(odd_even.centre.reshape(odd_even.form.diag.shape),
                               even_odd.centre.reshape(even_odd.form.diag.shape).T))


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


def ladder_modes(dom: DomainSpec, n: int) -> int:
    """The most modes a Richardson ladder on grids n and 2n over ``dom``
    resolves: n^2 / (LADDER_POINTS_PER_MODE A), A = max(L)/min(L).  Past it,
    as measured, ``checks.comparison_rows`` rows that hold came out false."""
    return int(n * n * min(dom.lengths) / (LADDER_POINTS_PER_MODE * max(dom.lengths)))
