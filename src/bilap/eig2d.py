"""Finite-difference eigensolvers on rectangles.

The Dirichlet Laplacian uses the 5-point stencil; the clamped fourth-order
operator is its 13-point square plus the ghost-reflection correction
u_{-1} = u_{1} that encodes a vanishing normal derivative.  The correction
only touches diagonal entries (+2/hx^4 per adjacent edge in x, +2/hy^4 in
y), so the clamped matrix is exactly the squared Laplacian plus a
nonnegative diagonal; entrywise domination of the squared spectrum is
therefore an identity on every grid.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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
    "DENSE_LIMIT",
    "laplacian_spectrum_exact",
    "navier1_spectrum_exact",
    "neumann_laplacian_spectrum_exact",
    "assemble_dirichlet_laplacian",
    "assemble_clamped_bilaplacian",
    "smallest_eigs",
    "form_energies",
    "discrete_laplacian_eigenvalues",
    "richardson_extrapolate",
    "richardson_ladder",
    "comparison_report",
]

# Dense symmetric solves serve operators up to this many unknowns, and any
# solve asking for more than a third of the spectrum (3 k > dim), where
# ARPACK needs nearly the whole space; every other solve goes through the
# deterministic shift-invert Lanczos path.  Both paths are certified.
DENSE_LIMIT = 600
# Each eigenpair must satisfy ||A v - lambda v||_2 <= RESIDUAL_TOL ||A||_inf
# (a backward error; measured at most 6e-15 on the clamped grids 32^2..128^2).
RESIDUAL_TOL = 1e-12


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
    grid: Grid2D
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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

def assemble_dirichlet_laplacian(grid: Grid2D) -> DiscreteOperator:
    """Standard 5-point stencil with zero boundary values."""
    ix = 1.0 / grid.hx ** 2
    iy = 1.0 / grid.hy ** 2
    dx = sp.diags([2.0 * ix * np.ones(grid.nx), -ix * np.ones(grid.nx - 1),
                   -ix * np.ones(grid.nx - 1)], [0, 1, -1])
    dy = sp.diags([2.0 * iy * np.ones(grid.ny), -iy * np.ones(grid.ny - 1),
                   -iy * np.ones(grid.ny - 1)], [0, 1, -1])
    mat = sp.kronsum(dy, dx).tocsr()  # rows ordered x-major: index = i*ny + j
    return DiscreteOperator(grid, mat)


def assemble_clamped_bilaplacian(grid: Grid2D) -> DiscreteOperator:
    """13-point squared-Laplacian stencil with ghost reflection u_{-1} = u_1.

    Equals L @ L plus a diagonal correction of +2/hx^4 on columns adjacent
    to a vertical edge and +2/hy^4 adjacent to a horizontal edge; symmetric
    positive semidefinite by construction.
    """
    lap = assemble_dirichlet_laplacian(grid).matrix
    nx, ny = grid.nx, grid.ny
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    corr = (2.0 / grid.hx ** 4 * ((ii == 0) + (ii == nx - 1))
            + 2.0 / grid.hy ** 4 * ((jj == 0) + (jj == ny - 1)))
    mat = (lap @ lap + sp.diags(corr.ravel())).tocsr()
    # squared-sparse products can carry eps-size asymmetry; symmetrise exactly
    mat = ((mat + mat.T) * 0.5).tocsr()
    return DiscreteOperator(grid, mat)


def discrete_laplacian_eigenvalues(grid: Grid2D) -> np.ndarray:
    """Closed-form spectrum of the 5-point operator (solver oracle)."""
    nx, ny = grid.nx, grid.ny
    sx = 4.0 / grid.hx ** 2 * np.sin(np.arange(1, nx + 1) * math.pi / (2 * (nx + 1))) ** 2
    sy = 4.0 / grid.hy ** 2 * np.sin(np.arange(1, ny + 1) * math.pi / (2 * (ny + 1))) ** 2
    return np.sort((sx[:, None] + sy[None, :]).ravel())


# ----------------------------------------------------------------------------
# Solving
# ----------------------------------------------------------------------------

def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """First significantly nonzero component of each vector made positive."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        v = out[:, col]
        nz = np.nonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0]
        if len(nz) and v[nz[0]] < 0.0:
            out[:, col] = -v
    return out


def smallest_eigs(op: DiscreteOperator, k: int,
                  dense_limit: int = DENSE_LIMIT) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of the symmetric operator, certified.

    Up to ``dense_limit`` unknowns, or when 3 k > dim, this is a dense LAPACK
    subset solve; otherwise a deterministic shift-invert Lanczos (fixed start
    vector).  Either result must pass ``_certify`` (residual bound and
    inertia count) or ``RuntimeError`` is raised.  Values ascend; vectors are
    orthonormal with the first significant component positive.
    """
    if k < 1 or k > op.dim:
        raise ValueError(f"k={k} outside 1..{op.dim}")
    defect = op.symmetry_defect()
    if defect > 1e-12 * max(1.0, op.norm_inf()):
        raise ValueError(f"operator is not symmetric (defect {defect:.3e})")

    if op.dim <= dense_limit or 3 * k > op.dim:
        dense = op.matrix.toarray()
        values, vectors = scipy.linalg.eigh(dense, subset_by_index=[0, k - 1])
    else:
        v0 = np.full(op.dim, 1.0 / math.sqrt(op.dim))
        values, vectors = spla.eigsh(op.matrix.tocsc(), k=k, sigma=0.0,
                                     which="LM", v0=v0, tol=0.0)
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    _certify(op, values, vectors)
    return values, _fix_signs(vectors)


def _certify(op: DiscreteOperator, values: np.ndarray, vectors: np.ndarray) -> None:
    """Raise ``RuntimeError`` unless the ascending eigenpairs are the smallest.

    Each residual ||A v - lambda v||_2 must stay within RESIDUAL_TOL ||A||_inf;
    for symmetric A a true eigenvalue then lies within it of each value.  A
    Sylvester inertia count (Parlett, The Symmetric Eigenvalue Problem) at
    sigma just below lambda_k, by more than its residual and a relative 1e-8
    that takes in numerically split copies, must find exactly as many
    eigenvalues of A below sigma as were returned: a copy of a multiple
    eigenvalue that Lanczos dropped shows as one count too many.
    """
    residuals = np.linalg.norm(op.matrix @ vectors - vectors * values, axis=0)
    bound = RESIDUAL_TOL * op.norm_inf()
    if residuals.max() > bound:
        j = int(residuals.argmax())
        raise RuntimeError(f"eigenpair {j + 1} residual {residuals[j]:.3e} "
                           f"above {bound:.3e} on the {op.grid.nx}x{op.grid.ny} grid")
    sigma = values[-1] - residuals[-1] - 1e-8 * abs(values[-1])
    shifted = (op.matrix - sigma * sp.identity(op.dim, format="csr")).tocsc()
    lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("inertia count needs a symmetric permutation")
    below = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    returned = int(np.count_nonzero(values < sigma))
    if below != returned:
        raise RuntimeError(f"{below} eigenvalues lie below {sigma:.6e} but the solve "
                           f"returned {returned} on the {op.grid.nx}x{op.grid.ny} grid")


def _trapz2(arr: np.ndarray, dx: float, dy: float) -> float:
    return float(np.trapezoid(np.trapezoid(arr, dx=dy, axis=1), dx=dx))


def form_energies(vector: np.ndarray, grid: Grid2D,
                  boundary: str = "dirichlet") -> tuple[float, float, float]:
    """(gradient, Laplacian, Hessian) quadratic-form energies of a grid vector.

    ``boundary="dirichlet"`` extends the samples by their zero boundary
    values, takes central differences (second-order one-sided at the outer
    ring) and integrates by the trapezoid rule over the closed rectangle;
    for vectors that vanish on the boundary this recovers the continuum
    energies to O(h^2).  ``boundary="free"`` keeps only the given samples
    with one-sided differences at the ring, so constant vectors (the
    Neumann-kernel analog) have exactly zero energy.
    """
    u = np.asarray(vector, dtype=float).reshape(grid.nx, grid.ny)
    hx, hy = grid.hx, grid.hy
    if boundary == "dirichlet":
        field = np.zeros((grid.nx + 2, grid.ny + 2))
        field[1:-1, 1:-1] = u
    elif boundary == "free":
        field = u
    else:
        raise ValueError(f"unknown boundary treatment {boundary!r}")
    if min(field.shape) < 3:
        raise ValueError("need at least 3 samples per direction")

    ux, uy = np.gradient(field, hx, hy, edge_order=2)
    uxx, uxy = np.gradient(ux, hx, hy, edge_order=2)
    _, uyy = np.gradient(uy, hx, hy, edge_order=2)

    grad = _trapz2(ux ** 2 + uy ** 2, hx, hy)
    lap = _trapz2((uxx + uyy) ** 2, hx, hy)
    hess = _trapz2(uxx ** 2 + 2.0 * uxy ** 2 + uyy ** 2, hx, hy)
    return grad, lap, hess


# ----------------------------------------------------------------------------
# Refinement studies and the eigenvalue comparison chain
# ----------------------------------------------------------------------------

def richardson_extrapolate(coarse: float, mid: float, fine: float,
                           ratio: float = 2.0, order: float = 2.0) -> tuple[float, float]:
    """(limit, band) from three refinements; band = 3 * |fine - mid|."""
    gain = ratio ** order - 1.0
    limit = fine + (fine - mid) / gain
    return limit, 3.0 * abs(fine - mid)


def clamped_spectrum_fd(dom: DomainSpec, n: int, k: int) -> Spectrum:
    """First k clamped eigenvalues on an n x n interior grid, certified by
    ``smallest_eigs``.  The first values of a larger solve agree with a
    k-mode solve to 1e-10 relative, so callers may slice one solve; the
    spectrum cache, which keeps the values bit for bit, is keyed on the
    exact (domain, n, k) that was solved."""
    grid = Grid2D(n, n, dom)
    op = assemble_clamped_bilaplacian(grid)
    values, _ = smallest_eigs(op, k)
    return Spectrum(tuple(float(v) for v in values))


def richardson_ladder(spectra: Sequence[Spectrum],
                      count: int) -> tuple[list[float], list[float]]:
    """(limits, bands) of the first ``count`` modes of three refinements,
    given coarse to fine: the error budget of every FD-derived row."""
    limits, bands = [], []
    for j in range(1, count + 1):
        limit, band = richardson_extrapolate(*(spec.value(j) for spec in spectra))
        limits.append(limit)
        bands.append(band)
    return limits, bands


def comparison_report(dom: DomainSpec, limits: Sequence[float], bands: Sequence[float],
                      n_max_1d: int = 50) -> list[BoundReport]:
    """Eigenvalue comparison chain: 2D against Richardson bands, 1D exactly.

    2D rows check lambda_j^2 <= Lambda_j (and its a = 1 restatement) for
    j = 1..len(limits) against the clamped ``limits`` lowered by their
    ``bands``, as ``richardson_ladder`` gives them.  1D rows run the exact chain
    Lambda^(2,3) <= Lambda^(1,3) = mu^2 and lambda^2 = Lambda^(0,2) <=
    Lambda^(0,1) with zero tolerance.
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

    spec_01 = spectrum_1d((0, 1), n_max_1d)
    spec_02 = spectrum_1d((0, 2), n_max_1d)
    spec_13 = spectrum_1d((1, 3), n_max_1d)
    spec_23 = spectrum_1d((2, 3), n_max_1d)
    for j in range(1, n_max_1d + 1):
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
