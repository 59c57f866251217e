"""One-dimensional spatial discretization.

Uniform grids with Dirichlet or Neumann boundary conditions, second-order
finite-difference Laplacians, Helmholtz solves through the stored
eigendecomposition, and the spectral fractional-power norms that realize the
interpolation scale: the H^s-type norm of a field u is

    ( sum_k (shift - lambda_k)^s <u, q_k>^2 * spacing )^(1/2)

with (lambda_k, q_k) the eigenpairs of the discrete Laplacian.  For the
self-adjoint base operator these norms coincide with the complex
interpolation scale between the discrete L2 and H2 spaces.

Everything here is immutable after construction and safe to share between
threads; all operations are pure functions of their inputs.  Matrices are
stored dense, although the Laplacian and the first difference are
tridiagonal (``band_stack`` forms a dense stack from three diagonals);
node counts above ``MAX_NODES`` are rejected.

The per-state operations (Helmholtz solve, fractional norm, matrix
exponential) take one field (n,) or matrix (n, n), or a stack (..., n) /
(..., n, n) of them, one per time node.  A stack is one call with one
implementation: the modal transforms are stacked matrix-vector products, so
every slice equals the single-state call bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericalError

MAX_NODES = 256

# Cap on t times the logarithmic 1-norm of m: ||exp(t*m)||_1 <= exp(t*mu_1(m)),
# and e^700 sits just below float64 overflow (e^709).  A plain norm cap would
# spuriously reject stiff dissipative generators whose exponential is tame.
EXP_NORM_CAP = 700.0


def _log_norm_1(m: np.ndarray) -> np.ndarray:
    """Logarithmic 1-norm mu_1(m) = max_j (m_jj + sum_{i != j} |m_ij|), one
    value per matrix of a stack (..., n, n)."""
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    col = np.abs(m).sum(axis=-2) - np.abs(diag) + diag
    return col.max(axis=-1)


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for m (n, n) or (..., n, n) and x (n,) or (..., n), broadcast
    over the leading axes as one matrix-vector product per slice, so that
    each slice equals the single product bit for bit (a matrix-matrix
    product would sum in another order)."""
    return np.matmul(m, x[..., None])[..., 0]


def band_stack(sub: np.ndarray, main: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Zeroed (..., n, n) stack with the given (..., n-1), (..., n) and
    (..., n-1) diagonals, written as flat strided views."""
    n = main.shape[-1]
    out = np.zeros(main.shape + (n,))
    flat = out.reshape(main.shape[:-1] + (n * n,))
    for start, values in ((n, sub), (0, main), (1, sup)):
        flat[..., start :: n + 1] = values
    return out


def first_node(mask: np.ndarray) -> tuple | None:
    """Leading-axes index of the first set entry of a per-node mask (C
    order), or None when none is set; () for a set 0-d mask."""
    flat = np.flatnonzero(mask)
    if flat.size == 0:
        return None
    return tuple(int(i) for i in np.unravel_index(flat[0], np.shape(mask)))


def node_label(index: tuple) -> str:
    """Message prefix naming a node of a stack; empty for a single state."""
    if not index:
        return ""
    return f"node {index[0] if len(index) == 1 else index}: "


class BoundaryKind(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid of interior nodes.

    Dirichlet grids place n interior nodes at i*h, i = 1..n, with
    h = length/(n+1); Neumann grids are cell-centered with n cells of width
    h = length/n and nodes at (i + 1/2)*h.
    """

    n: int
    length: float
    bc: BoundaryKind

    @property
    def spacing(self) -> float:
        if self.bc is BoundaryKind.DIRICHLET:
            return self.length / (self.n + 1)
        return self.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        h = self.spacing
        if self.bc is BoundaryKind.DIRICHLET:
            return h * np.arange(1, self.n + 1)
        return h * (np.arange(self.n) + 0.5)

    @property
    def face_coords(self) -> np.ndarray:
        """Coordinates of the flux faces used by divergence-form assembly.

        Neumann: the n-1 interior faces (domain faces carry zero flux).
        Dirichlet: all n+1 faces including the two boundary-adjacent ones.
        """
        h = self.spacing
        if self.bc is BoundaryKind.DIRICHLET:
            return h * (np.arange(self.n + 1) + 0.5)
        return h * np.arange(1, self.n)


def build_grid(n: int, length: float, bc: BoundaryKind) -> Grid1D:
    if n < 2:
        raise ConfigurationError(f"[grid] n: grid needs at least 2 nodes, got n={n}")
    if n > MAX_NODES:
        raise ConfigurationError(
            f"[grid] n: dense-matrix grids are capped at n={MAX_NODES}, got n={n}"
        )
    if length <= 0:
        raise ConfigurationError(f"[grid] length: domain length must be positive, got {length}")
    return Grid1D(n=int(n), length=float(length), bc=bc)


@dataclass(frozen=True)
class BaseOperator:
    """Discrete Laplacian with its eigendecomposition.

    ``eigenvalues`` are sorted descending (the Neumann constant mode, when
    present, comes first); ``eigenvectors`` holds the matching orthonormal
    eigenvectors as columns.
    """

    grid: Grid1D
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def assemble_laplacian(grid: Grid1D) -> BaseOperator:
    """Second-order finite-difference Laplacian with the grid's boundary
    condition (Dirichlet: eliminated boundary nodes; Neumann: cell-centered
    ghost reflection).  Both variants are symmetric."""
    n, h = grid.n, grid.spacing
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = -2.0
    lap[idx[:-1], idx[:-1] + 1] = 1.0
    lap[idx[1:], idx[1:] - 1] = 1.0
    if grid.bc is BoundaryKind.NEUMANN:
        lap[0, 0] = -1.0
        lap[-1, -1] = -1.0
    lap /= h * h
    eigvals, eigvecs = np.linalg.eigh(lap)
    order = np.argsort(eigvals)[::-1]
    return BaseOperator(
        grid=grid,
        matrix=lap,
        eigenvalues=eigvals[order],
        eigenvectors=eigvecs[:, order],
    )


def first_difference(grid: Grid1D) -> np.ndarray:
    """Centered first-difference matrix with the grid's boundary closure
    (ghost reflection for Neumann, ghost zeros for Dirichlet)."""
    n, h = grid.n, grid.spacing
    d = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    d[idx, idx + 1] = 0.5
    d[idx, idx - 1] = -0.5
    d[0, 1] = 0.5
    d[-1, -2] = -0.5
    if grid.bc is BoundaryKind.NEUMANN:
        d[0, 0] = -0.5
        d[-1, -1] = 0.5
    return d / h


def helmholtz_solve(base: BaseOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - Laplacian) v = rhs through the stored eigendecomposition.

    ``rhs`` is one field (n,) or a stack (..., n); each slice of the result
    equals the single-field solve bit for bit.  Always solvable: the
    eigenvalues of I - Laplacian are 1 - lambda_k >= 1.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim < 1 or rhs.shape[-1] != base.grid.n:
        raise ValueError(f"rhs must have length {base.grid.n}, got shape {rhs.shape}")
    coeffs = matvec(base.eigenvectors.T, rhs)
    return matvec(base.eigenvectors, coeffs / (1.0 - base.eigenvalues))


@dataclass(frozen=True)
class SobolevScale:
    """Spectral realization of the H^s scale through powers of (shift - Laplacian)."""

    base: BaseOperator
    shift: float = 1.0

    def __post_init__(self):
        if np.any(self.shift - self.base.eigenvalues <= 0):
            raise ConfigurationError(
                f"shift={self.shift} does not dominate the spectrum; fractional powers undefined"
            )


def sobolev_norm(scale: SobolevScale, field: np.ndarray, s: float) -> float | np.ndarray:
    """Discrete H^s-type norm; s = 0 recovers the plain discrete L2 norm.

    One field (n,) gives a float; a stack (..., n) gives one norm per field,
    shape (...), each equal to the single-field call bit for bit.
    """
    if not -2.0 <= s <= 4.0:
        raise ValueError(f"norm order s must lie in [-2, 4], got {s}")
    field = np.asarray(field, dtype=float)
    if field.ndim < 1 or field.shape[-1] != scale.base.grid.n:
        raise ValueError(f"field must have length {scale.base.grid.n}")
    coeffs = matvec(scale.base.eigenvectors.T, field)
    weights = (scale.shift - scale.base.eigenvalues) ** s
    norms = np.sqrt(np.sum(weights * coeffs**2, axis=-1) * scale.base.grid.spacing)
    return float(norms) if norms.ndim == 0 else norms


def matrix_exponential(m: np.ndarray, t: float) -> np.ndarray:
    """exp(t*m) by scaling-and-squaring with a Pade kernel; exact identity at t = 0.

    ``m`` is one square matrix (n, n) or a stack (..., n, n); SciPy's
    stacked expm runs the same algorithm on each slice, so every slice
    equals the single-matrix call bit for bit.  Raises NumericalError when t
    times the logarithmic 1-norm of any slice exceeds EXP_NORM_CAP, where
    entries of the result would overflow float64, naming the first such node.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    if t < 0:
        raise ValueError(f"elapsed time must be nonnegative, got t={t}")
    if t == 0.0:
        return np.broadcast_to(np.eye(m.shape[-1]), m.shape).copy()
    growth = t * _log_norm_1(m)
    node = first_node(growth > EXP_NORM_CAP)
    if node is not None:
        raise NumericalError(
            f"{node_label(node)}t*mu_1(m) = {growth[node]:.3g} exceeds the overflow cap "
            f"{EXP_NORM_CAP}"
        )
    return scipy.linalg.expm(t * m)


def smallest_singular_value(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False)[-1])
