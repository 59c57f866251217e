"""One-dimensional spatial discretization.

Uniform grids with Dirichlet or Neumann boundary conditions, second-order
finite-difference Laplacians, Helmholtz solves through the stored
eigendecomposition, and the spectral fractional-power norms that realize the
interpolation scale: the H^s-type norm of a field u is

    ( sum_k (1 - lambda_k)^s <u, q_k>^2 * spacing )^(1/2)

with (lambda_k, q_k) the eigenpairs of the discrete Laplacian, read from
the ``BaseOperator`` directly; every 1 - lambda_k >= 1, so each power is
defined.  For the self-adjoint base operator these norms coincide with the
complex interpolation scale between the discrete L2 and H2 spaces.

Everything here is immutable after construction and safe to share between
threads; all operations are pure functions of their inputs.  The Laplacian
and the first difference are tridiagonal and held as their three diagonals
(sub, main, sup), which the models read and ``band_matvec`` multiplies by.
``band_stack`` forms a dense stack from three diagonals where one is needed:
the eigendecomposition's input and the kernel series' matrix exponential.
Node counts above ``MAX_NODES`` are rejected.  ``matrix_exponential`` is
Higham's (2005) scaling-and-squaring algorithm in NumPy at Pade degree 13,
each slice's scaling read from its 1-norm, evaluated over a whole stack at
once; nothing here imports SciPy.

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


def band_matvec(bands: tuple, x: np.ndarray) -> np.ndarray:
    """The product of the tridiagonal matrix with (sub, main, sup) diagonals
    of shapes (n-1,), (n,), (n-1,) and one state x (n,) or a stack (..., n),
    O(n) per state; every slice equals the single-state call bit for bit."""
    sub, main, sup = bands
    out = main * x
    out[..., 1:] += sub * x[..., :-1]
    out[..., :-1] += sup * x[..., 1:]
    return out


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


def build_grid(n: int, length: float, bc: BoundaryKind) -> Grid1D:
    if n < 2:
        raise ConfigurationError(f"[grid] n: grid needs at least 2 nodes, got n={n}")
    if n > MAX_NODES:
        raise ConfigurationError(
            f"[grid] n: dense-matrix grids are capped at n={MAX_NODES}, got n={n}"
        )
    if length <= 0:
        raise ConfigurationError(f"[grid] length: domain length must be positive, got {length}")
    grid = Grid1D(n=int(n), length=float(length), bc=bc)
    h2 = grid.spacing * grid.spacing  # the Laplacian's largest entry is 2/h^2
    if h2 == 0.0 or 2.0 / h2 == float("inf"):  # Python floats: inf on overflow
        raise ConfigurationError(
            f"[grid] length: {length} is too short for n={n}: the Laplacian's diagonals overflow"
        )
    return grid


@dataclass(frozen=True)
class BaseOperator:
    """Discrete Laplacian as its (sub, main, sup) diagonals, with its
    eigendecomposition.

    ``eigenvalues`` are sorted descending (the Neumann constant mode, when
    present, comes first); ``eigenvectors`` holds the matching orthonormal
    eigenvectors as columns.
    """

    grid: Grid1D
    bands: tuple
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def laplacian_stencil(grid: Grid1D) -> tuple:
    """(sub, main, sup) diagonals of the Laplacian before its 1/h^2 factor:
    ones off the diagonal, -2 on it, and -1 at the two ends of a Neumann
    grid."""
    n = grid.n
    main = np.full(n, -2.0)
    if grid.bc is BoundaryKind.NEUMANN:
        main[[0, -1]] = -1.0
    return np.ones(n - 1), main, np.ones(n - 1)


def assemble_laplacian(grid: Grid1D) -> BaseOperator:
    """Second-order finite-difference Laplacian with the grid's boundary
    condition (Dirichlet: eliminated boundary nodes; Neumann: cell-centered
    ghost reflection).  Both variants are symmetric."""
    h = grid.spacing
    bands = tuple(band / (h * h) for band in laplacian_stencil(grid))
    eigvals, eigvecs = np.linalg.eigh(band_stack(*bands))
    order = np.argsort(eigvals)[::-1]
    return BaseOperator(
        grid=grid,
        bands=bands,
        eigenvalues=eigvals[order],
        eigenvectors=eigvecs[:, order],
    )


def first_difference(grid: Grid1D) -> tuple:
    """(sub, main, sup) diagonals of the centered first difference with the
    grid's boundary closure (ghost reflection for Neumann, ghost zeros for
    Dirichlet)."""
    n, h = grid.n, grid.spacing
    main = np.zeros(n)
    if grid.bc is BoundaryKind.NEUMANN:
        main[[0, -1]] = -0.5, 0.5
    return tuple(band / h for band in (np.full(n - 1, -0.5), main, np.full(n - 1, 0.5)))


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


def modal_weights(base: BaseOperator, s: float) -> np.ndarray:
    """The weights (1 - lambda_k)^s of the H^s-type norm, one per mode."""
    return (1.0 - base.eigenvalues) ** s


def modal_norm(base: BaseOperator, coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The H^s-type norm of the fields with modal coefficients ``coeffs``
    (..., n) in the eigenbasis, one norm per field, shape (...), from the
    order's :func:`modal_weights`."""
    return np.sqrt(np.sum(weights * coeffs**2, axis=-1) * base.grid.spacing)


def sobolev_norm(base: BaseOperator, field: np.ndarray, s: float) -> float | np.ndarray:
    """Discrete H^s-type norm; s = 0 recovers the plain discrete L2 norm.

    One field (n,) gives a float; a stack (..., n) gives one norm per field,
    shape (...), each equal to the single-field call bit for bit.
    """
    if not -2.0 <= s <= 4.0:
        raise ValueError(f"norm order s must lie in [-2, 4], got {s}")
    field = np.asarray(field, dtype=float)
    if field.ndim < 1 or field.shape[-1] != base.grid.n:
        raise ValueError(f"field must have length {base.grid.n}")
    norms = modal_norm(base, matvec(base.eigenvectors.T, field), modal_weights(base, s))
    return float(norms) if norms.ndim == 0 else norms


# Higham (2005), "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26: the bound theta_13 on ||A||_1
# below which the degree-13 Pade approximant r_13(A) meets unit roundoff, and
# the coefficients b_0..b_13 of r_13 = (V - U)^-1 (V + U).
_THETA_13 = 5.371920351148152
_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
      33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)

# A stack is exponentiated in this many chunks of slices (fewer when it has
# fewer slices).  A chunk's powers and Pade terms take about eight matrices
# per slice, so about two copies of the result: the kernel series' frozen
# steps then peak near three copies, below its sweep's peak of five
# (``evolution.series_peak_bytes``).
EXPM_CHUNKS = 4


def _add_diagonal(a: np.ndarray, value: float) -> np.ndarray:
    """a + value * I for a stack (C, n, n), in place."""
    np.einsum("...ii->...i", a)[...] += value
    return a


def _scaling(norm: np.ndarray) -> np.ndarray:
    """The least s >= 0 with norm / 2^s <= theta_13, one per 1-norm."""
    with np.errstate(divide="ignore"):
        least = np.ceil(np.log2(norm / _THETA_13))
    s = np.where(least > 0, least, 0).astype(int)
    # log2 may round a norm just above 2^s theta_13 down onto s: test exactly.
    return s + (np.ldexp(_THETA_13, s) < norm)


def _rows(mask: np.ndarray):
    """Index of the set entries of a mask: all of them as a slice (a view
    when indexing), else as an index array (a copy)."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _expm_chunk(a: np.ndarray, out: np.ndarray) -> None:
    """Write exp(A) for each matrix of a stack ``a`` (C, n, n) into ``out``
    (Higham 2005, degree 13): each slice is scaled by 2^-s, s read from its
    exact 1-norm, r_13 is evaluated over the whole chunk with one stacked
    solve, and each slice is squared s times.  Overwrites ``a``."""
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    scale = _scaling(norm)
    x = np.ldexp(a, -scale[:, None, None], out=a)
    x2 = np.matmul(x, x)
    x4 = np.matmul(x2, x2)
    x6 = np.matmul(x4, x2)
    u = np.matmul(x6, _B[13] * x6 + _B[11] * x4 + _B[9] * x2)
    v = np.matmul(x6, _B[12] * x6 + _B[10] * x4 + _B[8] * x2)
    for k, p in ((3, x6), (2, x4), (1, x2)):
        u += _B[2 * k + 1] * p
        v += _B[2 * k] * p
    del x2, x4, x6
    u = np.matmul(x, _add_diagonal(u, _B[1]))
    _add_diagonal(v, _B[0])
    numerator = u + v
    v -= u
    del u
    out[...] = np.linalg.solve(v, numerator)
    # The solve rounds r_13(0) = I off by an ulp (b_0 is 6.5e16).
    out[norm == 0] = np.eye(a.shape[-1])
    for k in range(scale.max(initial=0)):
        rows = _rows(scale > k)
        part = out[rows]
        out[rows] = np.matmul(part, part)


def matrix_exponential(m: np.ndarray, t: float) -> np.ndarray:
    """exp(t*m) by scaling and squaring with the degree-13 Pade kernel, the
    scaling of each slice of t*m read from its exact 1-norm (Higham 2005).

    ``m`` is one square matrix (n, n) or a stack (..., n, n).  The stack is
    evaluated in ``EXPM_CHUNKS`` chunks, each with stacked products and one
    stacked solve, every slice scaled and squared by its own s, so that each
    equals the single-matrix call bit for bit.  Raises NumericalError when t
    times the logarithmic 1-norm of any slice exceeds EXP_NORM_CAP, where
    entries of the result would overflow float64, naming the first such node
    by its index in the stack.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    if t < 0:
        raise ValueError(f"elapsed time must be nonnegative, got t={t}")
    growth = t * _log_norm_1(m)
    over = np.argwhere(growth > EXP_NORM_CAP)
    if len(over):
        node = tuple(int(i) for i in over[0])  # () for a single matrix
        label = f"node {node[0] if len(node) == 1 else node}: " if node else ""
        raise NumericalError(
            f"{label}t*mu_1(m) = {growth[node]:.3g} exceeds the overflow cap {EXP_NORM_CAP}"
        )
    n = m.shape[-1]
    flat = m.reshape(-1, n, n)
    out = np.empty(flat.shape)
    size = max(1, -(-flat.shape[0] // EXPM_CHUNKS))
    for lo in range(0, flat.shape[0], size):
        _expm_chunk(t * flat[lo : lo + size], out[lo : lo + size])
    return out.reshape(m.shape)


def smallest_singular_value(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False)[-1])
