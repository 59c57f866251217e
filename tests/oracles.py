"""Test oracles: the full propagator tables, the dense kernel series and the
assembled averaging operator, with the probes and diagnostics built on them.

The package's solver runs the variation-of-constants map on affine
Crank-Nicolson steps (:class:`avgrec.evolution.StepFactors`) or frozen steps
(:func:`avgrec.evolution.evolution_series`) and forms no table.  The
definitions here build the same quantities the long way, so that the tests
can check the recursions against them:

* :class:`PropagatorTable` holds every U(t_i, t_j), O(K^2 n^2) memory, from
  composed Crank-Nicolson factors (:func:`evolution_stepper`) or from the
  kernel series U = a + a*w on dense (K+1)^2 tables (:func:`series_table`);
  its ``sweep`` serves, from the column and the Duhamel sums, the values
  that the package's sweeps observe and rebuild;
* :func:`affine_chain` chains the stepper's affine steps, X_{j+1} = T_j X_j,
  whose blocks are the column and the left sums: :class:`StepChain` sweeps
  the package's eliminated steps through it, and
  :func:`dense_step_factors` the steps of dense factors;
* :func:`assemble_phi`, :func:`apply_psi` and :func:`initial_state_map`
  form Phi, Psi f and Xi on any propagation, and the probes
  (:func:`phi_lipschitz_probe`, :func:`semigroup_perturbation_check`,
  :func:`growth_estimate_probe`, ...) measure the paper's estimates;
* the dense forms of what the package holds as three diagonals: the
  Laplacian and the first difference (:func:`dense_laplacian`,
  :func:`dense_first_difference`), a generator path of any (K+1, n, n)
  stack (:class:`DensePath`), its one-step factors by a stacked dense LU
  (:func:`dense_factors`), a model's dense A(u) (:func:`dense_generator`)
  and the IMEX march by one dense solve per step
  (:func:`dense_forward_solve`);
* the IMEX march by one LAPACK gtsv call per step
  (:func:`gtsv_forward_solve`), which the package's scalar elimination
  must equal bit for bit;
* :class:`ShiftedModel` recentres a model at an equilibrium, and
  :class:`RDTermsModel` gives the reaction-diffusion model the variable
  face coefficient, weighted and nonlinear functionals, drift and
  zeroth-order terms that no config sets: its coefficients sit on the
  flux faces of :func:`face_coords`, and :func:`divergence_bands` is the
  flux-face assembly of d/dx (a d/dx) from them (the package's model has
  a constant in space and scales the Laplacian's stencil instead).

Every definition is written against the package's public and private
helpers and never called by the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from avgrec.averaging import (
    AveragingCondition,
    Variant,
    check_resolvent,
    data_shift,
    resolvent_matrix,
)
from avgrec import evolution
from avgrec.errors import NumericalError
from avgrec.evolution import (
    OperatorPath,
    PropagatorMethod,
    SweepValues,
    TimeGrid,
    _column_values,
)
from avgrec.models import (
    _BAND,
    Bands,
    ExponentBook,
    NonlocalRDModel,
    QuasilinearModel,
)
from avgrec.solver import Trajectory, _check_march_state
from avgrec.spatial import (
    BaseOperator,
    BoundaryKind,
    Grid1D,
    band_stack,
    first_difference,
    matrix_exponential,
    matvec,
    smallest_singular_value,
    sobolev_norm,
)


@dataclass(frozen=True, eq=False)
class DensePath:
    """A generator path held as its dense (K+1, n, n) stack, for tests whose
    generators are not tridiagonal.  It has the surface that
    :func:`avgrec.evolution.evolution_series` and the oracles here read
    (``grid``, ``dim``, ``holder_rho``, ``generators``); its stepper is
    :func:`dense_step_factors`."""

    grid: TimeGrid
    matrices: np.ndarray
    holder_rho: float

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        if m.ndim != 3 or m.shape[0] != self.grid.K + 1 or m.shape[1] != m.shape[2]:
            raise ValueError(f"need {self.grid.K + 1} square matrices, got shape {m.shape}")
        if not 0.0 < self.holder_rho < 1.0:
            raise ValueError(f"holder exponent must lie in (0,1), got {self.holder_rho}")
        object.__setattr__(self, "matrices", m)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def generators(self, nodes=slice(None)) -> np.ndarray:
        """The matrices of the ``nodes``, a view of the stack."""
        return self.matrices[nodes]


def banded_path(grid: TimeGrid, matrices: np.ndarray, holder_rho: float) -> OperatorPath:
    """The package's path of a dense (K+1, n, n) stack that is zero off its
    three central diagonals; the bands are views of the stack."""
    m = np.asarray(matrices, dtype=float)
    bands = tuple(np.diagonal(m, k, axis1=1, axis2=2) for k in (-1, 0, 1))
    if not np.array_equal(band_stack(*bands), m):
        raise ValueError("the stack has a nonzero entry off its three central diagonals")
    return OperatorPath(grid, bands, holder_rho)


def dense_factors(path) -> np.ndarray:
    """The one-step Crank-Nicolson factors of any path, from one stacked
    dense LU solve: the reference for the package's tridiagonal
    elimination."""
    h = path.grid.h
    eye, mats = np.eye(path.dim), path.generators()
    lhs = eye - 0.5 * h * mats[..., 1:, :, :]
    rhs = eye + 0.5 * h * mats[..., :-1, :, :]
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        # The stacked solve does not say which matrix failed; find the first.
        for j, matrix in enumerate(lhs):
            try:
                np.linalg.solve(matrix, eye)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular one-step matrix at node {j + 1}: {exc}") from exc
        raise


def stacked(path: OperatorPath) -> OperatorPath:
    """The stack of one row of a single path, on views of its bands: the
    stepper sweeps stacks."""
    return OperatorPath(path.grid, tuple(band[None] for band in path.bands), path.holder_rho)


def eliminated_factors(path: OperatorPath) -> np.ndarray:
    """The one-step factors S_j = U(t_{j+1}, t_j) of a path, (K, n, n), or
    of each path of a stack, with its leading axis: the package's
    elimination (:func:`avgrec.evolution._eliminated_steps`, looked up at
    call time) of the affine steps of no forcing."""
    single = path.bands[1].ndim == 2
    bands = stacked(path).bands if single else path.bands
    forcing = np.empty(bands[1].shape[:1] + (path.grid.K + 1, path.dim, 0))
    factors = evolution._eliminated_steps(bands, path.grid.h, forcing)
    return factors[0] if single else factors


def affine_chain(steps: np.ndarray) -> np.ndarray:
    """The chain of the affine steps T_j = [[S_j, S_j F_j], [0, I_r]] of R
    paths, shape (R, K, n+r, n+r), by the K-step loop

        X_0 = I,   X_{j+1} = T_j X_j,

    one stacked (n+r)-square product per step; shape (R, K+1, n+r, n+r).
    The top rows of X_i are [U(t_i, 0) | sum_{m<i} U(t_i, t_m) F_m], since
    S_j [U | H] + [0 | S_j F_j] = S_j [U | H + F_j]."""
    R, K, m, _ = steps.shape
    chain = np.empty((R, K + 1, m, m))
    chain[:, 0] = np.eye(m)
    for j in range(K):
        np.matmul(steps[:, j], chain[:, j], out=chain[:, j + 1])
    return chain


def stepper_column(path: OperatorPath) -> np.ndarray:
    """U(t_i, 0) of a single path, (K+1, n, n): the chain of the package's
    eliminated factors."""
    return affine_chain(eliminated_factors(stacked(path)))[0]


def rebuilt_column(prop, grid: TimeGrid, n: int) -> np.ndarray:
    """U(t_i, 0), (K+1, n, n), of a propagation of one row, read off its
    sweep's rebuild: the states of the unit Xi's with f = 0."""
    cond = AveragingCondition.from_preset(grid, Variant.TERMINAL_DIFFERENCE, w0=1.0)
    values = prop.sweep(cond, np.zeros((1, grid.K + 1, n)))
    return np.stack([values.rebuild(unit[None])[0] for unit in np.eye(n)], axis=-1)


def chain_values(cond: AveragingCondition, grid: TimeGrid, steps, f_states) -> SweepValues:
    """The SweepValues of R rows from the chain (:func:`affine_chain`) of
    their affine steps of the trapezoid-weighted forcing qw f, (R, K, n+1,
    n+1): the column and the left sums H are the chain's blocks, and
    G_i = H_i + (h/2) f_i for i >= 1."""
    n = f_states.shape[-1]
    chain = affine_chain(steps)
    sums = chain[..., :n, n].copy()
    sums[:, 1:] += 0.5 * grid.h * f_states[:, 1:]
    return _column_values(cond, chain[..., :n, :n], sums)


@dataclass(frozen=True)
class StepChain:
    """The stepper sweep through the chain: the package's eliminated affine
    steps of a stack of paths, chained by :func:`affine_chain`, whose
    blocks are the column and the left sums."""

    path: OperatorPath

    def sweep(self, cond: AveragingCondition, f_states: np.ndarray) -> SweepValues:
        grid = self.path.grid
        weighted = grid.trapezoid_weights[:, None] * f_states
        steps = evolution._eliminated_steps(self.path.bands, grid.h, weighted[..., None])
        return chain_values(cond, grid, steps, f_states)


@dataclass(frozen=True)
class DenseStepSweep:
    """The stepper sweep through the chain over given one-step factors
    S_j = U(t_{j+1}, t_j) of R paths, shape (R, K, n, n): each affine step
    [[S_j, S_j qw_j f_j], [0, 1]] is written from its factor and one
    stacked product."""

    grid: TimeGrid
    factors: np.ndarray

    def sweep(self, cond: AveragingCondition, f_states: np.ndarray) -> SweepValues:
        R, K, n, _ = self.factors.shape
        weighted = self.grid.trapezoid_weights[:, None] * f_states
        steps = np.zeros((R, K, n + 1, n + 1))
        steps[..., :n, :n] = self.factors
        np.matmul(self.factors, weighted[:, :K, :, None], out=steps[..., :n, n:])
        steps[..., n, n] = 1.0
        return chain_values(cond, self.grid, steps, f_states)


def dense_step_factors(path) -> DenseStepSweep:
    """The stepper sweep, through the chain of affine steps, on the factors
    of :func:`dense_factors`; a single path is a stack of one row."""
    factors = dense_factors(path)
    return DenseStepSweep(grid=path.grid, factors=factors.reshape((-1,) + factors.shape[-3:]))


def dense_laplacian(grid: Grid1D) -> np.ndarray:
    """The (n, n) Laplacian of :func:`avgrec.spatial.assemble_laplacian`,
    written entry by entry: the reference for its three diagonals."""
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
    return lap


def dense_first_difference(grid: Grid1D) -> np.ndarray:
    """The (n, n) matrix of :func:`avgrec.spatial.first_difference`, written
    entry by entry: the reference for its three diagonals."""
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


def dense_generator(model, u: np.ndarray) -> np.ndarray:
    """The dense A(u), shape (..., n, n), of the bands a model's
    ``linearise`` returns."""
    return band_stack(*model.linearise(u)[0])


def dense_forward_solve(model, u0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """The IMEX march of :func:`avgrec.solver.forward_solve` by one dense
    LU solve of I - h A(u_j) per step: the reference for its gtsv solve."""
    u0 = np.asarray(u0, dtype=float)
    n = u0.shape[0]
    _check_march_state(model, u0, "initial state")
    states = np.empty((grid.K + 1, n))
    states[0] = u0
    eye = np.eye(n)
    h = grid.h
    for j in range(grid.K):
        bands, f = model.linearise(states[j])
        a_mat = band_stack(*bands)
        rhs = states[j] + h * f
        try:
            states[j + 1] = np.linalg.solve(eye - h * a_mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular implicit matrix at step {j}: {exc}") from exc
        _check_march_state(model, states[j + 1], f"state after step {j}")
    return Trajectory(grid=grid, states=states)


def gtsv_forward_solve(model, u0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """The IMEX march of :func:`avgrec.solver.forward_solve` by one LAPACK
    gtsv call per step on the bands of I - h A(u_j), with the same error
    text: the reference its elimination on Python floats equals by bytes."""
    u0 = np.asarray(u0, dtype=float)
    _check_march_state(model, u0, "initial state")
    states = np.empty((grid.K + 1, u0.shape[0]))
    states[0] = u0
    h = grid.h
    for j in range(grid.K):
        (sub, main, sup), f = model.linearise(states[j])
        rhs = states[j] + h * f
        *_, states[j + 1], info = dgtsv(-(h * sub), 1.0 - h * main, -(h * sup), rhs)
        if info > 0:
            raise NumericalError(
                f"singular implicit matrix at step {j}: zero pivot in row {info} "
                "of the tridiagonal solve"
            )
        _check_march_state(model, states[j + 1], f"state after step {j}")
    return Trajectory(grid=grid, states=states)


@dataclass(frozen=True)
class KernelTable:
    """Strictly lower-triangular table of kernel matrices on node pairs.

    ``weighted_bound`` stores max over entries of
    (t_i - t_j)^(1 - rho) * ||k(t_i, t_j)||_F, the discrete analogue of the
    continuum kernel bound.
    """

    grid: TimeGrid
    values: np.ndarray  # (K+1, K+1, n, n), zero on and above the diagonal
    singularity_exponent: float  # rho - 1
    weighted_bound: float

    @classmethod
    def from_values(cls, grid: TimeGrid, values: np.ndarray, rho: float) -> "KernelTable":
        bound = weighted_kernel_max(grid, values, rho)
        return cls(grid=grid, values=values, singularity_exponent=rho - 1.0, weighted_bound=bound)


def weighted_kernel_max(grid: TimeGrid, values: np.ndarray, rho: float) -> float:
    """max over the table of (t_i - t_j)^(1-rho) * ||k(t_i,t_j)||_F."""
    kk = grid.K + 1
    norms = np.sqrt((values**2).sum(axis=(2, 3)))
    gaps = grid.nodes[:, None] - grid.nodes[None, :]
    mask = np.tril(np.ones((kk, kk), dtype=bool), k=-1)
    return float(np.max(gaps[mask] ** (1.0 - rho) * norms[mask], initial=0.0))


@dataclass(frozen=True)
class PropagatorTable:
    """Lower-triangular family U(t_i, t_j), stored by rows: ``rows[i][j]``.

    U(t_j, t_j) = I exactly for every method.  Accessing (i, j) with j > i is
    a contract violation (the propagator only moves forward in time).
    """

    grid: TimeGrid
    method_tag: PropagatorMethod
    rows: list  # rows[i]: (i+1, n, n)

    @property
    def dim(self) -> int:
        return self.rows[0].shape[-1]

    def op(self, i: int, j: int) -> np.ndarray:
        if not 0 <= j <= i <= self.grid.K:
            raise ValueError(f"propagator requires 0 <= j <= i <= K, got (i,j)=({i},{j})")
        return self.rows[i][j]

    @cached_property
    def column(self) -> np.ndarray:
        """U(t_i, 0) for all i, shape (K+1, n, n)."""
        return np.stack([row[0] for row in self.rows])

    def duhamel(self, f_states: np.ndarray) -> np.ndarray:
        """Trapezoid Duhamel sums G_i = sum_m wts_m U(t_i, t_m) f(t_m) over
        m = 0..i, with half weights at both ends, read off the table rows."""
        h = self.grid.h
        sums = np.zeros_like(f_states)
        for i in range(1, self.grid.K + 1):
            wts = np.full(i + 1, h)
            wts[0] = wts[-1] = 0.5 * h
            sums[i] = np.einsum("m,mab,mb->a", wts, self.rows[i], f_states[: i + 1])
        return sums

    def sweep(self, cond: AveragingCondition, f_states: np.ndarray) -> SweepValues:
        """The package's sweep values, a batch of one row, for the forcing
        (1, K+1, n), from the column and the Duhamel sums of the rows."""
        return _column_values(cond, self.column[None], self.duhamel(f_states[0])[None])


def frozen_semigroup(path: OperatorPath | DensePath, i: int, j: int) -> np.ndarray:
    """exp((t_i - t_j) A(t_j)): coefficient frozen at the earlier node."""
    if not 0 <= j <= i <= path.grid.K:
        raise ValueError(f"need 0 <= j <= i <= K, got (i,j)=({i},{j})")
    if i == j:
        return np.eye(path.dim)
    return matrix_exponential(path.generators(j), (i - j) * path.grid.h)


def commutator_kernel(path: OperatorPath | DensePath, i: int, j: int) -> np.ndarray:
    """[A(t_i) - A(t_j)] exp((t_i - t_j) A(t_j)); vanishes for constant paths."""
    if not 0 <= j < i <= path.grid.K:
        raise ValueError(f"need 0 <= j < i <= K, got (i,j)=({i},{j})")
    return (path.generators(i) - path.generators(j)) @ frozen_semigroup(path, i, j)


def _block(t4: np.ndarray) -> np.ndarray:
    kk, _, n, _ = t4.shape
    return np.ascontiguousarray(t4.transpose(0, 2, 1, 3)).reshape(kk * n, kk * n)


def _unblock(m2: np.ndarray, kk: int, n: int) -> np.ndarray:
    return np.ascontiguousarray(m2.reshape(kk, n, kk, n).transpose(0, 2, 1, 3))


def _convolve(f4: np.ndarray, g4: np.ndarray, h: float, rho: float) -> np.ndarray:
    """Volterra convolution with product-rule endpoint treatment.

    (f*g)[i,j] = sum_{j<m<i} h f[i,m] g[m,j]  +  (h/rho) f[i,j+1] g[j+1,j].

    g must be strictly lower triangular; f carries its natural diagonal
    (identity for semigroup tables), which supplies the i = j+1 cell of the
    correction and is excluded from the interior sum.
    """
    kk, _, n, _ = f4.shape
    interior = f4.copy()
    idx = np.arange(kk)
    interior[idx, idx] = 0.0
    out = h * _unblock(_block(interior) @ _block(g4), kk, n)
    sub = g4[np.arange(1, kk), np.arange(kk - 1)]  # g[j+1, j]
    corr = np.einsum("ijab,jbc->ijac", f4[:, 1:, :, :], sub)
    out[:, : kk - 1] += (h / rho) * corr
    return out


def _frozen_tables(path: OperatorPath | DensePath) -> tuple[np.ndarray, np.ndarray]:
    """Dense tables a[i,j] = exp((t_i-t_j)A(t_j)) and k[i,j] = [A_i - A_j] a[i,j].

    Columns are built by power chains a[i,j] = exp(h A_j) a[i-1,j], one
    matrix exponential per column, from one stacked call.
    """
    kk = path.grid.K + 1
    n = path.dim
    eye = np.eye(n)
    mats = path.generators()
    steps = matrix_exponential(mats[:-1], path.grid.h)
    a4 = np.zeros((kk, kk, n, n))
    k4 = np.zeros((kk, kk, n, n))
    for j in range(kk):
        a4[j, j] = eye
        if j == kk - 1:
            continue
        for i in range(j + 1, kk):
            a4[i, j] = steps[j] @ a4[i - 1, j]
        k4[j + 1 :, j] = np.matmul(mats[j + 1 :] - mats[j], a4[j + 1 :, j])
    return a4, k4


def _resolvent_solve(k4: np.ndarray, h: float, rho: float) -> np.ndarray:
    """w = k + k*w by forward substitution over rows, exact up to roundoff.

    Entry (i, j) of k*w reads w only on rows m < i, and k has a zero
    diagonal, so every row follows from the rows above it.  In particular
    w[j+1, j] = k[j+1, j], which fixes the end-cell term (h/rho) k[i,j+1]
    w[j+1,j] before the solve.  Rows are kept in the blocked layout so that
    the interior sum of row i is one matrix product.
    """
    kk, _, n, _ = k4.shape
    k2 = _block(k4)
    w2 = np.zeros_like(k2)
    sub = k4[np.arange(1, kk), np.arange(kk - 1)]  # w[j+1, j] = k[j+1, j]
    for i in range(1, kk):
        rows = slice(i * n, (i + 1) * n)
        cols = slice(0, i * n)
        # k[i, j+1] w[j+1, j] for j < i; the j = i-1 cell reads k[i, i] = 0.
        cells = np.matmul(k4[i, 1 : i + 1], sub[:i]).transpose(1, 0, 2).reshape(n, i * n)
        w2[rows, cols] = (
            k2[rows, cols]
            + h * (k2[rows, n : i * n] @ w2[n : i * n, cols])
            + (h / rho) * cells
        )
    return _unblock(w2, kk, n)


def volterra_resolvent(path: OperatorPath | DensePath) -> KernelTable:
    """Resolvent kernel w solving w = k + k*w, by forward substitution."""
    _, k4 = _frozen_tables(path)
    w4 = _resolvent_solve(k4, path.grid.h, path.holder_rho)
    return KernelTable.from_values(path.grid, w4, path.holder_rho)


def series_table(path: OperatorPath | DensePath) -> PropagatorTable:
    """Full table of the kernel series U = a + a*w from dense (K+1)^2 tables.

    Exact (up to roundoff) for constant paths, where the kernel vanishes.
    The solver uses :func:`evolution_series`; this table is the oracle that
    its recursion is checked against.
    """
    a4, k4 = _frozen_tables(path)
    w4 = _resolvent_solve(k4, path.grid.h, path.holder_rho)
    u4 = a4 + _convolve(a4, w4, path.grid.h, path.holder_rho)
    eye = np.eye(path.dim)
    rows = []
    for i in range(path.grid.K + 1):
        row = u4[i, : i + 1].copy()
        row[i] = eye
        rows.append(row)
    return PropagatorTable(grid=path.grid, method_tag=PropagatorMethod.KERNEL_SERIES, rows=rows)


def evolution_stepper(path: OperatorPath | DensePath) -> PropagatorTable:
    """Full table of composed one-step factors, U(t_i, t_j) = S_{i-1} ... S_j.

    The cocycle identity holds by construction (up to roundoff in the stored
    products).  The solver uses :class:`avgrec.evolution.StepFactors`; this table is the
    oracle that the factor recursion is checked against.
    """
    n = path.dim
    eye = np.eye(n)
    factors = dense_factors(path)
    rows = [eye[None, :, :].copy()]
    for i in range(1, path.grid.K + 1):
        row = np.empty((i + 1, n, n))
        row[:i] = np.matmul(factors[i - 1], rows[i - 1])
        row[i] = eye
        rows.append(row)
    return PropagatorTable(grid=path.grid, method_tag=PropagatorMethod.STEPPER, rows=rows)


def holder_seminorm(path: OperatorPath | DensePath, rho: float) -> float:
    """max over node pairs of ||A(t_i) - A(t_j)||_2 / (t_i - t_j)^rho, plus the
    max node norm -- the discrete Hoelder norm of the path."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    mats = path.generators()
    nodes = path.grid.nodes
    sup_norm = float(np.linalg.svd(mats, compute_uv=False).max())
    semi = 0.0
    for j in range(path.grid.K):
        diffs = mats[j + 1 :] - mats[j]
        norms = np.linalg.svd(diffs, compute_uv=False).max(axis=-1)
        semi = max(semi, float(np.max(norms / (nodes[j + 1 :] - nodes[j]) ** rho)))
    return semi + sup_norm


@dataclass(frozen=True)
class PerturbationReport:
    """Perturbation ratios t^j ||e^{tA} - e^{tB}|| / ||A - B|| for j = 0, 1."""

    max_ratio_plain: float
    max_ratio_smoothed: float
    refined_ratio_plain: float
    refined_ratio_smoothed: float
    stable_plain: bool
    stable_smoothed: bool


def semigroup_perturbation_check(
    a: np.ndarray, b: np.ndarray, ts: list, smoother: np.ndarray | None = None
) -> PerturbationReport:
    """Probe the semigroup perturbation bounds.

    Ratios ||e^{tA} - e^{tB}|| / ||A - B|| are computed in the plain operator
    norm and, for the order-one target, as t * ||P (e^{tA} - e^{tB})|| with P
    the supplied smoothing matrix (identity by default) against
    ||(A - B) P^{-1}||.  The check is repeated on a midpoint-refined time
    list; a ratio more than doubling under refinement is flagged unstable.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("matrices must share dimensions")
    if np.array_equal(a, b):
        raise ValueError("perturbation ratio undefined for identical matrices")
    ts = np.asarray(sorted(ts), dtype=float)
    if ts.size == 0 or np.any(ts <= 0):
        raise ValueError("need a nonempty list of positive times")
    if smoother is None:
        smoother = np.eye(a.shape[0])
    denom_plain = np.linalg.norm(a - b, 2)
    denom_smooth = np.linalg.norm((a - b) @ np.linalg.inv(smoother), 2)

    def ratios(times):
        plain = 0.0
        smoothed = 0.0
        for t in times:
            diff = matrix_exponential(a, t) - matrix_exponential(b, t)
            plain = max(plain, np.linalg.norm(diff, 2) / denom_plain)
            smoothed = max(smoothed, t * np.linalg.norm(smoother @ diff, 2) / denom_smooth)
        return plain, smoothed

    coarse_plain, coarse_smooth = ratios(ts)
    refined = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])])) if ts.size > 1 else ts
    fine_plain, fine_smooth = ratios(refined)
    return PerturbationReport(
        max_ratio_plain=coarse_plain,
        max_ratio_smoothed=coarse_smooth,
        refined_ratio_plain=fine_plain,
        refined_ratio_smoothed=fine_smooth,
        stable_plain=fine_plain <= 2.0 * coarse_plain,
        stable_smoothed=fine_smooth <= 2.0 * coarse_smooth,
    )


@dataclass(frozen=True)
class PhiOperator:
    """Assembled averaging operator with its cached conditioning."""

    matrix: np.ndarray
    condition: AveragingCondition
    sigma_min: float


def _states_of(traj) -> np.ndarray:
    """Accept a Trajectory-like object (``.states``) or a plain (K+1, n) array."""
    states = getattr(traj, "states", traj)
    return np.asarray(states, dtype=float)


def _check_grid(traj, prop) -> None:
    grid = getattr(traj, "grid", None)
    if grid is not None and (grid.K != prop.grid.K or grid.T != prop.grid.T):
        raise ValueError("trajectory and propagator table live on different time grids")


def _average(cond: AveragingCondition, stack: np.ndarray) -> np.ndarray:
    """sum_j qw_j w(t_j) X_j over a (K+1, ...) stack X, qw the trapezoid
    weights of the grid: the averaging part of any condition."""
    return np.einsum("j,j...->...", cond.grid.trapezoid_weights * cond.weight, stack)


def assemble_phi(prop, cond: AveragingCondition) -> PhiOperator:
    """Phi = sum_j qw_j w(t_j) U(t_j, 0), reproducible from a table exactly;
    any other propagation of one path gives its column by its rebuild
    (:func:`rebuilt_column`)."""
    if cond.variant is Variant.TERMINAL_DIFFERENCE:
        raise ValueError("terminal-difference conditions have no averaging operator")
    if isinstance(prop, PropagatorTable):
        column = prop.column
    else:
        column = rebuilt_column(prop, cond.grid, prop.path.dim)
    matrix = _average(cond, column)
    return PhiOperator(
        matrix=matrix, condition=cond, sigma_min=smallest_singular_value(matrix)
    )


def apply_psi(f_traj, prop, cond: AveragingCondition) -> np.ndarray:
    """Psi f = sum_i qw_i w(t_i) G_i with G the Duhamel sums; Psi(0) = 0 exactly."""
    _check_grid(f_traj, prop)
    f_states = _states_of(f_traj)
    if f_states.shape != (prop.grid.K + 1, prop.dim):
        raise ValueError(
            f"forcing trajectory must have shape {(prop.grid.K + 1, prop.dim)}, "
            f"got {f_states.shape}"
        )
    return _average(cond, prop.duhamel(f_states))


def initial_state_map(cond: AveragingCondition, prop, M: np.ndarray, f_traj) -> np.ndarray:
    """Candidate initial state for the fixed-point reformulation.

    Solves the variant resolvent equation; raises SingularOperatorError when
    the resolvent's smallest singular value sits at or below 1e-10 times its
    spectral norm.  The resolvent and the data shift are read off one sweep
    of the propagation for f.
    """
    _check_grid(f_traj, prop)
    M = np.asarray(M, dtype=float)
    values = prop.sweep(cond, _states_of(f_traj)[None])
    resolvents, shifts = resolvent_matrix(values), data_shift(values, M[None])
    _, (error,) = check_resolvent(cond, np.linalg.svd(resolvents, compute_uv=False))
    if error is not None:
        raise error
    return np.linalg.solve(resolvents[0], shifts[0])


@dataclass(frozen=True)
class InvertibilityReport:
    sigma_min: float
    symmetry_defect: float
    positive_definite: bool | None
    sigma_trend: tuple | None = None

    def to_dict(self) -> dict:
        return {
            "sigma_min": self.sigma_min,
            "symmetry_defect": self.symmetry_defect,
            "positive_definite": self.positive_definite,
            "sigma_trend": list(self.sigma_trend) if self.sigma_trend is not None else None,
        }


def invertibility_report(
    phi: PhiOperator, refinement_family: list | None = None
) -> InvertibilityReport:
    """Conditioning diagnostics for an assembled averaging operator.

    Positive definiteness is only meaningful (and only reported) when the
    matrix is symmetric to within 1e-10 relative.
    """
    m = phi.matrix
    scale = max(np.abs(m).max(), 1e-300)
    defect = float(np.abs(m - m.T).max() / scale)
    positive: bool | None = None
    if defect <= 1e-10:
        positive = bool(np.linalg.eigvalsh(0.5 * (m + m.T)).min() > 0.0)
    trend = None
    if refinement_family is not None:
        trend = tuple(float(p.sigma_min) for p in refinement_family)
    return InvertibilityReport(
        sigma_min=phi.sigma_min,
        symmetry_defect=defect,
        positive_definite=positive,
        sigma_trend=trend,
    )


def spectral_phi_oracle(eigs, cond: AveragingCondition) -> np.ndarray:
    """Scalar quadrature phi(lambda) = sum_j qw_j w(t_j) exp(t_j lambda).

    For a constant self-adjoint generator these are exactly the eigenvalues
    of the assembled Phi, mode by mode.
    """
    if cond.variant is not Variant.TIME_AVERAGE:
        raise ValueError("the spectral oracle applies to time-average conditions")
    eigs = np.asarray(eigs, dtype=float)
    return np.exp(np.outer(eigs, cond.grid.nodes)) @ (cond.grid.trapezoid_weights * cond.weight)


def phi_lipschitz_probe(
    path_a: OperatorPath,
    path_b: OperatorPath,
    cond: AveragingCondition,
    smoother: np.ndarray | None = None,
    eta: float | None = None,
) -> float:
    """||Phi_A - Phi_B|| / |||A - B|||_rho with the numerator premultiplied by
    the smoothing matrix (discrete stand-in for the order-one target norm)."""
    if path_a.grid.K != path_b.grid.K or path_a.grid.T != path_b.grid.T:
        raise ValueError("paths must share a time grid")
    if np.array_equal(path_a.generators(), path_b.generators()):
        raise ValueError("Lipschitz ratio undefined for identical paths")
    rho = path_a.holder_rho
    if eta is not None:
        for label, p in (("first", path_a), ("second", path_b)):
            semi = holder_seminorm(p, rho)
            if semi > eta:
                raise ValueError(f"{label} path leaves the declared neighborhood: {semi} > {eta}")
    phi_a, phi_b = (_average(cond, stepper_column(p)) for p in (path_a, path_b))
    diff = phi_a - phi_b
    if smoother is not None:
        diff = smoother @ diff
    diff_path = DensePath(
        grid=path_a.grid, matrices=path_a.generators() - path_b.generators(), holder_rho=rho
    )
    return float(np.linalg.norm(diff, 2) / holder_seminorm(diff_path, rho))


def growth_estimate_probe(
    model, sample_count: int, radius: float, seed: int = 0
) -> float:
    """Empirical constant in the forcing growth estimate.

    Draws random pairs in the low-order ball and maximizes the gamma-norm
    increment of f over the stated right-hand side with unit constant.
    """
    if radius > model.ball_radius:
        raise ValueError(f"probe radius {radius} exceeds the model ball {model.ball_radius}")
    book = model.exponents
    rng = np.random.default_rng(seed)
    n = model.base.grid.n
    worst = 0.0
    for _ in range(sample_count):
        pair = []
        for _ in range(2):
            x = rng.standard_normal(n)
            norm = sobolev_norm(model.base, x, 2 * book.beta)
            x *= radius * rng.uniform(0.05, 1.0) / norm
            pair.append(x)
        v, w = pair
        num = sobolev_norm(
            model.base, model.linearise(v)[1] - model.linearise(w)[1], 2 * book.gamma
        )
        xi_v = sobolev_norm(model.base, v, 2 * book.xi)
        xi_w = sobolev_norm(model.base, w, 2 * book.xi)
        den = (xi_v**book.ell + xi_w**book.ell) * sobolev_norm(model.base, v - w, 2 * book.xi)
        den += (xi_v ** (book.ell + 1) + xi_w ** (book.ell + 1)) * sobolev_norm(
            model.base, v - w, 2 * book.beta
        )
        if den > 0:
            worst = max(worst, num / den)
    return worst


def face_coords(grid: Grid1D) -> np.ndarray:
    """Coordinates of the flux faces that :func:`divergence_bands` reads:
    the n-1 interior faces of a Neumann grid, all n+1 faces of a Dirichlet
    grid."""
    h = grid.spacing
    if grid.bc is BoundaryKind.DIRICHLET:
        return h * (np.arange(grid.n + 1) + 0.5)
    return h * np.arange(1, grid.n)


def divergence_bands(grid: Grid1D, faces: np.ndarray) -> Bands:
    """(sub, main, sup) diagonals of the divergence-form operator
    d/dx (a d/dx) from its coefficients a on the flux faces, one row of
    faces per state (..., m).  Neumann: the m = n-1 interior faces,
    faces[i] between nodes i and i+1 (the domain faces carry no flux);
    Dirichlet: all m = n+1 faces, faces[i] left of node i."""
    h2 = grid.spacing * grid.spacing
    if grid.bc is BoundaryKind.NEUMANN:
        zero = np.zeros(faces.shape[:-1] + (1,))
        left = np.concatenate([zero, faces], axis=-1)
        right = np.concatenate([faces, zero], axis=-1)
    else:
        left = faces[..., :-1]
        right = faces[..., 1:]
    return left[..., 1:] / h2, -(left + right) / h2, right[..., :-1] / h2


@dataclass(frozen=True, eq=False)
class RDTermsModel(NonlocalRDModel):
    """The reaction-diffusion model with the terms no config sets, for the
    variable-coefficient, non-symmetric and pivoting paths: a face
    coefficient diff_fn(x, l) in place of 1 + l^2, a drift drift_fn(x, l)
    times the first difference and a zeroth-order term react_fn(x, l)
    added to its bands, and l(u) = int m u dx with a weight m (one by
    default) or a nonlinear l(u) = functional_fn(u).  diff_fn is called
    with the face coordinates, drift_fn and react_fn with the nodes, each
    with l(u) as an array of shape (..., 1), one value per state, and each
    returns one row per state; functional_fn takes one state (n,) and is
    mapped over the states of a stack.  With no term set, the model's
    generator equals the shipped one."""

    diff_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = lambda x, s: 1.0 + s**2 + 0.0 * x
    functional_weight: np.ndarray | None = None
    drift_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    react_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    functional_fn: Callable[[np.ndarray], float] | None = None

    def functional_value(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.functional_fn is None:
            m = np.ones(u.shape[-1]) if self.functional_weight is None else self.functional_weight
            return self.base.grid.spacing * np.matmul(m, u[..., None])
        rows = u.reshape(-1, u.shape[-1])
        values = np.array([float(self.functional_fn(row)) for row in rows])
        return values.reshape(u.shape[:-1] + (1,))

    def linearise(self, u: np.ndarray) -> tuple[Bands, np.ndarray]:
        grid = self.base.grid
        s_val = self.functional_value(u)
        faces = np.asarray(self.diff_fn(face_coords(grid), s_val), dtype=float)
        bands = divergence_bands(grid, faces)
        f = super().linearise(u)[1]
        if self.drift_fn is not None:
            drift = np.asarray(self.drift_fn(grid.nodes, s_val))
            difference = first_difference(grid)
            bands = tuple(
                values + drift[..., rows] * diff
                for values, diff, rows in zip(bands, difference, _BAND)
            )
        if self.react_fn is not None:
            sub, main, sup = bands
            bands = sub, main + np.asarray(self.react_fn(grid.nodes, s_val)), sup
        return bands, f


@dataclass(frozen=True, eq=False)
class ShiftedModel:
    """Model recentered at an equilibrium v*: A*(w) = A(w + v*),
    f*(w) = A(w + v*) v* + f(w + v*)."""

    inner: QuasilinearModel
    v_star: np.ndarray

    @property
    def base(self) -> BaseOperator:
        return self.inner.base

    @property
    def exponents(self) -> ExponentBook:
        return self.inner.exponents

    @property
    def ball_radius(self) -> float:
        return self.inner.ball_radius

    def linearise(self, u: np.ndarray) -> tuple[Bands, np.ndarray]:
        bands, f = self.inner.linearise(u + self.v_star)
        return bands, matvec(band_stack(*bands), self.v_star) + f


def equilibrium_shift(model, v_star: np.ndarray, tol: float | None = None) -> ShiftedModel:
    """Shift the model to an equilibrium v* (A(v*)v* + f(v*) = 0 within tol)."""
    v_star = np.asarray(v_star, dtype=float)
    bands, f = model.linearise(v_star)
    residual = np.linalg.norm(band_stack(*bands) @ v_star + f)
    if tol is None:
        tol = 1e-10 * (1.0 + np.linalg.norm(v_star))
    if residual > tol:
        raise ValueError(
            f"v* is not an equilibrium: residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return ShiftedModel(inner=model, v_star=v_star)


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return raw[:, 0], raw[:, 1:]
