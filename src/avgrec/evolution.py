"""Nonautonomous evolution operators on a uniform time grid.

Two independent constructions of the propagator U(t_i, t_j) of
v' = A(t) v are provided:

* the frozen-coefficient kernel series
      U = a + a * w,    a(t, s) = exp((t-s) A(s)),
      w  = resolvent of  k(t, s) = [A(t) - A(s)] a(t, s),
  where * is the Volterra convolution in time and w solves
  w = k + k * w.  On strictly lower-triangular tables the map w -> k * w
  is nilpotent, so the discrete equation is solved exactly by forward
  substitution over the rows, with no tolerance and no sweep cap;
* composed one-step integrators (backward Euler / Crank-Nicolson), whose
  cocycle identity holds by construction.

A fixed-point sweep needs only the initial column U(t_i, 0), the Duhamel
sums and the terminal forcing.  Both constructions serve all three from
one forward recursion of left sums on the widened right-hand side
[I | h f | qw f] (:meth:`_Sweep.sweep`, returning :class:`SweepValues`), in
O(K n^2) memory: the stepper from its K one-step factors S_j
(:class:`StepFactors`: O(K n^2) for the factors of a tridiagonal path, one
Gaussian elimination over all K nodes at once with LAPACK gtsv for the
nodes it would pivot, O(K n^3) through one stacked dense LU otherwise, and
one K-step loop of (n, n) x (n, n+2) products, O(K n^3)), the kernel series
from its K frozen steps exp(h A_j) (:class:`SeriesSweep`, O(K^2 n^3),
forming each difference A_m - A_l once), neither forming a table.  The
sweep interface ``column``, ``duhamel(f)`` and ``weighted_forcing(qw, f)``
reads the same recursion.  The full lower-triangular tables
(:class:`PropagatorTable`, O(K^2 n^2) memory, from :func:`evolution_stepper`
and :func:`series_table`) are the cross-validation and cocycle oracles of
the recursions, and serve the same ``sweep`` entry from their rows.

The kernel k carries an integrable (t-s)^(rho-1) singularity when A is only
rho-Hoelder in time.  Discrete convolutions therefore use a product rule:
interior nodes weighted h, and the singular cell adjacent to the lower
endpoint replaced by the exact cell integral of (t-s)^(rho-1) against the
nearest kernel value, which amounts to an extra weight h/rho on that cell.

Tables and sweeps are immutable once built and safe to reuse across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import NumericalError
from .spatial import matrix_exponential

# Largest estimated peak (bytes) admitted for either propagation; see
# series_peak_bytes and stepper_peak_bytes.
MEMORY_BUDGET = 2 * 2**30


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*T/K, j = 0..K."""

    T: float
    K: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
        if self.K < 1:
            raise ValueError(f"need at least one step, got K={self.K}")

    @property
    def h(self) -> float:
        return self.T / self.K

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.K + 1)


@dataclass(frozen=True)
class OperatorPath:
    """Time-indexed family of generator matrices A(t_j) with declared
    Hoelder exponent.  The seminorm itself is a diagnostic, see
    :func:`holder_seminorm`."""

    grid: TimeGrid
    matrices: np.ndarray  # (K+1, n, n)
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

    @cached_property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Views (sub, diag, super) of the three central diagonals of every
        A(t_j), shapes (K+1, n-1), (K+1, n) and (K+1, n-1), when no matrix
        has a nonzero entry outside them; None otherwise."""
        views = tuple(np.diagonal(self.matrices, k, axis1=1, axis2=2) for k in (-1, 0, 1))
        inside = sum(np.count_nonzero(view) for view in views)
        return views if np.count_nonzero(self.matrices) == inside else None


class PropagatorMethod(Enum):
    KERNEL_SERIES = "kernel_series"
    STEPPER = "stepper"


class Scheme(Enum):
    BACKWARD_EULER = "backward_euler"
    CRANK_NICOLSON = "crank_nicolson"


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
    scheme: Scheme | None = None

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

    def final_row(self) -> np.ndarray:
        """U(T, t_j) for all j, shape (K+1, n, n)."""
        return self.rows[self.grid.K]

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

    def weighted_forcing(self, quad_weights: np.ndarray, f_states: np.ndarray) -> np.ndarray:
        """sum_j qw_j U(T, t_j) f(t_j), read off the final row."""
        return np.einsum("j,jab,jb->a", quad_weights, self.final_row(), f_states)

    def sweep(self, f_states: np.ndarray, quad_weights: np.ndarray | None = None) -> "SweepValues":
        """The sweep entry of :meth:`_Sweep.sweep`, read off the rows."""
        forcing = None if quad_weights is None else self.weighted_forcing(quad_weights, f_states)
        return SweepValues(
            self.grid, self.column, self.duhamel(f_states), f_states, quad_weights, forcing
        )


@dataclass(frozen=True)
class SweepValues:
    """What one fixed-point sweep reads of a propagation, for one forcing f:
    the initial column U(t_i, 0), the trapezoid Duhamel sums G_i of f and,
    when quadrature weights were given, the terminal forcing
    N(T) f = sum_j qw_j U(T, t_j) f(t_j).

    It serves the sweep interface (``column``, ``duhamel``,
    ``weighted_forcing``) for that forcing and those weights only.
    """

    grid: TimeGrid
    column: np.ndarray  # (K+1, n, n)
    sums: np.ndarray  # (K+1, n)
    f_states: np.ndarray  # (K+1, n)
    quad_weights: np.ndarray | None = None
    forcing: np.ndarray | None = None  # (n,)

    @property
    def dim(self) -> int:
        return self.column.shape[-1]

    def duhamel(self, f_states: np.ndarray) -> np.ndarray:
        _require_same("forcing", f_states, self.f_states)
        return self.sums

    def weighted_forcing(self, quad_weights: np.ndarray, f_states: np.ndarray) -> np.ndarray:
        _require_same("forcing", f_states, self.f_states)
        _require_same("quadrature weights", quad_weights, self.quad_weights)
        return self.forcing


def _require_same(name: str, given, swept) -> None:
    if given is not swept and (swept is None or not np.array_equal(given, swept)):
        raise ValueError(f"these sweep values were computed for other {name}")


class _Sweep:
    """The sweep interface of a propagation from its one forward recursion
    ``_left_sums(forcing)``: for a forcing stack F of shape (K+1, n, r) it
    returns X_i = [U(t_i, 0) | sum_{m<i} U(t_i, t_m) F_m], shape
    (K+1, n, n+r), with X_0 = [I | 0]."""

    @cached_property
    def column(self) -> np.ndarray:
        """U(t_i, 0) for all i, shape (K+1, n, n): the recursion with no forcing."""
        return self._left_sums(np.empty((self.grid.K + 1, self.dim, 0)))

    def sweep(self, f_states: np.ndarray, quad_weights: np.ndarray | None = None) -> SweepValues:
        """Column, Duhamel sums and (given quadrature weights) terminal
        forcing from one recursion on the widened right-hand side
        [I | h f | qw f], width n+1 or n+2.

        With H_i and Q_i the left sums of h f and qw f:
            G_i = H_i - (h/2) U(t_i, 0) f_0 + (h/2) f_i,
            N(T) f = Q_K + qw_K f_K.
        """
        h = self.grid.h
        n = self.dim
        parts = [h * f_states]
        if quad_weights is not None:
            parts.append(quad_weights[:, None] * f_states)
        left = self._left_sums(np.stack(parts, axis=-1))
        column = left[:, :, :n]
        sums = left[:, :, n] - 0.5 * h * (column @ f_states[0]) + 0.5 * h * f_states
        forcing = None
        if quad_weights is not None:
            forcing = left[-1, :, n + 1] + quad_weights[-1] * f_states[-1]
        return SweepValues(self.grid, column, sums, f_states, quad_weights, forcing)

    def duhamel(self, f_states: np.ndarray) -> np.ndarray:
        """Trapezoid Duhamel sums G_i = sum_m wts_m U(t_i, t_m) f(t_m), read
        off :meth:`sweep`."""
        return self.sweep(f_states).sums

    def weighted_forcing(self, quad_weights: np.ndarray, f_states: np.ndarray) -> np.ndarray:
        """sum_j qw_j U(T, t_j) f(t_j) for any quadrature weights, read off
        :meth:`sweep`."""
        return self.sweep(f_states, quad_weights).forcing


@dataclass(frozen=True)
class StepFactors(_Sweep):
    """One-step factors S_j = U(t_{j+1}, t_j) of a stepper: the sweep
    interface in O(K n^2) memory, every quantity from the K-step loop of
    :func:`_stepper_left_sums`."""

    grid: TimeGrid
    factors: np.ndarray  # (K, n, n)

    @property
    def dim(self) -> int:
        return self.factors.shape[-1]

    def _left_sums(self, forcing: np.ndarray) -> np.ndarray:
        return _stepper_left_sums(self.factors, forcing)


def _stepper_left_sums(factors: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """X_i = [U(t_i, 0) | sum_{m<i} U(t_i, t_m) F_m] for i = 0..K from the
    factors S_j and a forcing stack F of shape (K+1, n, r), by the K-step loop

        X_0 = [I | 0],   X_{j+1} = S_j (X_j + [0 | F_j]),

    one (n, n) x (n, n+r) product per step, O(K n^2 (n+r)) in all.
    """
    K, n, _ = factors.shape
    left = np.empty((K + 1, n, n + forcing.shape[-1]))
    left[0] = 0.0
    left[0, :, :n] = np.eye(n)
    carry = left[0].copy()
    for j in range(K):
        carry[:, n:] += forcing[j]
        np.matmul(factors[j], carry, out=left[j + 1])
        carry[...] = left[j + 1]
    return left


def frozen_semigroup(path: OperatorPath, i: int, j: int) -> np.ndarray:
    """exp((t_i - t_j) A(t_j)): coefficient frozen at the earlier node."""
    if not 0 <= j <= i <= path.grid.K:
        raise ValueError(f"need 0 <= j <= i <= K, got (i,j)=({i},{j})")
    if i == j:
        return np.eye(path.dim)
    return matrix_exponential(path.matrices[j], (i - j) * path.grid.h)


def commutator_kernel(path: OperatorPath, i: int, j: int) -> np.ndarray:
    """[A(t_i) - A(t_j)] exp((t_i - t_j) A(t_j)); vanishes for constant paths."""
    if not 0 <= j < i <= path.grid.K:
        raise ValueError(f"need 0 <= j < i <= K, got (i,j)=({i},{j})")
    return (path.matrices[i] - path.matrices[j]) @ frozen_semigroup(path, i, j)


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


def _frozen_steps(path: OperatorPath) -> np.ndarray:
    """The K frozen steps exp(h A(t_j)), j = 0..K-1, shape (K, n, n), from
    one stacked matrix exponential."""
    return matrix_exponential(path.matrices[:-1], path.grid.h)


def _frozen_tables(path: OperatorPath) -> tuple[np.ndarray, np.ndarray]:
    """Dense tables a[i,j] = exp((t_i-t_j)A(t_j)) and k[i,j] = [A_i - A_j] a[i,j].

    Columns are built by power chains a[i,j] = exp(h A_j) a[i-1,j], one
    matrix exponential per column.
    """
    kk = path.grid.K + 1
    n = path.dim
    eye = np.eye(n)
    steps = _frozen_steps(path)
    a4 = np.zeros((kk, kk, n, n))
    k4 = np.zeros((kk, kk, n, n))
    for j in range(kk):
        a4[j, j] = eye
        if j == kk - 1:
            continue
        for i in range(j + 1, kk):
            a4[i, j] = steps[j] @ a4[i - 1, j]
        k4[j + 1 :, j] = np.matmul(path.matrices[j + 1 :] - path.matrices[j], a4[j + 1 :, j])
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


def volterra_resolvent(path: OperatorPath) -> KernelTable:
    """Resolvent kernel w solving w = k + k*w, by forward substitution."""
    _, k4 = _frozen_tables(path)
    w4 = _resolvent_solve(k4, path.grid.h, path.holder_rho)
    return KernelTable.from_values(path.grid, w4, path.holder_rho)


def series_table(path: OperatorPath) -> PropagatorTable:
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


def _series_left_sums(path: OperatorPath, steps: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """X_i = [U(t_i, 0) | sum_{m<i} U(t_i, t_m) F_m] for i = 0..K and the
    series U = a + a*w, from one forward recursion on the right-hand side
    r_0 = [I | F_0], r_m = [0 | F_m] (width n+r) of a forcing stack F of
    shape (K+1, n, r).

    The left sums R_m = sum_{l<m} U(t_m, t_l) r_l expand both convolutions,
    with s_m = k[m+1, m] r_m, g_0 = r_0 and
    g_m = r_m + h y_m + (h/rho) s_{m-1}:
        R_m = sum_{l<m} a[m, l] g_l + (h/rho) s_{m-1},
        y_m = sum_{l<m} w[m, l] r_l = sum_{l<m} k[m, l] g_l.
    The products p_l = a[m, l] g_l are carried from node to node by
    p_l <- exp(h A_l) p_l, and k[m, l] g_l is formed as (A_m - A_l) p_l, so
    that it is exactly zero on a constant path; each difference A_m - A_l is
    formed once.  The identity block of r_m is zero beyond node 0, so its
    r_m and s_m terms are skipped there.  X_0 = [I | 0].
    """
    K = path.grid.K
    h = path.grid.h
    end = h / path.holder_rho
    mats = path.matrices
    n = path.dim
    left = np.zeros((K + 1, n, n + forcing.shape[-1]))
    carried = np.empty((K,) + left.shape[1:])  # p_l for l < m
    g = np.concatenate((np.eye(n), forcing[0]), axis=1)
    for m in range(1, K + 1):
        carried[: m - 1] = np.matmul(steps[: m - 1], carried[: m - 1])
        carried[m - 1] = steps[m - 1] @ g
        left[m] = carried[:m].sum(axis=0)
        # s_{m-1}: on both blocks at m = 1 (where E_0 r_0 = p_0), else on F.
        edge = slice(None) if m == 1 else slice(n, None)
        applied = carried[0] if m == 1 else steps[m - 1] @ forcing[m - 1]
        end_term = end * ((mats[m] - mats[m - 1]) @ applied)
        left[m, :, edge] += end_term
        if m < K:
            g = h * np.matmul(mats[m] - mats[:m], carried[:m]).sum(axis=0)
            g[:, n:] += forcing[m]
            g[:, edge] += end_term
    left[0, :, :n] = np.eye(n)
    return left


@dataclass(frozen=True)
class SeriesSweep(_Sweep):
    """The kernel series' sweep interface in O(K n^2) memory: the path and
    its K frozen steps exp(h A_j), every quantity from the forward recursion
    of :func:`_series_left_sums`; a, k, w and U are never formed."""

    path: OperatorPath
    steps: np.ndarray  # (K, n, n)

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def dim(self) -> int:
        return self.path.dim

    def _left_sums(self, forcing: np.ndarray) -> np.ndarray:
        return _series_left_sums(self.path, self.steps, forcing)


def series_peak_bytes(n: int, K: int) -> int:
    """Estimated peak memory of a kernel-series sweep (:func:`evolution_series`
    and :meth:`SeriesSweep.sweep` with quadrature weights) in bytes: five
    stacks of K+1 float64 n x (n+2) blocks.

    The recursion holds the frozen steps, the carried products, the left
    sums, and at the last nodes the differences A_m - A_l and their products
    with the carried blocks; its right-hand side is [I | h f | qw f].
    """
    return 5 * 8 * (K + 1) * n * (n + 2)


def evolution_series(path: OperatorPath) -> SeriesSweep:
    """Sweep interface of the kernel series U = a + a*w: the K frozen steps
    from one stacked matrix exponential.

    A sweep's column U(t_i, 0), Duhamel sums and terminal forcing are one
    recursion on [I | h f | qw f], O(K^2 n^2 (n+2)).  On a constant path the
    kernel is exactly zero and the column equals the frozen semigroup of
    :func:`series_table` bit for bit.
    """
    return SeriesSweep(path=path, steps=_frozen_steps(path))


def _one_step_factors(path: OperatorPath, scheme: Scheme) -> np.ndarray:
    """S_j for j = 0..K-1, shape (K, n, n), from (I - c A(t_{j+1})) S_j = R_j:

    Backward Euler: c = h, R_j = I;
    Crank-Nicolson: c = h/2, R_j = I + h/2 A(t_j).

    On a tridiagonal path (:attr:`OperatorPath.tridiagonal`) one Gaussian
    elimination solves all K nodes at once, O(K n^2): the right-hand sides
    are an (n, K, n) stack of rows written straight from the bands, so each
    step is one contiguous (K, n) operation, in the order of LAPACK gtsv
    without row interchanges.  Nodes that gtsv would pivot (known from the
    pivots, which are eliminated first) or that turn non-finite (a zero
    pivot) are solved by gtsv itself, in ascending order: the factors, a
    transposed view of the stack, equal a per-node gtsv solve bit for bit,
    and the first singular node is named.  Any other path takes the
    stacked dense LU of :func:`_dense_factors`, O(K n^3).
    """
    bands = path.tridiagonal
    if bands is None:
        return _dense_factors(path, scheme)
    K, n = path.grid.K, path.dim
    c = path.grid.h if scheme is Scheme.BACKWARD_EULER else 0.5 * path.grid.h
    sub, diag, sup = (band[1:] for band in bands)
    # The same roundings as the dense I - c A: 1 - c a on the diagonal, -(c a) off it.
    lower, main, upper = -c * sub, 1.0 - c * diag, -c * sup
    # Row r of each band at every node, for the pass over all nodes.
    low_rows, pivots, up_rows = lower.T.copy(), main.T.copy(), upper.T.copy()
    rows = np.zeros((n, K, n))  # rows[i, j]: row i of R_j, solved into row i of S_j
    idx = np.arange(n)
    if scheme is Scheme.BACKWARD_EULER:
        rows[idx, :, idx] = 1.0
    else:
        # R_j = I + c A(t_j) as the dense c A(t_j) with 1 added on the diagonal.
        rhs_sub, rhs_diag, rhs_sup = (c * band[:-1].T for band in bands)
        rows[idx, :, idx] = rhs_diag + 1.0
        rows[idx[1:], :, idx[:-1]] = rhs_sub
        rows[idx[:-1], :, idx[1:]] = rhs_sup
    facts = np.empty_like(low_rows)
    with np.errstate(all="ignore"):
        for r in range(n - 1):
            facts[r] = low_rows[r] / pivots[r]
            pivots[r + 1] -= facts[r] * up_rows[r]
        # gtsv interchanges rows where |pivot| < |entry below| (or either is
        # NaN).  The row pass leaves such nodes as they are, since without
        # interchanges they can overflow or go subnormal and slow it down;
        # gtsv solves them below.
        redo = ~(np.abs(pivots[:-1]) >= np.abs(low_rows)).all(axis=0)
        if not redo.all():
            facts[:, redo] = 0.0
            pivots[:, redo] = 1.0
            up_rows[:, redo] = 0.0
            for r in range(n - 1):
                rows[r + 1] -= facts[r][:, None] * rows[r]
            rows[-1] /= pivots[-1][:, None]
            for r in range(n - 2, -1, -1):
                rows[r] -= up_rows[r][:, None] * rows[r + 1]
                rows[r] /= pivots[r][:, None]
    # A zero pivot, like any non-finite entry, spreads down its column and
    # back up to row 0; where row 0 is finite, so is the rest, and gtsv's
    # extra term 0 * B_{r+2} vanishes.
    redo |= ~np.isfinite(rows[0]).all(axis=1)
    factors = rows.transpose(1, 0, 2)
    for j in np.flatnonzero(redo):
        if scheme is Scheme.BACKWARD_EULER:
            rhs = np.eye(n)
        else:
            rhs = c * path.matrices[j]
            rhs.reshape(-1)[:: n + 1] += 1.0  # its diagonal
        *_, solution, info = dgtsv(lower[j], main[j], upper[j], rhs)
        if info > 0:
            raise NumericalError(
                f"singular one-step matrix at node {j + 1}: zero pivot in row {info} "
                "of the tridiagonal solve"
            )
        factors[j] = solution
    return factors


def _dense_factors(path: OperatorPath, scheme: Scheme) -> np.ndarray:
    """The one-step factors of :func:`_one_step_factors` on any path, from
    one stacked dense LU solve."""
    h = path.grid.h
    eye = np.eye(path.dim)
    if scheme is Scheme.BACKWARD_EULER:
        lhs = eye - h * path.matrices[1:]
        # A 2-D right-hand side next to a 3-D stack reads as a stack of
        # vectors under numpy 1.x; give it the stack's shape explicitly.
        rhs = np.broadcast_to(eye, lhs.shape)
    else:
        lhs = eye - 0.5 * h * path.matrices[1:]
        rhs = eye + 0.5 * h * path.matrices[:-1]
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


def stepper_peak_bytes(n: int, K: int) -> int:
    """Estimated peak memory of a stepper sweep (:func:`step_factors`, then
    :meth:`StepFactors.sweep` with quadrature weights) on a tridiagonal path
    in bytes: two stacks of K+1 float64 n x (n+4) blocks.

    The sweep holds the K factors, the K+1 left-sum blocks of width n+2
    and, while it forms the Duhamel sums, a few (K+1, n) forcing and sum
    arrays, which the four extra columns cover.  Every shipped model is
    tridiagonal.  The dense LU of other paths holds its left- and
    right-hand sides next to the solution; traces of the factors alone at
    n = 16 peak at 2.6 to 3.9 stacks of n x n blocks.
    """
    return 2 * 8 * (K + 1) * n * (n + 4)


def step_factors(path: OperatorPath, scheme: Scheme = Scheme.CRANK_NICOLSON) -> StepFactors:
    """The one-step factors of a stepper; the initial column
    U(t_i, 0) = S_{i-1} ... S_0 and the left sums follow by recursion."""
    return StepFactors(grid=path.grid, factors=_one_step_factors(path, scheme))


def evolution_stepper(path: OperatorPath, scheme: Scheme = Scheme.CRANK_NICOLSON) -> PropagatorTable:
    """Full table of composed one-step factors, U(t_i, t_j) = S_{i-1} ... S_j.

    The cocycle identity holds by construction (up to roundoff in the stored
    products).  The solver uses :func:`step_factors`; this table is the
    oracle that the factor recursion is checked against.
    """
    n = path.dim
    eye = np.eye(n)
    factors = _dense_factors(path, scheme)
    rows = [eye[None, :, :].copy()]
    for i in range(1, path.grid.K + 1):
        row = np.empty((i + 1, n, n))
        row[:i] = np.matmul(factors[i - 1], rows[i - 1])
        row[i] = eye
        rows.append(row)
    return PropagatorTable(
        grid=path.grid, method_tag=PropagatorMethod.STEPPER, rows=rows, scheme=scheme
    )


def holder_seminorm(path: OperatorPath, rho: float) -> float:
    """max over node pairs of ||A(t_i) - A(t_j)||_2 / (t_i - t_j)^rho, plus the
    max node norm -- the discrete Hoelder norm of the path."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0,1), got {rho}")
    mats = path.matrices
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
