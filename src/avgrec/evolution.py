"""Nonautonomous evolution operators on a uniform time grid.

Two independent constructions of the propagator U(t_i, t_j) of
v' = A(t) v are provided, as sweeps that never form U itself:

* the frozen-coefficient kernel series
      U = a + a * w,    a(t, s) = exp((t-s) A(s)),
      w  = resolvent of  k(t, s) = [A(t) - A(s)] a(t, s),
  where * is the Volterra convolution in time and w solves
  w = k + k * w.  On strictly lower-triangular tables the map w -> k * w
  is nilpotent, so the discrete equation is solved exactly by forward
  substitution over the rows, with no tolerance and no sweep cap;
* composed Crank-Nicolson steps, whose cocycle identity holds by
  construction.

A fixed-point sweep needs only the initial column U(t_i, 0) and the
trapezoid Duhamel sums G_i; the last of them, G_K, is also the terminal
forcing.  Both constructions serve them from one forward recursion of left
sums on the widened right-hand side [I | h f] (:meth:`_Sweep.sweep`,
returning :class:`SweepValues`), in O(K n^2) memory: the stepper from its K
one-step factors S_j (:class:`StepFactors`: O(K n^2) for the factors of a
tridiagonal path, one Gaussian elimination over all K nodes at once with
LAPACK gtsv for the nodes it would pivot, O(K n^3) through one stacked dense
LU otherwise, and one K-step loop of (n, n) x (n, n+1) products,
O(K n^3)), the kernel series from its K frozen steps exp(h A_j)
(:class:`SeriesSweep`, O(K^2 n^3), forming each difference A_m - A_l once),
neither forming a table.  The full lower-triangular tables of both
constructions, O(K^2 n^2) memory, are test oracles (``tests/oracles.py``)
and serve the same ``sweep`` entry from their rows.

An :class:`OperatorPath` holds either the dense (K+1, n, n) stack of the
A(t_j) or, built by :meth:`OperatorPath.from_bands` from a tridiagonal
model's ``assemble_bands``, their three diagonals.  The stepper's
elimination reads only the diagonals, so on a band-built path no dense
stack is formed; the kernel series and the dense LU form it from the
bands on first access.

The kernel k carries an integrable (t-s)^(rho-1) singularity when A is only
rho-Hoelder in time.  Discrete convolutions therefore use a product rule:
interior nodes weighted h, and the singular cell adjacent to the lower
endpoint replaced by the exact cell integral of (t-s)^(rho-1) against the
nearest kernel value, which amounts to an extra weight h/rho on that cell.

Sweeps are immutable once built and safe to reuse across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import NumericalError
from .spatial import band_stack, matrix_exponential

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


@dataclass(frozen=True, eq=False, init=False)
class OperatorPath:
    """Time-indexed family of generator matrices A(t_j) with declared
    Hoelder exponent; the seminorm itself is not computed here.

    A path is built from the dense (K+1, n, n) stack,
    ``OperatorPath(grid=..., matrices=..., holder_rho=...)``, or from the
    three central diagonals of a tridiagonal family
    (:meth:`from_bands`).  Each form holds what it was given and derives
    the other on first access only: a band-built path forms ``matrices``
    when the series, the dense factors or a test read it, never on the
    stepper's path.
    """

    grid: TimeGrid
    holder_rho: float
    dim: int
    _bands: tuple | None = field(repr=False)  # as given to from_bands

    def __init__(self, grid: TimeGrid, matrices: np.ndarray, holder_rho: float):
        m = np.asarray(matrices, dtype=float)
        if m.ndim != 3 or m.shape[0] != grid.K + 1 or m.shape[1] != m.shape[2]:
            raise ValueError(f"need {grid.K + 1} square matrices, got shape {m.shape}")
        self._hold(grid, holder_rho, m.shape[1], None)
        object.__setattr__(self, "matrices", m)

    @classmethod
    def from_bands(
        cls, grid: TimeGrid, bands: tuple[np.ndarray, np.ndarray, np.ndarray], holder_rho: float
    ) -> "OperatorPath":
        """The path whose A(t_j) has the (sub, diag, super) diagonals
        ``bands``, shapes (K+1, n-1), (K+1, n) and (K+1, n-1), and exact
        zeros elsewhere; :attr:`tridiagonal` returns them as given."""
        sub, diag, sup = (np.asarray(band, dtype=float) for band in bands)
        n = diag.shape[-1] if diag.ndim == 2 else 0
        shapes = (sub.shape, diag.shape, sup.shape)
        if n < 1 or shapes != ((grid.K + 1, n - 1), (grid.K + 1, n), (grid.K + 1, n - 1)):
            raise ValueError(f"need the diagonals of {grid.K + 1} square matrices, got {shapes}")
        path = cls.__new__(cls)
        path._hold(grid, holder_rho, n, (sub, diag, sup))
        return path

    def _hold(self, grid: TimeGrid, holder_rho: float, dim: int, bands: tuple | None) -> None:
        if not 0.0 < holder_rho < 1.0:
            raise ValueError(f"holder exponent must lie in (0,1), got {holder_rho}")
        held = {"grid": grid, "holder_rho": holder_rho, "dim": dim, "_bands": bands}
        for name, value in held.items():
            object.__setattr__(self, name, value)

    @cached_property
    def matrices(self) -> np.ndarray:
        """A(t_j) for j = 0..K, shape (K+1, n, n); on a band-built path,
        formed from the bands on first access."""
        return band_stack(*self._bands)

    @cached_property
    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The (sub, diag, super) diagonals of every A(t_j), shapes
        (K+1, n-1), (K+1, n) and (K+1, n-1): on a band-built path the bands
        it was given, on a dense path views of the stack when no matrix has
        a nonzero entry outside them, None otherwise."""
        if self._bands is not None:
            return self._bands
        views = tuple(np.diagonal(self.matrices, k, axis1=1, axis2=2) for k in (-1, 0, 1))
        inside = sum(np.count_nonzero(view) for view in views)
        return views if np.count_nonzero(self.matrices) == inside else None


class PropagatorMethod(Enum):
    KERNEL_SERIES = "kernel_series"
    STEPPER = "stepper"


@dataclass(frozen=True)
class SweepValues:
    """What one fixed-point sweep reads of a propagation, for one forcing f:
    the initial column U(t_i, 0) and the trapezoid Duhamel sums G_i of f."""

    column: np.ndarray  # (K+1, n, n)
    sums: np.ndarray  # (K+1, n)


class _Sweep:
    """The sweep interface of a propagation from its one forward recursion
    ``_left_sums(forcing)``: for a forcing stack F of shape (K+1, n, r) it
    returns X_i = [U(t_i, 0) | sum_{m<i} U(t_i, t_m) F_m], shape
    (K+1, n, n+r), with X_0 = [I | 0]."""

    @cached_property
    def column(self) -> np.ndarray:
        """U(t_i, 0) for all i, shape (K+1, n, n): the recursion with no forcing."""
        return self._left_sums(np.empty((self.grid.K + 1, self.dim, 0)))

    def sweep(self, f_states: np.ndarray) -> SweepValues:
        """Column and trapezoid Duhamel sums
        G_i = sum_m wts_m U(t_i, t_m) f(t_m) from one recursion on the
        widened right-hand side [I | h f], width n+1.

        With H_i the left sums of h f:
            G_i = H_i - (h/2) U(t_i, 0) f_0 + (h/2) f_i.
        """
        h = self.grid.h
        n = self.dim
        left = self._left_sums((h * f_states)[:, :, None])
        column = left[:, :, :n]
        sums = left[:, :, n] - 0.5 * h * (column @ f_states[0]) + 0.5 * h * f_states
        return SweepValues(column, sums)


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


def _frozen_steps(path: OperatorPath) -> np.ndarray:
    """The K frozen steps exp(h A(t_j)), j = 0..K-1, shape (K, n, n), from
    one stacked matrix exponential."""
    return matrix_exponential(path.matrices[:-1], path.grid.h)


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
    and :meth:`SeriesSweep.sweep`) in bytes: five stacks of K+1 float64
    n x (n+1) blocks.

    The recursion holds the frozen steps, the carried products, the left
    sums, and at the last nodes the differences A_m - A_l and their products
    with the carried blocks; its right-hand side is [I | h f].
    """
    return 5 * 8 * (K + 1) * n * (n + 1)


def evolution_series(path: OperatorPath) -> SeriesSweep:
    """Sweep interface of the kernel series U = a + a*w: the K frozen steps
    from one stacked matrix exponential.

    A sweep's column U(t_i, 0) and Duhamel sums are one recursion on
    [I | h f], O(K^2 n^2 (n+1)).  On a constant path the
    kernel is exactly zero and the column equals that of the dense series
    table (``tests/oracles.py``) bit for bit.
    """
    return SeriesSweep(path=path, steps=_frozen_steps(path))


def _one_step_factors(path: OperatorPath) -> np.ndarray:
    """Crank-Nicolson steps S_j for j = 0..K-1, shape (K, n, n), from
    (I - c A(t_{j+1})) S_j = R_j with c = h/2 and R_j = I + c A(t_j).

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
        return _dense_factors(path)
    K, n = path.grid.K, path.dim
    c = 0.5 * path.grid.h
    sub, diag, sup = (band[1:] for band in bands)
    # The same roundings as the dense I - c A: 1 - c a on the diagonal, -(c a) off it.
    lower, main, upper = -c * sub, 1.0 - c * diag, -c * sup
    # Row r of each band at every node, for the pass over all nodes.
    low_rows, pivots, up_rows = lower.T.copy(), main.T.copy(), upper.T.copy()
    rows = np.zeros((n, K, n))  # rows[i, j]: row i of R_j, solved into row i of S_j
    idx = np.arange(n)
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
    if n == 1:
        # gtsv's wrapper wants off-diagonals of length max(n - 1, 1); gtsv
        # reads none of them at n = 1.
        lower = upper = np.zeros((K, 1))
    for j in np.flatnonzero(redo):
        # R_j from node j's bands, as the dense c A(t_j) with 1 added on the diagonal.
        rhs = band_stack(rhs_sub[:, j], rhs_diag[:, j] + 1.0, rhs_sup[:, j])
        *_, solution, info = dgtsv(lower[j], main[j], upper[j], rhs)
        if info > 0:
            raise NumericalError(
                f"singular one-step matrix at node {j + 1}: zero pivot in row {info} "
                "of the tridiagonal solve"
            )
        factors[j] = solution
    return factors


def _dense_factors(path: OperatorPath) -> np.ndarray:
    """The one-step factors of :func:`_one_step_factors` on any path, from
    one stacked dense LU solve."""
    h = path.grid.h
    eye = np.eye(path.dim)
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
    :meth:`StepFactors.sweep`) on a tridiagonal path in bytes: two stacks of
    K+1 float64 n x (n+2) blocks.

    The sweep holds the K factors, the K+1 left-sum blocks of width n+1
    and, while it forms the Duhamel sums, a few (K+1, n) forcing and sum
    arrays, which the two extra columns cover.  Every shipped model is
    tridiagonal.  The dense LU of other paths holds its left- and
    right-hand sides next to the solution; traces of the factors alone at
    n = 16 peak at 2.6 to 3.9 stacks of n x n blocks.
    """
    return 2 * 8 * (K + 1) * n * (n + 2)


def step_factors(path: OperatorPath) -> StepFactors:
    """The one-step factors of a stepper; the initial column
    U(t_i, 0) = S_{i-1} ... S_0 and the left sums follow by recursion."""
    return StepFactors(grid=path.grid, factors=_one_step_factors(path))
