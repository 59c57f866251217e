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

A fixed-point sweep needs only B[U(., 0)] and B[G] under its condition B
(``averaging``), G the trapezoid Duhamel sums, and the states
U(t_i, 0) Xi + G_i of one Xi (G is the states of Xi = 0, G_K the terminal
forcing).  Every construction returns them as one :class:`SweepValues`,
stacked over a batch's rows, in O(K n^2) memory; none forms U.

The stepper (:class:`StepFactors`) carries the forcing in its steps, the
affine maps T_j = [[S_j, S_j qw_j f_j], [0, 1]] (S_j the one-step factor,
qw the trapezoid weights), from one Gaussian elimination on the bands over
all K nodes at once (:func:`_eliminated_steps`, O(K n^2), with a NumPy
port of LAPACK dgtsv for the nodes that need row interchanges).  It never
chains them: it observes them by Horner's rule (:func:`_observed_steps`,
O(K n^3)) and rebuilds the states by one forward vector pass, so a sweep
holds one (K, n+1, n+1) stack.  A stack of R paths, such as the rows of a
scan, takes one elimination and passes of stacked products; a singular
one-step matrix in any row fails the whole stack.  The kernel series
(:func:`evolution_series`) recurs over the frozen steps exp(h A_j) of the
nodes 0..K-1 (:class:`SeriesSweep`, O(K^2 n^3)), on a constant path too,
whose kernel is exactly zero.  The full tables of both constructions,
O(K^2 n^2) memory, and the stepper's chain are test oracles
(``tests/oracles.py``).

A path whose every generator is, bit for bit, a scalar kappa_j times the
Laplacian's stencil (reaction-diffusion, the linear model, chemotaxis at
u = 0) shares the stencil's eigenvectors V at every node, so its
Crank-Nicolson steps, and the kernel series' one frozen step on a constant
path, are one number per mode (:func:`modal_factors`).  Such a path sweeps
in the eigenbasis (:func:`modal_sweep`), where the resolvent is diagonal:
O(K n) recursions between two transforms, the same discretisation with
other rounding.

Neither construction imports SciPy: the kernel series takes its frozen
steps from ``spatial.matrix_exponential``, a batched NumPy Pade
exponential.  :func:`_dgtsv`, reference LAPACK dgtsv with its row
interchanges, its fill and its zero-pivot info, runs each of dgtsv's
statements as one operation over a batch of systems; it solves the
stepper's nodes that need row interchanges or meet a zero pivot.
:func:`solve_tridiagonal`, dgtsv's loops for one right-hand side without
interchanges on Python floats, takes each step of the forward IMEX solve
and hands a step that interchanges rows to the port.  Both equal LAPACK
dgtsv bit for bit.

An :class:`OperatorPath` holds the three central diagonals of every
A(t_j), as a model's ``linearise`` returns them: every generator in
the package is tridiagonal.  The stepper's elimination reads only the
diagonals; the kernel series forms the dense (K+1, n, n) stack of the
generators from them (``OperatorPath.generators``).

The kernel k carries an integrable (t-s)^(rho-1) singularity when A is only
rho-Hoelder in time.  Discrete convolutions therefore use a product rule:
interior nodes weighted h, and the singular cell adjacent to the lower
endpoint replaced by the exact cell integral of (t-s)^(rho-1) against the
nearest kernel value, which amounts to an extra weight h/rho on that cell.

Propagations are immutable once built and hold no buffers: each sweep
makes its own steps and passes, so one propagation may be swept from
several threads at once.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .averaging import node_weights, observe
from .errors import NumericalError
from .spatial import BaseOperator, band_stack, laplacian_stencil, matrix_exponential, read_only

# Largest estimated peak (bytes) admitted for either propagation; see
# series_peak_bytes and stepper_peak_bytes.
MEMORY_BUDGET = 2 * 2**30


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*T/K, j = 0..K.  K is held as a Python int; the
    nodes and trapezoid weights are computed once per grid, read-only."""

    T: float
    K: int

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"horizon must be positive and finite, got T={self.T}")
        try:
            K = operator.index(self.K)
        except TypeError:
            raise ValueError(f"the number of steps must be an integer, got K={self.K!r}") from None
        if K < 1:
            raise ValueError(f"need at least one step, got K={K}")
        object.__setattr__(self, "K", K)

    @property
    def h(self) -> float:
        return self.T / self.K

    @cached_property
    def nodes(self) -> np.ndarray:
        return read_only(np.linspace(0.0, self.T, self.K + 1))

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights on [0, T]: h/2 at both ends, h inside."""
        qw = np.full(self.K + 1, self.h)
        qw[0] = qw[-1] = 0.5 * self.h
        return read_only(qw)


@dataclass(frozen=True, eq=False)
class OperatorPath:
    """Time-indexed family of tridiagonal generator matrices A(t_j), held as
    their three central diagonals, with declared Hoelder exponent; the
    seminorm itself is not computed here.

    ``bands`` are the (sub, diag, super) diagonals of every A(t_j), shapes
    (K+1, n-1), (K+1, n) and (K+1, n-1), as a model's ``linearise``
    returns them; every entry off them is an exact zero.  A stack of R paths
    on one grid carries a leading axis of R rows on each band.
    """

    grid: TimeGrid
    bands: tuple[np.ndarray, np.ndarray, np.ndarray]
    holder_rho: float

    def __post_init__(self):
        sub, diag, sup = (np.asarray(band, dtype=float) for band in self.bands)
        lead = diag.shape[:-2] if diag.ndim in (2, 3) else None
        n = diag.shape[-1] if lead is not None else 0
        K = self.grid.K
        shapes = (sub.shape, diag.shape, sup.shape)
        if n < 1 or shapes != tuple(lead + (K + 1, width) for width in (n - 1, n, n - 1)):
            raise ValueError(f"need the diagonals of {K + 1} square matrices, got {shapes}")
        if not 0.0 < self.holder_rho < 1.0:
            raise ValueError(f"holder exponent must lie in (0,1), got {self.holder_rho}")
        object.__setattr__(self, "bands", (sub, diag, sup))

    @property
    def dim(self) -> int:
        return self.bands[1].shape[-1]

    @property
    def rows(self) -> tuple["OperatorPath", ...]:
        """The single paths of a stack, each on views of its bands."""
        return tuple(
            OperatorPath(self.grid, row, self.holder_rho) for row in zip(*self.bands)
        )

    def generators(self, nodes=slice(None)) -> np.ndarray:
        """The dense A(t_j) of the ``nodes`` (an index or a slice of the node
        axis, all K+1 by default), formed from their bands, shape
        (nodes, n, n): the kernel series reads them, the stepper does not."""
        return band_stack(*(band[..., nodes, :] for band in self.bands))


class PropagatorMethod(Enum):
    STEPPER = "stepper"
    KERNEL_SERIES = "series"


@dataclass(frozen=True)
class SweepValues:
    """What one fixed-point sweep of R rows reads of their propagations
    under a condition B, one forcing f per row: the resolvent B[U(., 0)]
    (R, n, n), or its eigenvalues (R, n) where ``basis`` holds an
    orthonormal basis V (one mode per column) that diagonalises it; B[G]
    (R, n), in V's coordinates where V is set; ``rebuild``, from the rows'
    Xi (R, n), in V's coordinates where V is set, to their states
    U(t_i, 0) Xi + G_i (R, K+1, n), whose node 0 is Xi; and ``finite``,
    whether each row's propagation is finite (R,), read only to name the
    error of a sweep whose resolvents or states are not: the solve raises
    it for all R rows, and the sweep redoes them one by one."""

    resolvent: np.ndarray
    sums: np.ndarray
    rebuild: Callable[[np.ndarray], np.ndarray]
    finite: Callable[[], np.ndarray]
    basis: np.ndarray | None = None


def _observed_rows(cond, stack: np.ndarray) -> np.ndarray:
    """``averaging.observe`` of each row of an (R, K+1, ...) stack in one
    call on its node-major view, each row its own call's bit for bit."""
    return observe(cond, stack.swapaxes(0, 1))


def _column_values(cond, column: np.ndarray, sums: np.ndarray, basis=None) -> SweepValues:
    """The SweepValues of R rows from their columns U(t_i, 0) (R, K+1, n, n),
    or, with the basis V, their eigenvalues (R, K+1, n), and their Duhamel
    sums G (R, K+1, n), in V's coordinates where V is set: observed by one
    ``averaging.observe`` each (:func:`_observed_rows`) and rebuilt as
    column Xi + G, all rows in one stacked product, or, with V, all rows
    times V^T in one product; each row's values are its own sweep's bit
    for bit."""

    def rebuild(xi):
        with np.errstate(invalid="ignore"):  # inf * 0 of a non-finite column
            if basis is None:
                return np.matmul(column, xi[:, None, :, None])[..., 0] + sums
            return (column * xi[:, None] + sums) @ basis.T

    return SweepValues(
        resolvent=_observed_rows(cond, column),
        sums=_observed_rows(cond, sums),
        rebuild=rebuild,
        finite=lambda: np.isfinite(column).all(axis=tuple(range(1, column.ndim))),
        basis=basis,
    )


@dataclass(frozen=True)
class StepFactors:
    """The Crank-Nicolson stepper of a stack of R paths, in O(K n^2) memory
    per row; it holds the paths alone."""

    path: OperatorPath

    def sweep(self, cond, f_states: np.ndarray) -> SweepValues:
        """The SweepValues of the R paths under ``cond`` for their forcing f
        (R, K+1, n), from the affine steps T_j of [I | qw f], whose chain
        X_i = T_{i-1} ... T_0 holds [U(t_i, 0) | H_i] in its top rows, H_i
        the left sums of qw f, so that G_0 = 0 and G_i = H_i + (h/2) f_i.
        B[X] = [B[U(., 0)] | B[H]] is one backward pass over the steps, and
        the states of Xi the forward pass [u_{j+1}; 1] = T_j [u_j; 1] from
        [Xi; 1], plus (h/2) f."""
        grid, n = self.path.grid, self.path.dim
        h = grid.h
        weighted = grid.trapezoid_weights[:, None] * f_states
        steps = _eliminated_steps(self.path.bands, h, weighted[..., None])
        tail = 0.5 * h * f_states
        tail[:, 0] = 0.0
        top = _observed_steps(node_weights(cond), steps)

        def rebuild(xi):
            R, K = steps.shape[:2]
            augmented = np.empty((R, K + 1, n + 1))
            augmented[:, 0, :n], augmented[:, 0, n] = xi, 1.0
            nodes, product = _node_major(steps)
            vectors = augmented[0] if R == 1 else augmented.swapaxes(0, 1)[..., None]
            with np.errstate(invalid="ignore"):  # inf * 0 of a non-finite step
                for step, here, ahead in zip(nodes, vectors, vectors[1:]):
                    product(step, here, out=ahead)
            return augmented[..., :n] + tail

        return SweepValues(
            resolvent=top[..., :n],
            sums=top[..., n] + _observed_rows(cond, tail),
            rebuild=rebuild,
            finite=lambda: np.isfinite(steps).all(axis=(1, 2, 3)),
        )


def _node_major(steps: np.ndarray) -> tuple:
    """The steps (R, K, n+1, n+1) node by node and the product that applies
    them: ndarray.dot on one row's 2-D steps, cheaper per node, or np.matmul
    on (R, n+1, n+1) slices; each row's product is the same BLAS call."""
    if len(steps) == 1:
        return steps[0], np.ndarray.dot
    return steps.swapaxes(0, 1), np.matmul


def _observed_steps(gamma: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The top n rows of B[X] = sum_i gamma_i X_i, (R, n, n+1), for the
    chain X_i = T_{i-1} ... T_0 of the affine steps (R, K, n+1, n+1) and the
    node weights gamma (K+1,), by Horner's rule from the last node:

        Y_K = gamma_K I,   Y_j = gamma_j I + Y_{j+1} T_j,   B[X] = Y_0,

    carrying only the top n rows of each Y_j in two buffers.  Adding a zero
    gamma_j changes no entry (but a -0.0 on the diagonal), so it is skipped:
    a terminal difference, zero at its K-1 interior nodes, adds at node 0
    alone."""
    R, K, m, _ = steps.shape
    n = m - 1
    nodes, product = _node_major(steps)
    shape = nodes.shape[1:-2] + (n, m)
    here, ahead = np.zeros(shape), np.empty(shape)
    # The (i, i) entries, i < n, of each buffer as a strided view.
    on_here, on_ahead = (buf.reshape(shape[:-2] + (n * m,))[..., :: m + 1] for buf in (here, ahead))
    on_here[...] = gamma[K]
    for weight, step in zip(gamma[-2::-1], nodes[::-1]):
        product(here, step, out=ahead)
        if weight:
            on_ahead += weight
        here, ahead, on_here, on_ahead = ahead, here, on_ahead, on_here
    return here.reshape(R, n, m)


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
    With the ``steps`` E_l = exp(h A_l) of the nodes 0..K-1, node l carries
    the product p_l = a[m, l] g_l: each step advances every carried product
    by p_l <- E_l p_l and starts p_{m-1} = E_{m-1} g_{m-1}; R_m sums them,
    and k[m, l] g_l = (A_m - A_l) p_l.  A sweep costs O(K^2 n^2 (n+r)).  The
    identity block of r_m is zero beyond node 0, so its r_m and s_m terms
    are skipped there.  X_0 = [I | 0].
    """
    K, h, n = path.grid.K, path.grid.h, path.dim
    end = h / path.holder_rho
    mats = path.generators()
    left = np.zeros((K + 1, n, n + forcing.shape[-1]))
    carried = np.empty((K,) + left.shape[1:])  # p_l for the nodes l < m
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
class SeriesSweep:
    """The kernel series of one path, in O(K n^2) memory: the path and the
    frozen steps exp(h A_j) of its nodes 0..K-1; every quantity comes from
    :func:`_series_left_sums`, O(K^2 n^2 (n+1)) per sweep, and a, k, w
    and U are never formed.  On a constant path the kernel terms
    (A_m - A_l) p_l are exactly zero."""

    path: OperatorPath
    steps: np.ndarray  # (K, n, n)

    def sweep(self, cond, f_states: np.ndarray) -> SweepValues:
        """The SweepValues, a batch of one row, under ``cond`` for the path's
        forcing f (1, K+1, n), from one recursion on [I | qw f]: the column
        and the left sums H of qw f, so that G_i = H_i + (h/2) f_i, i >= 1."""
        grid, n = self.path.grid, self.path.dim
        weighted = grid.trapezoid_weights[:, None] * f_states
        left = _series_left_sums(self.path, self.steps, weighted[0, ..., None])
        sums = left[None, ..., n].copy()
        sums[:, 1:] += 0.5 * grid.h * f_states[:, 1:]
        return _column_values(cond, left[None, ..., :n], sums)


def modal_factors(
    path: OperatorPath, base: BaseOperator, method: PropagatorMethod
) -> tuple[np.ndarray, np.ndarray]:
    """The per-mode steps of each path of a stack of R paths in the
    eigenbasis of ``base``'s Laplacian, shape (R, K, n) (None where no row
    takes them), and whether each row takes them, shape (R,).

    A row takes them where every node's bands are kappa_j times the
    Laplacian's stencil bit for bit (sub = sup = kappa_j, the main band
    kappa_j times the stencil's; kappa_j read off ``sup[..., 0]``), and
    every step is finite.  With mu the stencil's spectrum, the
    Crank-Nicolson step is e_j = (1 + c kappa_j mu) / (1 - c kappa_{j+1} mu),
    c = h/2, the same discretisation as the dense step with other rounding.
    The kernel series takes them on a constant path with kappa_0 >= 0 only,
    whose one frozen step is exp(h kappa_0 mu), below the overflow cap: any
    other path, like a step that is not finite, goes to the dense route
    with its errors.
    """
    sub, main, sup = path.bands
    if path.dim < 2:  # no off-diagonal band to read kappa off
        return None, np.zeros(main.shape[:-2], dtype=bool)
    kappa = sup[..., 0]
    scaled = kappa[..., None]
    # Node 0 alone turns most other paths away.
    exact = (sub[..., :1, :] == scaled[..., :1, :]).all(axis=(-2, -1))
    if exact.any():
        exact &= ((sub == scaled) & (sup == scaled)).all(axis=(-2, -1))
        exact &= (main == scaled * laplacian_stencil(base.grid)[1]).all(axis=(-2, -1))
    if not exact.any():
        return None, exact
    mu = base.eigenvalues * base.grid.spacing**2
    h = path.grid.h
    with np.errstate(all="ignore"):
        if method is PropagatorMethod.STEPPER:
            c = 0.5 * h
            steps = (1.0 + c * scaled[..., :-1, :] * mu) / (1.0 - c * scaled[..., 1:, :] * mu)
        else:
            exact &= (kappa == kappa[..., :1]).all(axis=-1) & (kappa[..., 0] >= 0.0)
            steps = np.exp(h * scaled[..., :1, :] * mu)
            steps = np.broadcast_to(steps, steps.shape[:-2] + (path.grid.K, base.grid.n))
    return steps, exact & np.isfinite(steps).all(axis=(-2, -1))


def modal_sweep(
    cond, basis: np.ndarray, steps: np.ndarray, f_states: np.ndarray
) -> SweepValues:
    """The SweepValues of R rows under ``cond`` from their per-mode steps
    e_j (R, K, n) (:func:`modal_factors`) and forcing f (R, K+1, n), in the
    eigenbasis V (``basis``): the column is the running product of the
    steps, and with F = qw f V (qw the trapezoid weights) the left sums
    recur as

        H_0 = 0,   H_{j+1} = e_j (H_j + F_j),

    so that G_i = H_i + (h/2) f_i V for i >= 1, O(K n) beside the two
    transforms of f.  Every operation is elementwise or one product per
    row, so each row's values are its own sweep's bit for bit."""
    grid = cond.grid
    R, K, n = steps.shape
    column = np.empty((R, K + 1, n))
    column[:, 0] = 1.0
    np.cumprod(steps, axis=1, out=column[:, 1:])
    modal_f = f_states @ basis
    # Node-major, so that each step's (R, n) operands are one index away:
    # running[j] holds H_j + F_j once H_j is known.
    running = (grid.trapezoid_weights[:, None] * modal_f).transpose(1, 0, 2).copy()
    left = np.empty_like(running)
    left[0] = 0.0
    for step, here, after, ahead in zip(steps.transpose(1, 0, 2), running, running[1:], left[1:]):
        np.multiply(step, here, out=ahead)
        after += ahead
    sums = np.ascontiguousarray(left.transpose(1, 0, 2))
    sums[:, 1:] += 0.5 * grid.h * modal_f[:, 1:]
    return _column_values(cond, column, sums, basis)


def series_peak_bytes(n: int, K: int) -> int:
    """Estimated peak memory of a kernel-series sweep (:func:`evolution_series`
    and its ``sweep``) in bytes: six stacks of K+1 float64 n x (n+1) blocks.

    The recursion forms the dense (K+1, n, n) generator stack from the
    bands (``OperatorPath.generators``) and holds the K frozen steps, the
    carried products, the left sums, and at the last nodes the differences
    A_m - A_l and their products with the carried blocks, on [I | qw f].
    The estimate covers every dense path, a constant one too.
    """
    return 6 * 8 * (K + 1) * n * (n + 1)


def evolution_series(path: OperatorPath) -> SeriesSweep:
    """Sweep interface of the kernel series U = a + a*w: the dense
    generators of the nodes 0..K-1 exponentiated, swept by
    :class:`SeriesSweep` in O(K^2 n^3).  The overflow cap names the first
    node over it.
    """
    K, h = path.grid.K, path.grid.h
    return SeriesSweep(path=path, steps=matrix_exponential(path.generators(slice(0, K)), h))


def _eliminated_steps(bands: tuple, h: float, forcing: np.ndarray) -> np.ndarray:
    """Affine Crank-Nicolson steps [[S_j, s_j], [0, I_r]] for j = 0..K-1
    of R paths, shape (R, K, n+r, n+r), from

        (I - c A(t_{j+1})) [S_j | s_j] = R_j [I | F_j],

    c = h/2 and R_j = I + c A(t_j), for a forcing F of shape
    (R, K+1, n, r): s_j = S_j F_j, and with r = 0 the steps are the factors
    S_j.  Raises NumericalError at the first singular one-step matrix,
    naming its node.

    ``bands`` are the (sub, diag, sup) diagonals of the R paths, shapes
    (R, K+1, n-1), (R, K+1, n) and (R, K+1, n-1).  One Gaussian elimination
    solves all R K nodes at once, O(R K n (n+r)): the right-hand sides are
    an (n+r, R K, n+r) stack of rows written straight from the bands and
    the forcing, whose last r rows are [0 | I_r], so each step is one
    contiguous (R K, n+r) operation, in the order of LAPACK dgtsv without
    row interchanges.  The elimination is elementwise over nodes and over
    right-hand-side columns, so each node's factor S_j is the same bit for
    bit whatever else is eliminated beside it.  Nodes that dgtsv would
    pivot (known from the pivots, which are eliminated first) or whose
    factor turns non-finite (a zero pivot) are solved again, all at once and
    in place on their slabs of the stack, by :func:`_dgtsv`, the NumPy port
    of reference dgtsv: the steps, a transposed view of the stack, equal a
    per-node dgtsv solve value for value (the row pass leaves out dgtsv's
    fill term -DL(i) B(i+2), whose DL(i) = +0.0 can turn a -0.0 into +0.0),
    and the port's info per system names the node of the first zero pivot.
    """
    R, K, n, r = bands[1].shape[0], bands[1].shape[1] - 1, bands[1].shape[2], forcing.shape[-1]
    c = 0.5 * h
    # Node j of path p is system p K + j; the left-hand side is A(t_{j+1}).
    sub, diag, sup = (band[:, 1:].reshape(R * K, band.shape[-1]) for band in bands)
    # The same roundings as the dense I - c A: 1 - c a on the diagonal, -(c a) off it.
    lower, main, upper = -c * sub, 1.0 - c * diag, -c * sup
    # Row r of each band at every node, for the pass over all nodes.
    low_rows, pivots, up_rows = lower.T.copy(), main.T.copy(), upper.T.copy()
    # R_j = I + c A(t_j) as the dense c A(t_j) with 1 added on the diagonal.
    rhs_sub, rhs_diag, rhs_sup = (
        c * band[:, :-1].reshape(R * K, band.shape[-1]).T for band in bands
    )
    rhs_diag += 1.0
    terms = forcing[:, :-1].reshape(R * K, n, r)
    # rows[i, j]: row i of system j's right side, solved in place.
    rows = np.zeros((n + r, R * K, n + r))

    def write_right_sides(systems):
        """Rows i of R_j [I | F_j], and the rows [0 | I_r], of the
        ``systems`` (all, or an index array) written over zeros."""
        diag_j, sub_j, sup_j = (a[:, systems] for a in (rhs_diag, rhs_sub, rhs_sup))
        idx = np.arange(n) if isinstance(systems, slice) else np.arange(n)[:, None]
        rows[idx, systems, idx] = diag_j
        rows[idx[1:], systems, idx[:-1]] = sub_j
        rows[idx[:-1], systems, idx[1:]] = sup_j
        # R_j F_j system by system, on the node-major layout of the bands.
        terms_j = terms[systems]
        applied = diag_j.T[..., None] * terms_j
        applied[:, 1:] += sub_j.T[..., None] * terms_j[:, :-1]
        applied[:, :-1] += sup_j.T[..., None] * terms_j[:, 1:]
        rows[:n, systems, n:] = applied.transpose(1, 0, 2)
        for k in range(n, n + r):
            rows[k, systems, k] = 1.0

    write_right_sides(slice(None))
    facts = np.empty_like(low_rows)
    with np.errstate(all="ignore"):
        for i in range(n - 1):
            facts[i] = low_rows[i] / pivots[i]
            pivots[i + 1] -= facts[i] * up_rows[i]
        # dgtsv interchanges rows where |pivot| < |entry below| (or either
        # is NaN).  The row pass leaves such nodes as they are, since
        # without interchanges they can overflow or go subnormal and slow it
        # down; dgtsv's own elimination solves them below.
        redo = ~(np.abs(pivots[:-1]) >= np.abs(low_rows)).all(axis=0)
        if not redo.all():
            facts[:, redo] = 0.0
            pivots[:, redo] = 1.0
            up_rows[:, redo] = 0.0
            for i in range(n - 1):
                rows[i + 1] -= facts[i][:, None] * rows[i]
            rows[n - 1] /= pivots[-1][:, None]
            for i in range(n - 2, -1, -1):
                rows[i] -= up_rows[i][:, None] * rows[i + 1]
                rows[i] /= pivots[i][:, None]
    # A zero pivot, like any non-finite entry, spreads down its column and
    # back up to row 0; where row 0 of the factor is finite, so is the rest,
    # and dgtsv's extra term 0 * B_{r+2} vanishes.
    redo |= ~np.isfinite(rows[0, :, :n]).all(axis=1)
    systems = np.flatnonzero(redo)
    # The row pass's bands go before the port allocates its own.
    del low_rows, pivots, up_rows, facts
    if systems.size:
        # The right sides rewritten over what the row pass left.
        rows[:, systems] = 0.0
        write_right_sides(systems)
        node_bands = [np.ascontiguousarray(band[systems].T) for band in (lower, main, upper)]
        # The bands of every node go before the port allocates its rows.
        del rhs_sub, rhs_diag, rhs_sup, lower, main, upper
        info = _dgtsv(*node_bands, rows, systems)
        singular = np.flatnonzero(info)
        if singular.size:
            system = systems[singular[0]]
            raise NumericalError(
                f"singular one-step matrix at node {system % K + 1}: zero pivot in row "
                f"{info[singular[0]]} of the tridiagonal solve"
            )
    return rows.transpose(1, 0, 2).reshape(R, K, n + r, n + r)


@np.errstate(all="ignore")
def _dgtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray, nodes: np.ndarray):
    """Reference LAPACK dgtsv on R tridiagonal systems at once: info per
    system, 0 or the row of its first zero pivot.

    The bands are laid out row first, (n-1, R), (n, R) and (n-1, R), so
    that each of dgtsv's statements is one operation over every system,
    with the branch of a row interchange taken per system by selection.
    The right-hand sides are the columns ``nodes`` of an (n, N, r) stack of
    rows; only those columns are read and written, in place, one row at a
    time.  As in dgtsv, d and du are overwritten with U's diagonal and first
    superdiagonal, dl with its second superdiagonal (the fill of the
    interchanges) and b with the solution.  A system that meets a zero pivot,
    where dgtsv returns, runs on here: its info is set, and its bands and
    solution are not dgtsv's.
    """
    n, R = d.shape
    info = np.zeros(R, dtype=int)
    cur = b[0, nodes]  # row i of b, carried through step i
    for i in range(n - 1):
        # dgtsv's test for no interchange, false on a NaN.  Where it fails,
        # rows i and i+1 trade places: the pivot row is row i+1.
        keep = np.abs(d[i]) >= np.abs(dl[i])
        # A zero pivot's fact is 0/0, which makes every later pivot of its
        # system NaN: no system meets a second one.
        info[keep & (d[i] == 0.0)] = i + 1
        pivot, below = np.where(keep, d[i], dl[i]), np.where(keep, dl[i], d[i])
        top, bottom = np.where(keep, du[i], d[i + 1]), np.where(keep, d[i + 1], du[i])
        fact = below / pivot
        d[i], du[i] = pivot, top
        d[i + 1] = bottom - fact * top
        if i < n - 2:
            # An interchange moves row i+1's entry two right of the diagonal
            # up into the fill dl(i); Fortran's -FACT*DL(I) is
            # -(FACT*DL(I)), which sets a NaN's sign.
            dl[i] = np.where(keep, 0.0, du[i + 1])
            du[i + 1] = np.where(keep, du[i + 1], -(fact * du[i + 1]))
        nxt = b[i + 1, nodes]
        row, cur = np.where(keep[:, None], cur, nxt), np.where(keep[:, None], nxt, cur)
        cur -= fact[:, None] * row
        b[i, nodes] = row
    info[d[n - 1] == 0.0] = n
    # Back substitution with U, x_i = (b_i - du_i x_{i+1} - dl_i x_{i+2}) / d_i:
    # dl_i is the fill, or zero where row i was not interchanged.
    x = cur / d[n - 1][:, None]
    b[n - 1, nodes] = x
    if n > 1:
        later, x = x, (b[n - 2, nodes] - du[n - 2][:, None] * x) / d[n - 2][:, None]
        b[n - 2, nodes] = x
    for i in range(n - 3, -1, -1):
        later, x = x, (b[i, nodes] - du[i][:, None] * x - dl[i][:, None] * later) / d[i][:, None]
        b[i, nodes] = x
    return info


def solve_tridiagonal(lower: np.ndarray, main: np.ndarray, upper: np.ndarray, rhs: np.ndarray):
    """(solution, info) of LAPACK dgtsv for one right-hand side (n,), info
    > 0 the row of a zero pivot, by the same elimination on Python floats
    where dgtsv interchanges no rows.

    The loops are reference dgtsv's for one right-hand side without
    interchanges, so the solution equals dgtsv's bit for bit, signed zeros
    and non-finite entries included, and at a zero pivot it is dgtsv's
    partial one.  A system where dgtsv would interchange rows is handed to
    :func:`_dgtsv` as a batch of one, whose solution is dgtsv's where info
    is 0.
    """
    n = main.shape[0]
    dl, d, du, b = lower.tolist(), main.tolist(), upper.tolist(), rhs.tolist()
    for i in range(n - 1):
        if not abs(d[i]) >= abs(dl[i]):
            x = rhs.astype(float)[:, None, None]
            bands = (band.astype(float)[:, None] for band in (lower, main, upper))
            (info,) = _dgtsv(*bands, x, np.zeros(1, dtype=int))
            return x[:, 0, 0], int(info)
        if d[i] == 0.0:
            return np.array(b), i + 1
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        b[i + 1] -= fact * b[i]
    if d[-1] == 0.0:
        return np.array(b), n
    b[-1] /= d[-1]
    if n > 1:
        b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        # dgtsv zeroes dl(i) in the elimination and still subtracts
        # dl(i) * b(i+2), which turns a -0.0 into +0.0 when b(i+2) < 0.
        b[i] = (b[i] - du[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]
    return np.array(b), 0


def stepper_peak_bytes(n: int, K: int) -> int:
    """Estimated peak memory of a stepper sweep (:meth:`StepFactors.sweep`
    and its rebuild) in bytes: K float64 blocks of n x (n+18).  The sweep
    holds its K (n+1)-square steps and at most sixteen (K, n) arrays beside
    them (the elimination's or the dgtsv port's bands and rows, the
    weighted forcing, the rebuilt states): n (n+18) = (n+1)^2 + 16 n - 1.
    The path's bands and the forcing are not counted.  The estimate is per
    path: a sweep of a stack of R paths holds R of them at once.
    """
    return 8 * K * n * (n + 18)
