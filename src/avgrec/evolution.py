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
sums on the widened right-hand side [I | qw f], qw the trapezoid weights
(:meth:`_Sweep.sweep`, returning :class:`SweepValues`), in O(K n^2) memory:
the stepper from its K one-step factors S_j (:class:`StepFactors`: O(K n^2)
for the factors, one Gaussian elimination on the bands over all K nodes at
once with a NumPy port of LAPACK dgtsv for the nodes that need row
interchanges, and one K-step loop of (n, n) x (n, n+1) products,
O(K n^3); a stack of R paths, such as the rows of a scan, takes one
elimination over its R K nodes, or over one node when they all share a
generator, and one K-step loop of stacked products; a singular one-step
matrix in any row fails the whole stack), the kernel series by one of
two routes (:func:`evolution_series`): on a constant path, whose kernel is
exactly zero, the stepper's K-step loop over its one frozen step
exp(h A_0), O(K n^3), and on any other path its own recursion over the
frozen steps exp(h A_j) of the nodes 0..K-1 (:class:`SeriesSweep`,
O(K^2 n^3)); neither forms a table.  The full lower-triangular tables of
both constructions, O(K^2 n^2) memory, are test oracles
(``tests/oracles.py``) and serve the same ``sweep`` entry from their rows.

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
diagonals; the kernel series forms the dense (K+1, n, n) stack from them on
first access.

The kernel k carries an integrable (t-s)^(rho-1) singularity when A is only
rho-Hoelder in time.  Discrete convolutions therefore use a product rule:
interior nodes weighted h, and the singular cell adjacent to the lower
endpoint replaced by the exact cell integral of (t-s)^(rho-1) against the
nearest kernel value, which amounts to an extra weight h/rho on that cell.

Sweeps are immutable once built and safe to reuse across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

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

    @property
    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights on [0, T]: h/2 at both ends, h inside."""
        qw = np.full(self.K + 1, self.h)
        qw[0] = qw[-1] = 0.5 * self.h
        return qw


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

    @cached_property
    def matrices(self) -> np.ndarray:
        """A(t_j) for j = 0..K, shape (K+1, n, n), formed from the bands on
        first access: the kernel series reads it, the stepper does not."""
        return band_stack(*self.bands)

    @property
    def node_keys(self) -> np.ndarray:
        """The three diagonals of every A(t_j) side by side, shape
        (K+1, 3n-2) (with the leading axis of a stack): two rows are equal
        bit for bit exactly where the two generators are."""
        return np.concatenate(self.bands, axis=-1)


class PropagatorMethod(Enum):
    STEPPER = "stepper"
    KERNEL_SERIES = "series"


@dataclass(frozen=True)
class SweepValues:
    """What one fixed-point sweep reads of a propagation, for one forcing f:
    the initial column U(t_i, 0) and the trapezoid Duhamel sums G_i of f;
    a sweep of a stack of R paths carries a leading axis of R rows."""

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
        widened right-hand side [I | qw f], width n+1, with qw the trapezoid
        weights (h/2 at t_0, h inside).  A stack of paths takes a forcing
        f of shape (R, K+1, n), one row per path.

        With H_i the left sums of qw f, which weight the terms m < i:
            G_0 = 0,   G_i = H_i + (h/2) f_i  for i >= 1.
        """
        n = self.dim
        weighted = self.grid.trapezoid_weights[:, None] * f_states
        left = self._left_sums(weighted[..., None])
        sums = left[..., n].copy()
        sums[..., 1:, :] += 0.5 * self.grid.h * f_states[..., 1:, :]
        return SweepValues(left[..., :n], sums)


@dataclass(frozen=True)
class StepFactors(_Sweep):
    """One-step factors S_j = U(t_{j+1}, t_j) of a stepper: the sweep
    interface in O(K n^2) memory, every quantity from the K-step loop of
    :func:`_stepper_left_sums`.  The factors of a stack of R paths carry a
    leading axis of R rows."""

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

    one (n, n) x (n, n+r) product per step, O(K n^2 (n+r)) in all.  Factors
    and forcing of R paths, with a leading axis of R rows, recur together:
    each step is one stacked product, slice by slice that of one path.
    """
    *lead, K, n, _ = factors.shape
    left = np.empty((*lead, K + 1, n, n + forcing.shape[-1]))
    # Views with the node axis first, so that each step's operands are one
    # index away; the layout of every array is unchanged.
    steps, blocks, terms = (np.moveaxis(a, -3, 0) for a in (factors, left, forcing))
    blocks[0] = 0.0
    blocks[0, ..., :n] = np.eye(n)
    carry = blocks[0].copy()
    for j in range(K):
        carry[..., n:] += terms[j]
        np.matmul(steps[j], carry, out=blocks[j + 1])
        carry[...] = blocks[j + 1]
    return left


def _one_generator(path) -> bool:
    """Whether all nodes 0..K of a path, or of a stack of paths, have the
    first's generator bit for bit (``node_keys``), tested last node first."""
    keys = path.node_keys
    bits = np.ascontiguousarray(keys).view(np.uint64).reshape(-1, keys.shape[-1])
    return bool((bits[-1] == bits[0]).all() and (bits == bits[0]).all())


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
    mats = path.matrices
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
class SeriesSweep(_Sweep):
    """The kernel series' sweep interface on a nonconstant path, in O(K n^2)
    memory: the path and the frozen steps exp(h A_j) of its nodes 0..K-1;
    every quantity comes from :func:`_series_left_sums`, O(K^2 n^2 (n+1))
    per sweep, and a, k, w and U are never formed."""

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
    and its ``sweep``) in bytes: six stacks of K+1 float64 n x (n+1) blocks.

    The build forms the path's dense (K+1, n, n) generator stack from its
    bands (``OperatorPath.matrices``); on a nonconstant path the recursion
    holds the K frozen steps, the carried products, the left sums, and at
    the last nodes the differences A_m - A_l and their products with the
    carried blocks, on [I | qw f].  A constant path stays below it.
    """
    return 6 * 8 * (K + 1) * n * (n + 1)


def evolution_series(path: OperatorPath) -> StepFactors | SeriesSweep:
    """Sweep interface of the kernel series U = a + a*w, by one of two routes.

    Where the generators of all nodes 0..K are equal bit for bit (node K
    too: the end term of the last node reads A_K - A_{K-1}), the kernel is
    exactly zero: the one frozen step exp(h A_0) is the factor of every
    step of the stepper's K-step loop, O(K n^3), whose column is the dense
    series table's bit for bit.  Any other path exponentiates a view of its
    nodes 0..K-1 of the dense stack, swept by :class:`SeriesSweep` in
    O(K^2 n^3).  The overflow cap names the first node over it.
    """
    K, h = path.grid.K, path.grid.h
    if _one_generator(path):
        step = matrix_exponential(path.matrices[:1], h)
        return StepFactors(grid=path.grid, factors=np.broadcast_to(step, (K,) + step.shape[1:]))
    return SeriesSweep(path=path, steps=matrix_exponential(path.matrices[:K], h))


def _one_step_factors(bands: tuple, h: float) -> np.ndarray:
    """Crank-Nicolson steps S_j for j = 0..K-1 of R paths, shape
    (R, K, n, n), from (I - c A(t_{j+1})) S_j = R_j with c = h/2 and
    R_j = I + c A(t_j).  Raises NumericalError at the first singular
    one-step matrix, naming its node.

    ``bands`` are the (sub, diag, sup) diagonals of the R paths, shapes
    (R, K+1, n-1), (R, K+1, n) and (R, K+1, n-1).  One Gaussian elimination
    solves all R K nodes at once, O(R K n^2): the right-hand sides are an
    (n, R K, n) stack of rows written straight from the bands, so each step
    is one contiguous (R K, n) operation, in the order of LAPACK dgtsv
    without row interchanges.  The elimination is elementwise over nodes, so
    each node's factor is the same bit for bit whatever else is eliminated
    beside it.  Nodes that dgtsv would pivot (known from the pivots, which
    are eliminated first) or that turn non-finite (a zero pivot) are solved
    again, all at once and in place on their slabs of the stack, by
    :func:`_dgtsv`, the NumPy port of reference dgtsv: the factors, a
    transposed view of the stack, equal a per-node dgtsv solve value for
    value (the row pass leaves out dgtsv's fill term -DL(i) B(i+2), whose
    DL(i) = +0.0 can turn a -0.0 into +0.0), and the port's info per system
    names the node of the first zero pivot.
    """
    R, nodes, n = bands[1].shape
    K = nodes - 1
    c = 0.5 * h
    # Node j of row r is system r K + j; the left-hand side is A(t_{j+1}).
    sub, diag, sup = (band[:, 1:].reshape(R * K, band.shape[-1]) for band in bands)
    # The same roundings as the dense I - c A: 1 - c a on the diagonal, -(c a) off it.
    lower, main, upper = -c * sub, 1.0 - c * diag, -c * sup
    # Row r of each band at every node, for the pass over all nodes.
    low_rows, pivots, up_rows = lower.T.copy(), main.T.copy(), upper.T.copy()
    rows = np.zeros((n, R * K, n))  # rows[i, j]: row i of R_j, solved into row i of S_j
    idx = np.arange(n)
    # R_j = I + c A(t_j) as the dense c A(t_j) with 1 added on the diagonal.
    rhs_sub, rhs_diag, rhs_sup = (
        c * band[:, :-1].reshape(R * K, band.shape[-1]).T for band in bands
    )
    rows[idx, :, idx] = rhs_diag + 1.0
    rows[idx[1:], :, idx[:-1]] = rhs_sub
    rows[idx[:-1], :, idx[1:]] = rhs_sup
    facts = np.empty_like(low_rows)
    with np.errstate(all="ignore"):
        for r in range(n - 1):
            facts[r] = low_rows[r] / pivots[r]
            pivots[r + 1] -= facts[r] * up_rows[r]
        # dgtsv interchanges rows where |pivot| < |entry below| (or either
        # is NaN).  The row pass leaves such nodes as they are, since
        # without interchanges they can overflow or go subnormal and slow it
        # down; dgtsv's own elimination solves them below.
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
    # back up to row 0; where row 0 is finite, so is the rest, and dgtsv's
    # extra term 0 * B_{r+2} vanishes.
    redo |= ~np.isfinite(rows[0]).all(axis=1)
    nodes = np.flatnonzero(redo)
    if nodes.size:
        # R_j rewritten from node j's bands over what the row pass left.
        rows[:, nodes] = 0.0
        rows[idx[:, None], nodes, idx[:, None]] = rhs_diag[:, nodes] + 1.0
        rows[idx[1:, None], nodes, idx[:-1, None]] = rhs_sub[:, nodes]
        rows[idx[:-1, None], nodes, idx[1:, None]] = rhs_sup[:, nodes]
        node_bands = (np.ascontiguousarray(band[nodes].T) for band in (lower, main, upper))
        info = _dgtsv(*node_bands, rows, nodes)
        singular = np.flatnonzero(info)
        if singular.size:
            system = nodes[singular[0]]
            raise NumericalError(
                f"singular one-step matrix at node {system % K + 1}: zero pivot in row "
                f"{info[singular[0]]} of the tridiagonal solve"
            )
    return rows.transpose(1, 0, 2).reshape(R, K, n, n)


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
    """Estimated peak memory of a stepper sweep (:func:`step_factors`, then
    :meth:`StepFactors.sweep`) in bytes: two stacks of K+1 float64
    n x (n+2) blocks.

    The sweep holds the K factors, the K+1 left-sum blocks of width n+1
    and, while it forms the Duhamel sums, a few (K+1, n) forcing and sum
    arrays, which the two extra columns cover.  The path's bands, O(K n),
    are not counted.  The estimate is per path: a sweep of a stack of R
    paths holds R of them at once.
    """
    return 2 * 8 * (K + 1) * n * (n + 2)


def step_factors(path: OperatorPath) -> StepFactors:
    """The one-step factors of a path, or of each path of a stack; the
    initial column U(t_i, 0) = S_{i-1} ... S_0 and the left sums follow by
    recursion.

    Where every node of every path has one generator, bit for bit (every
    path of a sweep from the zero trajectory), the R K steps are one
    system: :func:`_one_step_factors` eliminates one node and the factors
    are a broadcast view of its block, equal to the full elimination's bit
    for bit.  A singular one-step matrix raises NumericalError naming its
    node, in a stack as in a single path.
    """
    stacked = path.bands[1].ndim == 3
    bands = path.bands if stacked else tuple(band[None] for band in path.bands)
    R, K, n = bands[1].shape[0], path.grid.K, path.dim
    if _one_generator(path):
        block = _one_step_factors(tuple(band[:1, :2] for band in bands), path.grid.h)
        factors = np.broadcast_to(block, (R, K, n, n))
    else:
        factors = _one_step_factors(bands, path.grid.h)
    return StepFactors(grid=path.grid, factors=factors if stacked else factors[0])
