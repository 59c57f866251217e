"""Fixed-point recovery of initial states from nonlocal observations.

The iteration map follows the variation-of-constants reformulation: given a
trajectory guess u, freeze the coefficients A(u(t_j)), build the propagation,
compute the candidate initial state through the variant's resolvent, and
reconstruct

    u_new(t_j) = U(t_j, 0) Xi + int_0^{t_j} U(t_j, s) f(u(s)) ds .

Each iteration checks A(u) and f(u) for non-finite values, then builds one
propagation on A(u) and sweeps it once under the variant's condition B
(``averaging.observe``): one forward recursion on the widened right-hand
side [I | qw f] (qw the trapezoid weights, width n+1) gives the resolvent
B[U(., 0)], the condition on the Duhamel sums of f(u), B[G], and a rebuild
of the states U(t_j, 0) Xi + G_j (``evolution.SweepValues``).  The data
shift is M minus B[G].  The solve is one body for every route: one SVD
and a solve, or, where the resolvent is diagonal in the Laplacian's
eigenbasis, its moduli and a division.  The resolvent is singular when
its sigma_min sits at or below 1e-10 times its spectral norm.  The
recovered initial state is the Xi the last sweep solved for, node 0 of
the rebuilt states, so a recovery that converges in k iterations builds k
propagations.

The operator path is the three diagonals of every A(u(t_j)), from one
stacked ``linearise`` call that gives f(u(t_j)) too; the non-finite check
reads the diagonals alone.  The default propagation is the Crank-Nicolson
stepper, whose K steps carry the forcing as an affine column,
[[S_j, S_j qw_j f_j], [0, 1]]: one tridiagonal elimination over all K
nodes at once solves for both, the forcing one more right-hand-side
column (the nodes that need row interchanges are solved together by a
NumPy port of LAPACK dgtsv, so the stepper imports no SciPy).  It observes
the steps by Horner's rule, one (n, n+1) by (n+1, n+1) product per step,
and rebuilds the states by one forward vector pass, so a sweep costs
O(K n^3) time and holds one (K, n+1, n+1) stack; neither the chain of the
steps nor the dense (K+1, n, n) column is formed.  The kernel series
(behind a flag) recurs on its K frozen steps exp(h A_j), formed from the
dense stack, in O(K^2 n^3) time and O(K n^2) memory.  The full propagator
tables of either method and the stepper's chain are test oracles
(``tests/oracles.py``).  A path whose every generator is a scalar
times the base Laplacian (reaction-diffusion, the linear model, chemotaxis
at u = 0, so the first sweep of every recovery, scan and probe from zero)
sweeps in the Laplacian's eigenbasis instead, under either method where
its steps are finite (the series on a constant path of a nonnegative
multiple only): O(K n) recursions between O(K n^2) transforms, where the
resolvent is diagonal, its singular values are the moduli of its
eigenvalues and the solve is a division.  The per-node model work at all
K+1 nodes is two stacked calls per sweep: ``linearise`` for the bands of
A(u(t_j)) and f(u(t_j)), and ``ball_norm`` for the ball norms.

Distances between iterates are measured in the time-weighted norm

    max_{j>=1} t_j^mu |u(t_j)|_xi  +  sup_j |u(t_j)|_beta
      +  max_pairs |u(t_i) - u(t_j)|_beta / (t_i - t_j)^rho ,

with |.|_xi and |.|_beta the spectral norms of orders 2 xi and 2 beta read
from the model's base Laplacian (``spatial.modal_norm``), and the Hoelder
quotient taken over adjacent and dyadic node pairs.  The forward IMEX
solver, one O(n) tridiagonal elimination per step (reference dgtsv on
Python floats, or the NumPy port of dgtsv for a step that interchanges
rows; equal to LAPACK dgtsv bit for bit), provides manufactured data
and the self-convergence error that recovery accuracy is measured against.

There is one iteration loop, over a batch of rows: a scan's amplitudes,
a probe's base run and trials, or the one row of a recovery.  Each
iteration sweeps the rows still running together, with one stacked ball
norm, ``linearise``, propagation build and recursion (each row on its
own route: one modal sweep of the rows in the eigenbasis, one elimination
and stacked passes for the stepper's other rows, and the kernel series'
other rows one by one) and distance; each route's rows then solve
together, one stacked SVD and one floor test, and one stacked solve (or
the moduli and one division), and are rebuilt and checked together.
Each stacked call equals the per-row call slice by slice, bit for bit.
Every stacked stage either serves all its rows or raises, and a sweep
that raises is redone row by row, so that each row meets its own error;
the floor is the one exception, a verdict per row that fails the rows at
the floor in place.  A row leaves the batch
where its own recovery would stop, with the same error, message and
partial report.  A batch holds as many rows as fit the memory budget at
the per-row peak of a sweep.
"""
from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import evolution
from .averaging import (
    AveragingCondition,
    check_resolvent,
    data_shift,
    observe,
    resolvent_matrix,
)
from .errors import BallViolationError, ConfigurationError, ConvergenceError, NumericalError
from .evolution import (
    OperatorPath,
    PropagatorMethod,
    StepFactors,
    SweepValues,
    TimeGrid,
    evolution_series,
    modal_factors,
    modal_sweep,
    series_peak_bytes,
    solve_tridiagonal,
    stepper_peak_bytes,
)
from .models import ball_norm
from .spatial import modal_norm, modal_weights

DIVERGENCE_FACTOR = 1e8


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-grid-indexed state fields, shape (K+1, n)."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.grid.K + 1:
            raise ValueError(
                f"states must have shape ({self.grid.K + 1}, n), got {states.shape}"
            )
        object.__setattr__(self, "states", states)


@dataclass
class RecoveryConfig:
    """Knobs of the fixed-point recovery, the ``[solver]`` keys of a config
    file; each rejection names its key."""

    max_iters: int = 30
    tol_fixed_point: float = 1e-11
    ball_L: float = 0.5
    method: PropagatorMethod = PropagatorMethod.STEPPER

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError(
                f"[solver] max_iters: must be at least 1, got {self.max_iters}"
            )
        if not self.tol_fixed_point > 0:
            raise ConfigurationError(
                f"[solver] tol: fixed-point tolerance must be positive, got {self.tol_fixed_point}"
            )
        if not self.ball_L > 0:
            raise ConfigurationError(
                f"[solver] ball_l: iteration ball radius must be positive, got {self.ball_L}"
            )


def check_iteration_ball(model, config: RecoveryConfig) -> None:
    """Reject an iteration ball radius outside (0, min(r0, 1)), r0 the
    model's ball radius (infinite for a model without a ball)."""
    if not 0.0 < config.ball_L < min(model.ball_radius, 1.0):
        raise ConfigurationError(
            f"[solver] ball_l: iteration ball ball_L={config.ball_L} must lie in "
            f"(0, min(r0, 1)) with r0={model.ball_radius}"
        )


@dataclass
class SolveReport:
    """Per-run diagnostics of a recovery; ``residual`` is None until the
    recovery converges."""

    iterates: int = 0
    distances: list = field(default_factory=list)
    contraction_estimates: list = field(default_factory=list)
    residual: float | None = None
    sigma_min_history: list = field(default_factory=list)
    converged: bool = False
    ball_exits: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def weighted_distance(u, v, model, grid: TimeGrid) -> float | np.ndarray:
    """Distance of the iteration space; homogeneous of degree one.

    u and v are states on ``grid``: one pair (K+1, n) gives a float, a
    stack (R, K+1, n) one distance per row, each its own call's bit for
    bit.  The orders are the model's exponent book: the weight t^mu, the
    spectral norms of orders 2 xi and 2 beta of its base Laplacian, and the
    Hoelder exponent rho.  The t=0 node is excluded from
    the weighted part (the weight vanishes there); the Hoelder quotient runs
    over adjacent and dyadic gaps only, a gap whose quotient is NaN left out.
    """
    book, base = model.exponents, model.base
    xi_weights, beta_weights = (modal_weights(base, 2.0 * order) for order in (book.xi, book.beta))
    # (..., K+1, n) modal coefficients of the differences; the transform is
    # linear, so a difference of nodes is the difference of their rows.
    coeffs = (u - v) @ base.eigenvectors
    xi_norms = modal_norm(base, coeffs, xi_weights)[..., 1:]
    xi_part = (grid.nodes[1:] ** book.mu * xi_norms).max(axis=-1)
    sup_part = modal_norm(base, coeffs, beta_weights).max(axis=-1)
    holder = np.zeros(coeffs.shape[:-2])
    gap = 1
    while gap <= grid.K:
        seg_norms = modal_norm(base, coeffs[..., gap:, :] - coeffs[..., :-gap, :], beta_weights)
        holder = np.fmax(holder, seg_norms.max(axis=-1) / (gap * grid.h) ** book.rho)
        gap *= 2
    distance = xi_part + sup_part + holder
    return float(distance) if distance.ndim == 0 else distance


def operator_path(model, grid: TimeGrid, states: np.ndarray) -> tuple[OperatorPath, np.ndarray]:
    """A(u(t_j)) at every node of a trajectory's (K+1, n) states, or of
    each of a (R, K+1, n) stack of them, as its three diagonals (an
    operator path, or a stack of R), with f(u(t_j)) of the states' shape,
    from one stacked ``linearise`` call."""
    bands, f_states = model.linearise(states)
    return OperatorPath(grid, bands, model.exponents.rho), f_states


def _propagation(
    cond: AveragingCondition, path: OperatorPath, f_states, config: RecoveryConfig, base
) -> list:
    """The sweep values of a stack of paths under the condition for their
    forcing, as (rows, SweepValues) pairs, one per route (none builds a
    propagator table); raises the first build error.

    The rows whose every generator is a scalar times the Laplacian of
    ``base`` (reaction-diffusion, the linear model, chemotaxis at u = 0)
    sweep in the Laplacian's eigenbasis together
    (:func:`~avgrec.evolution.modal_sweep`).  The other rows go dense: the
    stepper eliminates and observes their steps at once, and the kernel
    series builds and sweeps row by row, since its rows differ in their
    frozen steps.
    """
    steps, modal = modal_factors(path, base, config.method)
    groups = []
    rows = np.flatnonzero(modal)
    if rows.size:
        groups.append((rows, modal_sweep(cond, base.eigenvectors, steps[rows], f_states[rows])))
    rows = np.flatnonzero(~modal)
    if rows.size:
        dense = path
        if rows.size < len(modal):
            dense = OperatorPath(path.grid, tuple(b[rows] for b in path.bands), path.holder_rho)
        if config.method is PropagatorMethod.KERNEL_SERIES:
            groups += [
                ([r], evolution_series(row).sweep(cond, f_states[[r]]))
                for r, row in zip(rows, dense.rows)
            ]
        else:
            groups.append((rows, StepFactors(dense).sweep(cond, f_states[rows])))
    return groups


def _failure(exc: Exception) -> NumericalError:
    """The error that ends a row's recovery: a NumericalError as it is, a
    LinAlgError or FloatingPointError as leaving the computable regime."""
    if isinstance(exc, NumericalError):
        return exc
    error = ConvergenceError(f"iteration left the computable regime: {exc}")
    error.__cause__ = exc
    return error


def _sweep(
    model, cond: AveragingCondition, Ms: np.ndarray, states: np.ndarray, config: RecoveryConfig
) -> list:
    """One sweep of the fixed-point map on each of a (R, K+1, n) stack of
    iterates u, for its row of the data Ms (R, n): per row (the states of
    u_new, Xi(u), the sigma_min of its resolvent, the distance of u_new
    from u), or the NumericalError that ends its recovery, the one its own
    sweep would meet.

    The rows share one stacked ``linearise``, one check that A(u) and f(u)
    are finite (on the bands alone, every other entry being an exact zero),
    one propagation build and recursion (:func:`_propagation`) and one
    distance of the rows that solved; each of these equals the per-row call
    slice by slice, bit for bit.  Each route's rows solve their resolvent
    equations and are rebuilt together (:func:`_solve_rows`).  Every stage
    serves all its rows or raises; where one raises, the sweep is redone
    row by row, each row as a batch of one, so that each row meets its own
    error.  The floor is the one verdict given per row: a row at the floor
    fails in place, and the other rows go on in the same sweep.
    """
    try:
        path, f_states = operator_path(model, cond.grid, states)
        if not (np.isfinite(f_states).all() and all(np.isfinite(b).all() for b in path.bands)):
            raise ConvergenceError("iteration produced non-finite operator or forcing values")
        outcomes = [None] * len(states)
        for rows, values in _propagation(cond, path, f_states, config, model.base):
            for r, outcome in zip(rows, _solve_rows(cond, values, Ms[rows])):
                outcomes[r] = outcome
        solved = [k for k, out in enumerate(outcomes) if not isinstance(out, NumericalError)]
        new_states = np.stack([outcomes[k][0] for k in solved]) if solved else states[:0]
        dists = weighted_distance(new_states, states[solved], model, cond.grid).tolist()
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        if len(states) == 1:
            return [_failure(exc)]
        return [
            outcome
            for r in range(len(states))
            for outcome in _sweep(model, cond, Ms[r : r + 1], states[r : r + 1], config)
        ]
    for k, dist in zip(solved, dists):
        outcomes[k] += (dist,)
    return outcomes


def _solve_rows(cond: AveragingCondition, values: SweepValues, Ms: np.ndarray) -> list:
    """(the states of u_new, Xi, sigma_min) of each row of one route's
    sweep values for its data, or the SingularOperatorError of a row whose
    resolvent sits at the floor.

    The rows take one stacked SVD (or, where the resolvent is diagonal in
    the sweep's basis, the moduli of its eigenvalues) and one floor test
    (``averaging.check_resolvent``), which fails the rows at the floor in
    place, and the rows above it take one stacked solve (or division),
    each row its own call's bit for bit; then all rows are rebuilt
    together, a row at the floor from Xi = 0, and the states of the
    others checked at once.  Any other failure raises for the whole
    route, to :func:`_sweep`'s row-by-row redo: a resolvent that is not
    finite on a non-finite propagation, the SVD's error (that of a stack
    holding a NaN resolvent on a finite one), and rebuilt states that are
    not finite, named by whether the propagation is.  A non-finite step
    spreads into the resolvent or the states, so the propagation is read
    (``values.finite``) only where one of them is not finite."""
    resolvents, shifts = resolvent_matrix(values), data_shift(values, Ms)
    diagonal = resolvents.ndim == 2
    if not np.isfinite(resolvents).all() and not values.finite().all():
        raise _non_finite_propagation()
    sigmas, errors = check_resolvent(
        cond, np.abs(resolvents) if diagonal else np.linalg.svd(resolvents, compute_uv=False)
    )
    rows = np.flatnonzero([error is None for error in errors])
    xis, stack, shift = np.zeros_like(shifts), resolvents[rows], shifts[rows]
    xis[rows] = shift / stack if diagonal else np.linalg.solve(stack, shift[..., None])[..., 0]
    states = values.rebuild(xis)
    if not np.isfinite(states[rows]).all():
        if values.finite().all():
            raise ConvergenceError("iteration produced non-finite states")
        raise _non_finite_propagation()
    return [
        (states[r], states[r, 0], sigma) if error is None else error
        for r, (sigma, error) in enumerate(zip(sigmas.tolist(), errors))
    ]


def _non_finite_propagation() -> ConvergenceError:
    return ConvergenceError("iteration produced a non-finite propagation")


@dataclass(eq=False)
class _Row:
    """One recovery of a batch: its data, its iterate's (K+1, n) states,
    its report, the ball warnings of its sweeps, and the Xi it converged
    to or the error, carrying the partial report, that ended it."""

    M: np.ndarray
    states: np.ndarray
    report: SolveReport = field(default_factory=SolveReport)
    ball_warnings: list = field(default_factory=list)
    xi: np.ndarray | None = None
    error: NumericalError | None = None


def _recover_rows(
    model, cond: AveragingCondition, Ms: list, starts: list, config: RecoveryConfig
) -> list[_Row]:
    """The recoveries for the data Ms from the starts (None for the zero
    trajectory), in order, run as batches of rows swept together.  A batch
    holds as many rows as fit ``evolution.MEMORY_BUDGET`` at the per-row
    peak of a sweep (``stepper_peak_bytes`` or ``series_peak_bytes``), and
    at least one; the rows beyond it run in the next batch."""
    check_iteration_ball(model, config)
    grid, n = cond.grid, model.base.grid.n
    zero = np.zeros((grid.K + 1, n))
    rows = [
        _Row(np.asarray(M, dtype=float), zero if start is None else start.states)
        for M, start in zip(Ms, starts)
    ]
    series = config.method is PropagatorMethod.KERNEL_SERIES
    peak = (series_peak_bytes if series else stepper_peak_bytes)(n, grid.K)
    size = max(1, evolution.MEMORY_BUDGET // peak)
    for first in range(0, len(rows), size):
        _recover_batch(model, cond, rows[first : first + size], config)
    return rows


def _recover_batch(
    model, cond: AveragingCondition, rows: list[_Row], config: RecoveryConfig
) -> None:
    """Banach iteration of every row of a batch, one stacked sweep per
    iteration over the rows still running.  A row leaves the batch where
    its own recovery stops: converged, at its sweep's error, diverged, or
    after max_iters sweeps; its report then gets its residual, or its error
    the partial report.  Every iterate swept counts its ball exits; a sweep
    whose distance is not finite ends the row unrecorded."""
    running = rows
    for _ in range(config.max_iters):
        states = np.stack([row.states for row in running])
        norms = ball_norm(model, states)
        exits = np.count_nonzero(norms > model.ball_radius, axis=-1).tolist()
        outcomes = _sweep(model, cond, np.stack([row.M for row in running]), states, config)
        for row, ball_exits, outcome in zip(running, exits, outcomes):
            report = row.report
            report.ball_exits += ball_exits
            if ball_exits:
                row.ball_warnings.append(
                    f"{ball_exits} iterate states left the model ball; continuing"
                )
            if isinstance(outcome, NumericalError):
                row.error = outcome
                continue
            row.states, row.xi, sigma, dist = outcome
            if np.isfinite(dist):
                report.iterates += 1
                report.distances.append(dist)
                report.sigma_min_history.append(sigma)
                if len(report.distances) >= 2 and report.distances[-2] > 0:
                    report.contraction_estimates.append(dist / report.distances[-2])
            if dist <= config.tol_fixed_point:
                report.converged = True
            elif not np.isfinite(dist) or (
                dist > DIVERGENCE_FACTOR * max(report.distances[0], 1e-30)
            ):
                row.error = ConvergenceError(
                    f"fixed-point iteration diverged (distance {dist:.3e})"
                )
        running = [row for row in running if row.error is None and not row.report.converged]
        if not running:
            break
    for row in running:
        row.error = ConvergenceError(
            f"no convergence in {config.max_iters} iterations "
            f"(last distance {row.report.distances[-1]:.3e})"
        )
    for row in rows:
        if row.error is not None:
            row.error.report = row.report
        else:
            row.report.residual = averaging_residual(cond, row.states, row.M)


def fixed_point_recover(
    model,
    cond: AveragingCondition,
    M: np.ndarray,
    config: RecoveryConfig | None = None,
    initial: Trajectory | None = None,
) -> tuple[np.ndarray, Trajectory, SolveReport]:
    """Banach iteration from the zero trajectory (or a supplied start).

    Returns the recovered initial state, the fixed-point trajectory u_final
    and the solve report.  The initial state is the Xi(u_{final-1}) that the
    last sweep solved for, which is u_final(0) bit for bit (U(0, 0) = I and
    G_0 = 0), and the fixed-point identity
    Xi(u_final) = u_final(0) holds to the iteration tolerance.  A recovery
    that converges in k iterations builds k propagations.  Raises
    ConvergenceError when max_iters is exhausted or the distances blow up,
    and SingularOperatorError on a singular variant resolvent; every
    NumericalError that ends the iteration carries the partial report, its
    completed sweeps and last distance included, as ``report``.  It is the
    batch of one row of :func:`_recover_rows`.
    """
    (row,) = _recover_rows(model, cond, [M], [initial], config or RecoveryConfig())
    for message in row.ball_warnings:
        warnings.warn(message, stacklevel=2)
    if row.error is not None:
        raise row.error
    return row.xi, Trajectory(cond.grid, row.states), row.report


def _check_march_state(model, u: np.ndarray, state: str) -> None:
    """Raise for a march state with a NaN ball norm (a non-finite state) or
    one outside the model's ball; ``state`` names it in the message."""
    norm = ball_norm(model, u)
    if np.isnan(norm):
        raise NumericalError(f"forward march: non-finite {state}")
    if norm > model.ball_radius:
        message = f"state leaves the admissible ball: |u| = {norm:.3e} > {model.ball_radius:.3e}"
        raise BallViolationError(message, norm=norm, radius=model.ball_radius)


def forward_solve(model, u0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Semi-implicit IMEX march u_{j+1} = (I - h A(u_j))^{-1} (u_j + h f(u_j)).

    First order with lagged coefficients; the manufactured-data generator and
    the yardstick that recovery errors are compared against.  Each step
    solves I - h A(u_j) on its bands by ``solve_tridiagonal``, O(n):
    reference dgtsv's elimination on Python floats, and the NumPy port of
    dgtsv for a step that interchanges rows, so SciPy is not imported for
    the march.  u0 and each state after it get one check: a NaN ball norm
    raises NumericalError naming the step, a norm above the radius
    BallViolationError.  NumPy does not warn of overflow in the march; the
    check ends it at the first non-finite state.
    """
    u0 = np.asarray(u0, dtype=float)
    n = u0.shape[0]
    _check_march_state(model, u0, "initial state")
    states = np.empty((grid.K + 1, n))
    states[0] = u0
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.K):
            (sub, main, sup), f = model.linearise(states[j])
            rhs = states[j] + h * f
            # I - h A(u_j) on its diagonals: 1 - h a on the main one, -(h a) off it.
            states[j + 1], info = solve_tridiagonal(-(h * sub), 1.0 - h * main, -(h * sup), rhs)
            if info > 0:
                raise NumericalError(
                    f"singular implicit matrix at step {j}: zero pivot in row {info} "
                    "of the tridiagonal solve"
                )
            _check_march_state(model, states[j + 1], f"state after step {j}")
    return Trajectory(grid=grid, states=states)


def self_convergence_error(model, u0: np.ndarray, grid: TimeGrid) -> float:
    """Measured discretization error E(h) of the order-one forward solver.

    The half-step difference max_j |u_h(t_j) - u_{h/2}(t_j)|_2 (relative to
    max_j |u_h(t_j)|_2) estimates only half of the coarse solution's error
    for a first-order scheme; the Richardson factor 1/(1 - 2^{-1}) = 2 turns
    it into the error measure that recovery accuracy is compared against.
    """
    coarse = forward_solve(model, u0, grid)
    fine = forward_solve(model, u0, TimeGrid(T=grid.T, K=2 * grid.K))
    diff = coarse.states - fine.states[::2]
    num = np.max(np.linalg.norm(diff, axis=1))
    den = np.max(np.linalg.norm(coarse.states, axis=1))
    return float(2.0 * num / den)


def averaging_residual(cond: AveragingCondition, states: np.ndarray, M: np.ndarray) -> float:
    """Relative defect of the discretized nonlocal condition on a
    trajectory's (K+1, n) states (absolute when M = 0)."""
    if len(states) != cond.grid.K + 1:
        raise ValueError(f"states hold {len(states)} nodes, the condition {cond.grid.K + 1}")
    M = np.asarray(M, dtype=float)
    defect = observe(cond, states) - M
    m_norm = np.linalg.norm(M)
    return float(np.linalg.norm(defect) / (m_norm if m_norm > 0 else 1.0))


@dataclass(frozen=True)
class ScanRow:
    """One amplitude of a scan; ``contraction`` is the last contraction
    estimate, None when the row completed fewer than two sweeps."""

    amplitude: float
    converged: bool
    iterations: int
    contraction: float | None
    note: str = ""


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    m0_lower_bound: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def smallness_scan(
    model,
    cond: AveragingCondition,
    M_direction: np.ndarray,
    amplitudes,
    config: RecoveryConfig | None = None,
) -> ScanResult:
    """Recovery attempts for M = amplitude * M_direction at each amplitude,
    swept together as the rows of one batch (or of several, past the memory
    budget).

    Failures become table rows, never exceptions; the largest converged
    amplitude is an empirical lower bound for the smallness threshold.
    """
    amplitudes = [float(a) for a in amplitudes]
    if any(a < 0 for a in amplitudes) or any(
        a2 <= a1 for a1, a2 in zip(amplitudes, amplitudes[1:])
    ):
        raise ValueError("amplitudes must be nonnegative and strictly ascending")
    config = config or RecoveryConfig()
    M_direction = np.asarray(M_direction, dtype=float)
    data = [amp * M_direction for amp in amplitudes]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = _recover_rows(model, cond, data, [None] * len(data), config)
    result_rows, largest = [], None
    for amp, row in zip(amplitudes, rows):
        estimates, error = row.report.contraction_estimates, row.error
        result_rows.append(
            ScanRow(
                amplitude=amp,
                converged=error is None,
                iterations=row.report.iterates,
                contraction=estimates[-1] if estimates else None,
                note="" if error is None else f"{type(error).__name__}: {error}",
            )
        )
        if error is None:
            largest = amp
    return ScanResult(rows=tuple(result_rows), m0_lower_bound=largest)


@dataclass(frozen=True)
class ProbeReport:
    all_converged: bool
    limit_spread: float
    initial_state_spread: float
    contraction_ratios: tuple
    per_run_ratios: tuple  # one ratio sequence per converged recovery
    failures: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def random_admissible_trajectory(
    grid: TimeGrid, model, radius: float, rng: np.random.Generator
) -> Trajectory:
    states = rng.standard_normal((grid.K + 1, model.base.grid.n))
    norm = weighted_distance(states, np.zeros_like(states), model, grid)
    return Trajectory(grid=grid, states=radius * rng.uniform(0.2, 0.9) / norm * states)


def contraction_probe(
    model,
    cond: AveragingCondition,
    M: np.ndarray,
    config: RecoveryConfig | None = None,
    trials: int = 5,
    seed: int = 0,
) -> ProbeReport:
    """Rerun the recovery from random admissible starts; a unique fixed point
    shows up as a tight cluster of limits with sub-unit contraction ratios.

    The base run starts from zero and its failure raises; a failed trial is
    recorded and the probe goes on.  Every start is drawn up front, and the
    base run and the trials are swept together as the rows of one batch:
    recoveries draw nothing from the seeded generator, so trial k starts
    from its (k+1)-th draw.
    """
    config = config or RecoveryConfig()
    rng = np.random.default_rng(seed)
    starts = [None]  # the base run, from zero
    for _ in range(trials):
        starts.append(random_admissible_trajectory(cond.grid, model, config.ball_L, rng))
    rows = _recover_rows(model, cond, [M] * len(starts), starts, config)
    converged, failures = [], []
    for trial, row in enumerate(rows, start=-1):
        for message in row.ball_warnings:
            warnings.warn(message, stacklevel=2)
        if row.error is None:
            converged.append(row)
        elif trial < 0:
            raise row.error
        else:
            failures.append(f"trial {trial}: {type(row.error).__name__}: {row.error}")
    per_run = [tuple(row.report.contraction_estimates) for row in converged]
    u0s = [row.xi for row in converged]
    # Every pair i < j of limits in one stacked call.
    first, second = np.triu_indices(len(converged), k=1)
    states = np.stack([row.states for row in converged])
    distances = weighted_distance(states[first], states[second], model, cond.grid)
    spread = float(distances.max(initial=0.0))
    u0_spread = max(
        (float(np.linalg.norm(a - b)) for i, a in enumerate(u0s) for b in u0s[i + 1 :]),
        default=0.0,
    )
    return ProbeReport(
        all_converged=not failures,
        limit_spread=spread,
        initial_state_spread=u0_spread,
        contraction_ratios=tuple(r for run in per_run for r in run),
        per_run_ratios=tuple(per_run),
        failures=tuple(failures),
    )
