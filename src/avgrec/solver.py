"""Fixed-point recovery of initial states from nonlocal observations.

The iteration map follows the variation-of-constants reformulation: given a
trajectory guess u, freeze the coefficients A(u(t_j)), build the propagation,
compute the candidate initial state through the variant's resolvent, and
reconstruct

    u_new(t_j) = U(t_j, 0) Xi + int_0^{t_j} U(t_j, s) f(u(s)) ds .

Each iteration checks A(u) and f(u) for non-finite values, then builds one
propagation on A(u) and sweeps it once: one forward recursion on the
widened right-hand side [I | qw f] (qw the trapezoid weights, width n+1)
gives the initial column U(t_j, 0) and the Duhamel sums of f(u) together.
The resolvent is the discretised condition (``averaging.observe``) applied
to the column, the data shift is M minus the condition applied to the sums,
and the reconstruction is column @ Xi + sums.  The resolvent is singular
when its sigma_min sits at or below 1e-10 times its spectral norm.  The
recovered initial state is the Xi the last sweep solved for (u_final(0) bit
for bit), so a recovery that converges in k iterations builds k
propagations.

The operator path is the three diagonals of every A(u(t_j)), from one
stacked ``linearise`` call that gives f(u(t_j)) too; the non-finite check
reads the diagonals alone.  The default propagation is the K one-step
Crank-Nicolson factors, one tridiagonal elimination over all K nodes at
once, or over one node when they all share a generator (the nodes that
need row interchanges are solved together by a NumPy port of LAPACK
dgtsv, so the stepper imports no SciPy); its recursion is K products of
n x n factors with n x (n+1) blocks, so a sweep costs O(K n^3) time and
O(K n^2) memory, and the dense (K+1, n, n) stack is never formed.  The
kernel series (behind a flag) has an exactly zero kernel on a constant
path, such as that of a sweep from the zero trajectory, and runs the
stepper's recursion over its one frozen step exp(h A_0) there, O(K n^3);
any other path recurs on its K frozen steps exp(h A_j), formed from the
dense stack, in O(K^2 n^3) time and O(K n^2) memory.  The full
propagator tables of either method are test oracles
(``tests/oracles.py``).  The per-node model work at all K+1 nodes is two
stacked calls per sweep: ``linearise`` for the bands of A(u(t_j)) and
f(u(t_j)), and ``check_ball`` for the ball norms.

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
check, ``linearise``, propagation build and recursion (the kernel series
builds and recurs row by row) and distance, each equal to the per-row
call slice by slice, bit for bit; the resolvent, its SVD, the solve and
the reconstruction are per row.  A stacked stage that fails is redone row
by row, so that each row meets its own error.  A row leaves the batch
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
from .errors import ConfigurationError, ConvergenceError, NumericalError
from .evolution import (
    OperatorPath,
    PropagatorMethod,
    SweepValues,
    TimeGrid,
    evolution_series,
    series_peak_bytes,
    solve_tridiagonal,
    step_factors,
    stepper_peak_bytes,
)
from .models import check_ball
from .spatial import modal_norm

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

    @classmethod
    def zero(cls, grid: TimeGrid, n: int) -> "Trajectory":
        return cls(grid=grid, states=np.zeros((grid.K + 1, n)))


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
        if self.tol_fixed_point <= 0:
            raise ConfigurationError(
                f"[solver] tol: fixed-point tolerance must be positive, got {self.tol_fixed_point}"
            )
        if self.ball_L <= 0:
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


def weighted_distance(u, v, model, grid: TimeGrid | None = None) -> float | np.ndarray:
    """Distance of the iteration space; homogeneous of degree one.

    u and v are two Trajectories, or states on ``grid``: one pair (K+1, n)
    gives a float, a stack (R, K+1, n) one distance per row, each its own
    call's bit for bit.  The orders are the model's exponent book: the
    weight t^mu, the spectral norms of orders 2 xi and 2 beta of its base
    Laplacian, and the Hoelder exponent rho.  The t=0 node is excluded from
    the weighted part (the weight vanishes there); the Hoelder quotient runs
    over adjacent and dyadic gaps only, a gap whose quotient is NaN left out.
    """
    if isinstance(u, Trajectory):
        if u.grid.K != v.grid.K or u.grid.T != v.grid.T:
            raise ValueError("trajectories live on different time grids")
        u, v, grid = u.states, v.states, u.grid
    book, base = model.exponents, model.base
    # (..., K+1, n) modal coefficients of the differences; the transform is
    # linear, so a difference of nodes is the difference of their rows.
    coeffs = (u - v) @ base.eigenvectors
    xi_norms = modal_norm(base, coeffs, 2.0 * book.xi)[..., 1:]
    xi_part = (grid.nodes[1:] ** book.mu * xi_norms).max(axis=-1)
    sup_part = modal_norm(base, coeffs, 2.0 * book.beta).max(axis=-1)
    holder = np.zeros(coeffs.shape[:-2])
    gap = 1
    while gap <= grid.K:
        seg_norms = modal_norm(base, coeffs[..., gap:, :] - coeffs[..., :-gap, :], 2.0 * book.beta)
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


def _propagation(path: OperatorPath, f_states: np.ndarray, config: RecoveryConfig) -> list:
    """The SweepValues of each path of a stack for its forcing, from the
    stepper's one-step factors or the kernel series' frozen steps (neither
    builds a propagator table); raises the first build error.

    The stepper eliminates the nodes of every row at once (one node when
    they all share a generator) and sweeps every row in one K-step
    recursion; the kernel series builds and sweeps row by row, since its
    rows differ in their route (a constant path or not) and in their
    frozen steps.  Only the values are returned: the factors or frozen
    steps are freed before the reconstruction allocates, which lowers the
    peak RSS.
    """
    if config.method is PropagatorMethod.KERNEL_SERIES:
        return [evolution_series(row).sweep(f_row) for row, f_row in zip(path.rows, f_states)]
    swept = step_factors(path).sweep(f_states)
    return [SweepValues(column, sums) for column, sums in zip(swept.column, swept.sums)]


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
    iterates u, for its row of the data Ms (R, n): per row (u_new, Xi(u),
    the sigma_min of its resolvent, the distance of u_new from u), or the
    NumericalError that ends its recovery, the one its own sweep would meet.

    The rows share one stacked ``linearise``, one check that A(u) and f(u)
    are finite (on the bands alone, every other entry being an exact zero),
    one propagation build and recursion (:func:`_propagation`) and one
    distance of the rows that solved; each of these equals the per-row call
    slice by slice, bit for bit.  Where any of them fails, the sweep is
    redone row by row, each row as a batch of one, so that each row meets
    its own error.  The resolvent, its SVD, the solve and the reconstruction
    run per row (:func:`_solve_row`).
    """
    try:
        path, f_states = operator_path(model, cond.grid, states)
        if not (np.isfinite(f_states).all() and all(np.isfinite(b).all() for b in path.bands)):
            raise ConvergenceError("iteration produced non-finite operator or forcing values")
        swept = _propagation(path, f_states, config)
        outcomes = [_solve_row(cond, values, M) for values, M in zip(swept, Ms)]
        solved = [k for k, out in enumerate(outcomes) if not isinstance(out, NumericalError)]
        new_states = np.stack([outcomes[k][0].states for k in solved]) if solved else states[:0]
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


def _solve_row(cond: AveragingCondition, values: SweepValues, M: np.ndarray):
    """(u_new, Xi, sigma_min) of one row from its sweep values and data,
    or the error that ends its recovery: a non-finite column, a singular
    resolvent, or non-finite states."""
    try:
        if not np.all(np.isfinite(values.column)):
            raise ConvergenceError("iteration produced a non-finite propagation")
        # Xi solves the variant resolvent equation; the sigma_min of the
        # singular check reaches the report.
        resolvent = resolvent_matrix(cond, values)
        sigma = check_resolvent(cond, resolvent)
        xi = np.linalg.solve(resolvent, data_shift(cond, values, M))
        new_states = values.column @ xi + values.sums
        if not np.all(np.isfinite(new_states)):
            raise ConvergenceError("iteration produced non-finite states")
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return _failure(exc)
    return Trajectory(grid=cond.grid, states=new_states), xi, sigma


@dataclass(eq=False)
class _Row:
    """One recovery of a batch: its data, its iterate, its report, the
    ball warnings of its sweeps, and the Xi or the error it ended with."""

    M: np.ndarray
    u: Trajectory
    report: SolveReport = field(default_factory=SolveReport)
    ball_warnings: list = field(default_factory=list)
    xi: np.ndarray | None = None
    error: NumericalError | None = None

    def result(self) -> tuple[np.ndarray, Trajectory, SolveReport]:
        """(Xi, u_final, report) of a converged row, after its warnings,
        attributed to the caller of the public function that ran it; a
        failed row raises its error, which carries the partial report."""
        for message in self.ball_warnings:
            warnings.warn(message, stacklevel=3)
        if self.error is not None:
            raise self.error
        return self.xi, self.u, self.report


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
    rows = [
        _Row(np.asarray(M, dtype=float), Trajectory.zero(grid, n) if start is None else start)
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
    the partial report."""
    running = rows
    for _ in range(config.max_iters):
        states = np.stack([row.u.states for row in running])
        norms = check_ball(model, states, enforce=False)
        exits = np.count_nonzero(norms > model.ball_radius, axis=-1).tolist()
        outcomes = _sweep(model, cond, np.stack([row.M for row in running]), states, config)
        for row, ball_exits, outcome in zip(running, exits, outcomes):
            if ball_exits:
                row.ball_warnings.append(
                    f"{ball_exits} iterate states left the model ball; continuing"
                )
            if isinstance(outcome, NumericalError):
                row.error = outcome
                continue
            new_u, row.xi, sigma, dist = outcome
            report = row.report
            report.iterates += 1
            report.distances.append(dist)
            report.sigma_min_history.append(sigma)
            report.ball_exits += ball_exits
            if len(report.distances) >= 2 and report.distances[-2] > 0:
                report.contraction_estimates.append(dist / report.distances[-2])
            row.u = new_u
            blow_up = DIVERGENCE_FACTOR * max(report.distances[0], 1e-30)
            if dist <= config.tol_fixed_point:
                report.converged = True
            elif not np.isfinite(dist) or dist > blow_up:
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
            row.report.residual = averaging_residual(cond, row.u, row.M)


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
    return row.result()


def forward_solve(model, u0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Semi-implicit IMEX march u_{j+1} = (I - h A(u_j))^{-1} (u_j + h f(u_j)).

    First order with lagged coefficients; the manufactured-data generator and
    the yardstick that recovery errors are compared against.  Each step
    solves I - h A(u_j) on its bands by ``solve_tridiagonal``, O(n):
    reference dgtsv's elimination on Python floats, and the NumPy port of
    dgtsv for a step that interchanges rows, so SciPy is not imported for
    the march.
    """
    u0 = np.asarray(u0, dtype=float)
    n = u0.shape[0]
    check_ball(model, u0, enforce=True)
    states = np.empty((grid.K + 1, n))
    states[0] = u0
    h = grid.h
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
        check_ball(model, states[j + 1], enforce=True)
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


def averaging_residual(cond: AveragingCondition, traj: Trajectory, M: np.ndarray) -> float:
    """Relative defect of the discretized nonlocal condition on a trajectory
    (absolute when M = 0)."""
    if traj.grid.K != cond.grid.K or traj.grid.T != cond.grid.T:
        raise ValueError("trajectory and condition live on different time grids")
    M = np.asarray(M, dtype=float)
    defect = observe(cond, traj.states) - M
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
    result_rows = []
    largest = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = _recover_rows(model, cond, data, [None] * len(data), config)
        for amp, row in zip(amplitudes, rows):
            note = ""
            try:
                _, _, rep = row.result()
                converged = True
            except NumericalError as exc:
                converged, rep = False, exc.report
                note = f"{type(exc).__name__}: {exc}"
            estimates = rep.contraction_estimates
            result_rows.append(
                ScanRow(
                    amplitude=amp,
                    converged=converged,
                    iterations=rep.iterates,
                    contraction=estimates[-1] if estimates else None,
                    note=note,
                )
            )
            if converged:
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
    traj = Trajectory(grid=grid, states=rng.standard_normal((grid.K + 1, model.base.grid.n)))
    norm = weighted_distance(traj, Trajectory.zero(grid, model.base.grid.n), model)
    return Trajectory(grid=grid, states=radius * rng.uniform(0.2, 0.9) / norm * traj.states)


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
    limits, u0s, per_run, failures = [], [], [], []
    for trial, row in enumerate(rows, start=-1):
        try:
            u0, traj, rep = row.result()
        except NumericalError as exc:
            if trial < 0:
                raise
            failures.append(f"trial {trial}: {type(exc).__name__}: {exc}")
            continue
        limits.append(traj)
        u0s.append(u0)
        per_run.append(tuple(rep.contraction_estimates))
    # Every pair i < j of limits in one stacked call.
    first, second = np.triu_indices(len(limits), k=1)
    states = np.stack([traj.states for traj in limits])
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
