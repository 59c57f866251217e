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
reads the diagonals alone.
The default propagation is the K one-step Crank-Nicolson factors, one
tridiagonal elimination over all K nodes at once (the nodes that need row
interchanges are solved together by a NumPy port of LAPACK dgtsv, so the
stepper imports no SciPy); its recursion is K products of n x n factors
with n x (n+1) blocks, so a sweep costs O(K n^3) time and O(K n^2)
memory, and the dense (K+1, n, n) stack is never formed.  The kernel
series (behind a flag) recurs on its K frozen steps exp(h A_j),
formed from the dense stack, in O(K^2 n^3) time and O(K n^2) memory.  The
full propagator tables of either method are test oracles
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

Recovery runs are sequential in their iteration loop; scans and probes run
independent configurations and share nothing mutable.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

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
    TimeGrid,
    evolution_series,
    solve_tridiagonal,
    step_factors,
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
    """Per-run diagnostics of a recovery."""

    iterates: int = 0
    distances: list = field(default_factory=list)
    contraction_estimates: list = field(default_factory=list)
    residual: float = float("nan")
    sigma_min_history: list = field(default_factory=list)
    converged: bool = False
    ball_exits: int = 0

    def to_dict(self) -> dict:
        return {
            "iterates": self.iterates,
            "distances": [float(d) for d in self.distances],
            "contraction_estimates": [float(r) for r in self.contraction_estimates],
            "residual": None if np.isnan(self.residual) else float(self.residual),
            "sigma_min_history": [float(s) for s in self.sigma_min_history],
            "converged": self.converged,
            "ball_exits": self.ball_exits,
        }


def weighted_distance(u: Trajectory, v: Trajectory, model) -> float:
    """Distance of the iteration space; homogeneous of degree one.

    The orders are the model's exponent book: the weight t^mu, the spectral
    norms of orders 2 xi and 2 beta of its base Laplacian, and the Hoelder
    exponent rho.  The t=0 node is excluded from the weighted part (the
    weight vanishes there); the Hoelder quotient runs over adjacent and
    dyadic gaps only.
    """
    if u.grid.K != v.grid.K or u.grid.T != v.grid.T:
        raise ValueError("trajectories live on different time grids")
    book, base = model.exponents, model.base
    # (K+1, n) modal coefficients of the difference; the transform is linear,
    # so a difference of nodes is the difference of their rows.
    coeffs = (u.states - v.states) @ base.eigenvectors
    nodes = u.grid.nodes
    xi_part = float(np.max(nodes[1:] ** book.mu * modal_norm(base, coeffs, 2.0 * book.xi)[1:]))
    sup_part = float(modal_norm(base, coeffs, 2.0 * book.beta).max())
    holder = 0.0
    gap = 1
    while gap <= u.grid.K:
        seg_norms = modal_norm(base, coeffs[gap:] - coeffs[:-gap], 2.0 * book.beta)
        holder = max(holder, float(seg_norms.max()) / (gap * u.grid.h) ** book.rho)
        gap *= 2
    return xi_part + sup_part + holder


def operator_path(model, traj: Trajectory) -> tuple[OperatorPath, np.ndarray]:
    """A(u(t_j)) at every node as its three diagonals, with f(u(t_j)) of
    shape (K+1, n), from one stacked ``linearise`` call."""
    bands, f_states = model.linearise(traj.states)
    return OperatorPath(traj.grid, bands, model.exponents.rho), f_states


def _propagation(model, traj: Trajectory, config: RecoveryConfig):
    """The propagation on A(u), the stepper's one-step factors or the
    kernel series' frozen steps (neither builds a propagator table), with
    f(u).  Raises ConvergenceError before the build when A(u) or f(u) is
    not finite; only the bands are read, every other entry being an exact
    zero."""
    path, f_states = operator_path(model, traj)
    if not (all(np.all(np.isfinite(b)) for b in path.bands) and np.all(np.isfinite(f_states))):
        raise ConvergenceError("iteration produced non-finite operator or forcing values")
    if config.method is PropagatorMethod.KERNEL_SERIES:
        return evolution_series(path), f_states
    return step_factors(path), f_states


def _iterate_detail(
    model, cond: AveragingCondition, M: np.ndarray, u: Trajectory, config: RecoveryConfig
) -> tuple[Trajectory, np.ndarray, float, int]:
    """One sweep of the fixed-point map: (u_new, Xi(u), the sigma_min of its
    resolvent, the count of states of u outside the model ball), from one
    propagation build and one left-sum recursion."""
    norms = check_ball(model, u.states, enforce=False)
    ball_exits = int(np.count_nonzero(norms > model.ball_radius))
    if ball_exits:
        warnings.warn(f"{ball_exits} iterate states left the model ball; continuing", stacklevel=3)
    try:
        prop, f_states = _propagation(model, u, config)
        values = prop.sweep(f_states)
        if not np.all(np.isfinite(values.column)):
            raise ConvergenceError("iteration produced non-finite operator or forcing values")
        # Xi solves the variant resolvent equation; the sigma_min of the
        # singular check reaches the report from the same SVD.
        resolvent = resolvent_matrix(cond, values)
        sigma = check_resolvent(cond, resolvent)
        xi = np.linalg.solve(resolvent, data_shift(cond, values, M))
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise ConvergenceError(f"iteration left the computable regime: {exc}") from exc
    del prop  # free its K (n, n) steps before the reconstruction allocates: a lower peak RSS
    new_states = values.column @ xi + values.sums
    if not np.all(np.isfinite(new_states)):
        raise ConvergenceError("iteration produced non-finite states")
    return Trajectory(grid=u.grid, states=new_states), xi, sigma, ball_exits


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
    completed sweeps and last distance included, as ``report``.
    """
    config = config or RecoveryConfig()
    grid = cond.grid
    n = model.base.grid.n
    check_iteration_ball(model, config)
    M = np.asarray(M, dtype=float)
    u = initial if initial is not None else Trajectory.zero(grid, n)
    report = SolveReport()
    try:
        for _ in range(config.max_iters):
            new_u, xi, sigma, ball_exits = _iterate_detail(model, cond, M, u, config)
            dist = weighted_distance(new_u, u, model)
            report.iterates += 1
            report.distances.append(dist)
            report.sigma_min_history.append(sigma)
            report.ball_exits += ball_exits
            if len(report.distances) >= 2 and report.distances[-2] > 0:
                report.contraction_estimates.append(dist / report.distances[-2])
            u = new_u
            if dist <= config.tol_fixed_point:
                report.converged = True
                break
            if not np.isfinite(dist) or dist > DIVERGENCE_FACTOR * max(report.distances[0], 1e-30):
                raise ConvergenceError(f"fixed-point iteration diverged (distance {dist:.3e})")
        if not report.converged:
            raise ConvergenceError(
                f"no convergence in {config.max_iters} iterations "
                f"(last distance {report.distances[-1]:.3e})"
            )
    except NumericalError as exc:
        exc.report = report
        raise
    report.residual = averaging_residual(cond, u, M)
    return xi, u, report


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
    amplitude: float
    converged: bool
    iterations: int
    contraction: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "converged": self.converged,
            "iterations": self.iterations,
            "contraction": None if np.isnan(self.contraction) else self.contraction,
            "note": self.note,
        }


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    m0_lower_bound: float | None

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "m0_lower_bound": self.m0_lower_bound,
        }


def smallness_scan(
    model,
    cond: AveragingCondition,
    M_direction: np.ndarray,
    amplitudes,
    config: RecoveryConfig | None = None,
) -> ScanResult:
    """Recovery attempts for M = amplitude * M_direction at each amplitude.

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
    rows = []
    largest = None
    for amp in amplitudes:
        note = ""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                _, _, rep = fixed_point_recover(model, cond, amp * M_direction, config)
                converged = True
            except NumericalError as exc:
                converged, rep = False, exc.report
                note = f"{type(exc).__name__}: {exc}"
        rows.append(
            ScanRow(
                amplitude=amp,
                converged=converged,
                iterations=rep.iterates,
                contraction=rep.contraction_estimates[-1] if rep.contraction_estimates else np.nan,
                note=note,
            )
        )
        if converged:
            largest = amp
    return ScanResult(rows=tuple(rows), m0_lower_bound=largest)


@dataclass(frozen=True)
class ProbeReport:
    all_converged: bool
    limit_spread: float
    initial_state_spread: float
    contraction_ratios: tuple
    per_run_ratios: tuple  # one ratio sequence per converged recovery
    failures: tuple

    def to_dict(self) -> dict:
        return {
            "all_converged": self.all_converged,
            "limit_spread": self.limit_spread,
            "initial_state_spread": self.initial_state_spread,
            "contraction_ratios": [float(r) for r in self.contraction_ratios],
            "per_run_ratios": [[float(r) for r in run] for run in self.per_run_ratios],
            "failures": list(self.failures),
        }


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
    recorded and the probe goes on.  Recoveries draw nothing from the seeded
    generator, so trial k starts from its (k+1)-th draw.
    """
    config = config or RecoveryConfig()
    rng = np.random.default_rng(seed)
    limits, u0s, per_run, failures = [], [], [], []
    for trial in range(-1, trials):
        start = None  # trial -1 is the base run, from zero
        if trial >= 0:
            start = random_admissible_trajectory(cond.grid, model, config.ball_L, rng)
        try:
            u0, traj, rep = fixed_point_recover(model, cond, M, config, initial=start)
        except NumericalError as exc:
            if start is None:
                raise
            failures.append(f"trial {trial}: {type(exc).__name__}: {exc}")
            continue
        limits.append(traj)
        u0s.append(u0)
        per_run.append(tuple(rep.contraction_estimates))
    spread = max(
        (weighted_distance(a, b, model) for i, a in enumerate(limits) for b in limits[i + 1 :]),
        default=0.0,
    )
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
