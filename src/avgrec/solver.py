"""Fixed-point recovery of initial states from nonlocal observations.

The iteration map follows the variation-of-constants reformulation: given a
trajectory guess u, freeze the coefficients A(u(t_j)), build the propagation,
compute the candidate initial state through the variant's resolvent, and
reconstruct

    u_new(t_j) = U(t_j, 0) Xi + int_0^{t_j} U(t_j, s) f(u(s)) ds .

Each iteration checks A(u) and f(u) for non-finite values, then builds one
propagation on A(u) and sweeps it once: one forward recursion on the
widened right-hand side [I | h f] (width n+1) gives the initial column
U(t_j, 0) and the Duhamel sums of f(u) together.  The resolvent is the
discretised condition (``averaging.observe``) applied to the column, the
data shift is M minus the condition applied to the sums, and the
reconstruction is column @ Xi + sums.  The resolvent is singular when its
sigma_min sits at or below 1e-10 times its spectral norm.  The recovered
initial state is the Xi the last sweep solved for (u_final(0) bit for
bit), so a recovery that converges in k iterations builds k propagations.

The default propagation is the K one-step Crank-Nicolson factors, one
tridiagonal elimination over all K nodes at once when every A(u(t_j)) is
tridiagonal (as for all shipped models; a node that would need row
interchanges is solved by LAPACK gtsv), one stacked dense LU solve
otherwise; its recursion is K products of n x n factors with n x (n+1)
blocks, so a sweep costs O(K n^3) time and O(K n^2) memory.  A model with
``assemble_bands`` (every shipped model) hands the operator path only the
three diagonals of each A(u(t_j)), so the stepper never forms the dense
(K+1, n, n) stack, and the non-finite check reads the diagonals alone.
The kernel series (behind a flag) recurs on its K frozen steps
exp(h A_j), formed from the dense stack, in O(K^2 n^3) time and O(K n^2)
memory.  The full propagator tables of either method are test oracles
(``tests/oracles.py``).  The per-node model work (A(u(t_j)) or its bands,
f(u(t_j)) and the ball norms at all K+1 nodes) is one stacked model call
each per sweep.

Distances between iterates are measured in the time-weighted norm

    max_{j>=1} t_j^mu |u(t_j)|_xi  +  sup_j |u(t_j)|_beta
      +  max_pairs |u(t_i) - u(t_j)|_beta / (t_i - t_j)^rho ,

with the Hoelder quotient taken over adjacent and dyadic node pairs.  The
forward IMEX solver provides manufactured data and the self-convergence
error that recovery accuracy is measured against.

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
    step_factors,
)
from .models import check_ball
from .spatial import SobolevScale

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

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class WeightedNormSpec:
    """Orders and weights of the iteration distance."""

    mu: float
    order_xi: float
    order_beta: float
    rho: float
    scale: SobolevScale

    @classmethod
    def from_model(cls, model) -> "WeightedNormSpec":
        book = model.exponents
        return cls(
            mu=book.mu,
            order_xi=2.0 * book.xi,
            order_beta=2.0 * book.beta,
            rho=book.rho,
            scale=model.scale,
        )


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


def weighted_distance(u: Trajectory, v: Trajectory, spec: WeightedNormSpec) -> float:
    """Distance of the iteration space; homogeneous of degree one.

    The t=0 node is excluded from the weighted part (the weight vanishes
    there); the Hoelder quotient runs over adjacent and dyadic gaps only.
    """
    if u.grid.K != v.grid.K or u.grid.T != v.grid.T:
        raise ValueError("trajectories live on different time grids")
    diff = u.states - v.states
    base = spec.scale.base
    coeffs = diff @ base.eigenvectors  # (K+1, n) modal coefficients
    spacing = base.grid.spacing
    factors = spec.scale.shift - base.eigenvalues

    def norms(order: float) -> np.ndarray:
        return np.sqrt((factors**order * coeffs**2).sum(axis=1) * spacing)

    nodes = u.grid.nodes
    xi_part = float(np.max(nodes[1:] ** spec.mu * norms(spec.order_xi)[1:]))
    beta = norms(spec.order_beta)
    sup_part = float(beta.max())
    holder = 0.0
    K = u.grid.K
    gap = 1
    while gap <= K:
        seg = diff[gap:] - diff[:-gap]
        seg_coeffs = seg @ base.eigenvectors
        seg_norms = np.sqrt((factors**spec.order_beta * seg_coeffs**2).sum(axis=1) * spacing)
        holder = max(holder, float(seg_norms.max()) / (gap * u.grid.h) ** spec.rho)
        gap *= 2
    return xi_part + sup_part + holder


def operator_path(model, traj: Trajectory, enforce_ball: bool = False) -> OperatorPath:
    """A(u(t_j)) at every node, from one stacked model call: the three
    diagonals from ``assemble_bands`` when the model has it (no dense stack
    is formed), else the dense stack from ``assemble_A``."""
    rho = model.exponents.rho
    assemble_bands = getattr(model, "assemble_bands", None)
    if assemble_bands is not None:
        bands = assemble_bands(traj.states, enforce_ball=enforce_ball)
        return OperatorPath.from_bands(traj.grid, bands, rho)
    mats = model.assemble_A(traj.states, enforce_ball=enforce_ball)
    return OperatorPath(grid=traj.grid, matrices=mats, holder_rho=rho)


def _propagation(model, traj: Trajectory, f_states: np.ndarray, config: RecoveryConfig):
    """The propagation on A(u): the stepper's one-step factors, or the
    kernel series' frozen steps; neither builds a propagator table.  Raises
    ConvergenceError before the build when A(u) or f(u) is not finite; on a
    tridiagonal path only the bands are read, every other entry being an
    exact zero."""
    path = operator_path(model, traj)
    entries = path.tridiagonal or (path.matrices,)
    if not (all(np.all(np.isfinite(e)) for e in entries) and np.all(np.isfinite(f_states))):
        raise ConvergenceError("iteration produced non-finite operator or forcing values")
    if config.method is PropagatorMethod.KERNEL_SERIES:
        return evolution_series(path)
    return step_factors(path)


@dataclass(frozen=True)
class _IterateInfo:
    xi: np.ndarray
    sigma_min: float
    ball_exits: int


def _initial_state(
    model, cond: AveragingCondition, M: np.ndarray, u: Trajectory, config: RecoveryConfig
):
    """Xi(u) with the sigma_min of its resolvent and the sweep values (the
    column and the Duhamel sums of f(u)) it was computed from: one
    propagation build and one left-sum recursion."""
    try:
        f_states = model.evaluate_f(u.states)
        prop = _propagation(model, u, f_states, config)
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
    return xi, sigma, values


def _iterate_detail(
    model, cond: AveragingCondition, M: np.ndarray, u: Trajectory, config: RecoveryConfig
) -> tuple[Trajectory, _IterateInfo]:
    norms = check_ball(model, u.states, enforce=False)
    ball_exits = int(np.count_nonzero(norms > model.ball_radius))
    if ball_exits:
        warnings.warn(
            f"{ball_exits} iterate states left the model ball; continuing", stacklevel=3
        )
    xi, sigma, values = _initial_state(model, cond, M, u, config)
    new_states = values.column @ xi + values.sums
    if not np.all(np.isfinite(new_states)):
        raise ConvergenceError("iteration produced non-finite states")
    return (
        Trajectory(grid=u.grid, states=new_states),
        _IterateInfo(xi=xi, sigma_min=sigma, ball_exits=ball_exits),
    )


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
    ConvergenceError (with the partial report attached) when max_iters is
    exhausted or the distances blow up; raises SingularOperatorError on a
    singular variant resolvent.
    """
    config = config or RecoveryConfig()
    grid = cond.grid
    n = model.base.grid.n
    check_iteration_ball(model, config)
    M = np.asarray(M, dtype=float)
    u = initial if initial is not None else Trajectory.zero(grid, n)
    spec = WeightedNormSpec.from_model(model)
    report = SolveReport()
    for _ in range(config.max_iters):
        new_u, info = _iterate_detail(model, cond, M, u, config)
        dist = weighted_distance(new_u, u, spec)
        report.iterates += 1
        report.distances.append(dist)
        report.sigma_min_history.append(info.sigma_min)
        report.ball_exits += info.ball_exits
        if len(report.distances) >= 2 and report.distances[-2] > 0:
            report.contraction_estimates.append(dist / report.distances[-2])
        u = new_u
        if dist <= config.tol_fixed_point:
            report.converged = True
            break
        if not np.isfinite(dist) or dist > DIVERGENCE_FACTOR * max(report.distances[0], 1e-30):
            raise ConvergenceError(
                f"fixed-point iteration diverged (distance {dist:.3e})",
                last_increment=dist,
                report=report,
            )
    if not report.converged:
        raise ConvergenceError(
            f"no convergence in {config.max_iters} iterations "
            f"(last distance {report.distances[-1]:.3e})",
            last_increment=report.distances[-1],
            report=report,
        )
    report.residual = averaging_residual(cond, u, M)
    return info.xi, u, report


def forward_solve(model, u0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Semi-implicit IMEX march u_{j+1} = (I - h A(u_j))^{-1} (u_j + h f(u_j)).

    First order with lagged coefficients; the manufactured-data generator and
    the yardstick that recovery errors are compared against.
    """
    u0 = np.asarray(u0, dtype=float)
    n = u0.shape[0]
    check_ball(model, u0, enforce=True)
    states = np.empty((grid.K + 1, n))
    states[0] = u0
    eye = np.eye(n)
    h = grid.h
    for j in range(grid.K):
        a_mat = model.assemble_A(states[j], enforce_ball=False)
        rhs = states[j] + h * model.evaluate_f(states[j])
        try:
            states[j + 1] = np.linalg.solve(eye - h * a_mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular implicit matrix at step {j}: {exc}") from exc
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
                converged, iters = True, rep.iterates
                contraction = rep.contraction_estimates[-1] if rep.contraction_estimates else np.nan
            except NumericalError as exc:
                converged = False
                rep = getattr(exc, "report", None)
                iters = rep.iterates if rep is not None else 0
                contraction = (
                    rep.contraction_estimates[-1]
                    if rep is not None and rep.contraction_estimates
                    else np.nan
                )
                note = f"{type(exc).__name__}: {exc}"
        rows.append(
            ScanRow(
                amplitude=amp,
                converged=converged,
                iterations=iters,
                contraction=float(contraction),
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
    grid: TimeGrid, n: int, spec: WeightedNormSpec, radius: float, rng: np.random.Generator
) -> Trajectory:
    states = rng.standard_normal((grid.K + 1, n))
    traj = Trajectory(grid=grid, states=states)
    norm = weighted_distance(traj, Trajectory.zero(grid, n), spec)
    scale = radius * rng.uniform(0.2, 0.9) / norm
    return Trajectory(grid=grid, states=scale * states)


def contraction_probe(
    model,
    cond: AveragingCondition,
    M: np.ndarray,
    config: RecoveryConfig | None = None,
    trials: int = 5,
    seed: int = 0,
) -> ProbeReport:
    """Rerun the recovery from random admissible starts; a unique fixed point
    shows up as a tight cluster of limits with sub-unit contraction ratios."""
    config = config or RecoveryConfig()
    rng = np.random.default_rng(seed)
    spec = WeightedNormSpec.from_model(model)
    n = model.base.grid.n
    limits = []
    u0s = []
    ratios = []
    per_run = []
    failures = []
    base_u0, base_traj, base_rep = fixed_point_recover(model, cond, M, config)
    limits.append(base_traj)
    u0s.append(base_u0)
    ratios.extend(base_rep.contraction_estimates)
    per_run.append(tuple(base_rep.contraction_estimates))
    for trial in range(trials):
        start = random_admissible_trajectory(cond.grid, n, spec, config.ball_L, rng)
        try:
            u0, traj, rep = fixed_point_recover(model, cond, M, config, initial=start)
            limits.append(traj)
            u0s.append(u0)
            ratios.extend(rep.contraction_estimates)
            per_run.append(tuple(rep.contraction_estimates))
        except NumericalError as exc:
            failures.append(f"trial {trial}: {type(exc).__name__}: {exc}")
    spread = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            spread = max(spread, weighted_distance(limits[i], limits[j], spec))
    u0_spread = 0.0
    for i in range(len(u0s)):
        for j in range(i + 1, len(u0s)):
            u0_spread = max(u0_spread, float(np.linalg.norm(u0s[i] - u0s[j])))
    return ProbeReport(
        all_converged=not failures,
        limit_spread=spread,
        initial_state_spread=u0_spread,
        contraction_ratios=tuple(ratios),
        per_run_ratios=tuple(per_run),
        failures=tuple(failures),
    )
