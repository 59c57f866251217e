"""Observation operators for the nonlocal-in-time conditions.

Three conditions are supported, each selecting its own resolvent for the
initial state:

* time average            int_0^T w(t) u(t) dt = M          -> Phi
* initial plus average    u(0) + int_0^T w(t) u(t) dt = M   -> I + Phi
* terminal difference     u(0) - w0 u(T) = M                -> I - w0 U(T,0)

with Phi = int_0^T w(t) U(t,0) dt and the forcing functional
Psi g = int_0^T w(t) int_0^t U(t,s) g(s) ds dt.  Outer integrals use the
composite trapezoid weights carried by the condition; inner Duhamel
integrals use the trapezoid rule on [0, t_i].  The initial-state maps follow
the variation-of-constants identities, so substituting their output back
into the discretized condition closes to solver roundoff.

Assembly takes a propagation through its sweep interface (``column``,
``duhamel``, ``weighted_forcing``): the stepper's one-step factors, the
kernel series' frozen steps, a full propagator table (the test oracle), or
the values one sweep of them computed for a single forcing
(:class:`~avgrec.evolution.SweepValues`, what the solver passes).
Assembled operators are immutable and shareable; assembly is a pure
reduction over the initial column.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, SingularOperatorError
from .evolution import (
    OperatorPath,
    PropagatorTable,
    Scheme,
    SweepValues,
    TimeGrid,
    holder_seminorm,
    step_factors,
)
from .spatial import smallest_singular_value


class Variant(Enum):
    TIME_AVERAGE = "time_average"
    INITIAL_PLUS_AVERAGE = "initial_plus_average"
    TERMINAL_DIFFERENCE = "terminal_difference"


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    qw = np.full(grid.K + 1, grid.h)
    qw[0] = qw[-1] = 0.5 * grid.h
    return qw


WEIGHT_PRESETS = {
    "constant": lambda t: np.ones_like(t),
    "exp_decay": lambda t: np.exp(-t),
    "ramp": lambda t: t.copy(),
    "cosine_cycle": lambda t: np.cos(2.0 * np.pi * t / t[-1]),
}


def weight_samples(grid: TimeGrid, preset: str) -> np.ndarray:
    try:
        fn = WEIGHT_PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown weight preset {preset!r}; choose from {sorted(WEIGHT_PRESETS)}"
        ) from None
    return fn(grid.nodes)


@dataclass(frozen=True)
class AveragingCondition:
    """Weight samples, terminal weight, and quadrature for one nonlocal condition."""

    grid: TimeGrid
    variant: Variant
    weight: np.ndarray
    w0: float = 0.0
    quad_weights: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.shape != (self.grid.K + 1,):
            raise ConfigurationError(
                f"weight needs {self.grid.K + 1} samples, got shape {w.shape}"
            )
        object.__setattr__(self, "weight", w)
        qw = self.quad_weights
        qw = trapezoid_weights(self.grid) if qw is None else np.asarray(qw, dtype=float)
        if qw.shape != w.shape:
            raise ConfigurationError("quadrature weights must match the weight samples")
        if abs(qw.sum() - self.grid.T) > 1e-12 * self.grid.T:
            raise ConfigurationError(
                f"quadrature weights sum to {qw.sum()!r}, expected the horizon {self.grid.T!r}"
            )
        object.__setattr__(self, "quad_weights", qw)
        if self.variant is Variant.TIME_AVERAGE and abs(w[0]) <= 1e-14 * max(np.abs(w).max(), 1.0):
            raise ConfigurationError(
                "time-average condition requires a nonvanishing weight at t=0 "
                "(otherwise the data carries no information about u(0))"
            )

    @classmethod
    def from_preset(
        cls, grid: TimeGrid, variant: Variant, preset: str = "constant", w0: float = 0.0
    ) -> "AveragingCondition":
        return cls(grid=grid, variant=variant, weight=weight_samples(grid, preset), w0=w0)


@dataclass(frozen=True)
class PhiOperator:
    """Assembled averaging operator with its cached conditioning."""

    matrix: np.ndarray
    condition: AveragingCondition
    sigma_min: float


def observe(cond: AveragingCondition, states: np.ndarray) -> np.ndarray:
    """The discretised condition on a trajectory's states, shape (K+1, n):
    sum_j qw_j w(t_j) u(t_j), u(0) plus that average, or u(0) - w0 u(T)."""
    if cond.variant is Variant.TERMINAL_DIFFERENCE:
        return states[0] - cond.w0 * states[-1]
    average = np.einsum("j,ja->a", cond.quad_weights * cond.weight, states)
    if cond.variant is Variant.TIME_AVERAGE:
        return average
    return states[0] + average


def _states_of(traj) -> np.ndarray:
    """Accept a Trajectory-like object (``.states``) or a plain (K+1, n) array."""
    states = getattr(traj, "states", traj)
    return np.asarray(states, dtype=float)


def _check_grid(traj, prop) -> None:
    grid = getattr(traj, "grid", None)
    if grid is not None and (grid.K != prop.grid.K or grid.T != prop.grid.T):
        raise ValueError("trajectory and propagator table live on different time grids")


def _phi_matrix(prop, cond: AveragingCondition) -> np.ndarray:
    return np.einsum("j,jab->ab", cond.quad_weights * cond.weight, prop.column)


def assemble_phi(prop, cond: AveragingCondition) -> PhiOperator:
    """Phi = sum_j qw_j w(t_j) U(t_j, 0), reproducible from the table exactly."""
    if cond.variant is Variant.TERMINAL_DIFFERENCE:
        raise ValueError("terminal-difference conditions have no averaging operator")
    matrix = _phi_matrix(prop, cond)
    return PhiOperator(
        matrix=matrix, condition=cond, sigma_min=smallest_singular_value(matrix)
    )


def duhamel_sums(table: PropagatorTable, f_states: np.ndarray) -> np.ndarray:
    """Trapezoid Duhamel sums G_i = int_0^{t_i} U(t_i, s) f(s) ds for every node.

    This single inner rule is shared by the forcing functional and the
    solver's trajectory reconstruction, which is what makes the recovered
    initial state consistent with the discretized condition.  Read off the
    full table, it is the oracle for the factor recursion of
    :meth:`StepFactors.duhamel`.
    """
    return table.duhamel(f_states)


def _psi(cond: AveragingCondition, sums: np.ndarray) -> np.ndarray:
    return np.einsum("i,ia->a", cond.quad_weights * cond.weight, sums)


def apply_psi(f_traj, prop, cond: AveragingCondition) -> np.ndarray:
    """Psi f = sum_i qw_i w(t_i) G_i with G the Duhamel sums; Psi(0) = 0 exactly."""
    _check_grid(f_traj, prop)
    f_states = _states_of(f_traj)
    if f_states.shape != (prop.grid.K + 1, prop.dim):
        raise ValueError(
            f"forcing trajectory must have shape {(prop.grid.K + 1, prop.dim)}, "
            f"got {f_states.shape}"
        )
    return _psi(cond, prop.duhamel(f_states))


def terminal_forcing(prop, cond: AveragingCondition, f_states: np.ndarray) -> np.ndarray:
    """N(T) f = sum_j qw_j U(T, t_j) f(t_j) with the condition's quadrature."""
    return prop.weighted_forcing(cond.quad_weights, f_states)


def resolvent_matrix(cond: AveragingCondition, prop) -> np.ndarray:
    """The variant's resolvent: Phi, I + Phi, or I - w0 U(T, 0)."""
    if cond.variant is Variant.TIME_AVERAGE:
        return _phi_matrix(prop, cond)
    if cond.variant is Variant.INITIAL_PLUS_AVERAGE:
        return np.eye(prop.dim) + _phi_matrix(prop, cond)
    return np.eye(prop.dim) - cond.w0 * prop.column[-1]


def check_resolvent(
    cond: AveragingCondition, resolvent: np.ndarray, sigma_floor: float | None = None
) -> tuple[float, float]:
    """(sigma_min, floor) of a variant resolvent from one SVD.

    The floor defaults to 1e-10 times the spectral norm.  Raises
    SingularOperatorError when sigma_min sits at or below it.
    """
    singular_values = np.linalg.svd(resolvent, compute_uv=False)
    sigma = float(singular_values[-1])
    floor = 1e-10 * singular_values[0] if sigma_floor is None else sigma_floor
    if sigma <= floor:
        raise SingularOperatorError(
            f"{cond.variant.value} resolvent is numerically singular "
            f"(sigma_min={sigma:.3e} <= floor={floor:.3e})",
            sigma_min=sigma,
        )
    return sigma, floor


def data_shift(
    cond: AveragingCondition, prop, M: np.ndarray, f_states: np.ndarray
) -> np.ndarray:
    """Right-hand side of the variant resolvent equation: M - Psi f or
    M + w0 N(T) f."""
    if cond.variant is Variant.TERMINAL_DIFFERENCE:
        return M + cond.w0 * terminal_forcing(prop, cond, f_states)
    return M - _psi(cond, prop.duhamel(f_states))


def initial_state_map(
    cond: AveragingCondition,
    prop,
    M: np.ndarray,
    f_traj,
    sigma_floor: float | None = None,
) -> np.ndarray:
    """Candidate initial state for the fixed-point reformulation.

    Solves the variant resolvent equation; raises SingularOperatorError when
    the resolvent's smallest singular value sits at or below the floor
    (default 1e-10 times its spectral norm).  The resolvent and the data
    shift are read off one sweep of the propagation for f (with the
    condition's quadrature weights for the terminal variant); a
    :class:`~avgrec.evolution.SweepValues` argument is used as it is.
    """
    _check_grid(f_traj, prop)
    M = np.asarray(M, dtype=float)
    f_states = _states_of(f_traj)
    if not isinstance(prop, SweepValues):
        terminal = cond.variant is Variant.TERMINAL_DIFFERENCE
        prop = prop.sweep(f_states, cond.quad_weights if terminal else None)
    resolvent = resolvent_matrix(cond, prop)
    check_resolvent(cond, resolvent, sigma_floor)
    return np.linalg.solve(resolvent, data_shift(cond, prop, M, f_states))


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
    return np.exp(np.outer(eigs, cond.grid.nodes)) @ (cond.quad_weights * cond.weight)


def phi_lipschitz_probe(
    path_a: OperatorPath,
    path_b: OperatorPath,
    cond: AveragingCondition,
    smoother: np.ndarray | None = None,
    eta: float | None = None,
    scheme: Scheme = Scheme.CRANK_NICOLSON,
) -> float:
    """||Phi_A - Phi_B|| / |||A - B|||_rho with the numerator premultiplied by
    the smoothing matrix (discrete stand-in for the order-one target norm)."""
    if path_a.grid.K != path_b.grid.K or path_a.grid.T != path_b.grid.T:
        raise ValueError("paths must share a time grid")
    if np.array_equal(path_a.matrices, path_b.matrices):
        raise ValueError("Lipschitz ratio undefined for identical paths")
    rho = path_a.holder_rho
    if eta is not None:
        for label, p in (("first", path_a), ("second", path_b)):
            semi = holder_seminorm(p, rho)
            if semi > eta:
                raise ValueError(f"{label} path leaves the declared neighborhood: {semi} > {eta}")
    phi_a = assemble_phi(step_factors(path_a, scheme), cond).matrix
    phi_b = assemble_phi(step_factors(path_b, scheme), cond).matrix
    diff = phi_a - phi_b
    if smoother is not None:
        diff = smoother @ diff
    diff_path = OperatorPath(
        grid=path_a.grid, matrices=path_a.matrices - path_b.matrices, holder_rho=rho
    )
    return float(np.linalg.norm(diff, 2) / holder_seminorm(diff_path, rho))
