"""Observation operators for the nonlocal-in-time conditions.

Three conditions are supported, each selecting its own resolvent for the
initial state:

* time average            int_0^T w(t) u(t) dt = M          -> Phi
* initial plus average    u(0) + int_0^T w(t) u(t) dt = M   -> I + Phi
* terminal difference     u(0) - w0 u(T) = M                -> I - w0 U(T,0)

with Phi = int_0^T w(t) U(t,0) dt, the forcing functional
Psi g = int_0^T w(t) int_0^t U(t,s) g(s) ds dt and the terminal forcing
N(T) g = int_0^T U(T,s) g(s) ds.  Every time integral uses the composite
trapezoid rule: outer integrals on [0, T], inner Duhamel integrals on
[0, t_i], so N(T) g is the last Duhamel sum.  The solver's sweep
(``solver._sweep``) solves for the initial state by the
variation-of-constants identities, so substituting its output back into
the discretized condition closes to solver roundoff.

Each condition is one linear functional B of a trajectory, one weight per
time node, B X = sum_j gamma_j X_j (:func:`node_weights`), implemented once
by :func:`observe` on any (K+1, ...) stack.  The variation-of-constants
trajectory u(t_i) = U(t_i, 0) Xi + G_i makes B u = B[U(., 0)] Xi + B[G], so
the resolvent is ``observe`` of the initial column and the data shift is M
minus ``observe`` of the Duhamel sums, both read off one ``sweep`` of a
propagation (:class:`~avgrec.evolution.SweepValues`); U(0, 0) = I and
G_0 = 0 exactly, so the 1 in gamma_0 of the last two conditions gives the
I of their resolvents.  A propagation is the stepper, whose affine steps
carry the forcing beside the one-step factors, or the kernel series' frozen
steps; the tests' full propagator tables serve the same ``sweep``.  A
propagation that is diagonal in the Laplacian's eigenbasis
(:class:`~avgrec.evolution.ModalValues`) holds its column as one number per
mode and node: ``observe`` of it is the resolvent's eigenvalues, whose
moduli are its singular values (:func:`check_resolvent`).  The data
generator, the residual and the solver thus share one discretised
condition.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, SingularOperatorError
from .evolution import SweepValues, TimeGrid
# Unused here: perfbench/layers.py traces this binding.
from .spatial import smallest_singular_value


class Variant(Enum):
    TIME_AVERAGE = "time_average"
    INITIAL_PLUS_AVERAGE = "initial_plus_average"
    TERMINAL_DIFFERENCE = "terminal_difference"


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
    """Weight samples and terminal weight for one nonlocal condition."""

    grid: TimeGrid
    variant: Variant
    weight: np.ndarray
    w0: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.shape != (self.grid.K + 1,):
            raise ConfigurationError(
                f"weight needs {self.grid.K + 1} samples, got shape {w.shape}"
            )
        object.__setattr__(self, "weight", w)
        if self.variant is Variant.TIME_AVERAGE and abs(w[0]) <= 1e-14 * max(np.abs(w).max(), 1.0):
            raise ConfigurationError(
                "[condition] weight: the time-average condition needs w(0) != 0 "
                "(otherwise the data carries no information about u(0))"
            )

    @cached_property
    def observed(self) -> tuple:
        """What :func:`observe` reads: the nodes whose :func:`node_weights`
        entry is not zero (a slice where that is every node) and those
        weights."""
        gamma = node_weights(self)
        nodes = slice(None) if gamma.all() else np.flatnonzero(gamma)
        return nodes, gamma[nodes]

    @classmethod
    def from_preset(
        cls, grid: TimeGrid, variant: Variant, preset: str = "constant", w0: float = 0.0
    ) -> "AveragingCondition":
        return cls(grid=grid, variant=variant, weight=weight_samples(grid, preset), w0=w0)


def node_weights(cond: AveragingCondition) -> np.ndarray:
    """The condition's weight gamma_j at every node, shape (K+1,), so that
    B X = sum_j gamma_j X_j: qw_j w(t_j) for the time average (qw the
    trapezoid weights), the same plus 1 at node 0 for the initial plus
    average, and 1 at node 0 and -w0 at node K for the terminal
    difference."""
    if cond.variant is Variant.TERMINAL_DIFFERENCE:
        gamma = np.zeros(cond.grid.K + 1)
        gamma[0], gamma[-1] = 1.0, -cond.w0
        return gamma
    gamma = cond.grid.trapezoid_weights * cond.weight
    if cond.variant is Variant.INITIAL_PLUS_AVERAGE:
        gamma[0] += 1.0
    return gamma


def observe(cond: AveragingCondition, stack: np.ndarray) -> np.ndarray:
    """The discretised condition on a (K+1, ...) stack X (a trajectory's
    states, the initial column or the Duhamel sums, in any basis): one sum
    sum_j gamma_j X_j of :func:`node_weights` over the nodes whose weight is
    not zero, so that a terminal difference reads two blocks."""
    nodes, weights = cond.observed
    return np.einsum("j,j...->...", weights, stack[nodes])


def duhamel_sums(prop, f_states: np.ndarray) -> np.ndarray:
    """Trapezoid Duhamel sums G_i = int_0^{t_i} U(t_i, s) f(s) ds for every
    node, from one ``sweep`` of any propagation.  The solver reads the sums
    off its own sweep; perfbench/layers.py traces this name."""
    return prop.sweep(f_states).sums


def terminal_forcing(values: SweepValues) -> np.ndarray:
    """N(T) f = int_0^T U(T, s) f(s) ds by the trapezoid rule.

    With qw the trapezoid weights, sum_j qw_j U(T, t_j) f(t_j) is the last
    Duhamel sum G_K term for term, so it is read off the sweep.
    """
    return values.sums[-1]


def resolvent_matrix(cond: AveragingCondition, values: SweepValues) -> np.ndarray:
    """The variant's resolvent, the condition on the initial column: Phi,
    I + Phi, or I - w0 U(T, 0)."""
    return observe(cond, values.column)


def check_resolvent(cond: AveragingCondition, singular_values: np.ndarray) -> float:
    """sigma_min of a variant resolvent from its singular values: those of
    one SVD, or the moduli of its eigenvalues where it is diagonal in an
    orthonormal basis.  Raises SingularOperatorError when sigma_min sits at
    or below 1e-10 times the spectral norm."""
    sigma = float(singular_values.min())
    floor = 1e-10 * singular_values.max()
    if sigma <= floor:
        raise SingularOperatorError(
            f"{cond.variant.value} resolvent is numerically singular "
            f"(sigma_min={sigma:.3e} <= floor={floor:.3e})",
            sigma_min=sigma,
        )
    return sigma


def data_shift(cond: AveragingCondition, values: SweepValues, M: np.ndarray) -> np.ndarray:
    """Right-hand side of the variant resolvent equation, M minus the
    condition on the Duhamel sums of f: M - Psi f or M + w0 N(T) f."""
    return M - observe(cond, values.sums)
