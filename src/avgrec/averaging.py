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
the resolvent is B of the initial column and the data shift is M minus B
of the Duhamel sums, both observed by a propagation's ``sweep``
(:class:`~avgrec.evolution.SweepValues`): with ``observe``, or, in the
stepper, by Horner's rule on the node weights.  U(0, 0) = I and G_0 = 0
exactly, so the 1 in gamma_0 of the last two conditions gives the I of
their resolvents.  The data generator, the residual and the solver thus
share one discretised condition.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, SingularOperatorError
# Unused here: perfbench/layers.py traces this binding.
from .spatial import smallest_singular_value

if TYPE_CHECKING:  # evolution reads the condition at run time
    from .evolution import SweepValues, TimeGrid


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
        entry is not zero and those weights.  Evenly spaced nodes are a
        slice, so that ``observe`` reads a view: every node, or node 0 and
        node K of a terminal difference."""
        gamma = node_weights(self)
        nodes = np.flatnonzero(gamma)
        step = int(nodes[1] - nodes[0]) if nodes.size > 1 else 1
        if nodes.size and np.array_equal(nodes, np.arange(nodes[0], nodes[-1] + 1, step)):
            nodes = slice(int(nodes[0]), int(nodes[-1]) + 1, step)
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


def duhamel_sums(values: SweepValues) -> np.ndarray:
    """Trapezoid Duhamel sums G_i = int_0^{t_i} U(t_i, s) f(s) ds, (R, K+1,
    n): the states of Xi = 0 that one sweep rebuilds.  The solver reads B[G]
    off its sweep; perfbench/layers.py traces this name."""
    return values.rebuild(np.zeros(values.sums.shape))


def terminal_forcing(values: SweepValues) -> np.ndarray:
    """N(T) f = int_0^T U(T, s) f(s) ds by the trapezoid rule, (R, n):
    sum_j qw_j U(T, t_j) f(t_j) is the last Duhamel sum G_K term for term."""
    return duhamel_sums(values)[:, -1]


def resolvent_matrix(values: SweepValues) -> np.ndarray:
    """The variant's resolvent of each row as the sweep observed it: Phi,
    I + Phi, or I - w0 U(T, 0), or its eigenvalues where it is diagonal."""
    return values.resolvent


def check_resolvent(cond: AveragingCondition, singular_values: np.ndarray) -> tuple:
    """sigma_min (R,) of each of a stack of R variant resolvents from their
    singular values (R, n): those of one stacked SVD, or the moduli of the
    eigenvalues of a resolvent diagonal in an orthonormal basis; and per
    row the SingularOperatorError of a resolvent whose sigma_min sits at or
    below the floor, 1e-10 times its spectral norm, or None."""
    sigmas, floors = singular_values.min(axis=-1), 1e-10 * singular_values.max(axis=-1)
    errors = [
        SingularOperatorError(
            f"{cond.variant.value} resolvent is numerically singular "
            f"(sigma_min={sigma:.3e} <= floor={floor:.3e})",
            sigma_min=sigma,
        )
        if sigma <= floor
        else None
        for sigma, floor in zip(sigmas.tolist(), floors.tolist())
    ]
    return sigmas, errors


def data_shift(values: SweepValues, Ms: np.ndarray) -> np.ndarray:
    """Right-hand side of each row's resolvent equation, M - Psi f or
    M + w0 N(T) f; where the sweep is diagonal in a basis V, M is taken into
    it by one stacked product, each row its own product's bit for bit."""
    if values.basis is not None:
        Ms = (Ms[:, None, :] @ values.basis)[:, 0]
    return Ms - values.sums
