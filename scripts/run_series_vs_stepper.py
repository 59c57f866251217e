#!/usr/bin/env python3
"""Cross-validate the kernel-series propagator against the Crank-Nicolson
stepper on a smooth non-commuting generator path (chemotaxis coefficients
frozen along a prescribed trajectory).  Each propagator's U(T, 0) is read
off the production sweep: the final states it rebuilds from the unit
initial states with zero forcing."""
import numpy as np

from avgrec.averaging import AveragingCondition, Variant
from avgrec.evolution import OperatorPath, StepFactors, TimeGrid, evolution_series
from avgrec.models import ChemotaxisModel
from avgrec.spatial import BoundaryKind, build_grid


def chemotaxis_path(model, grid_t, amplitude=0.2):
    x = model.base.grid.nodes
    t = grid_t.nodes[:, None]
    states = amplitude * np.cos(np.pi * x) * np.exp(-t) + 0.5 * amplitude * np.sin(
        np.pi * x
    ) * np.sin(t)
    return OperatorPath(grid_t, model.linearise(states[None])[0], holder_rho=0.9)


def terminal_propagator(prop, grid_t, n):
    """U(T, 0) of a propagation of one row: column k is the last state
    rebuilt from the k-th unit initial state with f = 0."""
    cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=1.0)
    values = prop.sweep(cond, np.zeros((1, grid_t.K + 1, n)))
    return np.stack([values.rebuild(unit[None])[0, -1] for unit in np.eye(n)], axis=1)


def main():
    model = ChemotaxisModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))
    print(f"{'K':>5s} {'rel diff U(T,0)':>16s}")
    for K in (32, 64, 128):
        grid_t = TimeGrid(T=0.5, K=K)
        path = chemotaxis_path(model, grid_t)
        (row,) = path.rows
        u_series = terminal_propagator(evolution_series(row), grid_t, 16)
        u_stepper = terminal_propagator(StepFactors(path), grid_t, 16)
        rel = np.linalg.norm(u_series - u_stepper, 2) / np.linalg.norm(u_stepper, 2)
        print(f"{K:5d} {rel:16.3e}")


if __name__ == "__main__":
    main()
