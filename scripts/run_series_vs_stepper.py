#!/usr/bin/env python3
"""Cross-validate the kernel-series propagator against the Crank-Nicolson
stepper on a smooth non-commuting generator path (chemotaxis coefficients
frozen along a prescribed trajectory)."""
import numpy as np

from avgrec.evolution import OperatorPath, TimeGrid, evolution_series, step_factors
from avgrec.models import ChemotaxisModel
from avgrec.spatial import BoundaryKind, build_grid


def chemotaxis_path(model, grid_t, amplitude=0.2):
    x = model.base.grid.nodes
    t = grid_t.nodes[:, None]
    states = amplitude * np.cos(np.pi * x) * np.exp(-t) + 0.5 * amplitude * np.sin(
        np.pi * x
    ) * np.sin(t)
    return OperatorPath(grid_t, model.linearise(states)[0], holder_rho=0.9)


def main():
    model = ChemotaxisModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))
    print(f"{'K':>5s} {'rel diff U(T,0)':>16s}")
    for K in (32, 64, 128):
        grid_t = TimeGrid(T=0.5, K=K)
        path = chemotaxis_path(model, grid_t)
        u_series = evolution_series(path).column[-1]
        u_stepper = step_factors(path).column[-1]
        rel = np.linalg.norm(u_series - u_stepper, 2) / np.linalg.norm(u_stepper, 2)
        print(f"{K:5d} {rel:16.3e}")


if __name__ == "__main__":
    main()
