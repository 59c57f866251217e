#!/usr/bin/env python3
"""Amplitude scan on the chemotaxis model: geometric ladder of observation
sizes, reporting where the fixed-point iteration stops converging."""
import numpy as np

from avgrec.averaging import AveragingCondition, Variant
from avgrec.evolution import TimeGrid
from avgrec.models import ChemotaxisModel
from avgrec.solver import RecoveryConfig, smallness_scan
from avgrec.spatial import BoundaryKind, build_grid


def main():
    grid = build_grid(16, 1.0, BoundaryKind.NEUMANN)
    model = ChemotaxisModel.default(grid, delta=1.0)
    tg = TimeGrid(T=0.5, K=64)
    cond = AveragingCondition.from_preset(tg, Variant.TIME_AVERAGE, "constant")
    direction = np.cos(np.pi * grid.nodes)
    direction /= np.linalg.norm(direction)
    amplitudes = np.geomspace(1e-4, 1.0, 8)
    result = smallness_scan(model, cond, direction, amplitudes, RecoveryConfig())
    print(f"{'amplitude':>12s} {'converged':>10s} {'iters':>6s} {'contraction':>12s}")
    for row in result.rows:
        contraction = "nan" if row.contraction is None else f"{row.contraction:.3e}"
        print(
            f"{row.amplitude:12.4e} {str(row.converged):>10s} {row.iterations:6d} "
            f"{contraction:>12s}"
        )
    print("empirical smallness lower bound:", result.m0_lower_bound)


if __name__ == "__main__":
    main()
