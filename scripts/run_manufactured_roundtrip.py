#!/usr/bin/env python3
"""Manufactured round trips: forward-solve a small cosine bump, observe it
through each nonlocal condition, recover the initial state, and compare the
recovery error against the forward solver's measured accuracy."""
import numpy as np

from avgrec.averaging import AveragingCondition, Variant, observe
from avgrec.evolution import TimeGrid
from avgrec.models import ChemotaxisModel, NonlocalRDModel
from avgrec.solver import (
    RecoveryConfig,
    fixed_point_recover,
    forward_solve,
    self_convergence_error,
)
from avgrec.spatial import BoundaryKind, build_grid


def main():
    grid = build_grid(32, 1.0, BoundaryKind.NEUMANN)
    u0_true = 1e-2 * np.cos(np.pi * grid.nodes)
    models = {
        "chemotaxis": ChemotaxisModel.default(grid, delta=1.0, s=2.25),
        "reaction_diffusion": NonlocalRDModel.default(grid),
    }
    print(f"{'model':20s} {'K':>4s} {'variant':24s} {'error':>10s} {'E(h)':>10s} {'ratio':>6s}")
    for name, model in models.items():
        for K in (64, 128, 256):
            tg = TimeGrid(T=0.5, K=K)
            truth = forward_solve(model, u0_true, tg)
            e_h = self_convergence_error(model, u0_true, tg)
            for variant in Variant:
                cond = AveragingCondition.from_preset(tg, variant, "constant", w0=0.5)
                M = observe(cond, truth.states)
                u0, _, _ = fixed_point_recover(model, cond, M, RecoveryConfig())
                err = np.linalg.norm(u0 - u0_true) / np.linalg.norm(u0_true)
                print(
                    f"{name:20s} {K:4d} {variant.value:24s} {err:10.3e} {e_h:10.3e} "
                    f"{err / e_h:6.2f}"
                )


if __name__ == "__main__":
    main()
