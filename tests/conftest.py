import numpy as np
import pytest

from avgrec.averaging import AveragingCondition, Variant, observe
from avgrec.evolution import OperatorPath, TimeGrid
from avgrec.models import ChemotaxisModel, NonlocalRDModel
import avgrec.solver
from avgrec.solver import (
    RecoveryConfig,
    fixed_point_recover,
    forward_solve,
    self_convergence_error,
)
from avgrec.spatial import BoundaryKind, assemble_laplacian, band_stack, build_grid

from oracles import DensePath, evolution_stepper, series_table


@pytest.fixture(scope="session")
def chemo16():
    return ChemotaxisModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))


@pytest.fixture(scope="session")
def chemo32():
    return ChemotaxisModel.default(build_grid(32, 1.0, BoundaryKind.NEUMANN))


@pytest.fixture(scope="session")
def rd32():
    return NonlocalRDModel.default(build_grid(32, 1.0, BoundaryKind.NEUMANN))


def one_sweep(model, cond, M, u, config):
    """One sweep of the solver's fixed-point map on the single iterate u (a
    batch of one row): (u_new, Xi, sigma_min, the distance of u_new from
    u), or the error that ends it, raised."""
    states = u.states[None]
    (outcome,) = avgrec.solver._sweep(model, cond, np.asarray(M, dtype=float)[None], states, config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def counted_port(monkeypatch):
    """Route evolution's dgtsv port through a wrapper; returns the list of
    the number of systems each call solved."""
    import avgrec.evolution

    port = avgrec.evolution._dgtsv
    calls = []

    def wrapper(dl, d, du, b, nodes):
        calls.append(len(nodes))
        return port(dl, d, du, b, nodes)

    monkeypatch.setattr(avgrec.evolution, "_dgtsv", wrapper)
    return calls


def chemotaxis_reference_path(model, K, T=0.5):
    """Smooth non-commuting generator path: chemotaxis coefficients frozen
    along a prescribed trajectory."""
    x = model.base.grid.nodes
    grid_t = TimeGrid(T=T, K=K)
    t = grid_t.nodes[:, None]
    states = 0.2 * np.cos(np.pi * x) * np.exp(-t) + 0.1 * np.sin(np.pi * x) * np.sin(t)
    return OperatorPath(grid_t, model.linearise(states)[0], holder_rho=0.9)


@pytest.fixture(scope="session")
def series_family(chemo16):
    """Kernel-series and Crank-Nicolson oracle tables on the reference smooth
    path, one entry per K level (shared by the cross-method and cocycle
    tests)."""
    family = {}
    for K in (32, 64, 128):
        path = chemotaxis_reference_path(chemo16, K)
        family[K] = {
            "path": path,
            "series": series_table(path),
            "stepper": evolution_stepper(path),
        }
    return family


def sqrt_holder_path(K, T=1.0):
    """Genuinely 1/2-Hoelder path A(t) = D + sqrt(t) B with non-commuting parts."""
    base = assemble_laplacian(build_grid(4, 1.0, BoundaryKind.DIRICHLET))
    d_mat = band_stack(*base.bands) / 40.0
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 4))
    b = 0.25 * (b + b.T)
    grid_t = TimeGrid(T=T, K=K)
    mats = np.stack([d_mat + np.sqrt(t) * b for t in grid_t.nodes])
    return DensePath(grid=grid_t, matrices=mats, holder_rho=0.5)


@pytest.fixture(scope="session")
def manufactured(chemo32, rd32):
    """Forward truths, measured forward errors, and recoveries for both
    shipped models at three resolutions and all three conditions."""
    grid = chemo32.base.grid
    u0_true = 1e-2 * np.cos(np.pi * grid.nodes)
    runs = {}
    for name, model in (("chemotaxis", chemo32), ("reaction_diffusion", rd32)):
        for K in (64, 128, 256):
            tg = TimeGrid(T=0.5, K=K)
            truth = forward_solve(model, u0_true, tg)
            e_h = self_convergence_error(model, u0_true, tg)
            per_variant = {}
            for variant in Variant:
                cond = AveragingCondition.from_preset(tg, variant, "constant", w0=0.5)
                M = observe(cond, truth.states)
                u0, traj, report = fixed_point_recover(model, cond, M, RecoveryConfig())
                per_variant[variant] = {
                    "cond": cond,
                    "M": M,
                    "u0": u0,
                    "trajectory": traj,
                    "report": report,
                }
            runs[name, K] = {
                "model": model,
                "grid_t": tg,
                "u0_true": u0_true,
                "truth": truth,
                "E": e_h,
                "variants": per_variant,
            }
    return runs
