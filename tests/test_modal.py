"""The eigenbasis route: a path whose every generator is a scalar times the
Laplacian's stencil sweeps one number per mode and node, and agrees with the
dense stepper, the propagator tables and the dense recovery."""
from pathlib import Path

import numpy as np
import pytest

import avgrec.solver
from avgrec import cli
from avgrec.averaging import AveragingCondition, Variant
from avgrec.evolution import (
    OperatorPath,
    PropagatorMethod,
    StepFactors,
    TimeGrid,
    evolution_series,
    modal_factors,
    modal_sweep,
)
from avgrec.models import ChemotaxisModel, LinearTestModel, NonlocalRDModel
from avgrec.solver import RecoveryConfig, fixed_point_recover, forward_solve, operator_path
from avgrec.spatial import BoundaryKind, build_grid

from oracles import evolution_stepper, series_table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STEPPER, SERIES = PropagatorMethod.STEPPER, PropagatorMethod.KERNEL_SERIES


def rel_err(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


@pytest.fixture(scope="module")
def gaussian():
    """reaction_diffusion_gaussian.ini's model, condition, data and truth:
    the gaussian's mass moves l(u), so every node has its own kappa."""
    cfg = cli.parse_config((CONFIGS / "reaction_diffusion_gaussian.ini").read_text())
    model, cond = cli.build_model(cfg), cli.build_condition(cfg)
    truth = forward_solve(model, cli.initial_profile(cfg, model.base.grid), cond.grid)
    return model, cond, cli.build_observation(cfg, model, cond), truth


def assert_modal_matches(model, path, f_states, method, references):
    """The modal route's values of a stack of one path, written back in the
    grid's basis V (the resolvent V diag(phi) V^T, the observed sums B[G] V^T
    and the states rebuilt from Xi V), against each dense reference's,
    under every variant."""
    steps, modal = modal_factors(path, model.base, method)
    assert modal.tolist() == [True]
    basis = model.base.eigenvectors
    xi = np.random.default_rng(2).standard_normal((1, path.dim))
    for variant in Variant:
        cond = AveragingCondition.from_preset(path.grid, variant, "exp_decay", w0=0.5)
        values = modal_sweep(cond, basis, steps, f_states)
        resolvent = (basis * values.resolvent[0]) @ basis.T
        sums, states = values.sums[0] @ basis.T, values.rebuild(xi @ basis)[0]
        for reference in references:
            dense = reference.sweep(cond, f_states)
            assert rel_err(resolvent, dense.resolvent[0]) <= 1e-12
            assert rel_err(sums, dense.sums[0]) <= 1e-12
            assert rel_err(states, dense.rebuild(xi)[0]) <= 1e-12


def test_gaussian_path_matches_the_dense_stepper_and_its_table(gaussian):
    model, cond, _, truth = gaussian
    path, f_states = operator_path(model, cond.grid, truth.states[None])
    assert np.unique(path.bands[2][0, :, 0]).size == cond.grid.K + 1
    (row,) = path.rows
    assert_modal_matches(model, path, f_states, STEPPER, (StepFactors(path), evolution_stepper(row)))


def test_constant_gaussian_path_matches_the_series_and_its_table(gaussian):
    # The kernel series takes the eigenbasis on a constant path: the truth's
    # initial state frozen at every node, whose kappa is not 1/h^2, over the
    # first 24 steps (the series table is O(K^2 n^2)).
    model, cond, _, truth = gaussian
    grid = TimeGrid(T=24 * cond.grid.h, K=24)
    path, f_states = operator_path(model, grid, np.repeat(truth.states[None, :1], 25, axis=1))
    (row,) = path.rows
    assert_modal_matches(model, path, f_states, SERIES, (evolution_series(row), series_table(row)))


@pytest.mark.parametrize("method", list(PropagatorMethod))
def test_gaussian_recovery_matches_the_dense_route(gaussian, method, monkeypatch):
    model, cond, M, _ = gaussian
    config = RecoveryConfig(method=method)
    u0, traj, report = fixed_point_recover(model, cond, M, config)
    original = avgrec.solver.modal_factors

    def dense(path, base, method):
        steps, modal = original(path, base, method)
        return steps, np.zeros_like(modal)

    monkeypatch.setattr(avgrec.solver, "modal_factors", dense)
    dense_u0, dense_traj, dense_report = fixed_point_recover(model, cond, M, config)
    assert report.converged and report.iterates == dense_report.iterates
    assert rel_err(u0, dense_u0) <= 1e-12
    assert rel_err(traj.states, dense_traj.states) <= 1e-12
    assert np.array_equal(u0, traj.states[0])


GRID = build_grid(12, 1.0, BoundaryKind.NEUMANN)
TIME = TimeGrid(T=0.5, K=8)


def route(model, states, method=STEPPER):
    path, _ = operator_path(model, TIME, states)
    return modal_factors(path, model.base, method)[1].tolist()


def test_which_paths_take_the_eigenbasis():
    rng = np.random.default_rng(4)
    states = 0.1 * rng.standard_normal((2, TIME.K + 1, GRID.n))
    zero = np.zeros_like(states)
    chemo = ChemotaxisModel.default(GRID)
    dirichlet = NonlocalRDModel.default(build_grid(12, 1.0, BoundaryKind.DIRICHLET))
    assert route(NonlocalRDModel.default(GRID), states) == [True, True]
    assert route(dirichlet, states) == [True, True]
    assert route(LinearTestModel.default(GRID, coefficient=0.3), states) == [True, True]
    assert route(chemo, zero) == [True, True]
    assert route(chemo, np.stack([zero[0], states[1]])) == [True, False]
    # The series takes a constant path only: the zero start, not the RD
    # path whose mass, and so kappa, moves from node to node.
    assert route(chemo, zero, SERIES) == [True, True]
    assert route(NonlocalRDModel.default(GRID), states, SERIES) == [False, False]


def test_a_band_one_ulp_off_goes_dense():
    model = NonlocalRDModel.default(GRID)
    path, _ = operator_path(model, TIME, np.zeros((1, TIME.K + 1, GRID.n)))
    sub, main, sup = (band.copy() for band in path.bands)
    main[0, 3, 5] = np.nextafter(main[0, 3, 5], 0.0)
    off = OperatorPath(TIME, (sub, main, sup), path.holder_rho)
    assert modal_factors(path, model.base, STEPPER)[1].tolist() == [True]
    assert modal_factors(off, model.base, STEPPER)[1].tolist() == [False]


def test_steps_that_are_not_finite_or_anti_dissipative_series_go_dense():
    # A step that is not finite keeps the dense route and its errors; so
    # does the series on a negative multiple, whose dense frozen step meets
    # the overflow cap.
    huge = LinearTestModel.default(GRID, coefficient=1e305)
    path, _ = operator_path(huge, TimeGrid(T=1e3, K=8), np.zeros((1, TIME.K + 1, GRID.n)))
    assert modal_factors(path, huge.base, STEPPER)[1].tolist() == [False]
    anti = LinearTestModel.default(GRID, coefficient=-0.3)
    zero = np.zeros((1, TIME.K + 1, GRID.n))
    assert route(anti, zero) == [True]
    assert route(anti, zero, SERIES) == [False]


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("method", list(PropagatorMethod))
def test_stacked_modal_sweep_rows_are_their_own_sweeps(method):
    # A batch's modal rows sweep in one stacked call, each row's resolvent,
    # observed sums and rebuilt states its own sweep's bit for bit.
    model = NonlocalRDModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))
    grid = TimeGrid(T=0.5, K=40)
    states = 0.05 * np.random.default_rng(6).standard_normal((5, grid.K + 1, 16))
    if method is SERIES:
        states[:] = states[:, :1]
    path, f_states = operator_path(model, grid, states)
    steps, modal = modal_factors(path, model.base, method)
    assert modal.all()
    basis, xi = model.base.eigenvectors, np.random.default_rng(7).standard_normal((5, 16))
    for variant in Variant:
        cond = AveragingCondition.from_preset(grid, variant, "exp_decay", w0=0.5)
        stacked = modal_sweep(cond, basis, steps, f_states)
        rebuilt = stacked.rebuild(xi)
        for r in range(5):
            single = modal_sweep(cond, basis, steps[r : r + 1], f_states[r : r + 1])
            assert same_bytes(stacked.resolvent[r], single.resolvent[0])
            assert same_bytes(stacked.sums[r], single.sums[0])
            assert same_bytes(rebuilt[r], single.rebuild(xi[r : r + 1])[0])
