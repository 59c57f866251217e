import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgrec.averaging import AveragingCondition, Variant, duhamel_sums, observe
from avgrec.errors import BallViolationError, ConfigurationError, ConvergenceError
from avgrec.evolution import PropagatorMethod, TimeGrid
from avgrec.models import ChemotaxisModel, LinearTestModel
from avgrec.solver import (
    RecoveryConfig,
    Trajectory,
    WeightedNormSpec,
    _initial_state,
    _iterate_detail,
    averaging_residual,
    contraction_probe,
    fixed_point_recover,
    forward_solve,
    operator_path,
    random_admissible_trajectory,
    self_convergence_error,
    smallness_scan,
    weighted_distance,
)
from avgrec.spatial import BoundaryKind, build_grid, matrix_exponential

import oracles
from oracles import assemble_phi, evolution_stepper, series_table

RNG = np.random.default_rng(51)


@pytest.fixture(scope="module")
def linear16():
    return LinearTestModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))


@pytest.fixture(scope="module")
def small_chemo():
    return ChemotaxisModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))


def linear_observation(model, cond, x0):
    table = evolution_stepper(
        operator_path(model, Trajectory.zero(cond.grid, model.base.grid.n))
    )
    if cond.variant is Variant.TIME_AVERAGE:
        return assemble_phi(table, cond).matrix @ x0
    if cond.variant is Variant.INITIAL_PLUS_AVERAGE:
        return x0 + assemble_phi(table, cond).matrix @ x0
    return x0 - cond.w0 * table.op(cond.grid.K, 0) @ x0


class TestTrajectory:
    def test_zero_constructor(self):
        traj = Trajectory.zero(TimeGrid(T=1.0, K=4), 3)
        assert traj.states.shape == (5, 3)
        assert np.all(traj.states == 0.0)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            Trajectory(grid=TimeGrid(T=1.0, K=4), states=np.zeros((3, 3)))


class TestWeightedDistance:
    def _spec(self, model, mu=None):
        spec = WeightedNormSpec.from_model(model)
        if mu is not None:
            spec = WeightedNormSpec(
                mu=mu, order_xi=spec.order_xi, order_beta=spec.order_beta,
                rho=spec.rho, scale=spec.scale,
            )
        return spec

    def test_identical_trajectories(self, small_chemo):
        grid_t = TimeGrid(T=1.0, K=8)
        traj = Trajectory(grid=grid_t, states=RNG.standard_normal((9, 16)))
        assert weighted_distance(traj, traj, self._spec(small_chemo)) == 0.0

    def test_constant_difference_unweighted(self, small_chemo):
        # mu = 0 and a constant-in-time difference: no Hoelder part, just the
        # two spatial norms of the constant field.
        grid_t = TimeGrid(T=1.0, K=8)
        c = RNG.standard_normal(16)
        u = Trajectory(grid=grid_t, states=np.tile(c, (9, 1)))
        v = Trajectory.zero(grid_t, 16)
        spec = self._spec(small_chemo, mu=0.0)
        from avgrec.spatial import sobolev_norm

        expected = sobolev_norm(spec.scale, c, spec.order_xi) + sobolev_norm(
            spec.scale, c, spec.order_beta
        )
        assert weighted_distance(u, v, spec) == pytest.approx(expected, rel=1e-12)

    @given(c=st.floats(-20.0, 20.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, c, small_chemo):
        grid_t = TimeGrid(T=1.0, K=8)
        rng = np.random.default_rng(3)
        u = Trajectory(grid=grid_t, states=rng.standard_normal((9, 16)))
        v = Trajectory(grid=grid_t, states=rng.standard_normal((9, 16)))
        spec = self._spec(small_chemo)
        base = weighted_distance(u, v, spec)
        scaled = weighted_distance(
            Trajectory(grid=grid_t, states=c * u.states),
            Trajectory(grid=grid_t, states=c * v.states),
            spec,
        )
        assert scaled == pytest.approx(abs(c) * base, rel=1e-10, abs=1e-12)

    def test_grid_mismatch_rejected(self, small_chemo):
        u = Trajectory.zero(TimeGrid(T=1.0, K=8), 16)
        v = Trajectory.zero(TimeGrid(T=1.0, K=4), 16)
        with pytest.raises(ValueError):
            weighted_distance(u, v, self._spec(small_chemo))


class TestForwardSolve:
    def test_zero_initial_state(self, small_chemo):
        traj = forward_solve(small_chemo, np.zeros(16), TimeGrid(T=0.5, K=32))
        assert np.all(traj.states == 0.0)

    def test_linear_exponential_oracle_first_order(self, linear16):
        u0 = 0.1 * np.cos(np.pi * linear16.base.grid.nodes)
        errors = []
        for K in (32, 64, 128):
            traj = forward_solve(linear16, u0, TimeGrid(T=0.5, K=K))
            exact = matrix_exponential(linear16.matrix, 0.5) @ u0
            errors.append(np.linalg.norm(traj.states[-1] - exact))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 0.8

    def test_chemotaxis_mass_drift_within_documented_tolerance(self, chemo32):
        # u0 = 1e-2 cos(pi x) has zero initial mass, so the IMEX drift of
        # sum(u) * spacing is measured absolutely; observed ~5.8e-7 at this
        # resolution, documented tolerance 1e-6.
        grid = chemo32.base.grid
        u0 = 1e-2 * np.cos(np.pi * grid.nodes)
        traj = forward_solve(chemo32, u0, TimeGrid(T=0.5, K=128))
        mass = traj.states.sum(axis=1) * grid.spacing
        assert np.abs(mass - mass[0]).max() <= 1e-6

    def test_ball_exit_raises(self, small_chemo):
        with pytest.raises(BallViolationError):
            forward_solve(small_chemo, np.full(16, 5.0), TimeGrid(T=0.5, K=8))

    def test_self_convergence_first_order(self, small_chemo):
        u0 = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        e_coarse = self_convergence_error(small_chemo, u0, TimeGrid(T=0.5, K=32))
        e_fine = self_convergence_error(small_chemo, u0, TimeGrid(T=0.5, K=64))
        assert np.log2(e_coarse / e_fine) >= 0.8


class TestIterateOnce:
    def test_linear_single_sweep_exact(self, linear16):
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        x0 = 0.2 * RNG.standard_normal(16)
        M = linear_observation(linear16, cond, x0)
        table = evolution_stepper(operator_path(linear16, Trajectory.zero(grid_t, 16)))
        start = Trajectory(grid=grid_t, states=RNG.standard_normal((33, 16)))
        got, _ = _iterate_detail(linear16, cond, M, start, RecoveryConfig())
        expected = table.column @ x0
        assert np.abs(got.states - expected).max() <= 1e-8

    def test_zero_data_zero_fixed_point(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        got, _ = _iterate_detail(
            small_chemo, cond, np.zeros(16), Trajectory.zero(grid_t, 16), RecoveryConfig()
        )
        assert np.all(got.states == 0.0)

    def test_small_data_stays_in_ball(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        M = 1e-3 * np.cos(np.pi * small_chemo.base.grid.nodes)
        traj, _ = _iterate_detail(
            small_chemo, cond, M, Trajectory.zero(grid_t, 16), RecoveryConfig()
        )
        from avgrec.spatial import sobolev_norm

        norms = [sobolev_norm(small_chemo.scale, s, 0.0) for s in traj.states]
        assert max(norms) <= small_chemo.ball_radius


class TestFixedPointRecover:
    def test_zero_observation(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        u0, traj, report = fixed_point_recover(small_chemo, cond, np.zeros(16))
        assert np.all(u0 == 0.0)
        assert np.all(traj.states == 0.0)
        assert report.converged and report.iterates <= 2

    @pytest.mark.parametrize("variant", list(Variant))
    def test_linear_oracle_all_variants(self, linear16, variant):
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, variant, "constant", w0=0.5)
        x0 = 0.3 * RNG.standard_normal(16)
        M = linear_observation(linear16, cond, x0)
        u0, _, report = fixed_point_recover(linear16, cond, M)
        assert np.linalg.norm(u0 - x0) <= 1e-6 * np.linalg.norm(x0)
        assert report.converged
        assert report.sigma_min_history

    def test_fixed_point_consistency(self, manufactured):
        run = manufactured["chemotaxis", 128]
        data = run["variants"][Variant.TIME_AVERAGE]
        config = RecoveryConfig()
        spec = WeightedNormSpec.from_model(run["model"])
        moved, _ = _iterate_detail(
            run["model"], data["cond"], data["M"], data["trajectory"], config
        )
        assert weighted_distance(moved, data["trajectory"], spec) <= config.tol_fixed_point

    def test_report_serializable(self, manufactured):
        report = manufactured["chemotaxis", 128]["variants"][Variant.TIME_AVERAGE]["report"]
        payload = json.dumps(report.to_dict())
        assert "distances" in payload

    def test_ball_config_validated(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        with pytest.raises(ConfigurationError):
            fixed_point_recover(
                small_chemo, cond, np.zeros(16), RecoveryConfig(ball_L=2.0)
            )

    def test_iteration_cap_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="max_iters"):
            RecoveryConfig(max_iters=0)

    def test_divergence_fails_with_numerical_error(self, small_chemo):
        # Far beyond the smallness regime the run must fail as a numerical
        # error: either diverging distances or a degenerate resolvent.
        from avgrec.errors import NumericalError

        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        big_M = 50.0 * np.cos(np.pi * small_chemo.base.grid.nodes)
        with pytest.raises(NumericalError) as err:
            with pytest.warns(UserWarning):
                fixed_point_recover(small_chemo, cond, big_M, RecoveryConfig(max_iters=20))
        report = getattr(err.value, "report", None)
        assert report is None or not report.converged


class TestAveragingResidual:
    def test_self_consistency_of_definition(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        traj = forward_solve(
            small_chemo, 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes), grid_t
        )
        M = np.einsum("j,ja->a", cond.quad_weights * cond.weight, traj.states)
        assert averaging_residual(cond, traj, M) <= 1e-12

    def test_recovered_residual_within_tolerance(self, manufactured):
        config_tol = RecoveryConfig().tol_fixed_point
        for run in manufactured.values():
            for data in run["variants"].values():
                assert data["report"].residual <= 10 * config_tol

    def test_terminal_difference_degenerate_form(self):
        grid_t = TimeGrid(T=1.0, K=4)
        cond = AveragingCondition.from_preset(
            grid_t, Variant.TERMINAL_DIFFERENCE, "constant", w0=0.0
        )
        states = RNG.standard_normal((5, 3))
        M = RNG.standard_normal(3)
        traj = Trajectory(grid=grid_t, states=states)
        expected = np.linalg.norm(states[0] - M) / np.linalg.norm(M)
        assert averaging_residual(cond, traj, M) == pytest.approx(expected, rel=1e-12)


class TestVariantDegeneracy:
    def test_terminal_difference_with_zero_weight(self, small_chemo):
        # u(0) = M exactly, and the trajectory is the evolution of M under
        # the converged table (checked through the fixed-point identity).
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(
            grid_t, Variant.TERMINAL_DIFFERENCE, "constant", w0=0.0
        )
        M = 1e-3 * np.cos(np.pi * small_chemo.base.grid.nodes)
        u0, traj, report = fixed_point_recover(small_chemo, cond, M)
        np.testing.assert_array_equal(u0, M)
        table = evolution_stepper(operator_path(small_chemo, traj))
        f_states = np.stack([small_chemo.evaluate_f(s) for s in traj.states])
        reconstructed = table.column @ M + duhamel_sums(table, f_states)
        assert np.abs(traj.states - reconstructed).max() <= 10 * RecoveryConfig().tol_fixed_point


class TestStepperSweep:
    """The stepper recovery runs on the one-step factors, never on the table."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_table_routed_reference(self, small_chemo, variant, monkeypatch):
        import avgrec.averaging
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, variant, "constant", w0=0.5)
        truth = forward_solve(small_chemo, 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes), grid_t)
        M = np.einsum("j,ja->a", cond.quad_weights * cond.weight, truth.states)
        if variant is Variant.INITIAL_PLUS_AVERAGE:
            M = M + truth.states[0]
        elif variant is Variant.TERMINAL_DIFFERENCE:
            M = truth.states[0] - cond.w0 * truth.states[-1]

        def table_route(model, traj, f_states, config):
            return evolution_stepper(operator_path(model, traj))

        with monkeypatch.context() as patch:
            patch.setattr(avgrec.solver, "_propagation", table_route)
            reference, _, _ = fixed_point_recover(small_chemo, cond, M)

        def forbidden(*args, **kwargs):
            raise AssertionError("the stepper sweep built the full propagator table")

        monkeypatch.setattr(oracles, "evolution_stepper", forbidden)
        monkeypatch.setattr(avgrec.solver, "evolution_stepper", forbidden, raising=False)
        monkeypatch.setattr(avgrec.averaging, "duhamel_sums", forbidden)
        monkeypatch.setattr(oracles.PropagatorTable, "duhamel", forbidden)
        u0, _, report = fixed_point_recover(small_chemo, cond, M)
        assert report.converged
        assert np.linalg.norm(u0 - reference) <= 1e-12 * np.linalg.norm(reference)


    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_dense_lu_reference(self, small_chemo, variant, monkeypatch):
        import avgrec.evolution

        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, variant, "constant", w0=0.5)
        truth = forward_solve(small_chemo, 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes), grid_t)
        M = observe(cond, truth.states)

        def forbidden(*args, **kwargs):
            raise AssertionError("the wrong one-step solve ran")

        with monkeypatch.context() as patch:
            # Every path reads as dense, so the factors come from the LU.
            patch.setattr(avgrec.evolution.OperatorPath, "tridiagonal", property(lambda self: None))
            patch.setattr(avgrec.evolution, "dgtsv", forbidden)
            reference, _, _ = fixed_point_recover(small_chemo, cond, M)

        monkeypatch.setattr(avgrec.evolution, "_dense_factors", forbidden)
        u0, _, report = fixed_point_recover(small_chemo, cond, M)
        assert report.converged
        assert np.linalg.norm(u0 - reference) <= 1e-12 * np.linalg.norm(reference)


class TestSeriesSweep:
    """The series recovery runs on the frozen-step recursion, never on the table."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_table_routed_reference(self, small_chemo, variant, monkeypatch):
        import avgrec.averaging
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, variant, "constant", w0=0.5)
        truth = forward_solve(small_chemo, 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes), grid_t)
        M = observe(cond, truth.states)
        config = RecoveryConfig(method=PropagatorMethod.KERNEL_SERIES)

        def table_route(model, traj, f_states, config):
            return series_table(operator_path(model, traj))

        with monkeypatch.context() as patch:
            patch.setattr(avgrec.solver, "_propagation", table_route)
            reference, _, _ = fixed_point_recover(small_chemo, cond, M, config)

        def forbidden(*args, **kwargs):
            raise AssertionError("the series sweep built a dense table")

        monkeypatch.setattr(oracles, "series_table", forbidden)
        monkeypatch.setattr(oracles, "_frozen_tables", forbidden)
        monkeypatch.setattr(avgrec.averaging, "duhamel_sums", forbidden)
        monkeypatch.setattr(oracles.PropagatorTable, "duhamel", forbidden)
        u0, _, report = fixed_point_recover(small_chemo, cond, M, config)
        assert report.converged
        assert np.linalg.norm(u0 - reference) <= 1e-12 * np.linalg.norm(reference)


class TestOneBuildPerIteration:
    """A sweep builds one propagation and runs one left-sum recursion; the
    recovered initial state is the last sweep's Xi, with no extra build."""

    @staticmethod
    def counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.fixture
    def counts(self, monkeypatch):
        import avgrec.evolution
        import avgrec.solver

        return {
            name: self.counting(monkeypatch, module, name)
            for module, name in (
                (avgrec.solver, "_propagation"),
                (avgrec.evolution, "_stepper_left_sums"),
                (avgrec.evolution, "_series_left_sums"),
            )
        }

    @pytest.mark.parametrize("method", list(PropagatorMethod))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_recovery_builds_once_per_iteration(self, small_chemo, counts, method, variant):
        grid_t = TimeGrid(T=0.5, K=24)
        cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.5)
        x0 = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        M = observe(cond, forward_solve(small_chemo, x0, grid_t).states)
        u0, traj, report = fixed_point_recover(small_chemo, cond, M, RecoveryConfig(method=method))
        assert report.converged and report.iterates >= 2
        series = method is PropagatorMethod.KERNEL_SERIES
        assert {name: len(calls) for name, calls in counts.items()} == {
            "_propagation": report.iterates,
            "_stepper_left_sums": 0 if series else report.iterates,
            "_series_left_sums": report.iterates if series else 0,
        }
        assert np.array_equal(u0, traj.states[0])

    def test_converged_scan_row_builds_once_per_iteration(self, small_chemo, counts):
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=0.5)
        direction = np.cos(np.pi * small_chemo.base.grid.nodes)
        result = smallness_scan(small_chemo, cond, direction, [0.01])
        (row,) = result.rows
        assert row.converged and row.iterations >= 2
        assert len(counts["_propagation"]) == row.iterations
        assert len(counts["_stepper_left_sums"]) == row.iterations

    def test_initial_state_is_the_last_sweeps_xi(self, small_chemo, monkeypatch):
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        solved = []
        original = avgrec.solver._initial_state

        def recorded(*args):
            result = original(*args)
            solved.append(result[0])
            return result

        monkeypatch.setattr(avgrec.solver, "_initial_state", recorded)
        u0, traj, report = fixed_point_recover(small_chemo, cond, M, RecoveryConfig())
        assert len(solved) == report.iterates
        assert u0 is solved[-1]
        assert np.array_equal(u0, traj.states[0])


class NonFiniteModel:
    """A model whose A(u) or f(u) is made non-finite at one node, in its
    dense stack and in its bands alike."""

    def __init__(self, model, part, node=3):
        self.model, self.part, self.node = model, part, node

    def __getattr__(self, name):
        return getattr(self.model, name)

    def assemble_A(self, u, enforce_ball=True):
        mats = self.model.assemble_A(u, enforce_ball=enforce_ball)
        if self.part == "A":
            mats = mats.copy()
            mats[self.node, 0, 0] = np.inf
        return mats

    def assemble_bands(self, u, enforce_ball=True):
        sub, main, sup = self.model.assemble_bands(u, enforce_ball=enforce_ball)
        if self.part == "A":
            main = main.copy()
            main[self.node, 0] = np.inf
        return sub, main, sup

    def evaluate_f(self, u):
        f_states = self.model.evaluate_f(u)
        if self.part == "f":
            f_states = f_states.copy()
            f_states[self.node, 0] = np.nan
        return f_states


class DenseOnlyModel:
    """A model seen without its ``assemble_bands``: the solver takes its
    dense ``assemble_A`` stack."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        if name == "assemble_bands":
            raise AttributeError(name)
        return getattr(self.model, name)


class TestBandPath:
    """The solver builds its operator path from the model's bands, and the
    stepper then never forms a dense (K+1, n, n) stack."""

    @staticmethod
    def problem(model, K=32):
        grid_t = TimeGrid(T=0.5, K=K)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        truth = forward_solve(model, 1e-2 * np.cos(np.pi * model.base.grid.nodes), grid_t)
        return cond, observe(cond, truth.states)

    def test_stepper_recovery_forms_no_dense_stack(self, small_chemo, monkeypatch):
        import avgrec.models
        import avgrec.solver

        cond, M = self.problem(small_chemo)

        def forbidden(*args, **kwargs):
            raise AssertionError("the model formed a dense operator stack")

        paths = []

        def recorded(*args, **kwargs):
            paths.append(operator_path(*args, **kwargs))
            return paths[-1]

        monkeypatch.setattr(avgrec.models, "band_stack", forbidden)
        monkeypatch.setattr(avgrec.solver, "operator_path", recorded)
        _, _, report = fixed_point_recover(small_chemo, cond, M)
        assert report.converged
        assert len(paths) == report.iterates
        assert not any("matrices" in vars(path) for path in paths)

    @pytest.mark.parametrize("method", list(PropagatorMethod))
    def test_band_and_dense_paths_recover_identically(self, small_chemo, method):
        cond, M = self.problem(small_chemo)
        config = RecoveryConfig(method=method)
        u0, traj, report = fixed_point_recover(small_chemo, cond, M, config)
        dense_u0, dense_traj, dense_report = fixed_point_recover(
            DenseOnlyModel(small_chemo), cond, M, config
        )
        assert np.array_equal(u0, dense_u0)
        assert np.array_equal(traj.states, dense_traj.states)
        assert report.to_dict() == dense_report.to_dict()

    def test_model_without_bands_gives_a_dense_path(self, small_chemo):
        traj = Trajectory(TimeGrid(T=0.5, K=8), 1e-2 * RNG.standard_normal((9, 16)))
        dense = operator_path(DenseOnlyModel(small_chemo), traj)
        band = operator_path(small_chemo, traj)
        assert "matrices" in vars(dense) and "matrices" not in vars(band)
        assert np.array_equal(dense.matrices, band.matrices)


class TestNonFiniteIterate:
    @pytest.mark.parametrize("part", ["A", "f"])
    @pytest.mark.parametrize("method", list(PropagatorMethod))
    def test_no_build_on_a_non_finite_path(self, small_chemo, part, method, monkeypatch):
        self._assert_no_build(NonFiniteModel(small_chemo, part), method, monkeypatch)

    @pytest.mark.parametrize("node", [0, -1])
    @pytest.mark.parametrize("method", list(PropagatorMethod))
    def test_end_nodes_checked(self, small_chemo, node, method, monkeypatch):
        # A(t_0) enters only the first step's right-hand side and A(t_K)
        # only the last step's left-hand side; both are checked.
        self._assert_no_build(NonFiniteModel(small_chemo, "A", node), method, monkeypatch)

    @staticmethod
    def _assert_no_build(model, method, monkeypatch):
        import avgrec.solver

        def forbidden(*args, **kwargs):
            raise AssertionError("a propagation was built on non-finite values")

        monkeypatch.setattr(avgrec.solver, "step_factors", forbidden)
        monkeypatch.setattr(avgrec.solver, "evolution_series", forbidden)
        grid_t = TimeGrid(T=0.5, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=0.5)
        with pytest.raises(ConvergenceError, match="non-finite operator or forcing values"):
            _initial_state(
                model, cond, np.zeros(16), Trajectory.zero(grid_t, 16), RecoveryConfig(method=method)
            )


class TestSmallnessScan:
    def test_zero_amplitude_trivially_converges(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        direction = np.cos(np.pi * small_chemo.base.grid.nodes)
        result = smallness_scan(small_chemo, cond, direction, [0.0])
        assert result.rows[0].converged
        assert result.m0_lower_bound == 0.0

    def test_linear_model_converges_at_all_amplitudes(self, linear16):
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        direction = np.cos(np.pi * linear16.base.grid.nodes)
        result = smallness_scan(linear16, cond, direction, [0.1, 10.0, 1000.0])
        assert all(row.converged for row in result.rows)

    def test_amplitudes_validated(self, linear16):
        grid_t = TimeGrid(T=0.5, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        with pytest.raises(ValueError):
            smallness_scan(linear16, cond, np.ones(16), [1.0, 0.5])


class TestContractionProbe:
    def test_linear_limits_identical(self, linear16):
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        x0 = 0.2 * np.cos(np.pi * linear16.base.grid.nodes)
        M = linear_observation(linear16, cond, x0)
        probe = contraction_probe(linear16, cond, M, trials=3, seed=1)
        assert probe.all_converged
        assert probe.limit_spread <= 1e-10
        assert probe.initial_state_spread <= 1e-10

    def test_initial_state_spread_includes_base_run(self, small_chemo):
        # With one trial the only pair is the base run and that trial; a
        # loose tolerance leaves their recovered initial states apart.
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        config = RecoveryConfig(tol_fixed_point=1e-4)
        probe = contraction_probe(small_chemo, cond, M, config, trials=1, seed=4)
        base_u0, _, _ = fixed_point_recover(small_chemo, cond, M, config)
        spec = WeightedNormSpec.from_model(small_chemo)
        rng = np.random.default_rng(4)
        start = random_admissible_trajectory(grid_t, 16, spec, config.ball_L, rng)
        trial_u0, _, _ = fixed_point_recover(small_chemo, cond, M, config, initial=start)
        expected = float(np.linalg.norm(base_u0 - trial_u0))
        assert expected > 0.0
        assert probe.initial_state_spread == expected

    def test_zero_data_zero_limits(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        probe = contraction_probe(small_chemo, cond, np.zeros(16), trials=2, seed=2)
        assert probe.all_converged
        assert probe.limit_spread <= 1e-10
