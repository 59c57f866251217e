import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from avgrec.averaging import AveragingCondition, Variant, observe
from avgrec.errors import (
    BallViolationError,
    ConfigurationError,
    ConvergenceError,
    NumericalError,
    SingularOperatorError,
)
from avgrec.evolution import PropagatorMethod, TimeGrid, _column_values
from avgrec.models import ChemotaxisModel, LinearTestModel
from avgrec.solver import (
    RecoveryConfig,
    Trajectory,
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
from avgrec.spatial import BoundaryKind, band_stack, build_grid

import oracles
from conftest import counted_port, one_sweep
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
        operator_path(model, cond.grid, np.zeros((cond.grid.K + 1, model.base.grid.n)))[0]
    )
    if cond.variant is Variant.TIME_AVERAGE:
        return assemble_phi(table, cond).matrix @ x0
    if cond.variant is Variant.INITIAL_PLUS_AVERAGE:
        return x0 + assemble_phi(table, cond).matrix @ x0
    return x0 - cond.w0 * table.op(cond.grid.K, 0) @ x0


class TestTrajectory:
    def test_zero_constructor(self):
        traj = Trajectory(TimeGrid(T=1.0, K=4), np.zeros((5, 3), dtype=int))
        assert traj.states.shape == (5, 3) and traj.states.dtype == float
        assert np.all(traj.states == 0.0)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            Trajectory(grid=TimeGrid(T=1.0, K=4), states=np.zeros((3, 3)))


class TestWeightedDistance:
    def test_identical_trajectories(self, small_chemo):
        grid_t = TimeGrid(T=1.0, K=8)
        states = RNG.standard_normal((9, 16))
        assert weighted_distance(states, states, small_chemo, grid_t) == 0.0

    def test_constant_difference_unweighted(self, small_chemo):
        # mu = 0 and a constant-in-time difference: no Hoelder part, just the
        # two spatial norms of the constant field.
        grid_t = TimeGrid(T=1.0, K=8)
        c = RNG.standard_normal(16)
        u = np.tile(c, (9, 1))
        v = np.zeros((9, 16))
        model = replace(small_chemo, exponents=replace(small_chemo.exponents, mu=0.0))
        from avgrec.spatial import sobolev_norm

        book = model.exponents
        expected = sobolev_norm(model.base, c, 2.0 * book.xi) + sobolev_norm(
            model.base, c, 2.0 * book.beta
        )
        assert weighted_distance(u, v, model, grid_t) == pytest.approx(expected, rel=1e-12)

    @given(c=st.floats(-20.0, 20.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, c, small_chemo):
        grid_t = TimeGrid(T=1.0, K=8)
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((2, 9, 16))
        base = weighted_distance(u, v, small_chemo, grid_t)
        scaled = weighted_distance(c * u, c * v, small_chemo, grid_t)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-10, abs=1e-12)

    def test_grid_mismatch_rejected(self, small_chemo):
        u, v = np.zeros((9, 16)), np.zeros((5, 16))
        with pytest.raises(ValueError):
            weighted_distance(u, v, small_chemo, TimeGrid(T=1.0, K=8))


class TestForwardSolve:
    def test_zero_initial_state(self, small_chemo):
        traj = forward_solve(small_chemo, np.zeros(16), TimeGrid(T=0.5, K=32))
        assert np.all(traj.states == 0.0)

    def test_linear_exponential_oracle_first_order(self, linear16):
        u0 = 0.1 * np.cos(np.pi * linear16.base.grid.nodes)
        errors = []
        for K in (32, 64, 128):
            traj = forward_solve(linear16, u0, TimeGrid(T=0.5, K=K))
            exact = expm(0.5 * band_stack(*linear16.bands)) @ u0
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

    @pytest.mark.parametrize("name", ["chemotaxis", "reaction_diffusion", "linear"])
    def test_matches_dense_imex_reference(self, name, chemo32, rd32, linear16):
        model = {"chemotaxis": chemo32, "reaction_diffusion": rd32, "linear": linear16}[name]
        grid_t = TimeGrid(T=0.5, K=64)
        u0 = 1e-2 * np.cos(np.pi * model.base.grid.nodes)
        got = forward_solve(model, u0, grid_t).states
        expected = oracles.dense_forward_solve(model, u0, grid_t).states
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
        assert np.linalg.norm(got[-1] - u0) > 1e-3 * np.linalg.norm(u0)

    @pytest.mark.parametrize("name", ["chemotaxis", "reaction_diffusion", "linear"])
    def test_equals_the_per_step_gtsv_reference(self, name, chemo32, rd32, linear16, monkeypatch):
        # Bit for bit, on Python floats alone: no step reaches the dgtsv port.
        model = {"chemotaxis": chemo32, "reaction_diffusion": rd32, "linear": linear16}[name]
        grid_t = TimeGrid(T=0.5, K=64)
        u0 = 0.1 * np.cos(np.pi * model.base.grid.nodes) - 0.05 * model.base.grid.nodes
        expected = oracles.gtsv_forward_solve(model, u0, grid_t).states
        calls = counted_port(monkeypatch)
        assert forward_solve(model, u0, grid_t).states.tobytes() == expected.tobytes()
        assert sum(calls) == 0

    @pytest.mark.parametrize("n", [3, 64])
    def test_interchanging_step_equals_gtsv(self, n, monkeypatch):
        # I - h A has a zero first pivot above a nonzero entry: gtsv swaps
        # rows 1 and 2 at every step; at n = 64, where the main diagonal is
        # 1/16, the sub-diagonal 2 and the super-diagonal 1, it swaps every
        # row of every step.  The dgtsv port solves each step, and the march
        # is gtsv's by bytes.
        from scipy.linalg.lapack import dgtsv

        if n == 3:
            implicit = (np.array([1.0, 0.5]), np.array([0.0, 2.0, 2.0]), np.array([1.0, 0.5]))
            u0 = np.array([1.0, -2.0, 0.5])
        else:
            implicit = (np.full(n - 1, 2.0), np.full(n, 1.0 / 16.0), np.ones(n - 1))
            u0 = np.cos(np.arange(n) + 0.5)
            # dgtsv's fill dl(i) is u(i+1) exactly where row i was interchanged.
            fill, pivots, *_ = dgtsv(*implicit, np.ones(n))
            assert np.array_equal(fill[:-1], implicit[2][1:])
            assert pivots[-2] == implicit[0][-1]
        grid = build_grid(n, 1.0, BoundaryKind.NEUMANN)
        # A = 16 (I - implicit) at h = 1/16, exact in binary.
        bands = (-16.0 * implicit[0], 16.0 * (1.0 - implicit[1]), -16.0 * implicit[2])
        model = replace(LinearTestModel.default(grid), bands=bands)
        grid_t = TimeGrid(T=0.5, K=8)
        expected = oracles.gtsv_forward_solve(model, u0, grid_t).states
        calls = counted_port(monkeypatch)
        got = forward_solve(model, u0, grid_t).states
        assert np.isfinite(got).all()
        assert got.tobytes() == expected.tobytes()
        assert calls == [1] * grid_t.K

    def test_zero_pivot_in_a_later_row_names_step_and_row(self):
        # I - h A = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        # at h = 1/16: the elimination cancels row 2's pivot to zero.
        grid = build_grid(4, 1.0, BoundaryKind.NEUMANN)
        off = np.array([-16.0, 0.0, 0.0])
        model = replace(LinearTestModel.default(grid), bands=(off, np.zeros(4), off))
        grid_t = TimeGrid(T=0.5, K=8)
        message = "^singular implicit matrix at step 0: zero pivot in row 2 "
        for march in (forward_solve, oracles.gtsv_forward_solve):
            with pytest.raises(NumericalError, match=message):
                march(model, np.ones(4), grid_t)

    def test_singular_implicit_matrix_names_step(self):
        # I - h A = 0 for A = 16 I at h = 1/16.
        grid = build_grid(4, 1.0, BoundaryKind.NEUMANN)
        bands = (np.zeros(3), np.full(4, 16.0), np.zeros(3))
        model = replace(LinearTestModel.default(grid), bands=bands)
        grid_t = TimeGrid(T=0.5, K=8)
        with pytest.raises(NumericalError, match="^singular implicit matrix at step 0: "):
            forward_solve(model, np.ones(4), grid_t)

    def test_non_finite_state_ends_the_march(self):
        # At delta = 1e154, exp(-delta v) overflows on u0's signal, so the
        # state after step 0 holds NaN; its ball norm is NaN, which the
        # radius comparison lets through.  The march warns of nothing.
        model = ChemotaxisModel.default(build_grid(8, 1.0, BoundaryKind.NEUMANN), delta=1e154)
        u0 = 0.01 * np.cos(np.pi * model.base.grid.nodes)
        grid_t = TimeGrid(T=0.5, K=8)
        message = "^forward march: non-finite state after step 0$"
        with pytest.raises(NumericalError, match=message) as err:
            forward_solve(model, u0, grid_t)
        assert not isinstance(err.value, BallViolationError)
        with np.errstate(over="ignore", invalid="ignore"):
            for march in (oracles.gtsv_forward_solve, oracles.dense_forward_solve):
                with pytest.raises(NumericalError, match=message):
                    march(model, u0, grid_t)
        with pytest.raises(NumericalError, match="^forward march: non-finite initial state$"):
            forward_solve(model, np.full(8, np.nan), grid_t)

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
        table = evolution_stepper(operator_path(linear16, grid_t, np.zeros((33, 16)))[0])
        start = RNG.standard_normal((33, 16))
        got, *_ = one_sweep(linear16, cond, M, start, RecoveryConfig())
        expected = table.column @ x0
        assert np.abs(got - expected).max() <= 1e-8

    def test_zero_data_zero_fixed_point(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        got, *_ = one_sweep(small_chemo, cond, np.zeros(16), np.zeros((17, 16)), RecoveryConfig())
        assert np.all(got == 0.0)

    def test_small_data_stays_in_ball(self, small_chemo):
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        M = 1e-3 * np.cos(np.pi * small_chemo.base.grid.nodes)
        states, *_ = one_sweep(small_chemo, cond, M, np.zeros((33, 16)), RecoveryConfig())
        from avgrec.spatial import sobolev_norm

        norms = [sobolev_norm(small_chemo.base, s, 0.0) for s in states]
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
        states = data["trajectory"].states
        moved, *_ = one_sweep(run["model"], data["cond"], data["M"], states, config)
        distance = weighted_distance(moved, states, run["model"], data["cond"].grid)
        assert distance <= config.tol_fixed_point

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

    @pytest.mark.parametrize(
        "key, field", [("tol", "tol_fixed_point"), ("ball_l", "ball_L")]
    )
    @pytest.mark.parametrize("value", [0.0, -1e-3, float("nan")])
    def test_nonpositive_or_nan_tolerance_and_radius_rejected(self, key, field, value):
        # NaN <= 0 is false: a NaN tolerance would run every sweep and end
        # in "no convergence", so the checks read "not x > 0".
        with pytest.raises(ConfigurationError, match=rf"^\[solver\] {key}: .* must be positive"):
            RecoveryConfig(**{field: value})

    def test_failed_sweep_counts_its_ball_exits(self, small_chemo):
        # Every state of the start leaves the ball, and NaN data make the
        # first sweep's states non-finite: the report counts the exits the
        # warning names, though no sweep completed.
        grid_t = TimeGrid(T=0.5, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        states = np.tile(2.0 * np.cos(np.pi * small_chemo.base.grid.nodes), (9, 1))
        with pytest.raises(ConvergenceError, match="^iteration produced non-finite states$") as err:
            with pytest.warns(UserWarning, match="^9 iterate states left the model ball"):
                fixed_point_recover(
                    small_chemo, cond, np.full(16, np.nan), initial=Trajectory(grid_t, states)
                )
        assert err.value.report.ball_exits == 9 and err.value.report.iterates == 0

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
        M = np.einsum("j,ja->a", cond.grid.trapezoid_weights * cond.weight, traj.states)
        assert averaging_residual(cond, traj.states, M) <= 1e-12

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
        expected = np.linalg.norm(states[0] - M) / np.linalg.norm(M)
        assert averaging_residual(cond, states, M) == pytest.approx(expected, rel=1e-12)


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
        path, f_states = operator_path(small_chemo, traj.grid, traj.states)
        table = evolution_stepper(path)
        reconstructed = table.column @ M + table.duhamel(f_states)
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
        M = np.einsum("j,ja->a", cond.grid.trapezoid_weights * cond.weight, truth.states)
        if variant is Variant.INITIAL_PLUS_AVERAGE:
            M = M + truth.states[0]
        elif variant is Variant.TERMINAL_DIFFERENCE:
            M = truth.states[0] - cond.w0 * truth.states[-1]

        def table_route(cond, path, f_states, config, base):
            return [
                ([r], evolution_stepper(row).sweep(cond, f_states[[r]]))
                for r, row in enumerate(path.rows)
            ]

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
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, variant, "constant", w0=0.5)
        truth = forward_solve(small_chemo, 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes), grid_t)
        M = observe(cond, truth.states)

        with monkeypatch.context() as patch:
            # The factors come from the dense LU of the same path: no node
            # reaches the dgtsv port.
            patch.setattr(avgrec.solver, "StepFactors", oracles.dense_step_factors)
            calls = counted_port(patch)
            reference, _, _ = fixed_point_recover(small_chemo, cond, M)
        assert sum(calls) == 0

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

        def table_route(cond, path, f_states, config, base):
            return [
                ([r], series_table(row).sweep(cond, f_states[[r]]))
                for r, row in enumerate(path.rows)
            ]

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
    """A sweep builds one propagation (for the stepper, one elimination of
    its affine steps and one Horner pass over them; on a multiple of the
    Laplacian, one modal sweep; for the series, one left-sum recursion) and
    solves for the chemotaxis signal once, as a forward step does; the
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
                (avgrec.solver, "modal_sweep"),
                (avgrec.evolution, "_eliminated_steps"),
                (avgrec.evolution, "_observed_steps"),
                (avgrec.evolution, "_series_left_sums"),
            )
        }

    @staticmethod
    def problem(model, variant):
        grid_t = TimeGrid(T=0.5, K=24)
        cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.5)
        x0 = 1e-2 * np.cos(np.pi * model.base.grid.nodes)
        return cond, observe(cond, forward_solve(model, x0, grid_t).states)

    @pytest.mark.parametrize("method", list(PropagatorMethod))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_recovery_builds_once_per_iteration(self, small_chemo, counts, method, variant):
        cond, M = self.problem(small_chemo, variant)
        # A constant state away from zero freezes one generator at every
        # node, and it is no multiple of the Laplacian (its main band
        # carries -chi(v) v): every sweep, the first too, goes dense.
        start = Trajectory(cond.grid, np.full((cond.grid.K + 1, 16), 2e-3))
        config = RecoveryConfig(method=method)
        u0, traj, report = fixed_point_recover(small_chemo, cond, M, config, initial=start)
        assert report.converged and report.iterates >= 2
        series = method is PropagatorMethod.KERNEL_SERIES
        assert {name: len(calls) for name, calls in counts.items()} == {
            "_propagation": report.iterates,
            "modal_sweep": 0,
            "_eliminated_steps": 0 if series else report.iterates,
            "_observed_steps": 0 if series else report.iterates,
            "_series_left_sums": report.iterates if series else 0,
        }
        assert np.array_equal(u0, traj.states[0])

    @pytest.mark.parametrize("method", list(PropagatorMethod))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_zero_start_sweeps_in_the_eigenbasis(self, small_chemo, counts, method, variant):
        # At u = 0 the chemotaxis generator is the Laplacian itself: the
        # first sweep is one modal sweep, and every later one is dense.
        cond, M = self.problem(small_chemo, variant)
        u0, traj, report = fixed_point_recover(small_chemo, cond, M, RecoveryConfig(method=method))
        assert report.converged and report.iterates >= 2
        series = method is PropagatorMethod.KERNEL_SERIES
        assert {name: len(calls) for name, calls in counts.items()} == {
            "_propagation": report.iterates,
            "modal_sweep": 1,
            "_eliminated_steps": 0 if series else report.iterates - 1,
            "_observed_steps": 0 if series else report.iterates - 1,
            "_series_left_sums": report.iterates - 1 if series else 0,
        }
        assert np.array_equal(u0, traj.states[0])

    def test_converged_scan_row_builds_once_per_iteration(self, small_chemo, counts):
        # Every row of a scan starts from zero: its first sweep is one modal
        # sweep, and each later one one elimination and one Horner pass.
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=0.5)
        direction = np.cos(np.pi * small_chemo.base.grid.nodes)
        result = smallness_scan(small_chemo, cond, direction, [0.01])
        (row,) = result.rows
        assert row.converged and row.iterations >= 2
        assert len(counts["_propagation"]) == row.iterations
        assert len(counts["modal_sweep"]) == 1
        assert len(counts["_eliminated_steps"]) == row.iterations - 1
        assert len(counts["_observed_steps"]) == row.iterations - 1
        # A batch whose rows all converge builds once per iteration for all
        # of them: no stage is redone row by row.
        for calls in counts.values():
            calls.clear()
        result = smallness_scan(small_chemo, cond, direction, [0.0, 0.005, 0.01, 0.02])
        iterations = [row.iterations for row in result.rows]
        assert all(row.converged for row in result.rows) and len(set(iterations)) > 1
        assert len(counts["_propagation"]) == max(iterations)
        assert len(counts["modal_sweep"]) == 1
        assert len(counts["_eliminated_steps"]) == max(iterations) - 1
        assert len(counts["_observed_steps"]) == max(iterations) - 1

    def test_constant_start_batch_builds_once_per_iteration(self, small_chemo, counts):
        # Rows from one constant state away from zero share one generator
        # and go dense from their first sweep: one elimination and one
        # Horner pass per batched iteration for all of them.
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=0.5)
        direction = np.cos(np.pi * small_chemo.base.grid.nodes)
        data = [amp * direction for amp in (0.005, 0.01, 0.02)]
        start = Trajectory(grid_t, np.full((grid_t.K + 1, 16), 2e-3))
        rows = avgrec.solver._recover_rows(
            small_chemo, cond, data, [start] * len(data), RecoveryConfig()
        )
        iterations = [row.report.iterates for row in rows]
        assert all(row.error is None for row in rows) and len(set(iterations)) > 1
        assert len(counts["_propagation"]) == max(iterations)
        assert len(counts["modal_sweep"]) == 0
        assert len(counts["_eliminated_steps"]) == max(iterations)
        assert len(counts["_observed_steps"]) == max(iterations)

    def test_scan_measures_its_rows_once_per_iteration(self, small_chemo, monkeypatch):
        # The distances of the rows still running are one stacked call per
        # batched iteration, not one call per row-sweep.
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=0.5)
        direction = np.cos(np.pi * small_chemo.base.grid.nodes)
        calls = self.counting(monkeypatch, avgrec.solver, "weighted_distance")
        result = smallness_scan(small_chemo, cond, direction, [0.0, 0.005, 0.01, 0.02])
        iterations = [row.iterations for row in result.rows]
        assert all(row.converged for row in result.rows) and sum(iterations) > max(iterations)
        assert len(calls) == max(iterations)

    def test_forward_step_solves_for_the_signal_once(self, small_chemo, monkeypatch):
        import avgrec.models

        grid_t = TimeGrid(T=0.5, K=24)
        calls = self.counting(monkeypatch, avgrec.models, "helmholtz_solve")
        forward_solve(small_chemo, 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes), grid_t)
        assert len(calls) == grid_t.K

    @pytest.mark.parametrize("method", list(PropagatorMethod))
    def test_sweep_solves_for_the_signal_once(self, small_chemo, method, monkeypatch):
        import avgrec.models

        grid_t = TimeGrid(T=0.5, K=24)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        x0 = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        M = observe(cond, forward_solve(small_chemo, x0, grid_t).states)
        calls = self.counting(monkeypatch, avgrec.models, "helmholtz_solve")
        _, _, report = fixed_point_recover(small_chemo, cond, M, RecoveryConfig(method=method))
        assert report.converged and report.iterates >= 2
        assert len(calls) == report.iterates

    def test_initial_state_is_the_last_sweeps_xi(self, small_chemo, monkeypatch):
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        solved = []
        original = avgrec.solver._sweep

        def recorded(*args):
            outcomes = original(*args)
            solved.extend(outcome[1] for outcome in outcomes)
            return outcomes

        monkeypatch.setattr(avgrec.solver, "_sweep", recorded)
        u0, traj, report = fixed_point_recover(small_chemo, cond, M, RecoveryConfig())
        assert len(solved) == report.iterates
        assert u0 is solved[-1]
        assert np.array_equal(u0, traj.states[0])


class NonFiniteModel:
    """A model whose A(u) or f(u) is made non-finite at one node."""

    def __init__(self, model, part, node=3):
        self.model, self.part, self.node = model, part, node

    def __getattr__(self, name):
        return getattr(self.model, name)

    def linearise(self, u):
        (sub, main, sup), f_states = self.model.linearise(u)
        if self.part == "A":
            main = main.copy()
            main[..., self.node, 0] = np.inf
        if self.part == "f":
            f_states = f_states.copy()
            f_states[..., self.node, 0] = np.nan
        return (sub, main, sup), f_states


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
        import avgrec.evolution
        import avgrec.solver

        cond, M = self.problem(small_chemo)

        def forbidden(*args, **kwargs):
            raise AssertionError("a dense operator stack was formed")

        paths = []

        def recorded(*args, **kwargs):
            path, f_states = operator_path(*args, **kwargs)
            paths.append(path)
            return path, f_states

        monkeypatch.setattr(avgrec.evolution, "band_stack", forbidden)
        monkeypatch.setattr(avgrec.solver, "operator_path", recorded)
        _, _, report = fixed_point_recover(small_chemo, cond, M)
        assert report.converged
        assert len(paths) == report.iterates
        assert not any("matrices" in vars(path) for path in paths)


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

    def test_non_finite_column_named(self, small_chemo, monkeypatch):
        # Finite A(u) and f(u) whose propagation's column is not finite: the
        # error names the propagation, not the operator or forcing.
        import avgrec.solver

        def propagation(cond, path, f_states, config, base):
            column = np.eye(16) * np.ones((1, 9, 1, 1))
            column[0, 4, 2, 2] = np.inf
            return [([0], _column_values(cond, column, np.zeros((1, 9, 16))))]

        monkeypatch.setattr(avgrec.solver, "_propagation", propagation)
        grid_t = TimeGrid(T=0.5, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=0.5)
        with pytest.raises(ConvergenceError, match="^iteration produced a non-finite propagation$"):
            one_sweep(small_chemo, cond, np.zeros(16), np.zeros((9, 16)), RecoveryConfig())

    @pytest.mark.parametrize(
        "variant, w0",
        [(variant, 0.5) for variant in Variant] + [(Variant.TERMINAL_DIFFERENCE, 0.0)],
    )
    def test_non_finite_interior_step_ends_the_row(self, small_chemo, variant, w0, monkeypatch):
        # One interior step of a dense sweep turns non-finite and spreads
        # into every chain block after it.  The check reads the resolvent
        # and the new states: a terminal difference with w0 = 0 reads node 0
        # alone, so only the states see it.  The row still ends with a
        # ConvergenceError naming the propagation.
        import avgrec.evolution

        original = avgrec.evolution._eliminated_steps

        def spoiled(bands, h, forcing):
            steps = original(bands, h, forcing)
            steps[:, 4, 2, 2] = np.inf
            return steps

        monkeypatch.setattr(avgrec.evolution, "_eliminated_steps", spoiled)
        grid_t = TimeGrid(T=0.5, K=8)
        cond = AveragingCondition.from_preset(grid_t, variant, "constant", w0=w0)
        start = 1e-3 * np.random.default_rng(2).standard_normal((9, 16))
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ConvergenceError, match="^iteration produced a non-finite propagation$"):
                one_sweep(small_chemo, cond, M, start, RecoveryConfig())

    @staticmethod
    def _assert_no_build(model, method, monkeypatch):
        import avgrec.solver

        def forbidden(*args, **kwargs):
            raise AssertionError("a propagation was built on non-finite values")

        monkeypatch.setattr(avgrec.solver, "StepFactors", forbidden)
        monkeypatch.setattr(avgrec.solver, "evolution_series", forbidden)
        grid_t = TimeGrid(T=0.5, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=0.5)
        with pytest.raises(ConvergenceError, match="non-finite operator or forcing values"):
            one_sweep(model, cond, np.zeros(16), np.zeros((9, 16)), RecoveryConfig(method=method))


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

    @pytest.mark.parametrize(
        "error",
        [
            ConvergenceError("iteration produced non-finite operator or forcing values"),
            SingularOperatorError("resolvent is numerically singular", 0.0),
            NumericalError("node 3: t*mu_1(m) = 701 exceeds the overflow cap 700.0"),
        ],
        ids=["non-finite", "singular", "cap"],
    )
    def test_failed_row_counts_completed_sweeps(self, small_chemo, error, monkeypatch):
        # The third sweep fails inside its propagation: the row reports the
        # two sweeps before it and their contraction, as a diverged row does.
        import avgrec.solver

        calls, sweep = [], avgrec.solver._sweep

        def failing_third(*args):
            calls.append(None)
            if len(calls) == 3:
                return [error]
            return sweep(*args)

        monkeypatch.setattr(avgrec.solver, "_sweep", failing_third)
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        direction = np.cos(np.pi * small_chemo.base.grid.nodes)
        (row,) = smallness_scan(small_chemo, cond, direction, [0.01]).rows
        assert not row.converged and row.note.startswith(type(error).__name__)
        assert row.iterations == 2
        assert np.isfinite(row.contraction)
        assert error.report.iterates == 2 and len(error.report.distances) == 2

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
        rng = np.random.default_rng(4)
        start = random_admissible_trajectory(grid_t, small_chemo, config.ball_L, rng)
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

    def test_failed_trial_is_recorded_and_adds_nothing(self, small_chemo, monkeypatch):
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        config = RecoveryConfig(tol_fixed_point=1e-4)
        original = avgrec.solver._sweep
        widths = []

        def failing_trial_1(*args):
            outcomes = original(*args)
            widths.append(len(outcomes))
            if len(widths) == 1:  # the first sweep: the base run, trials 0, 1 and 2
                outcomes[2] = ConvergenceError("made to fail")
            return outcomes

        with monkeypatch.context() as patch:
            patch.setattr(avgrec.solver, "_sweep", failing_trial_1)
            probe = contraction_probe(small_chemo, cond, M, config, trials=3, seed=4)
        assert widths[0] == 4
        assert probe.failures == ("trial 1: ConvergenceError: made to fail",)
        assert not probe.all_converged
        # The other rows are the recoveries from the seeded draws in order,
        # the base run's zero first.
        rng = np.random.default_rng(4)
        starts = [None] + [
            random_admissible_trajectory(grid_t, small_chemo, config.ball_L, rng) for _ in range(3)
        ]
        runs = [
            fixed_point_recover(small_chemo, cond, M, config, initial=start)
            for trial, start in enumerate(starts, start=-1)
            if trial != 1
        ]
        # The failed trial adds no limit, no initial state and no ratios.
        assert probe.per_run_ratios == tuple(tuple(rep.contraction_estimates) for *_, rep in runs)
        assert probe.contraction_ratios == sum(probe.per_run_ratios, ())
        pairs = [(a, b) for i, a in enumerate(runs) for b in runs[i + 1 :]]
        assert probe.limit_spread == max(
            weighted_distance(a[1].states, b[1].states, small_chemo, grid_t) for a, b in pairs
        )
        assert probe.initial_state_spread == max(
            float(np.linalg.norm(a[0] - b[0])) for a, b in pairs
        )

    def test_failed_base_run_raises(self, small_chemo, monkeypatch):
        # The trials are swept beside the base run; its failure is raised,
        # with the report of the sweeps it completed.
        import avgrec.solver

        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        original = avgrec.solver._sweep
        calls = []

        def failing_base(*args):
            outcomes = original(*args)
            calls.append(len(outcomes))
            if len(calls) == 2:
                outcomes[0] = SingularOperatorError("made to fail", 0.0)
            return outcomes

        monkeypatch.setattr(avgrec.solver, "_sweep", failing_base)
        with pytest.raises(SingularOperatorError, match="made to fail") as failed:
            contraction_probe(small_chemo, cond, M, trials=2, seed=0)
        assert calls[0] == 3
        assert failed.value.report.iterates == 1


def as_written(mapping):
    """A report mapping as ``report.json`` holds it: a tuple field becomes
    an array."""
    return json.loads(json.dumps(mapping))


class TestReportMappings:
    """Each report's mapping, key by key, with None for a value not computed."""

    @pytest.fixture
    def cond(self):
        return AveragingCondition.from_preset(TimeGrid(T=0.5, K=16), Variant.TIME_AVERAGE, "constant")

    def test_converged_recovery(self, small_chemo, cond):
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        _, _, rep = fixed_point_recover(small_chemo, cond, M)
        assert isinstance(rep.residual, float)
        assert rep.to_dict() == {
            "iterates": rep.iterates,
            "distances": rep.distances,
            "contraction_estimates": rep.contraction_estimates,
            "residual": rep.residual,
            "sigma_min_history": rep.sigma_min_history,
            "converged": True,
            "ball_exits": 0,
        }

    def test_partial_report_of_a_failed_recovery(self, small_chemo, cond):
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        with pytest.raises(ConvergenceError) as err:
            fixed_point_recover(small_chemo, cond, M, RecoveryConfig(max_iters=2))
        rep = err.value.report
        assert rep.to_dict() == {
            "iterates": 2,
            "distances": rep.distances,
            "contraction_estimates": [rep.distances[1] / rep.distances[0]],
            "residual": None,
            "sigma_min_history": rep.sigma_min_history,
            "converged": False,
            "ball_exits": 0,
        }

    def test_scan_with_a_row_of_one_sweep(self, small_chemo, cond, tmp_path):
        from avgrec.artifacts import emit_scan_csv

        direction = np.cos(np.pi * small_chemo.base.grid.nodes)
        result = smallness_scan(small_chemo, cond, direction, [0.0, 0.01])
        zero, small = result.rows
        assert (zero.iterations, zero.contraction) == (1, None)
        assert as_written(result.to_dict()) == {
            "rows": [
                {"amplitude": 0.0, "converged": True, "iterations": 1, "contraction": None, "note": ""},
                {
                    "amplitude": 0.01,
                    "converged": True,
                    "iterations": small.iterations,
                    "contraction": small.contraction,
                    "note": "",
                },
            ],
            "m0_lower_bound": 0.01,
        }
        emit_scan_csv(result, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_text().splitlines()[1] == "0,1,1,nan"

    def test_probe(self, small_chemo, cond):
        M = 1e-2 * np.cos(np.pi * small_chemo.base.grid.nodes)
        probe = contraction_probe(
            small_chemo, cond, M, RecoveryConfig(tol_fixed_point=1e-4), trials=1, seed=4
        )
        base, trial = probe.per_run_ratios
        assert as_written(probe.to_dict()) == {
            "all_converged": True,
            "limit_spread": probe.limit_spread,
            "initial_state_spread": probe.initial_state_spread,
            "contraction_ratios": [*base, *trial],
            "per_run_ratios": [list(base), list(trial)],
            "failures": [],
        }
