import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from avgrec.averaging import (
    AveragingCondition,
    Variant,
    check_resolvent,
    data_shift,
    duhamel_sums,
    node_weights,
    observe,
    resolvent_matrix,
    weight_samples,
)
from avgrec.errors import ConfigurationError, SingularOperatorError
from avgrec.evolution import TimeGrid, evolution_series
from avgrec.solver import Trajectory
from avgrec.spatial import BoundaryKind, assemble_laplacian, band_stack, build_grid

from oracles import (
    DensePath,
    PhiOperator,
    apply_psi,
    assemble_phi,
    banded_path,
    dense_generator,
    dense_step_factors,
    evolution_stepper,
    initial_state_map,
    invertibility_report,
    phi_lipschitz_probe,
    series_table,
    spectral_phi_oracle,
)

RNG = np.random.default_rng(23)


def constant_path(a, grid_t, rho=0.5):
    return banded_path(grid_t, np.repeat(np.asarray(a, float)[None], grid_t.K + 1, 0), rho)


def identity_table(n, grid_t):
    """Propagator of A = 0: U(t_i, t_j) = I."""
    return evolution_stepper(constant_path(np.zeros((n, n)), grid_t))


def drifting_path(grid_t, rng):
    """Nonconstant, non-commuting 6 x 6 generator path."""
    base = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
    drift = 0.3 * rng.standard_normal((6, 6))
    mats = np.stack([base + np.sin(3.0 * t) * drift for t in grid_t.nodes])
    return DensePath(grid=grid_t, matrices=mats, holder_rho=0.5)


class TestAveragingCondition:
    def test_trapezoid_weights_sum_to_horizon(self):
        for K in (1, 2, 7, 64):
            grid_t = TimeGrid(T=2.5, K=K)
            assert grid_t.trapezoid_weights.sum() == pytest.approx(2.5, rel=1e-14)

    def test_time_average_needs_nonzero_initial_weight(self):
        grid_t = TimeGrid(T=1.0, K=8)
        with pytest.raises(ConfigurationError):
            AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "ramp")

    def test_ramp_admitted_for_initial_plus_average(self):
        grid_t = TimeGrid(T=1.0, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.INITIAL_PLUS_AVERAGE, "ramp")
        assert cond.weight[0] == 0.0

    @pytest.mark.parametrize("variant", list(Variant))
    def test_quad_weights_are_the_trapezoid_rule(self, variant):
        # The condition's weighted average is the composite trapezoid rule
        # of the grid: h/2 at both ends, h inside.  The node weights add the
        # initial state's 1 at node 0, or are the terminal difference's two.
        grid_t = TimeGrid(T=0.7, K=9)
        cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.5)
        stack = RNG.standard_normal((10, 3))
        samples = cond.weight[:, None] * stack
        h = grid_t.h
        average = h * (0.5 * samples[0] + samples[1:-1].sum(axis=0) + 0.5 * samples[-1])
        gamma = grid_t.trapezoid_weights * cond.weight
        expected = {
            Variant.TIME_AVERAGE: average,
            Variant.INITIAL_PLUS_AVERAGE: stack[0] + average,
            Variant.TERMINAL_DIFFERENCE: stack[0] - 0.5 * stack[-1],
        }[variant]
        if variant is Variant.INITIAL_PLUS_AVERAGE:
            gamma[0] += 1.0
        elif variant is Variant.TERMINAL_DIFFERENCE:
            gamma = np.zeros(10)
            gamma[[0, 9]] = 1.0, -0.5
        assert np.array_equal(node_weights(cond), gamma)
        np.testing.assert_allclose(observe(cond, stack), expected, rtol=1e-14, atol=1e-15)
        assert np.array_equal(grid_t.trapezoid_weights[[0, 5, 9]], [0.5 * h, h, 0.5 * h])

    def test_terminal_difference_reads_two_nodes(self):
        # A zero weight leaves its node unread: a non-finite interior block
        # does not reach the terminal difference, nor, with w0 = 0, node K.
        grid_t = TimeGrid(T=0.7, K=9)
        stack = RNG.standard_normal((10, 3))
        stack[1:-1] = np.nan
        for w0 in (0.5, 0.0):
            cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, w0=w0)
            assert np.array_equal(observe(cond, stack), stack[0] - w0 * stack[-1])
        stack[-1] = np.inf
        assert np.array_equal(observe(cond, stack), stack[0])

    @pytest.mark.parametrize("K, shapes", [(64, [(65, 16, 16), (65, 16)]), (256, [(257, 33, 33)])])
    def test_observed_nodes_are_a_slice(self, K, shapes):
        # Evenly spaced nonzero nodes are a basic slice, so observe reads a
        # view: every node of an average, nodes 0 and K of a terminal
        # difference.  Its sum is the one over the nonzero nodes taken by
        # fancy indexing, byte for byte, on all three variants.
        grid_t = TimeGrid(T=0.7, K=K)
        for variant in Variant:
            cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.5)
            nodes, weights = cond.observed
            gamma = node_weights(cond)
            nonzero = np.flatnonzero(gamma)
            assert isinstance(nodes, slice) and np.array_equal(np.arange(K + 1)[nodes], nonzero)
            assert np.array_equal(weights, gamma[nonzero])
            for shape in shapes:
                stack = RNG.standard_normal(shape)
                expected = np.einsum("j,j...->...", gamma[nonzero], stack[nonzero])
                assert observe(cond, stack).tobytes() == expected.tobytes()
            if variant is Variant.TERMINAL_DIFFERENCE:
                assert nodes == slice(0, K + 1, K)

    def test_quad_weights_not_settable(self):
        # The outer quadrature is derived from the grid, never passed in.
        grid_t = TimeGrid(T=1.0, K=4)
        with pytest.raises(TypeError):
            AveragingCondition(
                grid=grid_t, variant=Variant.TIME_AVERAGE, weight=np.ones(5), quad_weights=np.ones(5)
            )
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE)
        with pytest.raises(AttributeError):
            cond.quad_weights = np.ones(5)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            weight_samples(TimeGrid(T=1.0, K=4), "sawtooth")


class TestAssemblePhi:
    def test_zero_generator_constant_weight(self):
        grid_t = TimeGrid(T=0.75, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        phi = assemble_phi(identity_table(5, grid_t), cond)
        np.testing.assert_allclose(phi.matrix, 0.75 * np.eye(5), rtol=1e-13)
        assert phi.sigma_min == pytest.approx(0.75, rel=1e-12)

    def test_constant_laplacian_eigen_oracle(self):
        # Unit-spacing Neumann grid keeps every mode resolved by the time
        # quadrature; eigenvalues of Phi then match the antiderivative
        # formula (e^{T lambda} - 1)/lambda mode by mode.
        base = assemble_laplacian(build_grid(8, 8.0, BoundaryKind.NEUMANN))
        grid_t = TimeGrid(T=1.0, K=256)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        # the series column carries the exact semigroup values on a constant
        # path, so only the time quadrature contributes to the error
        table = evolution_series(constant_path(band_stack(*base.bands), grid_t))
        phi = assemble_phi(table, cond)
        eigs = np.sort(np.linalg.eigvalsh(0.5 * (phi.matrix + phi.matrix.T)))
        lam = np.sort(base.eigenvalues)
        oracle = np.where(np.abs(lam) < 1e-12, 1.0, np.expm1(lam) / np.where(np.abs(lam) < 1e-12, 1.0, lam))
        np.testing.assert_allclose(eigs, oracle, rtol=1e-4)

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("n", [8, 32])
    def test_positive_definite_for_dissipative_generator(self, bc, n):
        base = assemble_laplacian(build_grid(n, 1.0, bc))
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        table = evolution_stepper(constant_path(band_stack(*base.bands), grid_t))
        phi = assemble_phi(table, cond)
        sym = 0.5 * (phi.matrix + phi.matrix.T)
        assert np.abs(phi.matrix - phi.matrix.T).max() <= 1e-10 * np.abs(phi.matrix).max()
        assert np.linalg.eigvalsh(sym).min() > 0

    def test_reproducible_from_table(self, series_family):
        entry = series_family[32]
        grid_t = entry["path"].grid
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "exp_decay")
        phi = assemble_phi(entry["stepper"], cond)
        direct = sum(
            qw * w * entry["stepper"].op(j, 0)
            for j, (qw, w) in enumerate(zip(cond.grid.trapezoid_weights, cond.weight))
        )
        assert np.abs(phi.matrix - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_quadrature_second_order_with_smooth_weight(self):
        # Constant self-adjoint generator, exponentially decaying weight:
        # per-mode oracle int_0^T e^{-t} e^{lambda t} dt = (e^{(lambda-1)T} - 1)/(lambda - 1).
        base = assemble_laplacian(build_grid(8, 8.0, BoundaryKind.NEUMANN))
        lam = np.sort(base.eigenvalues)
        oracle = (np.exp(lam - 1.0) - 1.0) / (lam - 1.0)
        errors = []
        for K in (64, 128, 256):
            grid_t = TimeGrid(T=1.0, K=K)
            cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "exp_decay")
            table = evolution_series(constant_path(band_stack(*base.bands), grid_t))
            eigs = np.sort(np.linalg.eigvalsh(0.5 * (assemble_phi(table, cond).matrix
                                                     + assemble_phi(table, cond).matrix.T)))
            errors.append(np.max(np.abs(eigs - oracle) / oracle))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_terminal_difference_rejected(self):
        grid_t = TimeGrid(T=1.0, K=4)
        cond = AveragingCondition.from_preset(grid_t, Variant.TERMINAL_DIFFERENCE, "constant")
        with pytest.raises(ValueError):
            assemble_phi(identity_table(3, grid_t), cond)

    @given(c=st.floats(-50.0, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_weight(self, c):
        grid_t = TimeGrid(T=1.0, K=8)
        table = identity_table(3, grid_t)
        weight = np.linspace(1.0, 2.0, 9)
        base_cond = AveragingCondition(grid=grid_t, variant=Variant.INITIAL_PLUS_AVERAGE, weight=weight)
        scaled = AveragingCondition(
            grid=grid_t, variant=Variant.INITIAL_PLUS_AVERAGE, weight=c * weight
        )
        got = assemble_phi(table, scaled).matrix
        expected = c * assemble_phi(table, base_cond).matrix
        np.testing.assert_allclose(got, expected, atol=1e-13 * max(abs(c), 1.0))


def phi_tilde(table, cond):
    """Terminal-weighted operator w0 U(T,0) + sum_j qw_j w(t_j) U(t_j, 0)."""
    return assemble_phi(table, cond).matrix + cond.w0 * table.column[-1]


class TestAssemblePhiTilde:
    def test_zero_terminal_weight_reduces_to_phi(self, series_family):
        entry = series_family[32]
        cond = AveragingCondition.from_preset(
            entry["path"].grid, Variant.TIME_AVERAGE, "constant", w0=0.0
        )
        tilde = phi_tilde(entry["stepper"], cond)
        plain = assemble_phi(entry["stepper"], cond)
        np.testing.assert_array_equal(tilde, plain.matrix)

    def test_pure_terminal_term(self):
        grid_t = TimeGrid(T=1.0, K=8)
        cond = AveragingCondition(
            grid=grid_t, variant=Variant.INITIAL_PLUS_AVERAGE, weight=np.zeros(9), w0=1.0
        )
        tilde = phi_tilde(identity_table(4, grid_t), cond)
        np.testing.assert_allclose(tilde, np.eye(4), atol=1e-14)

    def test_constant_weight_plus_terminal(self):
        grid_t = TimeGrid(T=0.5, K=8)
        cond = AveragingCondition.from_preset(
            grid_t, Variant.TIME_AVERAGE, "constant", w0=2.0
        )
        tilde = phi_tilde(identity_table(4, grid_t), cond)
        np.testing.assert_allclose(tilde, 2.5 * np.eye(4), rtol=1e-13)


class TestApplyPsi:
    def test_zero_forcing_exact_zero(self, series_family):
        entry = series_family[32]
        grid_t = entry["path"].grid
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        traj = Trajectory(grid_t, np.zeros((grid_t.K + 1, 16)))
        assert np.array_equal(apply_psi(traj, entry["stepper"], cond), np.zeros(16))

    def test_iterated_integral_closed_form(self):
        # U = I, w = 1, g = c: Psi g = int_0^T int_0^t c ds dt = c T^2 / 2,
        # and both trapezoid rules are exact for this integrand.
        grid_t = TimeGrid(T=2.0, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        c = np.array([1.0, -0.5, 2.0])
        traj = Trajectory(grid=grid_t, states=np.tile(c, (33, 1)))
        got = apply_psi(traj, identity_table(3, grid_t), cond)
        np.testing.assert_allclose(got, 2.0 * c, rtol=1e-6)

    def test_point_mass_at_origin_vanishes_under_refinement(self):
        values = []
        for K in (8, 16, 32):
            grid_t = TimeGrid(T=1.0, K=K)
            cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
            states = np.zeros((K + 1, 2))
            states[0] = 1.0
            traj = Trajectory(grid=grid_t, states=states)
            values.append(np.linalg.norm(apply_psi(traj, identity_table(2, grid_t), cond)))
        assert values[0] > values[1] > values[2]
        assert values[-1] <= 2.0 / 32

    def test_grid_mismatch_rejected(self, series_family):
        entry = series_family[32]
        other = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(entry["path"].grid, Variant.TIME_AVERAGE, "constant")
        with pytest.raises(ValueError):
            apply_psi(Trajectory(other, np.zeros((other.K + 1, 16))), entry["stepper"], cond)


def test_check_resolvent_tests_each_row_of_a_stack_against_its_floor():
    # Rows above, below and exactly at the floor, 1e-10 times the spectral
    # norm: a resolvent at the floor is singular.
    grid_t = TimeGrid(T=0.5, K=8)
    cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE)
    singular_values = np.array([[1.0, 0.5, 0.1], [2.0, 1.0, 1e-12], [1.0, 0.5, 1e-10]])
    sigmas, errors = check_resolvent(cond, singular_values)
    assert sigmas.tolist() == [0.1, 1e-12, 1e-10]
    assert errors[0] is None
    assert all(isinstance(error, SingularOperatorError) for error in errors[1:])
    assert [str(error) for error in errors[1:]] == [
        "time_average resolvent is numerically singular (sigma_min=1.000e-12 <= floor=2.000e-10)",
        "time_average resolvent is numerically singular (sigma_min=1.000e-10 <= floor=1.000e-10)",
    ]
    assert [error.sigma_min for error in errors[1:]] == [1e-12, 1e-10]


class TestInitialStateMap:
    def _table(self, n=8, K=48, T=0.5, coefficient=0.8):
        base = assemble_laplacian(build_grid(n, 1.0, BoundaryKind.NEUMANN))
        grid_t = TimeGrid(T=T, K=K)
        lap = band_stack(*base.bands)
        return grid_t, evolution_stepper(constant_path(coefficient * lap, grid_t))

    def test_forward_then_invert_round_trip(self):
        grid_t, table = self._table()
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        x0 = RNG.standard_normal(8)
        M = assemble_phi(table, cond).matrix @ x0
        zero_f = Trajectory(grid_t, np.zeros((grid_t.K + 1, 8)))
        got = initial_state_map(cond, table, M, zero_f)
        assert np.linalg.norm(got - x0) <= 1e-8 * np.linalg.norm(x0)

    def test_terminal_difference_degenerate(self):
        grid_t, table = self._table()
        cond = AveragingCondition.from_preset(
            grid_t, Variant.TERMINAL_DIFFERENCE, "constant", w0=0.0
        )
        M = RNG.standard_normal(8)
        got = initial_state_map(cond, table, M, Trajectory(grid_t, np.zeros((grid_t.K + 1, 8))))
        np.testing.assert_array_equal(got, M)

    def test_initial_plus_average_scalar_resolvent(self):
        grid_t = TimeGrid(T=0.5, K=16)
        cond = AveragingCondition.from_preset(grid_t, Variant.INITIAL_PLUS_AVERAGE, "constant")
        M = np.array([2.0, -1.0, 0.5])
        got = initial_state_map(cond, identity_table(3, grid_t), M, Trajectory(grid_t, np.zeros((grid_t.K + 1, 3))))
        np.testing.assert_allclose(got, M / 1.5, rtol=1e-12)

    def test_singular_resolvent_diagnosed(self):
        # A full cosine cycle integrates the Neumann constant mode to zero,
        # so the averaging operator annihilates it.
        base = assemble_laplacian(build_grid(6, 1.0, BoundaryKind.NEUMANN))
        grid_t = TimeGrid(T=1.0, K=64)
        table = evolution_stepper(constant_path(band_stack(*base.bands), grid_t))
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "cosine_cycle")
        with pytest.raises(SingularOperatorError) as err:
            initial_state_map(cond, table, np.ones(6), Trajectory(grid_t, np.zeros((grid_t.K + 1, 6))))
        assert err.value.sigma_min < 1e-10

    @pytest.mark.parametrize("variant", list(Variant))
    def test_consistency_with_discretized_condition(self, variant, chemo16):
        # Substituting Xi back through the shared Duhamel reconstruction
        # satisfies the discretized condition to solver roundoff; this is
        # what pins the sign conventions of each variant resolvent.
        grid_t = TimeGrid(T=0.5, K=32)
        x = chemo16.base.grid.nodes
        mats = []
        for t in grid_t.nodes:
            u = 0.15 * np.cos(np.pi * x) * (1.0 + 0.5 * np.sin(3 * t))
            mats.append(dense_generator(chemo16, u))
        table = evolution_stepper(DensePath(grid=grid_t, matrices=np.stack(mats), holder_rho=0.9))
        cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.7)
        rng = np.random.default_rng(31)
        f_states = 0.3 * rng.standard_normal((33, 16))
        M = rng.standard_normal(16)
        f_traj = Trajectory(grid=grid_t, states=f_states)
        xi = initial_state_map(cond, table, M, f_traj)
        states = table.column @ xi + table.duhamel(f_states)
        average = np.einsum("j,ja->a", cond.grid.trapezoid_weights * cond.weight, states)
        if variant is Variant.TIME_AVERAGE:
            defect = average - M
        elif variant is Variant.INITIAL_PLUS_AVERAGE:
            defect = states[0] + average - M
        else:
            defect = states[0] - cond.w0 * states[-1] - M
        bound = 1e-8 * (np.linalg.norm(M) + np.linalg.norm(f_states))
        assert np.linalg.norm(defect) <= bound

    @pytest.mark.parametrize("variant", list(Variant))
    def test_precomputed_sums_reused(self, variant):
        # The values of one sweep (the condition on the column and on the
        # Duhamel sums) serve the resolvent and the data shift as they are,
        # as in the solver: no recursion runs again.
        grid_t = TimeGrid(T=0.5, K=12)
        table = evolution_stepper(constant_path(-np.diag([1.0, 2.0, 3.0]), grid_t))
        cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.7)
        rng = np.random.default_rng(2)
        f_states = rng.standard_normal((13, 3))
        M = rng.standard_normal(3)
        expected = initial_state_map(cond, table, M, f_states)
        values = table.sweep(cond, f_states[None])
        got = np.linalg.solve(resolvent_matrix(values)[0], data_shift(values, M[None])[0])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("method", ["stepper", "series"])
    def test_one_recursion_per_call(self, method, variant, monkeypatch):
        # The resolvent and the data shift are read off one sweep: one
        # left-sum recursion per call, on the chain of a stepper's steps or
        # a kernel series.
        import avgrec.evolution

        grid_t = TimeGrid(T=0.5, K=24)
        rng = np.random.default_rng(4)
        path = drifting_path(grid_t, rng)
        module, name = (
            (oracles, "affine_chain") if method == "stepper" else (avgrec.evolution, "_series_left_sums")
        )
        recursion = getattr(module, name)
        calls = []

        def counted(*args):
            calls.append(1)
            return recursion(*args)

        prop = dense_step_factors(path) if method == "stepper" else evolution_series(path)
        monkeypatch.setattr(module, name, counted)
        cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.7)
        f_states = 0.1 * rng.standard_normal((25, 6))
        xi = initial_state_map(cond, prop, rng.standard_normal(6), f_states)
        assert xi.shape == (6,)
        assert len(calls) == 1

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("method", ["stepper", "series"])
    def test_data_shift_matches_table_oracle(self, method, variant):
        # M - Psi f and M + w0 N(T) f from one sweep equal the trapezoid sums
        # formed from the oracle table: Psi f from its Duhamel sums, N(T) f
        # from its final row U(T, t_j).  The resolvents Phi, I + Phi and
        # I - w0 U(T, 0) equal those formed from the table's column.
        grid_t = TimeGrid(T=0.5, K=16)
        rng = np.random.default_rng(6)
        path = drifting_path(grid_t, rng)
        if method == "stepper":
            prop, table = dense_step_factors(path), evolution_stepper(path)
        else:
            prop, table = evolution_series(path), series_table(path)
        cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.7)
        f_states = rng.standard_normal((17, 6))
        M = rng.standard_normal(6)
        qw = grid_t.trapezoid_weights
        if variant is Variant.TERMINAL_DIFFERENCE:
            shift = cond.w0 * np.einsum("j,jab,jb->a", qw, table.rows[-1], f_states)
        else:
            shift = -np.einsum("i,ia->a", qw * cond.weight, table.duhamel(f_states))
        values = prop.sweep(cond, f_states[None])
        (got,) = data_shift(values, M[None])
        scale = np.linalg.norm(M) + np.linalg.norm(shift)
        assert np.linalg.norm(got - (M + shift)) <= 1e-13 * scale
        # The condition reads the I of a resolvent off the column's first
        # entry and drops the first Duhamel sum: node 0 of the rebuilt
        # states is Xi, and of the Duhamel sums zero, both exactly.
        assert np.array_equal(values.rebuild(M[None])[0, 0], M)
        assert np.array_equal(duhamel_sums(values)[0, 0], np.zeros(6))
        phi = np.einsum("j,jab->ab", qw * cond.weight, table.column)
        expected = {
            Variant.TIME_AVERAGE: phi,
            Variant.INITIAL_PLUS_AVERAGE: np.eye(6) + phi,
            Variant.TERMINAL_DIFFERENCE: np.eye(6) - cond.w0 * table.column[-1],
        }[variant]
        (resolvent,) = resolvent_matrix(values)
        assert np.linalg.norm(resolvent - expected) <= 1e-13 * np.linalg.norm(expected)


class TestInvertibilityReport:
    def test_scaled_identity(self):
        grid_t = TimeGrid(T=0.75, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        phi = assemble_phi(identity_table(4, grid_t), cond)
        report = invertibility_report(phi)
        assert report.sigma_min == pytest.approx(0.75, rel=1e-12)
        assert report.symmetry_defect <= 1e-14
        assert report.positive_definite is True

    def test_laplacian_phi_eigen_lower_bound(self):
        base = assemble_laplacian(build_grid(8, 8.0, BoundaryKind.NEUMANN))
        grid_t = TimeGrid(T=1.0, K=128)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        table = evolution_stepper(constant_path(band_stack(*base.bands), grid_t))
        phi = assemble_phi(table, cond)
        report = invertibility_report(phi)
        lam_min = base.eigenvalues.min()
        assert report.positive_definite is True
        assert report.sigma_min >= 0.5 * np.expm1(lam_min) / lam_min

    def test_constructed_singular_case_flagged(self):
        matrix = np.diag([1.0, 0.5, 0.0])
        grid_t = TimeGrid(T=1.0, K=4)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        phi = PhiOperator(matrix=matrix, condition=cond, sigma_min=0.0)
        report = invertibility_report(phi)
        assert report.sigma_min == 0.0
        assert report.positive_definite is False

    def test_refinement_trend_recorded(self):
        grid_t = TimeGrid(T=1.0, K=4)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        family = [
            PhiOperator(np.eye(2), cond, sigma_min=s) for s in (0.9, 0.95, 0.975)
        ]
        report = invertibility_report(family[-1], refinement_family=family)
        assert report.sigma_trend == (0.9, 0.95, 0.975)


class TestSpectralPhiOracle:
    def _cond(self, K=512, T=1.0):
        grid_t = TimeGrid(T=T, K=K)
        return AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")

    def test_zero_eigenvalue(self):
        assert spectral_phi_oracle([0.0], self._cond(T=0.75))[0] == pytest.approx(
            0.75, rel=1e-13
        )

    def test_unit_decay_closed_form(self):
        got = spectral_phi_oracle([-1.0], self._cond())[0]
        assert got == pytest.approx(1.0 - np.exp(-1.0), abs=1e-6)

    def test_positive_for_dissipative_spectrum(self):
        eigs = -np.linspace(0.0, 40.0, 17)
        assert np.all(spectral_phi_oracle(eigs, self._cond()) > 0)

    def test_variant_restriction(self):
        grid_t = TimeGrid(T=1.0, K=8)
        cond = AveragingCondition.from_preset(grid_t, Variant.INITIAL_PLUS_AVERAGE, "constant")
        with pytest.raises(ValueError):
            spectral_phi_oracle([0.0], cond)


class TestPhiLipschitzProbe:
    def _paths(self, eps):
        base = assemble_laplacian(build_grid(8, 1.0, BoundaryKind.NEUMANN))
        grid_t = TimeGrid(T=0.5, K=32)
        a = constant_path(0.5 * band_stack(*base.bands), grid_t)
        b = banded_path(grid_t, a.generators() + eps * np.eye(8), 0.5)
        return a, b

    def test_identical_paths_rejected(self):
        a, _ = self._paths(1e-3)
        grid_t = a.grid
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        with pytest.raises(ValueError):
            phi_lipschitz_probe(a, a, cond)

    def test_neighborhood_bound_enforced(self):
        a, b = self._paths(1e-3)
        cond = AveragingCondition.from_preset(a.grid, Variant.TIME_AVERAGE, "constant")
        with pytest.raises(ValueError, match="neighborhood"):
            phi_lipschitz_probe(a, b, cond, eta=1e-6)

    def test_ratio_stable_across_perturbation_sizes(self):
        ratios = []
        for eps in (1e-3, 1e-4, 1e-5):
            a, b = self._paths(eps)
            cond = AveragingCondition.from_preset(a.grid, Variant.TIME_AVERAGE, "constant")
            ratios.append(phi_lipschitz_probe(a, b, cond))
        assert max(ratios) <= 2.0 * min(ratios)

    def test_commuting_pair_matches_scalar_oracle(self):
        # Constant commuting pair: the Phi difference diagonalizes, so the
        # probe ratio has a closed per-mode form through the scalar quadrature.
        base = assemble_laplacian(build_grid(8, 1.0, BoundaryKind.NEUMANN))
        lam = base.eigenvalues
        eps = 1e-4
        grid_t = TimeGrid(T=0.5, K=64)
        a = constant_path(0.5 * band_stack(*base.bands), grid_t)
        b = constant_path((0.5 + eps) * band_stack(*base.bands), grid_t)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        got = phi_lipschitz_probe(a, b, cond)
        diff_modes = np.abs(
            spectral_phi_oracle(0.5 * lam, cond) - spectral_phi_oracle((0.5 + eps) * lam, cond)
        )
        oracle = diff_modes.max() / (eps * np.abs(lam).max())
        assert got == pytest.approx(oracle, rel=0.2)
