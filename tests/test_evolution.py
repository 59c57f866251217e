import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.linalg.lapack import dgtsv

import avgrec.evolution
from avgrec.averaging import AveragingCondition, Variant, duhamel_sums, observe, terminal_forcing
from avgrec.errors import NumericalError
from avgrec.evolution import (
    OperatorPath,
    PropagatorMethod,
    SeriesSweep,
    StepFactors,
    TimeGrid,
    _dgtsv,
    _eliminated_steps,
    evolution_series,
    series_peak_bytes,
    solve_tridiagonal,
    stepper_peak_bytes,
)
from avgrec.models import ChemotaxisModel, LinearTestModel, NonlocalRDModel
from avgrec.solver import RecoveryConfig, Trajectory, fixed_point_recover, forward_solve
from avgrec.spatial import (
    BoundaryKind,
    assemble_laplacian,
    band_stack,
    build_grid,
    laplacian_stencil,
    matrix_exponential,
)

from conftest import (
    assert_sweep_matches_table,
    chemotaxis_reference_path,
    counted_port,
    rel_err,
    sqrt_holder_path,
)
from oracles import (
    DensePath,
    StepChain,
    affine_chain,
    banded_path,
    commutator_kernel,
    dense_factors,
    dense_generator,
    dense_step_factors,
    eliminated_factors,
    evolution_stepper,
    rebuilt_column,
    stacked,
    stepper_column,
    frozen_semigroup,
    holder_seminorm,
    semigroup_perturbation_check,
    series_table,
    volterra_resolvent,
    weighted_kernel_max,
)

RNG = np.random.default_rng(11)


def stable_symmetric(n, rng=RNG, shift=1.0):
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    return a - (np.linalg.eigvalsh(a).max() + shift) * np.eye(n)


def constant_path(a, K=16, T=1.0, rho=0.5):
    grid = TimeGrid(T=T, K=K)
    return DensePath(grid=grid, matrices=np.repeat(a[None], K + 1, axis=0), holder_rho=rho)


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(T=2.0, K=4)
        np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.h == 0.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TimeGrid(T=-1.0, K=4)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, K=0)

    @pytest.mark.parametrize(
        "T, K", [(0.5, 2.5), (0.5, 4.0), (0.5, np.float64(4.0)), (math.nan, 4), (math.inf, 4)]
    )
    def test_rejects_a_fractional_step_count_or_an_unbounded_horizon(self, T, K):
        # Each used to construct, then fail in nodes with a TypeError or
        # give NaN nodes.
        message = r"^(horizon must be positive and finite|the number of steps must be an integer)"
        with pytest.raises(ValueError, match=message):
            TimeGrid(T=T, K=K)

    def test_constants_are_computed_once_and_read_only(self):
        grid = TimeGrid(T=0.5, K=np.int64(8))
        assert type(grid.K) is int and grid.K == 8
        stencil = laplacian_stencil(build_grid(8, 1.0, BoundaryKind.NEUMANN))
        assert laplacian_stencil(build_grid(8, 1.0, BoundaryKind.NEUMANN)) is stencil
        for constant in (grid.nodes, grid.trapezoid_weights, *stencil):
            with pytest.raises(ValueError, match="read-only"):
                constant[0] = 1.0
        assert grid.nodes is grid.nodes and grid.trapezoid_weights is grid.trapezoid_weights
        assert grid.nodes[0] == 0.0 and grid.trapezoid_weights[0] == 0.5 * grid.h
        assert stencil[1].tolist() == [-1.0] + [-2.0] * 6 + [-1.0]


class TestFrozenSemigroup:
    def test_identity_at_equal_indices(self):
        path = constant_path(stable_symmetric(4))
        assert np.array_equal(frozen_semigroup(path, 3, 3), np.eye(4))

    def test_constant_path_matches_exponential(self):
        a = stable_symmetric(5)
        path = constant_path(a, K=8, T=2.0)
        got = frozen_semigroup(path, 6, 2)
        np.testing.assert_allclose(got, expm(a), rtol=1e-12, atol=1e-14)

    def test_frozen_at_earlier_node_not_averaged(self):
        # A(t) = alpha(t) D freezes alpha at t_j, deliberately unlike the
        # true propagator which integrates alpha.
        d = np.diag([-1.0, -2.0])
        grid = TimeGrid(T=1.0, K=4)
        alphas = 1.0 + grid.nodes
        path = DensePath(
            grid=grid, matrices=np.stack([al * d for al in alphas]), holder_rho=0.5
        )
        got = frozen_semigroup(path, 3, 1)
        expected = expm(0.5 * alphas[1] * d)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        averaged = expm(0.5 * (0.5 * (alphas[1] + alphas[2]) * d))
        assert np.linalg.norm(got - averaged) > 1e-3

    def test_index_order_enforced(self):
        path = constant_path(stable_symmetric(3))
        with pytest.raises(ValueError):
            frozen_semigroup(path, 2, 5)


class TestCommutatorKernel:
    def test_constant_path_vanishes(self):
        path = constant_path(stable_symmetric(4))
        assert np.array_equal(commutator_kernel(path, 5, 2), np.zeros((4, 4)))

    def test_linear_path_direct_formula(self):
        # A(t) = A0 + t B gives k(t_i, t_j) = (t_i - t_j) B exp((t_i-t_j)(A0 + t_j B)).
        rng = np.random.default_rng(5)
        a0 = stable_symmetric(4, rng)
        b = 0.3 * rng.standard_normal((4, 4))
        grid = TimeGrid(T=1.0, K=8)
        path = DensePath(
            grid=grid, matrices=np.stack([a0 + t * b for t in grid.nodes]), holder_rho=0.9
        )
        i, j = 6, 2
        gap = grid.nodes[i] - grid.nodes[j]
        oracle = gap * b @ expm(gap * (a0 + grid.nodes[j] * b))
        np.testing.assert_allclose(commutator_kernel(path, i, j), oracle, rtol=1e-10, atol=1e-12)

    def test_near_diagonal_scaling_fits_holder_exponent(self):
        # On a 1/2-Hoelder path, log ||k(t_1, t_0)|| against log h has slope ~ 1/2.
        norms, steps = [], []
        for K in (16, 32, 64, 128):
            path = sqrt_holder_path(K)
            norms.append(max(np.linalg.norm(commutator_kernel(path, j + 1, j), 2)
                             for j in range(min(K, 8))))
            steps.append(path.grid.h)
        slope = np.polyfit(np.log(steps), np.log(norms), 1)[0]
        assert 0.35 <= slope <= 0.65

    def test_strict_order_enforced(self):
        path = constant_path(stable_symmetric(3))
        with pytest.raises(ValueError):
            commutator_kernel(path, 3, 3)


class TestVolterraResolvent:
    def test_constant_path_zero_table(self):
        path = constant_path(stable_symmetric(4))
        table = volterra_resolvent(path)
        assert np.abs(table.values).max() == 0.0

    def test_small_kernel_returns_kernel(self):
        # With k*k far below the kernel itself the resolvent equals the kernel.
        a0 = stable_symmetric(3)
        b = 1e-7 * np.eye(3)
        grid = TimeGrid(T=1.0, K=8)
        path = DensePath(
            grid=grid, matrices=np.stack([a0 + t * b for t in grid.nodes]), holder_rho=0.5
        )
        tol = 1e-9
        table = volterra_resolvent(path)
        for i in range(1, 9):
            for j in range(i):
                np.testing.assert_allclose(
                    table.values[i, j], commutator_kernel(path, i, j), atol=2 * tol
                )

    def test_residual_oracle(self):
        # Direct-loop evaluation of w - k - k*w, independent of the block
        # implementation inside the solver.  The forward substitution is
        # exact, so the residual sits at roundoff.
        path = sqrt_holder_path(24)
        table = volterra_resolvent(path)
        K = path.grid.K
        h = path.grid.h
        rho = path.holder_rho
        k = {
            (i, j): commutator_kernel(path, i, j) for i in range(K + 1) for j in range(i)
        }
        worst = 0.0
        for i in range(1, K + 1):
            for j in range(i):
                conv = np.zeros((4, 4))
                for m in range(j + 1, i):
                    conv += h * k[i, m] @ table.values[m, j]
                if i >= j + 2:
                    conv += (h / rho) * k[i, j + 1] @ table.values[j + 1, j]
                res = table.values[i, j] - k[i, j] - conv
                worst = max(worst, np.linalg.norm(res))
        scale = np.sqrt((table.values**2).sum(axis=(2, 3))).max()
        assert worst <= 1e-14 * scale

    def test_kernel_bound_stable_under_refinement(self):
        bounds = [volterra_resolvent(sqrt_holder_path(K)).weighted_bound for K in (32, 64, 128)]
        assert max(bounds) / min(bounds) < 2.0


class TestEvolutionSeries:
    def test_constant_path_exact(self, series_family):
        a = stable_symmetric(6)
        K = 16
        path = constant_path(a, K=K, T=1.0)
        table = series_table(path)
        for i, j in ((K, 0), (K, K // 2), (5, 1), (1, 0)):
            exact = expm(path.grid.h * (i - j) * a)
            err = np.linalg.norm(table.op(i, j) - exact) / np.linalg.norm(exact)
            assert err <= 1e-12

    def test_commuting_family_oracle(self):
        # A(t) = alpha(t) D commutes with itself; the propagator is the
        # exponential of the integrated coefficient.
        base = assemble_laplacian(build_grid(16, 1.0, BoundaryKind.NEUMANN))
        grid = TimeGrid(T=1.0, K=128)
        path = DensePath(
            grid=grid,
            matrices=np.stack([(1.0 + 0.5 * t) * band_stack(*base.bands) for t in grid.nodes]),
            holder_rho=0.9,
        )
        u_final = rebuilt_column(evolution_series(path), grid, 16)[128]
        exact = expm(1.25 * band_stack(*base.bands))  # int_0^1 (1 + t/2) dt = 5/4
        rel = np.linalg.norm(u_final - exact, 2) / np.linalg.norm(exact, 2)
        assert rel <= 0.02

    def test_cross_method_agreement(self, series_family):
        diffs = []
        for K in (32, 64, 128):
            entry = series_family[K]
            u_s = entry["series"].op(K, 0)
            u_c = entry["stepper"].op(K, 0)
            diffs.append(np.linalg.norm(u_s - u_c, 2) / np.linalg.norm(u_c, 2))
        assert diffs[-1] <= 0.02
        assert diffs[0] > diffs[1] > diffs[2]

    def test_diagonal_identity(self, series_family):
        table = series_family[32]["series"]
        for j in (0, 7, 32):
            assert np.array_equal(table.op(j, j), np.eye(16))


class TestEvolutionStepper:
    def test_zero_path_gives_identity(self):
        path = constant_path(np.zeros((3, 3)), K=8)
        table = evolution_stepper(path)
        for i in range(9):
            for j in range(i + 1):
                np.testing.assert_allclose(table.op(i, j), np.eye(3), atol=1e-14)

    def test_crank_nicolson_second_order(self):
        a = stable_symmetric(6, np.random.default_rng(9))
        exact = expm(a)
        errors = []
        for K in (16, 32, 64):
            table = evolution_stepper(constant_path(a, K=K))
            errors.append(np.linalg.norm(table.op(K, 0) - exact, 2))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_stepper_cocycle_exact(self):
        rng = np.random.default_rng(13)
        grid = TimeGrid(T=1.0, K=32)
        mats = np.stack([stable_symmetric(8, rng) * 0.3 for _ in grid.nodes])
        table = evolution_stepper(DensePath(grid=grid, matrices=mats, holder_rho=0.5))
        for (i, j, m) in ((32, 16, 0), (20, 10, 5), (7, 3, 1)):
            lhs = table.op(i, j) @ table.op(j, m)
            rhs = table.op(i, m)
            assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


def random_path(n=6, K=24, T=0.8, seed=17):
    """Nonconstant, non-commuting generator path."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(T=T, K=K)
    base = stable_symmetric(n, rng)
    drift = 0.5 * rng.standard_normal((n, n))
    mats = np.stack([base + np.sin(3.0 * t) * drift for t in grid.nodes])
    return DensePath(grid=grid, matrices=mats, holder_rho=0.5)


def assert_terminal_forcing_matches_final_row(sweep, table):
    """The trapezoid sum sum_j qw_j U(T, t_j) f(t_j), formed from the
    oracle's final row, is the last Duhamel sum of one sweep: the last node
    of the states of Xi = 0."""
    grid = table.grid
    f_states = np.random.default_rng(8).standard_normal((grid.K + 1, table.dim))
    qw = grid.trapezoid_weights
    expected = np.einsum("j,jab,jb->a", qw, table.rows[grid.K], f_states)
    cond = AveragingCondition.from_preset(grid, Variant.TERMINAL_DIFFERENCE, w0=0.5)
    values = sweep.sweep(cond, f_states[None])
    sums = duhamel_sums(values)
    assert np.array_equal(sums, values.rebuild(np.zeros((1, table.dim))))
    assert np.array_equal(sums[0, 0], np.zeros(table.dim))
    assert np.array_equal(terminal_forcing(values), sums[:, -1])
    assert rel_err(terminal_forcing(values)[0], expected) <= 1e-13


class TestStepFactorsAgainstTable:
    """The chain of the steps of dense factors reproduces the full-table
    oracle."""

    def test_column(self):
        path = random_path()
        f_states = np.zeros((path.grid.K + 1, path.dim))
        assert_sweep_matches_table(dense_step_factors(path), evolution_stepper(path), f_states, 1e-13)

    def test_duhamel(self):
        path = random_path()
        f_states = np.random.default_rng(5).standard_normal((path.grid.K + 1, path.dim))
        assert_sweep_matches_table(dense_step_factors(path), evolution_stepper(path), f_states, 1e-13)

    def test_terminal_forcing(self):
        path = random_path()
        assert_terminal_forcing_matches_final_row(
            dense_step_factors(path), evolution_stepper(path)
        )


def tridiagonal_path(n=8, K=12, T=0.8, seed=23):
    """Random nonconstant tridiagonal path.  On every other row the
    sub-diagonal of I - c A(t_j) outweighs the diagonal (|c a| >= 2
    against about 1), which forces row interchanges in a pivoted
    tridiagonal solve."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(T=T, K=K)
    idx = np.arange(n)
    mats = np.zeros((K + 1, n, n))
    mats[:, idx, idx] = -1.0 + 0.2 * rng.standard_normal((K + 1, n))
    mats[:, idx[:-1], idx[:-1] + 1] = rng.standard_normal((K + 1, n - 1))
    big = np.where(idx[1:] % 2 == 1, 4.0 / grid.h, 0.5)
    mats[:, idx[1:], idx[1:] - 1] = big * rng.uniform(1.0, 1.5, (K + 1, n - 1))
    return banded_path(grid, mats, 0.5)


class TestTridiagonalFactors:
    """The banded solve agrees with an explicit dense solve."""

    def test_matches_dense_solve(self):
        path = tridiagonal_path()
        n = path.dim
        c = 0.5 * path.grid.h
        lhs = np.eye(n) - c * path.generators()[1:]
        sub, diag = np.diagonal(lhs, -1, 1, 2), np.diagonal(lhs, 0, 1, 2)
        assert np.any(np.abs(sub) > np.abs(diag[:, :-1]))
        rhs = np.eye(n) + c * path.generators()[:-1]
        expected = np.stack([np.linalg.solve(a, b) for a, b in zip(lhs, rhs)])
        column = [np.eye(n)]
        for factor in expected:
            column.append(factor @ column[-1])
        assert rel_err(eliminated_factors(path), expected) <= 1e-13
        assert rel_err(stepper_column(path), np.stack(column)) <= 1e-13
        stepper = StepFactors(stacked(path))
        assert rel_err(rebuilt_column(stepper, path.grid, n), np.stack(column)) <= 1e-13

    def test_singular_node_named(self):
        # I - c A(t_5) = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: tridiagonal,
        # not diagonal, and singular in exact arithmetic.
        path = constant_path(-np.eye(3), K=8, T=1.0)
        c = 0.5 * path.grid.h
        target = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mats = path.generators().copy()
        mats[5] = (np.eye(3) - target) / c
        bad = banded_path(path.grid, mats, 0.5)
        with pytest.raises(NumericalError, match="node 5"):
            eliminated_factors(bad)
        with pytest.raises(NumericalError, match="node 5"):
            StepFactors(stacked(bad)).sweep(
                AveragingCondition.from_preset(bad.grid, Variant.TIME_AVERAGE),
                np.zeros((1, bad.grid.K + 1, bad.dim)),
            )
        with pytest.raises(NumericalError, match="node 5"):
            evolution_stepper(bad)


def gtsv_factors(path):
    """The one-step factors of a tridiagonal path by one LAPACK gtsv call
    per node, in node order: the reference for the batched elimination."""
    K, n = path.grid.K, path.dim
    c = 0.5 * path.grid.h
    sub, diag, sup = (band[1:] for band in path.bands)
    lower, main, upper = -c * sub, 1.0 - c * diag, -c * sup
    factors = band_stack(*(c * band[:-1] for band in path.bands))
    idx = np.arange(n)
    factors[:, idx, idx] += 1.0
    for j in range(K):
        *_, solution, info = dgtsv(lower[j], main[j], upper[j], factors[j])
        if info > 0:
            raise NumericalError(f"singular one-step matrix at node {j + 1}")
        factors[j] = solution
    return factors


MODELS = {
    "chemotaxis": lambda n: ChemotaxisModel.default(build_grid(n, 1.0, BoundaryKind.NEUMANN)),
    "rd_neumann": lambda n: NonlocalRDModel.default(build_grid(n, 1.0, BoundaryKind.NEUMANN)),
    "rd_dirichlet": lambda n: NonlocalRDModel.default(build_grid(n, 1.0, BoundaryKind.DIRICHLET)),
    "linear": lambda n: LinearTestModel.default(build_grid(n, 1.0, BoundaryKind.NEUMANN), 0.7),
}


def with_node(path, j, target, c):
    """``path`` with A(t_j) replaced so that I - c A(t_j) equals ``target``."""
    mats = path.generators().copy()
    mats[j] = (np.eye(path.dim) - target) / c
    return banded_path(path.grid, mats, path.holder_rho)


def scalar_path(grid, a):
    """The 1 x 1 path A(t_j) = a_j."""
    off = np.empty((grid.K + 1, 0))
    return OperatorPath(grid, (off, a[:, None], off), 0.5)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBatchedTridiagonalFactors:
    """One elimination over all nodes gives the factors of a per-node gtsv
    solve value for value, without forming the dense stack; nodes that gtsv
    pivots, and singular nodes, are solved again by the dgtsv port.  The
    row pass leaves out gtsv's fill term -DL(i) B(i+2), whose +0.0 factor on
    a row without interchange can turn a -0.0 entry into +0.0, so the bytes
    agree except on the sign of a zero."""

    @pytest.mark.parametrize("n", [2, 3, 16])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_model_paths_equal_gtsv(self, model, n, monkeypatch):
        path = chemotaxis_reference_path(MODELS[model](n), K=24)
        expected = gtsv_factors(path)
        calls = counted_port(monkeypatch)
        factors = eliminated_factors(path)
        assert factors.shape == (24, n, n)
        assert same_bytes(factors, expected)
        assert sum(calls) == 0

    def test_signed_zero_generator_equals_gtsv_in_value(self):
        # A = -0.0 times the Laplacian: gtsv's fill term turns the -0.0
        # entries of the factors' zero pattern to +0.0, the row pass keeps
        # them; every byte difference is on an entry equal to zero.
        model = LinearTestModel.default(build_grid(4, 1.0, BoundaryKind.NEUMANN), -0.0)
        path = chemotaxis_reference_path(model, K=3)
        expected = gtsv_factors(path)
        factors = np.ascontiguousarray(eliminated_factors(path))
        assert np.array_equal(factors, expected)
        differ = factors.view(np.uint64) != expected.view(np.uint64)
        assert np.all(factors[differ] == 0.0)

    def test_scalar_path(self):
        # gtsv's arithmetic at n = 1 is R_j / (1 - c a).
        grid = TimeGrid(T=0.5, K=16)
        a = -1.0 - np.random.default_rng(6).random(17)
        path = scalar_path(grid, a)
        c = 0.5 * grid.h
        expected = (c * a[:-1] + 1.0) / (1.0 - c * a[1:])
        assert np.array_equal(eliminated_factors(path)[:, 0, 0], expected)

    def test_scalar_zero_pivot_names_node(self):
        # I - c A(t_3) = 0 on a 1 x 1 path: the port reports the zero pivot.
        grid = TimeGrid(T=0.5, K=4)
        a = -np.ones(5)
        a[3] = 1.0 / (0.5 * grid.h)
        path = scalar_path(grid, a)
        with pytest.raises(NumericalError, match="node 3: zero pivot in row 1 "):
            eliminated_factors(path)

    @pytest.mark.parametrize(
        "build",
        [eliminated_factors, evolution_stepper],
        ids=["factors", "table"],
    )
    @pytest.mark.parametrize("node", [1, 2, 4])
    def test_scalar_singular_node_named(self, node, build):
        # I - c A(t_node) = 0 at the first, an inner and the last node: both
        # the batched elimination and the table's dense LU name the node.
        grid = TimeGrid(T=0.5, K=4)
        a = -np.ones(5)
        a[node] = 1.0 / (0.5 * grid.h)
        path = scalar_path(grid, a)
        with pytest.raises(NumericalError, match=f"node {node}: "):
            build(path)

    def test_every_node_pivots(self, monkeypatch):
        path = tridiagonal_path()
        expected = gtsv_factors(path)
        calls = counted_port(monkeypatch)
        assert same_bytes(eliminated_factors(path), expected)
        assert calls == [path.grid.K]

    def test_some_nodes_pivot(self, monkeypatch):
        # The sub-diagonal of tridiagonal_path() shrunk at every third node,
        # where no row interchange is needed any more.
        mats = tridiagonal_path(n=10, K=15).generators().copy()
        idx = np.arange(10)
        mats[::3, idx[1:], idx[:-1]] *= 1e-3
        path = banded_path(TimeGrid(T=0.8, K=15), mats, 0.5)
        expected = gtsv_factors(path)
        calls = counted_port(monkeypatch)
        assert same_bytes(eliminated_factors(path), expected)
        assert len(calls) == 1 and 0 < calls[0] < path.grid.K

    def test_zero_diagonal_pivoted_without_warning(self):
        # I - c A(t_4) has a zero first pivot but is regular: gtsv swaps
        # rows 1 and 2.  The elimination divides by zero there, silently.
        path = chemotaxis_reference_path(MODELS["chemotaxis"](4), K=8)
        c = 0.5 * path.grid.h
        target = np.array(
            [[0.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.5, 0.0], [0.0, 0.5, 2.0, 0.5], [0.0, 0.0, 0.5, 2.0]]
        )
        path = with_node(path, 4, target, c)
        expected = gtsv_factors(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = eliminated_factors(path)
        assert np.array_equal(factors, expected)
        assert np.all(np.isfinite(factors))

    @pytest.mark.parametrize(
        "row, target",
        [
            (2, [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            (3, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
        ],
    )
    def test_zero_pivot_names_node(self, row, target):
        path = constant_path(-np.eye(3), K=8, T=1.0)
        c = 0.5 * path.grid.h
        bad = with_node(path, 5, np.array(target), c)
        with pytest.raises(NumericalError, match=f"node 5: zero pivot in row {row} "):
            eliminated_factors(bad)

    def test_first_of_two_singular_nodes_named(self):
        path = constant_path(-np.eye(3), K=8, T=1.0)
        c = 0.5 * path.grid.h
        last = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        middle = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bad = with_node(with_node(path, 6, middle, c), 3, last, c)
        with pytest.raises(NumericalError, match="node 3: zero pivot in row 3 "):
            eliminated_factors(bad)


class TestRowStackedFactors:
    """One elimination over the nodes of a stack of paths gives each row the
    factors of its own path bit for bit; a stack with a singular one-step
    matrix raises the message its own path raises.  A stack whose nodes all
    share one generator eliminates every node, as any other stack does."""

    @staticmethod
    def stack(paths):
        return tuple(np.stack(bands) for bands in zip(*(path.bands for path in paths)))

    def test_singular_row_fails_the_stack_and_the_others_solve(self, monkeypatch):
        # Rows 0 and 2 interchange rows at every other node, so the port
        # solves nodes of both rows at once; row 1 meets a zero pivot at
        # node 5 only.
        base = constant_path(-np.eye(3), K=8, T=1.0)
        target = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bad = with_node(base, 5, target, 0.5 * base.grid.h)
        paths = [tridiagonal_path(n=3, K=8, T=1.0, seed=seed) for seed in (1, 2)]
        with pytest.raises(NumericalError) as one_row:
            eliminated_factors(bad)
        message = str(one_row.value)
        assert message.startswith("singular one-step matrix at node 5: zero pivot in row 2 ")
        stacked = OperatorPath(base.grid, self.stack([paths[0], bad, paths[1]]), 0.5)
        with pytest.raises(NumericalError) as stack:
            eliminated_factors(stacked)
        assert str(stack.value) == message
        calls = counted_port(monkeypatch)
        factors = _eliminated_steps(self.stack(paths), base.grid.h, np.empty((2, 9, 3, 0)))
        assert len(calls) == 1
        for row, path in enumerate(paths):
            expected = np.ascontiguousarray(eliminated_factors(path))
            assert same_bytes(np.ascontiguousarray(factors[row]), expected)

    def test_shared_generator_eliminates_every_node(self, monkeypatch):
        model = MODELS["chemotaxis"](6)
        grid = TimeGrid(T=0.5, K=12)
        bands = model.linearise(np.full((3, 13, 6), 0.01))[0]
        full = _eliminated_steps(bands, grid.h, np.empty((3, 13, 6, 0)))
        original, widths = _eliminated_steps, []

        def recorded(bands, h, forcing):
            widths.append(bands[1].shape[0] * (bands[1].shape[1] - 1))
            return original(bands, h, forcing)

        monkeypatch.setattr(avgrec.evolution, "_eliminated_steps", recorded)
        shared = eliminated_factors(OperatorPath(grid, bands, 0.5))
        assert widths == [3 * grid.K]
        assert same_bytes(np.ascontiguousarray(shared), full)
        single = eliminated_factors(OperatorPath(grid, tuple(band[0] for band in bands), 0.5))
        assert same_bytes(np.ascontiguousarray(single), full[0])
        assert widths == [3 * grid.K, grid.K]

    def test_shared_singular_generator_fails_the_stack(self):
        grid = TimeGrid(T=0.5, K=4)
        a = np.full((2, 5, 1), 1.0 / (0.5 * grid.h))
        off = np.empty((2, 5, 0))
        message = "singular one-step matrix at node 1: zero pivot in row 1 of the tridiagonal solve"
        with pytest.raises(NumericalError, match=f"^{message}$"):
            eliminated_factors(OperatorPath(grid, (off, a, off), 0.5))
        with pytest.raises(NumericalError, match=f"^{message}$"):
            eliminated_factors(OperatorPath(grid, (off[0], a[0], off[0]), 0.5))


class TestAffineSteps:
    """Each Crank-Nicolson step carries its forcing as an affine column,
    [[S_j, S_j F_j], [0, 1]]: the oracle's chain of them gives the column
    and the left sums, and the sweep observes and rebuilds the same
    values without the chain."""

    @pytest.mark.parametrize("n", [12, 19])
    def test_chain_column_is_the_product_of_the_elimination_factors(self, n):
        # Three rows of a non-constant chemotaxis path with a forcing.  The
        # elimination is elementwise per right-hand-side column, so the
        # factors beside the forcing column are the factors alone, bit for
        # bit; the chain's column is S_{i-1} ... S_0 of them to roundoff.
        # The trailing [0 | 1] row only adds zero terms, yet BLAS may block
        # an (n+1)-square product unlike an n-square one (here at
        # n = 19, 20, 27, 28, ...), so the products are not compared by bytes.
        model, grid = MODELS["chemotaxis"](n), TimeGrid(T=0.5, K=20)
        rng = np.random.default_rng(13)
        states = 0.05 * rng.standard_normal((3, grid.K + 1, n))
        bands, f_states = model.linearise(states)
        weighted = grid.trapezoid_weights[:, None] * f_states
        steps = _eliminated_steps(bands, grid.h, weighted[..., None])
        factors = steps[..., :n, :n]
        path = OperatorPath(grid, bands, 0.5)
        assert same_bytes(
            np.ascontiguousarray(eliminated_factors(path)), np.ascontiguousarray(factors)
        )
        column = affine_chain(steps)[..., :n, :n]
        expected = [np.broadcast_to(np.eye(n), (3, n, n))]
        for j in range(grid.K):
            expected.append(np.matmul(factors[:, j], expected[-1]))
        assert np.abs(column - np.stack(expected, axis=1)).max() <= 1e-14
        # The sweep's Horner and forward passes give the chain's values.
        xi = rng.standard_normal((3, n))
        for variant in Variant:
            cond = AveragingCondition.from_preset(grid, variant, "exp_decay", w0=0.5)
            values, chained = (s.sweep(cond, f_states) for s in (StepFactors(path), StepChain(path)))
            assert rel_err(values.resolvent, chained.resolvent) <= 1e-14
            assert rel_err(values.sums, chained.sums) <= 1e-14
            assert rel_err(values.rebuild(xi), chained.rebuild(xi)) <= 1e-14

    def test_port_node_carries_the_solved_forcing_column(self, monkeypatch):
        # Every node of tridiagonal_path() interchanges rows, so the dgtsv
        # port solves each step, forcing column included.
        path = tridiagonal_path()
        K, n, c = path.grid.K, path.dim, 0.5 * path.grid.h
        forcing = np.random.default_rng(17).standard_normal((K + 1, n))
        calls = counted_port(monkeypatch)
        bands = tuple(band[None] for band in path.bands)
        steps = _eliminated_steps(bands, path.grid.h, forcing[None, ..., None])[0]
        assert calls == [K]
        mats = path.generators()
        for j in range(K):
            rhs = (np.eye(n) + c * mats[j]) @ forcing[j]
            expected = np.linalg.solve(np.eye(n) - c * mats[j + 1], rhs)
            assert rel_err(steps[j, :n, n], expected) <= 1e-14
            assert np.array_equal(steps[j, n], np.eye(n + 1)[n])

    @pytest.mark.parametrize("method", list(PropagatorMethod))
    def test_shared_step_with_forcing_matches_table(self, method, monkeypatch):
        # The reaction-diffusion generator is its coefficient times the
        # Laplacian: at a state held in time every node shares it, while
        # f(u) is nonzero.  The stepper eliminates all K nodes, forcing
        # column included, and the series' kernel terms are exactly zero.
        model, grid = MODELS["rd_neumann"](8), TimeGrid(T=0.5, K=16)
        u = 0.1 * np.cos(np.pi * model.base.grid.nodes)
        bands, f_states = model.linearise(np.tile(u, (grid.K + 1, 1)))
        path = OperatorPath(grid, bands, 0.5)
        assert np.abs(f_states).min() > 0
        widths = []
        original = avgrec.evolution._eliminated_steps

        def recorded(bands, h, forcing):
            widths.append(bands[1].shape[0] * (bands[1].shape[1] - 1))
            return original(bands, h, forcing)

        monkeypatch.setattr(avgrec.evolution, "_eliminated_steps", recorded)
        build, oracle = SWEEPS[method]
        assert_sweep_matches_table(build(path), oracle(path), f_states, 1e-13)
        assert widths == ([grid.K] * 3 if method is PropagatorMethod.STEPPER else [])


KINDS = ["dominant", "interchange", "all_swap", "zero_pivot", "nonfinite", "swap_nonfinite"]


def drawn_system(kind, n, seed):
    """A tridiagonal system (lower, main, upper, rhs) of one of six kinds.

    ``dominant``: the main diagonal outweighs both neighbours in its row and
    column, so gtsv interchanges no rows; a fifth of the other entries are
    exact zeros of either sign, which reach the solution as signed zeros.
    ``interchange``: a small main diagonal, and gtsv interchanges rows 1
    and 2.  ``all_swap``: a main diagonal far below a sub-diagonal of
    magnitude at least 2 and a super-diagonal in [-1, 1], so that gtsv
    interchanges every row.  ``zero_pivot``: dominant, with the pivot of
    one row cancelled to an exact zero and no interchange there; the row is
    returned.  ``nonfinite`` and ``swap_nonfinite``: dominant and
    ``all_swap``, with one entry NaN, inf or -inf.
    """
    rng = np.random.default_rng(seed)
    lower, upper, rhs = (rng.standard_normal(size) for size in (n - 1, n - 1, n))
    for band in (lower, upper, rhs):
        zeros = rng.random(band.shape) < 0.2
        band[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
    weight = 0.5 + rng.random(n)
    for band in (lower, upper):
        weight[1:] += np.abs(band)
        weight[:-1] += np.abs(band)
    main = np.where(rng.random(n) < 0.5, -weight, weight)
    row = None
    if kind == "interchange":
        main = 1e-2 * rng.standard_normal(n)
        lower[0] = 1.0 + abs(main[0])
    elif kind in ("all_swap", "swap_nonfinite"):
        main = 1e-3 * rng.standard_normal(n)
        lower = np.copysign(2.0 + np.abs(lower), lower)
        upper = np.clip(upper, -1.0, 1.0)
    elif kind == "zero_pivot":
        row = int(rng.integers(n))
        pivot = main[0]
        for i in range(row):
            fact = lower[i] / pivot
            pivot = main[i + 1] - fact * upper[i]
        # main[row] minus the product it is reduced by is an exact zero.
        main[row] = 0.0 if row == 0 else fact * upper[row - 1]
        if row < n - 1:
            lower[row] = 0.0
    if kind in ("nonfinite", "swap_nonfinite"):
        band = (lower, main, upper, rhs)[rng.integers(4)]
        band[rng.integers(band.size)] = rng.choice([np.nan, np.inf, -np.inf])
    return lower, main, upper, rhs, row


class TestScalarTridiagonalSolve:
    """The forward solve's step, dgtsv's elimination on Python floats,
    equals LAPACK gtsv by bytes, info included, and hands the dgtsv port
    every system where gtsv interchanges rows."""

    @given(
        kind=st.sampled_from(KINDS),
        n=st.one_of(st.integers(2, 64), st.just(256)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_gtsv_by_bytes(self, kind, n, seed):
        lower, main, upper, rhs, row = drawn_system(kind, n, seed)
        *_, expected, expected_info = dgtsv(lower, main, upper, rhs)
        with pytest.MonkeyPatch.context() as patch:
            calls = counted_port(patch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                solution, info = solve_tridiagonal(lower, main, upper, rhs)
        assert info == expected_info
        if info == 0 or not calls:
            # Only the port's solution of a singular system is not gtsv's.
            assert np.asarray(solution).tobytes() == expected.tobytes()
        if kind == "dominant":
            assert info == 0 and not calls
        elif kind == "zero_pivot":
            assert info == row + 1 and not calls
        elif kind in ("interchange", "all_swap"):
            assert abs(main[0]) < abs(lower[0]) and calls == [1]
        else:
            # A NaN pivot, or a NaN or inf below one, interchanges rows.
            assert calls in ([], [1])

    def test_signed_zeros_of_the_back_substitution(self):
        # Row 0's solution is -0.0 before gtsv subtracts 0.0 * x_2, and
        # x_2 < 0 turns it into +0.0.
        lower, main, upper = np.zeros(2), np.ones(3), np.array([0.0, 0.0])
        rhs = np.array([-0.0, 1.0, -2.0])
        *_, expected, _ = dgtsv(lower, main, upper, rhs)
        solution, info = solve_tridiagonal(lower, main, upper, rhs)
        assert info == 0
        assert solution.tobytes() == expected.tobytes()
        assert math.copysign(1.0, solution[0]) == 1.0


def drawn_batch(kinds, n, width, seed):
    """A batch of tridiagonal systems, one of each kind, laid out for the
    dgtsv port: bands (n-1, N), (n, N), (n-1, N), right-hand sides
    (n, N, width), and the zero-pivot row of each system (or None).

    The kinds are :func:`drawn_system`'s, with one non-finite entry at
    most per system.  Extra right-hand-side columns are standard normal with
    a fifth of them signed zeros.
    """
    rng = np.random.default_rng(seed)
    systems = []
    for k, kind in enumerate(kinds):
        lower, main, upper, rhs, row = drawn_system(kind, n, seed + k)
        extra = rng.standard_normal((n, width - 1))
        zeros = rng.random(extra.shape) < 0.2
        extra[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
        systems.append((lower, main, upper, np.column_stack((rhs, extra)), row))
    lower, main, upper, rhs, rows = zip(*systems)
    bands = (np.stack(lower, axis=1), np.stack(main, axis=1), np.stack(upper, axis=1))
    return bands, np.stack(rhs, axis=1), rows


def assert_port_equals_gtsv(bands, rhs, nodes, same=lambda a, b: a.tobytes() == b.tobytes()):
    """The port on the ``nodes`` of a batch leaves the other right-hand
    sides as they are and gives, on each of its systems, LAPACK dgtsv's
    info and, where that is 0, dgtsv's overwritten bands and solution;
    returns the infos."""
    dl, d, du = (band[:, nodes] for band in bands)
    b = rhs.copy()
    info = _dgtsv(dl, d, du, b, nodes)
    assert info.shape == nodes.shape
    others = np.setdiff1d(np.arange(rhs.shape[1]), nodes)
    assert b[:, others].tobytes() == rhs[:, others].tobytes()
    n = d.shape[0]
    for k, node in enumerate(nodes):
        # The wrapper wants off-diagonals of length max(n - 1, 1); dgtsv
        # reads none of them at n = 1.
        off = [band[:, node] if n > 1 else np.zeros(1) for band in (bands[0], bands[2])]
        fill, diag, upper, solution, expected_info = dgtsv(off[0], bands[1][:, node], off[1], rhs[:, node])
        assert info[k] == expected_info
        if expected_info == 0:
            assert same(b[:, node], solution) and same(d[:, k], diag)
            if n > 1:
                assert same(du[:, k], upper) and same(dl[:, k], fill)
    return info


class TestDgtsvPort:
    """The NumPy port of reference dgtsv, one elimination step at a time
    over a batch of systems, equals LAPACK dgtsv on each system by bytes,
    info included.

    Where two NaNs of different sign meet in a product, IEEE 754 leaves
    the sign of the result open, and dgtsv's compiled loops take either
    operand (one sign for one right-hand side, the other for several), as
    do NumPy's vector loops.  The systems compared by bytes therefore hold
    at most one non-finite entry each; with many, NaN matches any NaN.
    """

    @given(
        kinds=st.lists(
            st.sampled_from(KINDS),
            min_size=1,
            max_size=8,
        ),
        n=st.integers(1, 64),
        width=st.sampled_from(["1", "2", "n"]),
        subset=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_gtsv_by_bytes(self, kinds, n, width, subset, seed):
        if n == 1:
            # One row has nothing to interchange and no off-diagonal entries.
            kinds = [kind if kind == "zero_pivot" else "dominant" for kind in kinds]
        bands, rhs, rows = drawn_batch(kinds, n, n if width == "n" else int(width), seed)
        nodes = np.arange(len(kinds))
        if subset:
            nodes = nodes[np.random.default_rng(seed).random(len(kinds)) < 0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = assert_port_equals_gtsv(bands, rhs, nodes)
        for node, node_info in zip(nodes, info):
            if kinds[node] == "zero_pivot":
                assert node_info == rows[node] + 1
            elif "nonfinite" not in kinds[node]:
                assert node_info == 0

    def test_zero_pivot_row_per_system(self):
        # Each singular system's info is the row of its first zero pivot,
        # and the other systems of the batch are dgtsv's.
        kinds = ["zero_pivot", "all_swap", "zero_pivot", "dominant", "zero_pivot"]
        bands, rhs, rows = drawn_batch(kinds, 12, 3, seed=4)
        info = assert_port_equals_gtsv(bands, rhs, np.arange(5))
        assert list(info) == [0 if row is None else row + 1 for row in rows]

    @given(
        n=st.integers(1, 64),
        batch=st.integers(1, 8),
        width=st.sampled_from(["1", "2", "n"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_many_nonfinite_entries(self, n, batch, width, seed):
        rng = np.random.default_rng(seed)
        r = n if width == "n" else int(width)
        shapes = ((max(n - 1, 0), batch), (n, batch), (max(n - 1, 0), batch), (n, batch, r))
        arrays = [rng.standard_normal(shape) for shape in shapes]
        arrays[1] *= rng.choice([1e-3, 1.0, 10.0], size=shapes[1])
        for array in arrays:
            hit = rng.random(array.shape) < 0.1
            array[hit] = rng.choice([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], size=hit.sum())
        *bands, rhs = arrays

        def same(a, b):
            nan = np.isnan(a)
            return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()

        assert_port_equals_gtsv(tuple(bands), rhs, np.arange(batch), same)


def model_paths(model, K=12, T=0.5):
    """A model's path along a smooth trajectory, from its stacked bands,
    and the dense path of its per-state dense generators."""
    grid = TimeGrid(T=T, K=K)
    x, t = model.base.grid.nodes, grid.nodes[:, None]
    states = 0.2 * np.cos(np.pi * x) * np.exp(-t) + 0.1 * np.sin(np.pi * x) * np.sin(t)
    dense = np.stack([dense_generator(model, state) for state in states])
    return OperatorPath(grid, model.linearise(states)[0], 0.9), DensePath(grid, dense, 0.9)


class TestBandBuiltPath:
    """A path holds its bands as given, checks their shapes, forms the dense
    generators of the nodes asked for, and its factors agree with the dense
    LU's."""

    @pytest.mark.parametrize("n", [2, 3, 16])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_model_bands_equal_dense_path(self, model, n):
        band, dense = model_paths(MODELS[model](n))
        factors = eliminated_factors(band)
        assert rel_err(factors, dense_factors(dense)) <= 1e-13
        assert band.dim == dense.dim == n
        assert np.array_equal(band.generators(), dense.generators())

    def test_bands_held_as_given(self):
        bands = MODELS["chemotaxis"](6).linearise(np.zeros((13, 6)))[0]
        path = OperatorPath(TimeGrid(T=0.5, K=12), bands, 0.9)
        assert all(got is given for got, given in zip(path.bands, bands))
        assert path.dim == 6
        dense = band_stack(*bands)
        assert np.array_equal(path.generators(), dense)
        assert np.array_equal(path.generators(slice(0, 1)), dense[:1])
        assert np.array_equal(path.generators(5), dense[5])

    def test_pivoting_nodes(self, monkeypatch):
        band = tridiagonal_path()
        dense = DensePath(band.grid, band_stack(*band.bands), band.holder_rho)
        calls = counted_port(monkeypatch)
        assert rel_err(eliminated_factors(band), dense_factors(dense)) <= 1e-13
        assert calls == [band.grid.K]

    def test_singular_node_named(self):
        path = constant_path(-np.eye(3), K=8, T=1.0)
        target = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        band = with_node(path, 5, target, 0.5 * path.grid.h)
        with pytest.raises(NumericalError, match="node 5: zero pivot in row 2 "):
            eliminated_factors(band)

    @pytest.mark.parametrize("node", [1, 4])
    def test_scalar_singular_node_named(self, node):
        grid = TimeGrid(T=0.5, K=4)
        diag = -np.ones((5, 1))
        diag[node] = 1.0 / (0.5 * grid.h)
        band = OperatorPath(grid, (np.empty((5, 0)), diag, np.empty((5, 0))), 0.5)
        with pytest.raises(NumericalError, match=f"node {node}: zero pivot in row 1 "):
            eliminated_factors(band)

    @pytest.mark.parametrize(
        "shapes", [((13, 5), (13, 6), (13, 6)), ((12, 5), (12, 6), (12, 5)), ((13,), (13,), (13,))]
    )
    def test_band_shapes_checked(self, shapes):
        with pytest.raises(ValueError, match="diagonals of 13 square matrices"):
            OperatorPath(TimeGrid(T=0.5, K=12), tuple(map(np.zeros, shapes)), 0.5)

    def test_holder_exponent_checked(self):
        path = tridiagonal_path()
        with pytest.raises(ValueError, match="holder exponent"):
            OperatorPath(path.grid, path.bands, 1.0)


SWEEPS = {
    PropagatorMethod.STEPPER: (lambda path: StepFactors(stacked(path)), evolution_stepper),
    PropagatorMethod.KERNEL_SERIES: (evolution_series, series_table),
}


@pytest.mark.parametrize("method", list(PropagatorMethod))
@pytest.mark.parametrize("model", sorted(MODELS))
class TestModelPathSweeps:
    """Both sweeps reproduce their oracle tables on every model's path."""

    def _pair(self, model, method):
        """(sweep, oracle table) on the model's reference path."""
        path = chemotaxis_reference_path(MODELS[model](8), K=16)
        build, oracle = SWEEPS[method]
        return build(path), oracle(path)

    def test_duhamel(self, model, method):
        sweep, table = self._pair(model, method)
        f_states = np.random.default_rng(7).standard_normal((17, 8))
        assert_sweep_matches_table(sweep, table, f_states, 1e-13)

    def test_terminal_forcing(self, model, method):
        assert_terminal_forcing_matches_final_row(*self._pair(model, method))

    def test_sums_are_the_end_corrected_formula(self, model, method):
        # The sweep weights the forcing by the trapezoid rule before its
        # recursion; the end-corrected form recurs on h f and takes
        # (h/2) U(t_i, 0) f_0 back off.  The sweep of f', with f' = 2 f at
        # both ends and f inside, recurs on qw f' = h f, so its sums less
        # (h/2) f' are the left sums of h f.  G_0 stays exactly zero.
        sweep, _ = self._pair(model, method)
        grid = sweep.path.grid
        h = grid.h
        f_states = np.random.default_rng(11).standard_normal((17, 8))
        doubled = f_states.copy()
        doubled[[0, -1]] *= 2.0
        cond = AveragingCondition.from_preset(grid, Variant.TIME_AVERAGE)
        sums, left = (duhamel_sums(sweep.sweep(cond, f[None]))[0] for f in (f_states, doubled))
        left[1:] -= 0.5 * h * doubled[1:]
        assert np.array_equal(sums[0], np.zeros(8))
        zero_forcing = sweep.sweep(cond, np.zeros((1, 17, 8)))
        column_f0 = zero_forcing.rebuild(f_states[:1])[0]
        expected = left - 0.5 * h * column_f0 + 0.5 * h * f_states
        expected[0] = 0.0
        assert rel_err(sums, expected) <= 1e-15


def traced_sweep_peak(build, path):
    """Peak traced allocation of the solver's calls: the propagation build,
    its sweep on the right-hand side [I | qw f] under a time average, which
    observes every node, and the rebuild of the states."""
    f_states = np.random.default_rng(1).standard_normal((1, path.grid.K + 1, path.dim))
    cond = AveragingCondition.from_preset(path.grid, Variant.TIME_AVERAGE)
    xi = np.ones((1, path.dim))
    tracemalloc.start()
    try:
        build(path).sweep(cond, f_states).rebuild(xi)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def constant_banded_path(n, K):
    """A band-built path whose every node has one generator."""
    mats = np.repeat(tridiagonal_palette(1, n=n), K + 1, axis=0)
    return banded_path(TimeGrid(T=0.5, K=K), mats, 0.5)


def test_stepper_peak_estimate_matches_traced_allocation():
    # A constant path takes the same elimination and passes as any other.
    for n, K in ((16, 48), (64, 32)):
        for path in (tridiagonal_path(n=n, K=K), constant_banded_path(n, K)):
            peak = traced_sweep_peak(SWEEPS[PropagatorMethod.STEPPER][0], path)
            estimate = stepper_peak_bytes(n, K)
            assert 0.95 * estimate <= peak <= 1.05 * estimate, (n, K, peak / estimate)


class TestSeriesSweepAgainstTable:
    """The kernel series reproduces the dense-table oracle on a nonconstant
    and on a constant path."""

    @pytest.fixture(scope="class", params=["sqrt_holder", "chemotaxis", "constant"])
    def pair(self, request, series_family):
        """(sweep, oracle table) on a nonconstant or a band-built constant path."""
        if request.param == "sqrt_holder":
            path = sqrt_holder_path(24)
            return evolution_series(path), series_table(path)
        if request.param == "constant":
            mats = np.repeat(tridiagonal_palette(1), 25, axis=0)
            path = banded_path(TimeGrid(T=0.8, K=24), mats, 0.5)
            return evolution_series(path), series_table(path)
        entry = series_family[32]
        return evolution_series(entry["path"]), entry["series"]

    def test_column(self, pair):
        sweep, table = pair
        f_states = np.zeros((table.grid.K + 1, table.dim))
        assert_sweep_matches_table(sweep, table, f_states, 1e-13)

    def test_duhamel(self, pair):
        sweep, table = pair
        f_states = np.random.default_rng(5).standard_normal((table.grid.K + 1, table.dim))
        assert_sweep_matches_table(sweep, table, f_states, 1e-13)

    def test_terminal_forcing(self, pair):
        assert_terminal_forcing_matches_final_row(*pair)

    def test_constant_path_column_bitwise(self):
        # The kernel terms (A_m - A_l) p_l are exactly zero on a constant
        # path, so the recursion's column is the oracle's frozen-semigroup
        # power chain bit for bit, on a dense and on a band-built path.
        dense = constant_path(stable_symmetric(6), K=16, T=1.0)
        tridiagonal = constant_path(tridiagonal_palette(1)[0], K=16, T=1.0)
        xi = np.random.default_rng(4).standard_normal((1, 6))
        for path in (dense, banded_path(tridiagonal.grid, tridiagonal.generators(), 0.5)):
            sweep = evolution_series(path)
            assert isinstance(sweep, SeriesSweep)
            f_states = np.zeros((1, path.grid.K + 1, path.dim))
            for variant in Variant:
                cond = AveragingCondition.from_preset(path.grid, variant, "exp_decay", w0=0.5)
                values, table = (s.sweep(cond, f_states) for s in (sweep, series_table(path)))
                assert np.array_equal(values.resolvent, table.resolvent)
                assert np.array_equal(values.rebuild(xi), table.rebuild(xi))

    def test_end_node_generator_enters_the_last_sum(self):
        # Nodes 0..K-1 share one generator and A_K differs.  The end term of
        # the last node reads A_K - A_{K-1}, and G_K carries it.
        mats = tridiagonal_palette(2)[[0] * 16 + [1]]
        path = banded_path(TimeGrid(T=0.8, K=16), mats, 0.5)
        sweep, table = evolution_series(path), series_table(path)
        f_states = np.random.default_rng(9).standard_normal((17, 6))
        assert_sweep_matches_table(sweep, table, f_states, 1e-13)


def test_series_peak_estimate_matches_traced_allocation():
    # A band-built path forms its dense generator stack inside the trace; a
    # constant path takes the same recursion as any other.
    for n, K in ((16, 48), (64, 32)):
        for path in (tridiagonal_path(n=n, K=K), constant_banded_path(n, K)):
            peak = traced_sweep_peak(evolution_series, path)
            estimate = series_peak_bytes(n, K)
            assert 0.95 * estimate <= peak <= 1.05 * estimate, (n, K, peak / estimate)


def tridiagonal_palette(count, n=6, seed=29):
    """``count`` distinct stable tridiagonal (n, n) generators."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    mats = np.zeros((count, n, n))
    mats[:, idx, idx] = -1.0 + 0.2 * rng.standard_normal((count, n))
    mats[:, idx[:-1], idx[:-1] + 1] = 0.3 * rng.standard_normal((count, n - 1))
    mats[:, idx[1:], idx[1:] - 1] = 0.3 * rng.standard_normal((count, n - 1))
    return mats


# The generator of each node 0..24 of a K=24 path: five generators, each
# met again out of order, numbered here in order of first occurrence.
REPEATS = np.array([0, 1, 0, 2, 1, 3, 0, 4, 2, 2, 1, 3, 4, 0, 1, 2, 3, 3, 0, 4, 1, 2, 0, 1, 4])


class TestRepeatedGenerators:
    """A path whose generators repeat out of order takes the series
    recursion, one frozen step per node, and reproduces the oracle."""

    @pytest.fixture(scope="class", params=["dense", "banded"])
    def pair(self, request):
        """(sweep, oracle table) on a path whose generators repeat out of order."""
        mats = tridiagonal_palette(5)[REPEATS]
        grid = TimeGrid(T=0.8, K=REPEATS.size - 1)
        if request.param == "dense":
            path = DensePath(grid=grid, matrices=mats, holder_rho=0.5)
        else:
            path = banded_path(grid, mats, 0.5)
        return evolution_series(path), series_table(path)

    def test_column(self, pair):
        sweep, table = pair
        f_states = np.zeros((table.grid.K + 1, table.dim))
        assert_sweep_matches_table(sweep, table, f_states, 1e-13)

    def test_duhamel(self, pair):
        sweep, table = pair
        f_states = np.random.default_rng(6).standard_normal((table.grid.K + 1, table.dim))
        assert_sweep_matches_table(sweep, table, f_states, 1e-13)

    def test_terminal_forcing(self, pair):
        assert_terminal_forcing_matches_final_row(*pair)

    def test_overflow_names_first_node_of_the_group(self):
        # The offending generator is the third distinct one: it first occurs
        # at node 3 and recurs at node 7.  The message is the one the
        # ungrouped stack of all K frozen steps gives, word for word.
        tame, other, huge = -np.eye(4), -2.0 * np.eye(4), 800.0 * np.eye(4)
        mats = np.stack([tame, tame, other, huge, tame, other, tame, huge, other, tame, tame])
        path = banded_path(TimeGrid(T=10.0, K=10), mats, 0.5)
        with pytest.raises(NumericalError) as ungrouped:
            matrix_exponential(path.generators()[:-1], path.grid.h)
        with pytest.raises(NumericalError) as grouped:
            evolution_series(path)
        assert str(grouped.value) == "node 3: t*mu_1(m) = 800 exceeds the overflow cap 700.0"
        assert str(grouped.value) == str(ungrouped.value)

    def test_chemotaxis_recovery_from_a_constant_state_starts_constant(self, monkeypatch):
        # A constant state away from zero freezes one generator at every
        # node, no multiple of the Laplacian, so the first sweep runs the
        # series recursion on a constant path, as the sweeps after it do on
        # paths with no repeated generator.
        import avgrec.solver

        model = ChemotaxisModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))
        grid_t = TimeGrid(T=0.5, K=32)
        cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
        truth = forward_solve(model, 1e-2 * np.cos(np.pi * model.base.grid.nodes), grid_t)
        start = Trajectory(grid_t, np.full((grid_t.K + 1, 16), 2e-3))
        sweeps = []

        def recorded(path):
            sweeps.append((path, evolution_series(path)))
            return sweeps[-1][1]

        monkeypatch.setattr(avgrec.solver, "evolution_series", recorded)
        config = RecoveryConfig(method=PropagatorMethod.KERNEL_SERIES)
        M = observe(cond, truth.states)
        _, _, report = fixed_point_recover(model, cond, M, config, initial=start)
        assert report.converged and len(sweeps) == report.iterates >= 2
        (first_path, first), (_, second) = sweeps[:2]
        assert len(np.unique(np.concatenate(first_path.bands, axis=-1), axis=0)) == 1
        for sweep in (first, second):
            assert isinstance(sweep, SeriesSweep) and sweep.steps.shape[0] == grid_t.K


class TestSeriesCocycle:
    def test_defect_small_and_decreasing(self, series_family):
        defects = []
        for K in (32, 64, 128):
            table = series_family[K]["series"]
            m = K // 2
            u = table.op(K, 0)
            defect = np.linalg.norm(table.op(K, m) @ table.op(m, 0) - u, 2)
            defects.append(defect / np.linalg.norm(u, 2))
        assert defects[-1] <= 1e-2
        assert defects[0] > defects[1] > defects[2]


class TestPropagatorContract:
    def test_backward_access_rejected(self, series_family):
        table = series_family[32]["stepper"]
        with pytest.raises(ValueError):
            table.op(3, 7)

    def test_method_tags(self, series_family):
        assert series_family[32]["series"].method_tag is PropagatorMethod.KERNEL_SERIES
        assert series_family[32]["stepper"].method_tag is PropagatorMethod.STEPPER


class TestHolderSeminorm:
    def test_constant_path(self):
        a = stable_symmetric(4)
        path = constant_path(a)
        assert holder_seminorm(path, 0.5) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_linear_path_oracle(self):
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        grid = TimeGrid(T=2.0, K=16)
        path = DensePath(
            grid=grid, matrices=np.stack([t * b for t in grid.nodes]), holder_rho=0.5
        )
        rho = 0.25
        expected = 2.0 ** (1 - rho) * 1.0 + 2.0 * 1.0  # seminorm part + max node norm
        assert holder_seminorm(path, rho) == pytest.approx(expected, rel=1e-12)

    @given(c=st.floats(0.1, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling_homogeneity(self, c):
        path = sqrt_holder_path(8)
        scaled = DensePath(grid=path.grid, matrices=c * path.generators(), holder_rho=0.5)
        assert holder_seminorm(scaled, 0.5) == pytest.approx(
            c * holder_seminorm(path, 0.5), rel=1e-10
        )


class TestSemigroupPerturbation:
    def test_identical_matrices_rejected(self):
        a = stable_symmetric(3)
        with pytest.raises(ValueError):
            semigroup_perturbation_check(a, a, [0.5])

    def test_diagonal_closed_form(self):
        # B = A + eps: e^{tA} - e^{tB} = e^{tA}(1 - e^{t eps}), so the plain
        # ratio approaches t e^{t lambda_max} as eps -> 0.
        lam = np.array([-2.0, -1.0, -0.25])
        a = np.diag(lam)
        eps = 1e-7
        ts = [0.25, 0.5, 1.0]
        report = semigroup_perturbation_check(a, a + eps * np.eye(3), ts)
        oracle = max(t * np.exp(t * lam.max()) for t in ts)
        assert report.max_ratio_plain == pytest.approx(oracle, rel=1e-4)

    def test_stable_under_refinement(self):
        rng = np.random.default_rng(21)
        a = stable_symmetric(5, rng)
        b = a + 1e-4 * rng.standard_normal((5, 5))
        report = semigroup_perturbation_check(a, b, list(np.linspace(0.1, 1.0, 8)))
        assert report.stable_plain and report.stable_smoothed


class TestWeightedKernelMax:
    def test_matches_direct_computation(self):
        path = sqrt_holder_path(16)
        table = volterra_resolvent(path)
        grid = path.grid
        direct = 0.0
        for i in range(1, 17):
            for j in range(i):
                gap = grid.nodes[i] - grid.nodes[j]
                direct = max(direct, gap**0.5 * np.linalg.norm(table.values[i, j]))
        assert weighted_kernel_max(grid, table.values, 0.5) == pytest.approx(direct, rel=1e-12)
