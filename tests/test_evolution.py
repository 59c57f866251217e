import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv

from avgrec.averaging import duhamel_sums, terminal_forcing, trapezoid_weights
from avgrec.errors import NumericalError
from avgrec.evolution import (
    OperatorPath,
    PropagatorMethod,
    TimeGrid,
    _one_step_factors,
    evolution_series,
    series_peak_bytes,
    step_factors,
    stepper_peak_bytes,
)
from avgrec.models import ChemotaxisModel, LinearTestModel, NonlocalRDModel
from avgrec.spatial import BoundaryKind, assemble_laplacian, build_grid, matrix_exponential

from conftest import chemotaxis_reference_path, sqrt_holder_path
from oracles import (
    commutator_kernel,
    evolution_stepper,
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
    return OperatorPath(grid=grid, matrices=np.repeat(a[None], K + 1, axis=0), holder_rho=rho)


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


class TestFrozenSemigroup:
    def test_identity_at_equal_indices(self):
        path = constant_path(stable_symmetric(4))
        assert np.array_equal(frozen_semigroup(path, 3, 3), np.eye(4))

    def test_constant_path_matches_exponential(self):
        a = stable_symmetric(5)
        path = constant_path(a, K=8, T=2.0)
        got = frozen_semigroup(path, 6, 2)
        np.testing.assert_allclose(got, matrix_exponential(a, 1.0), rtol=1e-12, atol=1e-14)

    def test_frozen_at_earlier_node_not_averaged(self):
        # A(t) = alpha(t) D freezes alpha at t_j, deliberately unlike the
        # true propagator which integrates alpha.
        d = np.diag([-1.0, -2.0])
        grid = TimeGrid(T=1.0, K=4)
        alphas = 1.0 + grid.nodes
        path = OperatorPath(
            grid=grid, matrices=np.stack([al * d for al in alphas]), holder_rho=0.5
        )
        got = frozen_semigroup(path, 3, 1)
        expected = matrix_exponential(alphas[1] * d, 0.5)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        averaged = matrix_exponential(0.5 * (alphas[1] + alphas[2]) * d, 0.5)
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
        path = OperatorPath(
            grid=grid, matrices=np.stack([a0 + t * b for t in grid.nodes]), holder_rho=0.9
        )
        i, j = 6, 2
        gap = grid.nodes[i] - grid.nodes[j]
        oracle = gap * b @ matrix_exponential(a0 + grid.nodes[j] * b, gap)
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
        path = OperatorPath(
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
            exact = matrix_exponential(a, path.grid.h * (i - j))
            err = np.linalg.norm(table.op(i, j) - exact) / np.linalg.norm(exact)
            assert err <= 1e-12

    def test_commuting_family_oracle(self):
        # A(t) = alpha(t) D commutes with itself; the propagator is the
        # exponential of the integrated coefficient.
        base = assemble_laplacian(build_grid(16, 1.0, BoundaryKind.NEUMANN))
        grid = TimeGrid(T=1.0, K=128)
        path = OperatorPath(
            grid=grid,
            matrices=np.stack([(1.0 + 0.5 * t) * base.matrix for t in grid.nodes]),
            holder_rho=0.9,
        )
        u_final = evolution_series(path).column[128]
        exact = matrix_exponential(base.matrix, 1.25)  # int_0^1 (1 + t/2) dt = 5/4
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
        exact = matrix_exponential(a, 1.0)
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
        table = evolution_stepper(OperatorPath(grid=grid, matrices=mats, holder_rho=0.5))
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
    return OperatorPath(grid=grid, matrices=mats, holder_rho=0.5)


def rel_err(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


def assert_terminal_forcing_matches_final_row(sweep, table):
    """The trapezoid sum sum_j qw_j U(T, t_j) f(t_j), formed from the
    oracle's final row, is the last Duhamel sum of one sweep."""
    grid = table.grid
    f_states = np.random.default_rng(8).standard_normal((grid.K + 1, table.dim))
    qw = trapezoid_weights(grid)
    expected = np.einsum("j,jab,jb->a", qw, table.rows[grid.K], f_states)
    values = sweep.sweep(f_states)
    assert np.array_equal(terminal_forcing(values), values.sums[-1])
    assert rel_err(values.sums[-1], expected) <= 1e-13


class TestStepFactorsAgainstTable:
    """The factor recursion reproduces the full-table oracle."""

    def test_column(self):
        path = random_path()
        table = evolution_stepper(path)
        assert rel_err(step_factors(path).column, table.column) <= 1e-13

    def test_duhamel(self):
        path = random_path()
        f_states = np.random.default_rng(5).standard_normal((path.grid.K + 1, path.dim))
        got = step_factors(path).sweep(f_states).sums
        assert np.array_equal(got[0], np.zeros(path.dim))
        assert rel_err(got, duhamel_sums(evolution_stepper(path), f_states)) <= 1e-13

    def test_terminal_forcing(self):
        path = random_path()
        assert_terminal_forcing_matches_final_row(step_factors(path), evolution_stepper(path))


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
    return OperatorPath(grid=grid, matrices=mats, holder_rho=0.5)


class TestTridiagonalFactors:
    """Tridiagonal paths take the banded solve, any other path the dense
    LU; both agree with an explicit dense solve."""

    def test_matches_dense_solve(self, monkeypatch):
        import avgrec.evolution

        def forbidden(*args, **kwargs):
            raise AssertionError("a tridiagonal path took the dense LU")

        monkeypatch.setattr(avgrec.evolution, "_dense_factors", forbidden)
        path = tridiagonal_path()
        assert path.tridiagonal is not None
        n = path.dim
        c = 0.5 * path.grid.h
        lhs = np.eye(n) - c * path.matrices[1:]
        sub, diag = np.diagonal(lhs, -1, 1, 2), np.diagonal(lhs, 0, 1, 2)
        assert np.any(np.abs(sub) > np.abs(diag[:, :-1]))
        rhs = np.eye(n) + c * path.matrices[:-1]
        expected = np.stack([np.linalg.solve(a, b) for a, b in zip(lhs, rhs)])
        column = [np.eye(n)]
        for factor in expected:
            column.append(factor @ column[-1])
        got = step_factors(path)
        assert rel_err(got.factors, expected) <= 1e-13
        assert rel_err(got.column, np.stack(column)) <= 1e-13

    @pytest.mark.parametrize("kind", ["random", "one_entry_off_band"])
    def test_dense_path_takes_the_lu(self, kind, monkeypatch):
        import avgrec.evolution

        if kind == "random":
            path = random_path()
        else:
            mats = tridiagonal_path().matrices.copy()
            mats[7, 0, 5] = 1e-30
            path = OperatorPath(grid=TimeGrid(T=0.8, K=12), matrices=mats, holder_rho=0.5)
        assert path.tridiagonal is None

        def forbidden(*args, **kwargs):
            raise AssertionError("a dense path took the tridiagonal solve")

        monkeypatch.setattr(avgrec.evolution, "dgtsv", forbidden)
        factors = step_factors(path)
        assert rel_err(factors.column, evolution_stepper(path).column) <= 1e-13

    def test_singular_node_named(self):
        # I - c A(t_5) = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: tridiagonal,
        # not diagonal, and singular in exact arithmetic.
        path = constant_path(-np.eye(3), K=8, T=1.0)
        c = 0.5 * path.grid.h
        target = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        mats = path.matrices.copy()
        mats[5] = (np.eye(3) - target) / c
        bad = OperatorPath(grid=path.grid, matrices=mats, holder_rho=0.5)
        assert bad.tridiagonal is not None
        with pytest.raises(NumericalError, match="node 5"):
            step_factors(bad)
        with pytest.raises(NumericalError, match="node 5"):
            evolution_stepper(bad)


def gtsv_factors(path):
    """The one-step factors of a tridiagonal path by one LAPACK gtsv call
    per node, in node order: the reference for the batched elimination."""
    K, n = path.grid.K, path.dim
    c = 0.5 * path.grid.h
    sub, diag, sup = (band[1:] for band in path.tridiagonal)
    lower, main, upper = -c * sub, 1.0 - c * diag, -c * sup
    factors = c * path.matrices[:-1]
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
    mats = path.matrices.copy()
    mats[j] = (np.eye(path.dim) - target) / c
    return OperatorPath(grid=path.grid, matrices=mats, holder_rho=path.holder_rho)


def counted_gtsv(monkeypatch):
    """Route evolution's gtsv through a wrapper; returns the list of calls."""
    import avgrec.evolution

    calls = []

    def wrapper(*args):
        calls.append(1)
        return dgtsv(*args)

    monkeypatch.setattr(avgrec.evolution, "dgtsv", wrapper)
    return calls


class TestBatchedTridiagonalFactors:
    """One elimination over all nodes gives the factors of a per-node gtsv
    solve bit for bit; nodes that gtsv pivots, and singular nodes, are
    solved again by gtsv."""

    @pytest.mark.parametrize("n", [2, 3, 16])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_model_paths_equal_gtsv(self, model, n, monkeypatch):
        path = chemotaxis_reference_path(MODELS[model](n), K=24)
        assert path.tridiagonal is not None
        expected = gtsv_factors(path)
        calls = counted_gtsv(monkeypatch)
        factors = step_factors(path).factors
        assert factors.shape == (24, n, n)
        assert np.array_equal(factors, expected)
        assert not calls

    def test_scalar_path(self):
        # gtsv's arithmetic at n = 1 is R_j / (1 - c a).
        grid = TimeGrid(T=0.5, K=16)
        a = -1.0 - np.random.default_rng(6).random(17)
        path = OperatorPath(grid=grid, matrices=a[:, None, None], holder_rho=0.5)
        c = 0.5 * grid.h
        expected = (c * a[:-1] + 1.0) / (1.0 - c * a[1:])
        assert np.array_equal(step_factors(path).factors[:, 0, 0], expected)

    def test_scalar_zero_pivot_names_node(self):
        # I - c A(t_3) = 0 on a 1 x 1 path: gtsv's wrapper needs padded
        # off-diagonals there, and reports the zero pivot.
        grid = TimeGrid(T=0.5, K=4)
        a = -np.ones((5, 1, 1))
        a[3] = 1.0 / (0.5 * grid.h)
        path = OperatorPath(grid=grid, matrices=a, holder_rho=0.5)
        with pytest.raises(NumericalError, match="node 3: zero pivot in row 1 "):
            step_factors(path)

    @pytest.mark.parametrize("build", [step_factors, evolution_stepper], ids=["factors", "table"])
    @pytest.mark.parametrize("node", [1, 2, 4])
    def test_scalar_singular_node_named(self, node, build):
        # I - c A(t_node) = 0 at the first, an inner and the last node: both
        # the batched elimination and the table's dense LU name the node.
        grid = TimeGrid(T=0.5, K=4)
        a = -np.ones((5, 1, 1))
        a[node] = 1.0 / (0.5 * grid.h)
        path = OperatorPath(grid=grid, matrices=a, holder_rho=0.5)
        with pytest.raises(NumericalError, match=f"node {node}: "):
            build(path)

    def test_every_node_pivots(self, monkeypatch):
        path = tridiagonal_path()
        expected = gtsv_factors(path)
        calls = counted_gtsv(monkeypatch)
        assert np.array_equal(step_factors(path).factors, expected)
        assert len(calls) == path.grid.K

    def test_some_nodes_pivot(self, monkeypatch):
        # The sub-diagonal of tridiagonal_path() shrunk at every third node,
        # where no row interchange is needed any more.
        mats = tridiagonal_path(n=10, K=15).matrices.copy()
        idx = np.arange(10)
        mats[::3, idx[1:], idx[:-1]] *= 1e-3
        path = OperatorPath(grid=TimeGrid(T=0.8, K=15), matrices=mats, holder_rho=0.5)
        expected = gtsv_factors(path)
        calls = counted_gtsv(monkeypatch)
        assert np.array_equal(step_factors(path).factors, expected)
        assert 0 < len(calls) < path.grid.K

    def test_zero_diagonal_pivoted_without_warning(self):
        # I - c A(t_4) has a zero first pivot but is regular: gtsv swaps
        # rows 1 and 2.  The elimination divides by zero there, silently.
        path = chemotaxis_reference_path(MODELS["chemotaxis"](4), K=8)
        c = 0.5 * path.grid.h
        target = np.array(
            [[0.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.5, 0.0], [0.0, 0.5, 2.0, 0.5], [0.0, 0.0, 0.5, 2.0]]
        )
        path = with_node(path, 4, target, c)
        assert path.tridiagonal is not None
        expected = gtsv_factors(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = step_factors(path).factors
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
        assert bad.tridiagonal is not None
        with pytest.raises(NumericalError, match=f"node 5: zero pivot in row {row} "):
            step_factors(bad)

    def test_first_of_two_singular_nodes_named(self):
        path = constant_path(-np.eye(3), K=8, T=1.0)
        c = 0.5 * path.grid.h
        last = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        middle = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bad = with_node(with_node(path, 6, middle, c), 3, last, c)
        with pytest.raises(NumericalError, match="node 3: zero pivot in row 3 "):
            step_factors(bad)


def banded(path):
    """The band-built twin of a tridiagonal dense path."""
    bands = tuple(band.copy() for band in path.tridiagonal)
    return OperatorPath.from_bands(path.grid, bands, path.holder_rho)


def model_paths(model, K=12, T=0.5):
    """(dense, band-built) paths of one model along the same smooth trajectory."""
    grid = TimeGrid(T=T, K=K)
    x, t = model.base.grid.nodes, grid.nodes[:, None]
    states = 0.2 * np.cos(np.pi * x) * np.exp(-t) + 0.1 * np.sin(np.pi * x) * np.sin(t)
    dense = OperatorPath(grid=grid, matrices=model.assemble_A(states), holder_rho=0.9)
    return dense, OperatorPath.from_bands(grid, model.assemble_bands(states), 0.9)


class TestBandBuiltPath:
    """A path built from bands holds them as given, forms its dense stack
    only when read, and gives the dense-built path's factors bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 16])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_model_bands_equal_dense_path(self, model, n):
        dense, band = model_paths(MODELS[model](n))
        factors = _one_step_factors(band)
        assert "matrices" not in vars(band)
        assert np.array_equal(factors, _one_step_factors(dense))
        for got, expected in zip(band.tridiagonal, dense.tridiagonal):
            assert np.array_equal(got, expected)
        assert band.dim == dense.dim == n
        assert np.array_equal(band.matrices, dense.matrices)

    def test_bands_held_as_given(self):
        bands = MODELS["chemotaxis"](6).assemble_bands(np.zeros((13, 6)))
        path = OperatorPath.from_bands(TimeGrid(T=0.5, K=12), bands, 0.9)
        assert all(got is given for got, given in zip(path.tridiagonal, bands))
        assert path.dim == 6 and "matrices" not in vars(path)

    def test_pivoting_nodes(self, monkeypatch):
        dense = tridiagonal_path()
        band = banded(dense)
        expected = _one_step_factors(dense)
        assert np.array_equal(expected, gtsv_factors(dense))
        calls = counted_gtsv(monkeypatch)
        assert np.array_equal(_one_step_factors(band), expected)
        assert len(calls) == band.grid.K
        assert "matrices" not in vars(band)

    def test_singular_node_named(self):
        path = constant_path(-np.eye(3), K=8, T=1.0)
        target = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        band = banded(with_node(path, 5, target, 0.5 * path.grid.h))
        with pytest.raises(NumericalError, match="node 5: zero pivot in row 2 "):
            _one_step_factors(band)

    @pytest.mark.parametrize("node", [1, 4])
    def test_scalar_singular_node_named(self, node):
        grid = TimeGrid(T=0.5, K=4)
        diag = -np.ones((5, 1))
        diag[node] = 1.0 / (0.5 * grid.h)
        band = OperatorPath.from_bands(grid, (np.empty((5, 0)), diag, np.empty((5, 0))), 0.5)
        with pytest.raises(NumericalError, match=f"node {node}: zero pivot in row 1 "):
            _one_step_factors(band)

    @pytest.mark.parametrize(
        "shapes", [((13, 5), (13, 6), (13, 6)), ((12, 5), (12, 6), (12, 5)), ((13,), (13,), (13,))]
    )
    def test_band_shapes_checked(self, shapes):
        with pytest.raises(ValueError, match="diagonals of 13 square matrices"):
            OperatorPath.from_bands(TimeGrid(T=0.5, K=12), tuple(map(np.zeros, shapes)), 0.5)

    def test_holder_exponent_checked(self):
        dense = tridiagonal_path()
        with pytest.raises(ValueError, match="holder exponent"):
            OperatorPath.from_bands(dense.grid, dense.tridiagonal, 1.0)


SWEEPS = {
    PropagatorMethod.STEPPER: (step_factors, evolution_stepper),
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
        values = sweep.sweep(f_states)
        assert rel_err(values.column, table.column) <= 1e-13
        assert rel_err(values.sums, duhamel_sums(table, f_states)) <= 1e-13

    def test_terminal_forcing(self, model, method):
        assert_terminal_forcing_matches_final_row(*self._pair(model, method))


def traced_sweep_peak(build, path):
    """Peak traced allocation of the solver's call: the propagation build and
    its sweep on the right-hand side [I | h f]."""
    f_states = np.random.default_rng(1).standard_normal((path.grid.K + 1, path.dim))
    tracemalloc.start()
    try:
        build(path).sweep(f_states)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stepper_peak_estimate_matches_traced_allocation():
    for n, K in ((16, 48), (64, 32)):
        peak = traced_sweep_peak(step_factors, tridiagonal_path(n=n, K=K))
        estimate = stepper_peak_bytes(n, K)
        assert 0.95 * estimate <= peak <= 1.05 * estimate, (n, K, peak / estimate)


class TestSeriesSweepAgainstTable:
    """The kernel-series recursion reproduces the dense-table oracle."""

    @pytest.fixture(scope="class", params=["sqrt_holder", "chemotaxis"])
    def pair(self, request, series_family):
        """(sweep, oracle table) on a nonconstant path."""
        if request.param == "sqrt_holder":
            path = sqrt_holder_path(24)
            return evolution_series(path), series_table(path)
        entry = series_family[32]
        return evolution_series(entry["path"]), entry["series"]

    def test_column(self, pair):
        sweep, table = pair
        assert rel_err(sweep.column, table.column) <= 1e-13

    def test_duhamel(self, pair):
        sweep, table = pair
        grid = sweep.grid
        f_states = np.random.default_rng(5).standard_normal((grid.K + 1, sweep.dim))
        got = sweep.sweep(f_states).sums
        assert np.array_equal(got[0], np.zeros(sweep.dim))
        assert rel_err(got, duhamel_sums(table, f_states)) <= 1e-13

    def test_terminal_forcing(self, pair):
        assert_terminal_forcing_matches_final_row(*pair)

    def test_constant_path_column_bitwise(self):
        # The kernel is exactly zero on a constant path, so the recursion
        # reduces to the oracle's frozen-semigroup power chain.
        path = constant_path(stable_symmetric(6), K=16, T=1.0)
        assert np.array_equal(evolution_series(path).column, series_table(path).column)


def test_series_peak_estimate_matches_traced_allocation():
    for n, K in ((16, 48), (64, 32)):
        peak = traced_sweep_peak(evolution_series, random_path(n=n, K=K, seed=4))
        estimate = series_peak_bytes(n, K)
        assert 0.95 * estimate <= peak <= 1.05 * estimate, (n, K, peak / estimate)


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
        path = OperatorPath(
            grid=grid, matrices=np.stack([t * b for t in grid.nodes]), holder_rho=0.5
        )
        rho = 0.25
        expected = 2.0 ** (1 - rho) * 1.0 + 2.0 * 1.0  # seminorm part + max node norm
        assert holder_seminorm(path, rho) == pytest.approx(expected, rel=1e-12)

    @given(c=st.floats(0.1, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling_homogeneity(self, c):
        path = sqrt_holder_path(8)
        scaled = OperatorPath(grid=path.grid, matrices=c * path.matrices, holder_rho=0.5)
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
