import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgrec.errors import ConfigurationError, NumericalError
from avgrec.spatial import (
    BoundaryKind,
    SobolevScale,
    assemble_laplacian,
    band_stack,
    build_grid,
    first_difference,
    helmholtz_solve,
    matrix_exponential,
    smallest_singular_value,
    sobolev_norm,
)

RNG = np.random.default_rng(0)


class TestBuildGrid:
    def test_neumann_spacing(self):
        grid = build_grid(4, 1.0, BoundaryKind.NEUMANN)
        assert grid.spacing == pytest.approx(0.25, abs=0)
        assert grid.spacing * grid.n == pytest.approx(grid.length, rel=1e-15)

    def test_dirichlet_spacing(self):
        grid = build_grid(2, 2.0, BoundaryKind.DIRICHLET)
        assert grid.spacing == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert grid.spacing * (grid.n + 1) == pytest.approx(grid.length, rel=1e-15)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(1, 1.0, BoundaryKind.NEUMANN)

    def test_bad_length_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(8, 0.0, BoundaryKind.DIRICHLET)

    @given(n=st.integers(min_value=2, max_value=64), length=st.floats(0.1, 50.0))
    def test_spacing_reproduces_length(self, n, length):
        for bc in BoundaryKind:
            grid = build_grid(n, length, bc)
            count = n + 1 if bc is BoundaryKind.DIRICHLET else n
            assert grid.spacing * count == pytest.approx(length, rel=1e-12)


class TestLaplacian:
    def test_neumann_rows_sum_to_zero(self):
        for n in (2, 5, 17):
            base = assemble_laplacian(build_grid(n, 1.0, BoundaryKind.NEUMANN))
            assert np.max(np.abs(base.matrix.sum(axis=1))) < 1e-10

    def test_dirichlet_eigenvalues_closed_form(self):
        # Tridiagonal (1,-2,1)/h^2 on 3 interior nodes, h = 1/4.
        base = assemble_laplacian(build_grid(3, 1.0, BoundaryKind.DIRICHLET))
        h = 0.25
        expected = np.sort(-(2.0 / h**2) * (1.0 - np.cos(np.arange(1, 4) * np.pi / 4)))[::-1]
        np.testing.assert_allclose(base.eigenvalues, expected, atol=1e-10)

    def test_neumann_constant_mode(self):
        base = assemble_laplacian(build_grid(32, 1.0, BoundaryKind.NEUMANN))
        assert base.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
        assert base.eigenvalues[1] < -1e-3

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_symmetry(self, bc):
        base = assemble_laplacian(build_grid(24, 1.5, bc))
        defect = np.max(np.abs(base.matrix - base.matrix.T))
        assert defect <= 1e-12 * np.max(np.abs(base.matrix))

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_eigen_reconstruction(self, bc):
        base = assemble_laplacian(build_grid(24, 1.0, bc))
        rebuilt = base.eigenvectors @ np.diag(base.eigenvalues) @ base.eigenvectors.T
        assert np.max(np.abs(rebuilt - base.matrix)) <= 1e-9 * np.max(np.abs(base.matrix))

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_eigenvectors_orthogonal(self, bc):
        base = assemble_laplacian(build_grid(16, 1.0, bc))
        q = base.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(base.grid.n))) <= 1e-10

    def test_eigenvalues_nonpositive(self):
        for bc in BoundaryKind:
            base = assemble_laplacian(build_grid(16, 1.0, bc))
            assert np.all(base.eigenvalues <= 1e-10)


class TestFirstDifference:
    def test_constant_has_zero_derivative_neumann(self):
        grid = build_grid(12, 1.0, BoundaryKind.NEUMANN)
        d = first_difference(grid)
        np.testing.assert_allclose(d @ np.ones(12), 0.0, atol=1e-13)

    def test_linear_field_interior(self):
        grid = build_grid(20, 1.0, BoundaryKind.DIRICHLET)
        d = first_difference(grid)
        deriv = d @ grid.nodes
        np.testing.assert_allclose(deriv[1:-1], 1.0, rtol=1e-12)


class TestBandStack:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_diagonals_placed_on_a_zeroed_stack(self, n):
        sub, main, sup = (RNG.standard_normal((3, m)) for m in (n - 1, n, n - 1))
        out = band_stack(sub, main, sup)
        assert out.shape == (3, n, n)
        for j in range(3):
            expected = np.diag(main[j]) + np.diag(sub[j], -1) + np.diag(sup[j], 1)
            assert np.array_equal(out[j], expected)
            assert np.array_equal(band_stack(sub[j], main[j], sup[j]), expected)


class TestHelmholtz:
    def test_neumann_constant(self):
        base = assemble_laplacian(build_grid(8, 1.0, BoundaryKind.NEUMANN))
        v = helmholtz_solve(base, np.full(8, 3.5))
        np.testing.assert_allclose(v, 3.5, rtol=1e-12)

    def test_eigenvector_identity(self):
        base = assemble_laplacian(build_grid(10, 1.0, BoundaryKind.DIRICHLET))
        k = 3
        q = base.eigenvectors[:, k]
        v = helmholtz_solve(base, q)
        np.testing.assert_allclose(v, q / (1.0 - base.eigenvalues[k]), rtol=1e-12)

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_random_residual(self, bc):
        base = assemble_laplacian(build_grid(30, 1.0, bc))
        op = np.eye(30) - base.matrix
        rhs = RNG.standard_normal(30)
        v = helmholtz_solve(base, rhs)
        res = np.linalg.norm(op @ v - rhs) / np.linalg.norm(rhs)
        assert res <= 1e-10

    def test_inverse_identity_on_many_fields(self):
        base = assemble_laplacian(build_grid(16, 1.0, BoundaryKind.NEUMANN))
        op = np.eye(16) - base.matrix
        for _ in range(100):
            x = RNG.standard_normal(16)
            back = helmholtz_solve(base, op @ x)
            assert np.linalg.norm(back - x) <= 1e-9 * np.linalg.norm(x)


class TestSobolevNorm:
    def setup_method(self):
        self.base = assemble_laplacian(build_grid(16, 1.0, BoundaryKind.NEUMANN))
        self.scale = SobolevScale(base=self.base)

    def test_s_zero_is_l2(self):
        for _ in range(20):
            x = RNG.standard_normal(16)
            l2 = np.sqrt(np.sum(x**2) * self.base.grid.spacing)
            assert sobolev_norm(self.scale, x, 0.0) == pytest.approx(l2, rel=1e-12)

    def test_single_mode(self):
        k = 5
        q = self.base.eigenvectors[:, k]
        expected = (self.scale.shift - self.base.eigenvalues[k]) * np.sqrt(self.base.grid.spacing)
        assert sobolev_norm(self.scale, q, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_order(self):
        # shift = 1 makes every factor (shift - lambda) >= 1.
        orders = np.linspace(-2.0, 4.0, 13)
        for _ in range(10):
            x = RNG.standard_normal(16)
            norms = [sobolev_norm(self.scale, x, s) for s in orders]
            assert np.all(np.diff(norms) >= -1e-12)

    def test_order_range_enforced(self):
        with pytest.raises(ValueError):
            sobolev_norm(self.scale, np.zeros(16), 5.0)

    def test_shift_must_dominate(self):
        with pytest.raises(ConfigurationError):
            SobolevScale(base=self.base, shift=-1.0)

    @given(c=st.floats(-100, 100))
    @settings(max_examples=25)
    def test_homogeneity(self, c):
        x = np.linspace(-1, 1, 16)
        got = sobolev_norm(self.scale, c * x, 1.0)
        assert got == pytest.approx(abs(c) * sobolev_norm(self.scale, x, 1.0), rel=1e-10, abs=1e-12)


class TestMatrixExponential:
    def test_zero_time_exact_identity(self):
        m = RNG.standard_normal((5, 5))
        assert np.array_equal(matrix_exponential(m, 0.0), np.eye(5))

    def test_diagonal(self):
        d = np.array([-1.0, 0.3, 2.0])
        got = matrix_exponential(np.diag(d), 0.7)
        np.testing.assert_allclose(got, np.diag(np.exp(0.7 * d)), rtol=1e-12)

    def test_symmetric_matches_eigen_oracle(self):
        a = RNG.standard_normal((8, 8))
        m = 0.5 * (a + a.T)
        evals, evecs = np.linalg.eigh(m)
        oracle = evecs @ np.diag(np.exp(0.9 * evals)) @ evecs.T
        got = matrix_exponential(m, 0.9)
        assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_semigroup_property(self):
        a = RNG.standard_normal((6, 6))
        m = 0.5 * (a + a.T)
        for _ in range(5):
            t, s = RNG.uniform(0, 1, size=2)
            whole = matrix_exponential(m, t + s)
            split = matrix_exponential(m, t) @ matrix_exponential(m, s)
            assert np.linalg.norm(whole - split) <= 1e-8 * np.linalg.norm(whole)

    def test_overflow_cap(self):
        with pytest.raises(NumericalError):
            matrix_exponential(np.diag([800.0, 800.0]), 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.eye(2), -0.1)


class TestSmallestSingularValue:
    def test_identity(self):
        assert smallest_singular_value(np.eye(4)) == pytest.approx(1.0, rel=1e-14)

    def test_diagonal(self):
        assert smallest_singular_value(np.diag([3.0, 0.5])) == pytest.approx(0.5, rel=1e-14)

    def test_sphere_sampling_lower_bound(self):
        m = RNG.standard_normal((6, 6))
        sigma = smallest_singular_value(m)
        for _ in range(200):
            x = RNG.standard_normal(6)
            x /= np.linalg.norm(x)
            assert np.linalg.norm(m @ x) >= sigma - 1e-8
