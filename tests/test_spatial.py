import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from avgrec import spatial
from avgrec.errors import ConfigurationError, NumericalError
from avgrec.models import ChemotaxisModel
from avgrec.spatial import (
    BoundaryKind,
    assemble_laplacian,
    band_matvec,
    band_stack,
    build_grid,
    first_difference,
    helmholtz_solve,
    matrix_exponential,
    smallest_singular_value,
    sobolev_norm,
)

from oracles import dense_first_difference, dense_laplacian

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
            assert np.max(np.abs(band_stack(*base.bands).sum(axis=1))) < 1e-10

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
    @pytest.mark.parametrize("n", [2, 5, 24])
    def test_bands_are_the_dense_reference(self, bc, n):
        grid = build_grid(n, 1.5, bc)
        base = assemble_laplacian(grid)
        assert [band.shape for band in base.bands] == [(n - 1,), (n,), (n - 1,)]
        reference = dense_laplacian(grid)
        assert np.array_equal(band_stack(*base.bands), reference)
        # The eigendecomposition's input is the same matrix.
        eigvals, eigvecs = np.linalg.eigh(reference)
        order = np.argsort(eigvals)[::-1]
        assert np.array_equal(base.eigenvalues, eigvals[order])
        assert np.array_equal(base.eigenvectors, eigvecs[:, order])

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_symmetry(self, bc):
        lap = band_stack(*assemble_laplacian(build_grid(24, 1.5, bc)).bands)
        assert np.max(np.abs(lap - lap.T)) <= 1e-12 * np.max(np.abs(lap))

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_eigen_reconstruction(self, bc):
        base = assemble_laplacian(build_grid(24, 1.0, bc))
        lap = band_stack(*base.bands)
        rebuilt = base.eigenvectors @ np.diag(base.eigenvalues) @ base.eigenvectors.T
        assert np.max(np.abs(rebuilt - lap)) <= 1e-9 * np.max(np.abs(lap))

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
        np.testing.assert_allclose(band_matvec(d, np.ones(12)), 0.0, atol=1e-13)

    def test_linear_field_interior(self):
        grid = build_grid(20, 1.0, BoundaryKind.DIRICHLET)
        d = first_difference(grid)
        deriv = band_matvec(d, grid.nodes)
        np.testing.assert_allclose(deriv[1:-1], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_bands_are_the_dense_reference(self, bc, n):
        grid = build_grid(n, 1.0, bc)
        bands = first_difference(grid)
        assert [band.shape for band in bands] == [(n - 1,), (n,), (n - 1,)]
        assert np.array_equal(band_stack(*bands), dense_first_difference(grid))


class TestBandMatvec:
    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_equals_the_dense_product(self, bc, n):
        # At unit spacing the Laplacian and first difference have entries in
        # {0, +-1/2, +-1, -2}; with integer bands and states every product and
        # sum is exact, so the dense product has one value whatever its
        # summation order, and the band product must hit it bit for bit, per
        # slice of a stack too.
        grid = build_grid(n, float(n if bc is BoundaryKind.NEUMANN else n + 1), bc)
        assert grid.spacing == 1.0
        rng = np.random.default_rng(n)
        integers = tuple(rng.integers(-9, 10, m).astype(float) for m in (n - 1, n, n - 1))
        x = rng.integers(-9, 10, (2, 3, n)).astype(float)
        for bands in (assemble_laplacian(grid).bands, first_difference(grid), integers):
            dense = band_stack(*bands)
            stacked = band_matvec(bands, x)
            assert stacked.shape == (2, 3, n)
            for index in np.ndindex(2, 3):
                assert np.array_equal(stacked[index], dense @ x[index])
                assert np.array_equal(band_matvec(bands, x[index]), stacked[index])

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_first_difference_of_real_fields(self, bc, n):
        # A row of the first difference has at most two nonzero entries, so
        # its product is the correctly rounded sum of two products: the row
        # sums of D * x bit for bit, and the BLAS product within roundoff
        # (it may fuse a multiply with the add).
        grid = build_grid(n, 1.0, bc)
        bands = first_difference(grid)
        dense = dense_first_difference(grid)
        x = RNG.standard_normal((4, n))
        stacked = band_matvec(bands, x)
        for row, field in zip(stacked, x):
            assert np.array_equal(row, (dense * field).sum(axis=1))
            assert np.array_equal(band_matvec(bands, field), row)
            scale = np.abs(row).max()
            np.testing.assert_allclose(row, dense @ field, rtol=1e-15, atol=1e-15 * scale)


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
        op = np.eye(30) - band_stack(*base.bands)
        rhs = RNG.standard_normal(30)
        v = helmholtz_solve(base, rhs)
        res = np.linalg.norm(op @ v - rhs) / np.linalg.norm(rhs)
        assert res <= 1e-10

    def test_inverse_identity_on_many_fields(self):
        base = assemble_laplacian(build_grid(16, 1.0, BoundaryKind.NEUMANN))
        op = np.eye(16) - band_stack(*base.bands)
        for _ in range(100):
            x = RNG.standard_normal(16)
            back = helmholtz_solve(base, op @ x)
            assert np.linalg.norm(back - x) <= 1e-9 * np.linalg.norm(x)


class TestSobolevNorm:
    def setup_method(self):
        self.base = assemble_laplacian(build_grid(16, 1.0, BoundaryKind.NEUMANN))

    def test_s_zero_is_l2(self):
        for _ in range(20):
            x = RNG.standard_normal(16)
            l2 = np.sqrt(np.sum(x**2) * self.base.grid.spacing)
            assert sobolev_norm(self.base, x, 0.0) == pytest.approx(l2, rel=1e-12)

    def test_single_mode(self):
        k = 5
        q = self.base.eigenvectors[:, k]
        expected = (1.0 - self.base.eigenvalues[k]) * np.sqrt(self.base.grid.spacing)
        assert sobolev_norm(self.base, q, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_order(self):
        # Every factor 1 - lambda is at least 1.
        orders = np.linspace(-2.0, 4.0, 13)
        for _ in range(10):
            x = RNG.standard_normal(16)
            norms = [sobolev_norm(self.base, x, s) for s in orders]
            assert np.all(np.diff(norms) >= -1e-12)

    def test_order_range_enforced(self):
        with pytest.raises(ValueError):
            sobolev_norm(self.base, np.zeros(16), 5.0)

    def test_field_length_enforced(self):
        for field in (np.zeros(15), np.zeros((3, 17)), np.float64(0.0)):
            with pytest.raises(ValueError, match="length 16"):
                sobolev_norm(self.base, field, 1.0)

    @given(c=st.floats(-100, 100))
    @settings(max_examples=25)
    def test_homogeneity(self, c):
        x = np.linspace(-1, 1, 16)
        got = sobolev_norm(self.base, c * x, 1.0)
        assert got == pytest.approx(abs(c) * sobolev_norm(self.base, x, 1.0), rel=1e-10, abs=1e-12)


class TestMatrixExponential:
    def test_zero_time_exact_identity(self):
        m = RNG.standard_normal((5, 5))
        assert np.array_equal(matrix_exponential(m, 0.0), np.eye(5))
        # An all-zero slice at t > 0, sharing its chunk with a nonzero slice.
        stack = np.stack([m, 0.0 * m, *(c * m for c in (2.0, 3.0, 0.5, 1.5, 4.0, 0.25))])
        assert np.array_equal(matrix_exponential(stack, 0.7)[1], np.eye(5))

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


def dense_laplacian_of(n, bc):
    return band_stack(*assemble_laplacian(build_grid(n, 1.0, bc)).bands)


def chemotaxis_generator(delta, amplitude):
    """The chemotaxis A(u) on 32 Neumann cells: its drift -delta (1 - delta)
    e^(-delta v) v' makes it nonnormal, the more so at large delta."""
    model = ChemotaxisModel.default(build_grid(32, 1.0, BoundaryKind.NEUMANN), delta=delta)
    x = model.base.grid.nodes
    bands, _ = model.linearise(amplitude * (np.cos(np.pi * x) + 0.5 * np.cos(3 * np.pi * x)))
    return band_stack(*bands)


# Time factors whose products with the Laplacians below run from 1-norms far
# under theta_13 to scalings s of 10 and more.
LADDER = np.array([1e-7, 1e-5, 1e-4, 4e-4, 1.2e-3, 1e-2, 0.1, 1.0, 10.0])

EXPM_CASES = {
    "dirichlet": LADDER[:, None, None] * dense_laplacian_of(16, BoundaryKind.DIRICHLET),
    "neumann": LADDER[:, None, None] * dense_laplacian_of(64, BoundaryKind.NEUMANN) / 16,
    # exp(tA) tends to the projection on constants; s reaches 21.
    "neumann_long": np.array([30.0, 300.0])[:, None, None]
    * dense_laplacian_of(64, BoundaryKind.NEUMANN),
    "chemotaxis_nonnormal": np.stack(
        [
            t * chemotaxis_generator(delta, amplitude)
            for t in (1e-7, 1e-5, 1e-3, 3e-3)
            for delta, amplitude in ((8.0, 3.0), (20.0, 2.0))
        ]
    ),
    # Stiff dissipative part plus a shift: t*mu_1 = 699.5, just under the cap.
    "stiff_under_cap": np.stack(
        [c * dense_laplacian_of(16, BoundaryKind.NEUMANN) + 699.5 * np.eye(16) for c in (1e2, 1e4)]
    ),
}


class TestMatrixExponentialAgainstScipy:
    """The kernel against SciPy's expm, slice by slice.

    Tolerance: relative Frobenius distance 16 u max(1, ||tA||_1), u = 2^-53.
    The relative condition number of exp at a normal A is ||A||_2 <= ||A||_1
    (Van Loan 1977), and both codes are backward stable, so each result may
    sit about ||A|| u from exp(A); on these stacks the distance measured at
    most 2.96 u max(1, ||tA||_1), nonnormal slices included.
    """

    @pytest.mark.parametrize("name", list(EXPM_CASES))
    def test_stack_matches_scipy(self, name):
        got = matrix_exponential(EXPM_CASES[name], 1.0)
        for a, slice_got in zip(EXPM_CASES[name], got):
            exact = expm(a)
            peak = np.abs(exact).max()  # entries reach e^699.5: norm the scaled copies
            distance = np.linalg.norm((slice_got - exact) / peak) / np.linalg.norm(exact / peak)
            assert distance <= 16 * 2.0**-53 * max(1.0, np.abs(a).sum(axis=0).max())

    def test_deep_scaling_reached(self):
        norms = np.abs(EXPM_CASES["neumann_long"]).sum(axis=-2).max(axis=-1)
        assert spatial._scaling(norms).max() >= 20

    @pytest.mark.parametrize(
        "m, s",
        [
            # A^2 = 0 and ||A||_1 = 2a: the 1-norm alone sets the scaling,
            # though exp(A) = I + A needs none.
            *((a * np.array([[1.0, 1.0], [-1.0, -1.0]]), s)
              for a, s in ((1.0, 0), (5.0, 1), (50.0, 5))),
            # A frozen step of the n=16, K=96 diffusion over horizon 0.5:
            # ||hA||_1 = 5.33 <= theta_13, so it needs no scaling.
            (0.5 / 96 * dense_laplacian_of(16, BoundaryKind.NEUMANN), 0),
        ],
        ids=["nilpotent-1", "nilpotent-5", "nilpotent-50", "diffusion-step"],
    )
    def test_one_norm_decides_scaling(self, m, s):
        norm_1 = np.abs(m).sum(axis=0).max()
        assert spatial._scaling(np.array([norm_1])).tolist() == [s]
        got = matrix_exponential(m, 1.0)
        nilpotent = not np.matmul(m, m).any()
        exact = np.eye(len(m)) + m if nilpotent else expm(m)
        np.testing.assert_allclose(got, exact, rtol=0, atol=8 * 2.0**-53 * norm_1)

    @pytest.mark.parametrize(
        "s", [0, 1, 2, 3, 4],
        ids=["theta13", "theta13x2", "theta13x4", "theta13x8", "theta13x16"],
    )
    def test_theta_bounds_are_inclusive(self, s):
        # ||A||_1 = 2^s theta_13 takes s scalings; the next float above it
        # takes one more.
        theta = np.ldexp(spatial._THETA_13, s)
        norms = np.array([theta, np.nextafter(theta, np.inf)])
        assert spatial._scaling(norms).tolist() == [s, s + 1]
        for norm in norms:
            d = np.array([norm, -0.5 * norm])
            got = matrix_exponential(np.diag(d), 1.0)
            rtol = 16 * 2.0**-53 * norm
            np.testing.assert_allclose(got, np.diag(np.exp(d)), rtol=rtol, atol=0)


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
