from dataclasses import replace

import numpy as np
import pytest

from avgrec.errors import BallViolationError, ConfigurationError
from avgrec.models import (
    ChemotaxisModel,
    ExponentBook,
    LinearTestModel,
    NonlocalRDModel,
    QuasilinearModel,
    check_ball,
    chemotaxis_exponents,
    generic_exponents,
    rd_exponents,
    validate_exponents,
)
from avgrec.spatial import BoundaryKind, band_stack, build_grid, sobolev_norm

from oracles import (
    RDTermsModel,
    ShiftedModel,
    dense_first_difference,
    dense_generator,
    dense_laplacian,
    equilibrium_shift,
    face_coords,
    growth_estimate_probe,
)

RNG = np.random.default_rng(41)


@pytest.fixture(scope="module")
def chemo():
    return ChemotaxisModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN), delta=1.0)


@pytest.fixture(scope="module")
def chemo_half():
    # delta != 1 keeps the first-order drift term alive
    return ChemotaxisModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN), delta=0.5)


@pytest.fixture(scope="module")
def rd():
    return NonlocalRDModel.default(build_grid(16, 1.0, BoundaryKind.NEUMANN))


def all_hold(book: ExponentBook) -> bool:
    return all(ok for _, ok in book.checks())


class TestExponentBook:
    def test_chemotaxis_books_valid_across_range(self):
        for s in (2.05, 2.25, 2.45):
            assert all_hold(chemotaxis_exponents(s)), s

    def test_rd_book_valid(self):
        assert all_hold(rd_exponents(p=4.0, ell=2.0, delta=1))
        assert all_hold(rd_exponents(p=4.0, ell=1.0, delta=0))

    def test_generic_book_valid(self):
        assert all_hold(generic_exponents())

    def test_violations_reported_by_name(self):
        book = ExponentBook(
            beta=0.5, alpha=0.2, alpha0=0.3, gamma=0.5, xi=0.4, mu=0.3, rho=0.1, ell=1.0
        )
        failed = [name for name, ok in book.checks() if not ok]
        assert "0 <= beta < alpha < alpha0 <= 1" in failed


class TestChemotaxisModel:
    def test_signal_zero(self, chemo):
        assert np.allclose(chemo.signal(np.zeros(16)), 0.0)

    def test_signal_constant(self, chemo):
        np.testing.assert_allclose(chemo.signal(np.full(16, 2.0)), 2.0, rtol=1e-12)

    def test_signal_eigenmode(self, chemo):
        k = 4
        q = chemo.base.eigenvectors[:, k]
        expected = q / (1.0 - chemo.base.eigenvalues[k])
        np.testing.assert_allclose(chemo.signal(q), expected, rtol=1e-12)

    def test_linearization_at_zero_is_scaled_laplacian(self, chemo):
        a0 = dense_generator(chemo, np.zeros(16))
        expected = band_stack(*chemo.base.bands)  # a(0) = exp(0) = 1
        assert np.abs(a0 - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_constant_state_closed_form(self, chemo_half):
        c = 0.3
        u = np.full(16, c)
        got = dense_generator(chemo_half, u)
        # v = c, dv = 0: A(u) w = a(c) Lap w - chi(c) c w
        a_c = np.exp(-0.5 * c)
        chi_c = 0.5 * np.exp(-0.5 * c)
        expected = a_c * band_stack(*chemo_half.base.bands) - chi_c * c * np.eye(16)
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_sampled_lipschitz_constant_stable(self, chemo):
        def empirical_constant(count):
            rng = np.random.default_rng(3)
            worst = 0.0
            for _ in range(count):
                u, w = 0.4 * rng.standard_normal((2, 16))
                num = np.linalg.norm(
                    dense_generator(chemo, u) - dense_generator(chemo, w), 2
                )
                den = sobolev_norm(chemo.base, u - w, 0.0)
                worst = max(worst, num / den)
            return worst

        c50, c100 = empirical_constant(50), empirical_constant(100)
        assert np.isfinite(c100)
        assert c100 <= 2.0 * c50

    def test_forcing_zero_at_zero(self, chemo):
        assert np.array_equal(chemo.linearise(np.zeros(16))[1], np.zeros(16))

    def test_forcing_constant_closed_form(self, chemo):
        c = 0.2
        got = chemo.linearise(np.full(16, c))[1]
        expected = -np.exp(-c) * c**2  # chi(c) c^2 with delta = 1
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_superlinear_decay_near_zero(self, chemo):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = rng.standard_normal(16)
            u /= np.linalg.norm(u)
            ratios = [
                np.linalg.norm(chemo.linearise(eps * u)[1]) / (eps * np.linalg.norm(u))
                for eps in (1e-1, 1e-2, 1e-3)
            ]
            assert ratios[0] > ratios[1] > ratios[2]

    def test_ball_violation_diagnosed(self, chemo):
        with pytest.raises(BallViolationError) as err:
            check_ball(chemo, np.full(16, 10.0), enforce=True)
        assert err.value.norm > err.value.radius

    def test_dirichlet_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            ChemotaxisModel.default(build_grid(8, 1.0, BoundaryKind.DIRICHLET))

    def test_band_assembly_equals_dense_formula(self, chemo):
        # a(v) L + ((a - chi)'(v) D v) D - chi(v) v I, formed on the dense
        # reference matrices; the band-only assembly must reproduce it bit for
        # bit.  Each row of D has at most two nonzero entries, so the row sums
        # of D * v are the correctly rounded sums of two products, in any
        # order and without fused multiply-adds.
        grid = chemo.base.grid
        lap, diff = dense_laplacian(grid), dense_first_difference(grid)

        delta = chemo.delta

        def dense(u):
            v = chemo.signal(u)
            a = np.exp(-delta * v)
            out = a[:, None] * lap
            out += (-delta * (1.0 - delta) * a * (diff * v).sum(axis=1))[:, None] * diff
            out -= np.diag(delta * a * v)
            return out

        states = 0.3 * np.random.default_rng(9).standard_normal((2, 3, 16))
        stacked = dense_generator(chemo, states)
        for index in np.ndindex(2, 3):
            expected = dense(states[index])
            assert np.array_equal(stacked[index], expected)
            assert np.array_equal(dense_generator(chemo, states[index]), expected)



class TestNonlocalRDModel:
    def test_unit_coefficient_reduces_to_laplacian(self):
        grid = build_grid(12, 1.0, BoundaryKind.NEUMANN)
        model = NonlocalRDModel.default(grid)
        # l(0) = 0 so a = 1 + 0^2 = 1
        got = dense_generator(model, np.zeros(12))
        np.testing.assert_allclose(got, band_stack(*model.base.bands), atol=1e-13)

    def test_unit_functional_doubles_laplacian(self, rd):
        # int u = 1 makes the coefficient 1 + 1^2 = 2
        grid = rd.base.grid
        u = np.full(grid.n, 1.0 / grid.length)
        got = dense_generator(rd, u)
        np.testing.assert_allclose(got, 2.0 * band_stack(*rd.base.bands), rtol=1e-12)

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_symmetry_without_drift_or_reaction(self, bc):
        model = NonlocalRDModel.default(build_grid(10, 1.0, bc))
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = 0.5 * rng.standard_normal(10)
            mat = dense_generator(model, u)
            assert np.abs(mat - mat.T).max() <= 1e-12 * np.abs(mat).max()

    def test_neumann_row_sums_vanish(self, rd):
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = 0.5 * rng.standard_normal(16)
            mat = dense_generator(rd, u)
            assert np.abs(mat.sum(axis=1)).max() <= 1e-9

    def test_bad_polynomial_rejected(self):
        grid = build_grid(8, 1.0, BoundaryKind.NEUMANN)
        with pytest.raises(ConfigurationError):
            NonlocalRDModel.default(grid, poly_coeffs=(0.0, 1.0, 0.0, -1.0))

    def test_forcing_pointwise_cubic(self, rd):
        assert np.array_equal(rd.linearise(np.zeros(16))[1], np.zeros(16))
        np.testing.assert_allclose(rd.linearise(np.full(16, 2.0))[1], -8.0, rtol=1e-14)

    def test_forcing_derivative_growth_bound(self, rd):
        # |f'(r) - f'(s)| <= c (|r| + |s|) |r - s| with f = -r^3, c = 3
        rng = np.random.default_rng(19)
        r, s = rng.uniform(-2, 2, size=(2, 200))
        lhs = np.abs(3 * r**2 - 3 * s**2)
        rhs = (np.abs(r) + np.abs(s)) * np.abs(r - s)
        mask = rhs > 0
        assert np.max(lhs[mask] / rhs[mask]) <= 3.0 + 1e-12

    def test_growth_probe_stable_in_norms(self, rd):
        # sampled version of the gamma/xi-norm growth estimate
        c200 = growth_estimate_probe(rd, 200, radius=0.5, seed=1)
        c400 = growth_estimate_probe(rd, 400, radius=0.5, seed=1)
        assert np.isfinite(c400) and c400 > 0
        assert c400 <= 2.0 * c200

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_band_assembly_equals_dense_formula(self, bc):
        # Face-flux Laplacian / h^2 + drift_i D_ij + diag(react), formed on
        # dense matrices; the band-only assembly must reproduce it bit for bit.
        model = replace(
            RDTermsModel.default(build_grid(12, 1.0, bc)),
            drift_fn=lambda x, s: 0.3 * s * np.cos(np.pi * x),
            react_fn=lambda x, s: -0.5 * s**2 + 0.2 * x,
        )
        grid = model.base.grid

        def dense(u):
            s_val = model.functional_value(u)
            faces = model.diff_fn(face_coords(grid), s_val)
            if bc is BoundaryKind.NEUMANN:
                left, right = np.append(0.0, faces), np.append(faces, 0.0)
            else:
                left, right = faces[:-1], faces[1:]
            out = np.diag(-(left + right)) + np.diag(right[:-1], 1) + np.diag(left[1:], -1)
            out /= grid.spacing * grid.spacing
            out += model.drift_fn(grid.nodes, s_val)[:, None] * dense_first_difference(grid)
            out += np.diag(model.react_fn(grid.nodes, s_val))
            return out

        states = 0.3 * np.random.default_rng(10).standard_normal((2, 3, 12))
        stacked = dense_generator(model, states)
        for index in np.ndindex(2, 3):
            expected = dense(states[index])
            assert np.array_equal(stacked[index], expected)
            assert np.array_equal(dense_generator(model, states[index]), expected)

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_shipped_generator_equals_face_flux_formula(self, bc):
        # a = 1 + l(u)^2 on every flux face, l(u) = h sum u, formed on dense
        # matrices; the shipped bands must reproduce it bit for bit.
        model = NonlocalRDModel.default(build_grid(12, 1.0, bc))
        grid = model.base.grid
        h = grid.spacing

        def dense(u):
            a = 1.0 + (h * (np.ones(grid.n) @ u)) ** 2
            if bc is BoundaryKind.NEUMANN:
                faces = np.full(grid.n - 1, a)
                left, right = np.append(0.0, faces), np.append(faces, 0.0)
            else:
                faces = np.full(grid.n + 1, a)
                left, right = faces[:-1], faces[1:]
            out = np.diag(-(left + right)) + np.diag(right[:-1], 1) + np.diag(left[1:], -1)
            return out / (h * h)

        # l(u) near 4: l^2 keeps the last bits of l, which 1 + l^2 at a
        # small l would round away.
        states = 4.0 + np.random.default_rng(11).standard_normal((2, 3, 12))
        stacked = dense_generator(model, states)
        for index in np.ndindex(2, 3):
            expected = dense(states[index])
            assert np.array_equal(stacked[index], expected)
            assert np.array_equal(dense_generator(model, states[index]), expected)

    def test_nonlinear_functional_override(self):
        grid = build_grid(8, 1.0, BoundaryKind.NEUMANN)
        template = NonlocalRDModel.default(grid)
        model = RDTermsModel(
            base=template.base,
            exponents=template.exponents,
            poly_coeffs=template.poly_coeffs,
            functional_fn=lambda u: float(np.tanh(grid.spacing * u.sum())),
            ball_radius=template.ball_radius,
        )
        u = np.full(8, 3.0)
        expected = 1.0 + np.tanh(3.0) ** 2
        got = dense_generator(model, u)
        np.testing.assert_allclose(got, expected * band_stack(*model.base.bands), rtol=1e-12)


class TestValidateExponents:
    def test_chemotaxis_admissible_order(self, chemo):
        report = validate_exponents(chemo)
        assert report.all_passed
        book = chemo.exponents
        # mu range for s = 2.25 per the admissibility window
        assert max(book.xi - book.alpha, 0.0) == pytest.approx(0.4375)
        assert book.alpha == pytest.approx(0.125)
        assert book.xi == pytest.approx(0.5625)
        assert 0.4375 < book.mu < 0.5

    def test_chemotaxis_out_of_range_order_fails(self):
        model = ChemotaxisModel.default(build_grid(8, 1.0, BoundaryKind.NEUMANN))
        bad = ChemotaxisModel(
            base=model.base,
            exponents=model.exponents,
            delta=model.delta,
            s=3.0,
        )
        report = validate_exponents(bad)
        assert not report.all_passed
        assert any("2 < s < 5/2" in name for name in report.failures())

    def test_rd_lebesgue_exponent_check(self):
        grid = build_grid(8, 1.0, BoundaryKind.NEUMANN)
        model = NonlocalRDModel.default(grid, poly_coeffs=(0.0, 0.0, -1.0), p=4.0)
        assert model.ell == 1.0
        report = validate_exponents(model)
        assert report.all_passed
        entries = {name: ok for name, ok, _ in report.entries}
        assert entries["(ell + 1) n < p"]

    def test_rd_small_p_fails(self):
        grid = build_grid(8, 1.0, BoundaryKind.NEUMANN)
        model = NonlocalRDModel.default(grid, p=2.5)  # ell = 2 needs p > 3
        report = validate_exponents(model)
        assert "(ell + 1) n < p" in report.failures()


class TestGrowthEstimateProbe:
    def test_zero_forcing_model(self):
        model = LinearTestModel.default(build_grid(8, 1.0, BoundaryKind.NEUMANN))
        assert growth_estimate_probe(model, 50, radius=0.5) == 0.0

    def test_chemotaxis_stable_under_resampling(self, chemo):
        c200 = growth_estimate_probe(chemo, 200, radius=0.1, seed=0)
        c400 = growth_estimate_probe(chemo, 400, radius=0.1, seed=0)
        assert np.isfinite(c200) and c200 > 0
        assert abs(c400 - c200) <= 0.5 * max(c200, c400)

    def test_local_boundedness_in_radius(self, chemo):
        c_full = growth_estimate_probe(chemo, 200, radius=0.1, seed=0)
        c_half = growth_estimate_probe(chemo, 200, radius=0.05, seed=0)
        assert c_half <= 2.0 * c_full

    def test_radius_beyond_ball_rejected(self, chemo):
        with pytest.raises(ValueError):
            growth_estimate_probe(chemo, 10, radius=chemo.ball_radius * 2)


class TestEquilibriumShift:
    def test_zero_equilibrium_preserves_model(self, chemo):
        shifted = equilibrium_shift(chemo, np.zeros(16))
        u = 0.2 * RNG.standard_normal(16)
        np.testing.assert_array_equal(dense_generator(shifted, u), dense_generator(chemo, u))
        np.testing.assert_array_equal(shifted.linearise(u)[1], chemo.linearise(u)[1])
        assert np.array_equal(shifted.linearise(np.zeros(16))[1], np.zeros(16))

    def test_nonequilibrium_rejected(self, rd):
        v_star = np.full(16, 0.5)  # f(v*) = -0.125 != 0 while A(v*) v* = 0
        with pytest.raises(ValueError):
            equilibrium_shift(rd, v_star)

    def test_shifted_forcing_vanishes_at_origin(self, chemo):
        shifted = equilibrium_shift(chemo, np.zeros(16))
        assert isinstance(shifted, ShiftedModel)
        assert np.linalg.norm(shifted.linearise(np.zeros(16))[1]) == 0.0


class TestLinearTestModel:
    def test_constant_generator_and_zero_forcing(self):
        model = LinearTestModel.default(build_grid(8, 1.0, BoundaryKind.NEUMANN), coefficient=0.7)
        u = RNG.standard_normal(8)
        lap = band_stack(*model.base.bands)
        np.testing.assert_array_equal(dense_generator(model, u), 0.7 * lap)
        assert np.array_equal(model.linearise(u)[1], np.zeros(8))
        assert validate_exponents(model).all_passed


BAND_MODELS = {
    "chemotaxis": lambda: ChemotaxisModel.default(
        build_grid(12, 1.0, BoundaryKind.NEUMANN), delta=0.5
    ),
    "rd_neumann": lambda: NonlocalRDModel.default(build_grid(12, 1.0, BoundaryKind.NEUMANN)),
    "rd_dirichlet_drift_react": lambda: replace(
        RDTermsModel.default(build_grid(12, 1.0, BoundaryKind.DIRICHLET)),
        drift_fn=lambda x, s: 0.3 * s * np.cos(np.pi * x),
        react_fn=lambda x, s: -0.5 * s**2 + 0.2 * x,
    ),
    "linear": lambda: LinearTestModel.default(build_grid(12, 1.0, BoundaryKind.NEUMANN), 0.7),
}


class TestLinearise:
    """``linearise`` gives each generator's three diagonals and the forcing,
    for one state or a stack, and leaves the ball to ``check_ball``."""

    @pytest.mark.parametrize("lead", [(), (2, 3)], ids=["state", "stack"])
    @pytest.mark.parametrize("name", sorted(BAND_MODELS))
    def test_band_shapes(self, name, lead):
        model = BAND_MODELS[name]()
        states = 0.3 * np.random.default_rng(12).standard_normal(lead + (12,))
        (sub, main, sup), f = model.linearise(states)
        assert (sub.shape, main.shape, sup.shape) == (lead + (11,), lead + (12,), lead + (11,))
        assert f.shape == lead + (12,)

    def test_bands_leave_the_ball_to_check_ball(self, chemo):
        outside = np.full(16, 10.0)
        assert chemo.linearise(outside)[0][1].shape == (16,)
        with pytest.raises(BallViolationError):
            check_ball(chemo, outside, enforce=True)


PROTOCOL_MODELS = {
    "chemotaxis": lambda: ChemotaxisModel.default(build_grid(12, 1.0, BoundaryKind.NEUMANN)),
    "reaction_diffusion": lambda: NonlocalRDModel.default(
        build_grid(12, 1.0, BoundaryKind.NEUMANN)
    ),
    "linear": lambda: LinearTestModel.default(build_grid(12, 1.0, BoundaryKind.NEUMANN)),
    "shifted": lambda: ShiftedModel(
        inner=ChemotaxisModel.default(build_grid(12, 1.0, BoundaryKind.NEUMANN)),
        v_star=np.zeros(12),
    ),
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_MODELS))
def test_satisfies_model_protocol(name):
    assert isinstance(PROTOCOL_MODELS[name](), QuasilinearModel)
