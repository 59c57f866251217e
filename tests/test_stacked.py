"""Stacked per-node model work: one call on a stack (..., n) of states must
equal the stack of single-state calls bit for bit."""
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import avgrec.models
from avgrec import spatial
from avgrec.averaging import AveragingCondition, Variant, data_shift, observe
from avgrec.errors import ConvergenceError, NumericalError
from avgrec.evolution import PropagatorMethod, TimeGrid
from avgrec.models import (
    ChemotaxisModel,
    LinearTestModel,
    NonlocalRDModel,
    ball_norm,
    generic_exponents,
)
from avgrec.solver import (
    RecoveryConfig,
    Trajectory,
    fixed_point_recover,
    forward_solve,
    weighted_distance,
)
from avgrec.spatial import (
    BoundaryKind,
    assemble_laplacian,
    build_grid,
    helmholtz_solve,
    matrix_exponential,
    sobolev_norm,
)

from oracles import RDTermsModel, ShiftedModel, per_gap_distance

RNG = np.random.default_rng(67)


def rd_with_terms(bc: BoundaryKind, n: int = 12) -> RDTermsModel:
    """Reaction-diffusion with drift and zeroth-order terms that depend on l(u)."""
    template = NonlocalRDModel.default(build_grid(n, 1.0, bc))
    return RDTermsModel(
        base=template.base,
        exponents=template.exponents,
        diff_fn=lambda x, s: 1.0 + s**2 + 0.1 * x,
        poly_coeffs=(0.0, 0.0, 0.5, -1.0),
        functional_weight=np.linspace(0.5, 1.5, n),
        drift_fn=lambda x, s: 0.3 * s * np.cos(np.pi * x),
        react_fn=lambda x, s: -0.5 * s**2 + 0.2 * x,
        ball_radius=template.ball_radius,
    )


def rd_with_functional(n: int = 12) -> RDTermsModel:
    template = NonlocalRDModel.default(build_grid(n, 1.0, BoundaryKind.NEUMANN))
    h = template.base.grid.spacing

    def functional(u):
        assert u.shape == (n,)
        return float(np.tanh(h * np.sum(u**2)))

    return RDTermsModel(
        base=template.base,
        exponents=template.exponents,
        poly_coeffs=template.poly_coeffs,
        functional_fn=functional,
        ball_radius=template.ball_radius,
    )


def all_models() -> dict:
    grid = build_grid(12, 1.0, BoundaryKind.NEUMANN)
    chemo = ChemotaxisModel.default(grid, delta=0.5)  # delta != 1 keeps the drift term
    return {
        "chemotaxis": chemo,
        "rd-neumann": rd_with_terms(BoundaryKind.NEUMANN),
        "rd-dirichlet": rd_with_terms(BoundaryKind.DIRICHLET),
        "rd-functional": rd_with_functional(),
        "linear": LinearTestModel.default(grid, coefficient=0.7),
        "shifted": ShiftedModel(inner=chemo, v_star=0.05 * RNG.standard_normal(12)),
    }


MODELS = all_models()


def each_state(fn, states, **kwargs):
    """fn on every state of a stack (..., n), one call per 1-D state."""
    states = np.asarray(states)
    out = []
    for state in states.reshape(-1, states.shape[-1]):
        assert state.ndim == 1
        out.append(fn(state, **kwargs))
    out = np.stack(out)
    return out.reshape(states.shape[:-1] + out.shape[1:])


def each_state_linearise(model, states):
    """The three diagonals and the forcing of every state of a stack, one
    call per state."""
    bands = tuple(each_state(lambda u: model.linearise(u)[0][k], states) for k in range(3))
    return bands, each_state(lambda u: model.linearise(u)[1], states)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("lead", [(7,), (2, 3)])
class TestStackedModel:
    def states(self, lead):
        return 0.1 * RNG.standard_normal(lead + (12,))

    def test_bands(self, name, lead):
        model = MODELS[name]
        states = self.states(lead)
        got = model.linearise(states)[0]
        assert [band.shape for band in got] == [lead + (11,), lead + (12,), lead + (11,)]
        for band, expected in zip(got, each_state_linearise(model, states)[0]):
            assert np.array_equal(band, expected)

    def test_forcing(self, name, lead):
        model = MODELS[name]
        states = self.states(lead)
        got = model.linearise(states)[1]
        assert got.shape == states.shape
        assert np.array_equal(got, each_state_linearise(model, states)[1])

    def test_ball_norms(self, name, lead):
        model = MODELS[name]
        states = self.states(lead)
        got = ball_norm(model, states)
        assert got.shape == lead
        expected = each_state(lambda u: np.array(ball_norm(model, u)), states)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_linearise_skips_the_ball_norm(name, monkeypatch):
    model = MODELS[name]
    states = 0.1 * RNG.standard_normal((5, 12))

    def forbidden(*args, **kwargs):
        raise AssertionError("linearise computed the ball norm")

    monkeypatch.setattr(avgrec.models, "ball_norm", forbidden)
    model.linearise(states)
    model.linearise(states[0])


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [8, 16, 64])
def test_stacked_ops_match_per_slice(n):
    # The solver sweeps the rows of a scan or probe together: the stepper's
    # chain is one stacked matmul per step of (n+1)-square affine steps, a
    # strided view of the elimination's (n+1, R K, n+1) stack of rows, into
    # the chain's blocks; the model takes one stacked linearise and ball
    # norm, and the distance of every row in one modal transform and
    # one-pass reduction.  Each slice must be the per-row call's bit for
    # bit.
    rng = np.random.default_rng(n)
    R, K, m = 3, 6, n + 1
    rows = rng.standard_normal((m, R * K, m))
    steps = rows.transpose(1, 0, 2).reshape(R, K, m, m)
    blocks = rng.standard_normal((R, K + 1, m, m))
    np.matmul(steps[:, 2], blocks[:, 2], out=blocks[:, 3])
    for r in range(R):
        assert same_bytes(blocks[r, 3], np.matmul(steps[r, 2], blocks[r, 2]))
    # A route's rows solve together: one stacked SVD of their resolvents,
    # without the singular vectors.
    resolvents = np.eye(n) + 0.1 * rng.standard_normal((R, n, n))
    singular_values = np.linalg.svd(resolvents, compute_uv=False)
    for r in range(R):
        assert same_bytes(singular_values[r], np.linalg.svd(resolvents[r], compute_uv=False))
    # One stacked solve, each row's shift one right-hand-side column, against
    # the row's own solve on its (n,) shift.
    shifts = rng.standard_normal((R, n))
    solved = np.linalg.solve(resolvents, shifts[..., None])[..., 0]
    for r in range(R):
        assert same_bytes(solved[r], np.linalg.solve(resolvents[r], shifts[r]))
    # An eigenbasis route takes its rows' data into the basis by one stacked
    # product (averaging.data_shift), at every batch width.
    grid = build_grid(n, 1.0, BoundaryKind.NEUMANN)
    basis = assemble_laplacian(grid).eigenvectors
    for width in (1, 2, 8, 14):
        Ms, sums = rng.standard_normal((2, width, n))
        shifted = data_shift(SimpleNamespace(basis=basis, sums=sums), Ms)
        for r in range(width):
            assert same_bytes(shifted[r], Ms[r] @ basis - sums[r])
    # One observe of every row under each variant, on the node-major view
    # (K+1, R, ...) of the rows' columns, eigenvalues or sums (R, K+1, ...);
    # and the eigenbasis rows rebuilt by one product with V^T.
    grid_t = TimeGrid(T=0.5, K=64)
    for variant in Variant:
        cond = AveragingCondition.from_preset(grid_t, variant, "exp_decay", w0=0.5)
        for shape in ((R, 65, n, n), (R, 65, n), (R, 65, n, n + 1)):
            stack = rng.standard_normal(shape)
            observed = observe(cond, stack.swapaxes(0, 1))
            for r in range(R):
                assert same_bytes(observed[r], observe(cond, stack[r]))
    eigenvalues, sums = rng.standard_normal((2, R, 65, n))
    xis = rng.standard_normal((R, n))
    rebuilt = (eigenvalues * xis[:, None] + sums) @ basis.T
    for r in range(R):
        assert same_bytes(rebuilt[r], (eigenvalues[r] * xis[r] + sums[r]) @ basis.T)
    # The distance's modal transform and norms at a scan's batch shape: the
    # sums over the modes written into a slice of one norms buffer, and one
    # maximum.reduceat over its segments.
    base = assemble_laplacian(grid)
    diffs = rng.standard_normal((8, 65, n))
    coeffs = diffs @ base.eigenvectors
    weights = spatial.modal_weights(base, 0.7)
    modal_norms = spatial.modal_norm(base, coeffs, weights)
    norms = np.zeros((8, 100))
    np.add.reduce(weights * coeffs**2, axis=-1, out=norms[:, 30:95])
    peaks = np.maximum.reduceat(norms, [30, 31, 60], axis=-1)
    for r in range(len(diffs)):
        assert same_bytes(coeffs[r], diffs[r] @ base.eigenvectors)
        assert same_bytes(modal_norms[r], spatial.modal_norm(base, coeffs[r], weights))
        assert same_bytes(norms[r, 30:95], np.sum(weights * coeffs[r] ** 2, axis=-1))
        assert same_bytes(peaks[r], np.maximum.reduceat(norms[r], [30, 31, 60]))
    for model in (
        ChemotaxisModel.default(grid, delta=0.5),
        NonlocalRDModel.default(grid),
        LinearTestModel.default(grid, coefficient=0.7),
    ):
        states = 0.1 * rng.standard_normal((R, K + 1, n))
        bands, f_states = model.linearise(states)
        norms = ball_norm(model, states)
        for r in range(R):
            row_bands, row_f = model.linearise(states[r])
            assert all(same_bytes(band[r], row) for band, row in zip(bands, row_bands))
            assert same_bytes(f_states[r], row_f)
            assert same_bytes(norms[r], ball_norm(model, states[r]))


class TestStackedSpatial:
    base = assemble_laplacian(build_grid(10, 1.0, BoundaryKind.DIRICHLET))

    def test_helmholtz_solve(self):
        rhs = RNG.standard_normal((4, 3, 10))
        got = helmholtz_solve(self.base, rhs)
        assert np.array_equal(got, each_state(lambda r: helmholtz_solve(self.base, r), rhs))

    @pytest.mark.parametrize("order", [0.0, 0.7, 2.0])
    def test_sobolev_norm(self, order):
        fields = RNG.standard_normal((4, 3, 10))
        got = sobolev_norm(self.base, fields, order)
        expected = each_state(lambda f: np.array(sobolev_norm(self.base, f, order)), fields)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_matrix_exponential(self, t):
        # The ladder's slices need scalings s from 0 to at least 5 at t > 0,
        # mixed within each chunk.
        rng = np.random.default_rng(5)
        scales = 2.0 ** rng.permutation(np.arange(-3, 7))
        ladder = (scales[:, None, None] * rng.standard_normal((10, 6, 6))).reshape(2, 5, 6, 6)
        if t > 0:
            scalings = spatial._scaling(np.abs(t * ladder).sum(axis=-2).max(axis=-1))
            assert scalings.min() == 0 and scalings.max() >= 5
        for mats in (RNG.standard_normal((2, 3, 6, 6)), ladder):
            got = matrix_exponential(mats, t)
            expected = np.stack([[matrix_exponential(m, t) for m in row] for row in mats])
            assert np.array_equal(got, expected)

    def test_overflow_cap_on_any_slice(self):
        mats = np.stack([np.eye(3), np.eye(3), 800.0 * np.eye(3), 900.0 * np.eye(3)])
        matrix_exponential(mats[:2], 1.0)
        with pytest.raises(NumericalError, match="^node 2: t\\*mu_1"):
            matrix_exponential(mats, 1.0)
        with pytest.raises(NumericalError, match="^node 0: t\\*mu_1"):
            matrix_exponential(mats[3:], 1.0)


def test_ball_exits_counted_per_state():
    model = ChemotaxisModel.default(build_grid(12, 1.0, BoundaryKind.NEUMANN))
    grid_t = TimeGrid(T=0.5, K=8)
    cond = AveragingCondition.from_preset(grid_t, Variant.TIME_AVERAGE, "constant")
    x = model.base.grid.nodes
    amplitudes = np.array([0.1, 0.5, 1.2, 0.3, 2.0, 0.9, 1.5, 0.2, 0.4])
    states = amplitudes[:, None] * np.cos(np.pi * x)
    norms = [sobolev_norm(model.base, s, 2.0 * model.exponents.beta) for s in states]
    expected = sum(norm > model.ball_radius for norm in norms)
    assert 0 < expected < len(states)
    start = Trajectory(grid=grid_t, states=states)
    with pytest.warns(UserWarning, match=f"^{expected} iterate states left the model ball"):
        with pytest.raises(ConvergenceError, match="^no convergence in 1 iterations") as failed:
            fixed_point_recover(model, cond, np.zeros(12), RecoveryConfig(max_iters=1), start)
    assert failed.value.report.ball_exits == expected


class PerStateModel:
    """A model whose methods see one state at a time: the per-node reference
    for the solver's stacked calls."""

    def __init__(self, inner):
        self.inner = inner
        self.base = inner.base
        self.exponents = inner.exponents
        self.ball_radius = inner.ball_radius

    def linearise(self, u):
        return each_state_linearise(self.inner, u)


@pytest.mark.parametrize("method", list(PropagatorMethod))
@pytest.mark.parametrize("variant", list(Variant))
def test_recovery_equals_per_state_model(variant, method):
    model = ChemotaxisModel.default(build_grid(12, 1.0, BoundaryKind.NEUMANN), delta=0.5)
    grid_t = TimeGrid(T=0.5, K=16)
    cond = AveragingCondition.from_preset(grid_t, variant, "constant", w0=0.5)
    truth = forward_solve(model, 1e-2 * np.cos(np.pi * model.base.grid.nodes), grid_t)
    M = observe(cond, truth.states)
    config = RecoveryConfig(method=method)
    u0, traj, report = fixed_point_recover(model, cond, M, config)
    ref_u0, ref_traj, ref_report = fixed_point_recover(PerStateModel(model), cond, M, config)
    assert report.converged
    assert np.array_equal(u0, ref_u0)
    assert np.array_equal(traj.states, ref_traj.states)
    assert report.to_dict() == ref_report.to_dict()


def distance_reference(u, v, model, grid_t) -> float:
    """The iteration distance from its definition, node by node and pair by
    pair of nodes through ``sobolev_norm``: equal to the solver's up to
    roundoff, since it transforms each node's difference on its own."""
    book, diff = model.exponents, u - v
    xi, beta = 2.0 * book.xi, 2.0 * book.beta
    weighted = max(
        t**book.mu * sobolev_norm(model.base, d, xi) for t, d in zip(grid_t.nodes[1:], diff[1:])
    )
    sup = max(sobolev_norm(model.base, d, beta) for d in diff)
    holder = max(
        sobolev_norm(model.base, diff[j + gap] - diff[j], beta) / (gap * grid_t.h) ** book.rho
        for gap in (2**p for p in range(grid_t.K.bit_length()))
        for j in range(grid_t.K + 1 - gap)
    )
    return weighted + sup + holder


def pair_bytes(us, vs, model, grid_t) -> list:
    """The distance of each pair of a stack, one call per pair."""
    out = []
    for u, v in zip(us, vs):
        pair = weighted_distance(u, v, model, grid_t)
        assert isinstance(pair, float)
        out.append(np.float64(pair).tobytes())
    return out


@pytest.mark.parametrize("R", [1, 3, 8])
@pytest.mark.parametrize(
    "model_class, bc",
    [
        (ChemotaxisModel, BoundaryKind.NEUMANN),  # chemotaxis needs a Neumann grid
        (NonlocalRDModel, BoundaryKind.NEUMANN),
        (NonlocalRDModel, BoundaryKind.DIRICHLET),
    ],
)
def test_stacked_distance_matches_per_pair(model_class, bc, R):
    # K = 13 is no power of two, so the last dyadic gap, 8, spans part of
    # the horizon.
    model = model_class.default(build_grid(12, 1.0, bc))
    assert model.exponents.mu > 0 and model.exponents.rho > 0
    grid_t = TimeGrid(T=0.5, K=13)
    us, vs = np.random.default_rng(R).standard_normal((2, R, grid_t.K + 1, 12))
    got = weighted_distance(us, vs, model, grid_t)
    assert got.shape == (R,)
    assert [d.tobytes() for d in got] == pair_bytes(us, vs, model, grid_t)
    reference = [distance_reference(u, v, model, grid_t) for u, v in zip(us, vs)]
    np.testing.assert_allclose(got, reference, rtol=1e-12, atol=0.0)
    # A zero difference is exactly 0.0, stacked and alone.
    assert weighted_distance(us, us, model, grid_t).tolist() == [0.0] * R
    assert weighted_distance(us[0], us[0], model, grid_t) == 0.0


def beta_model(bc: BoundaryKind, beta: float, n: int = 12) -> SimpleNamespace:
    """What the distance reads of a model, its base Laplacian and exponent
    book, with the generic book at beta > 0, so that the sup and Hoelder
    parts are weighted; every shipped model has beta = 0."""
    book = replace(generic_exponents(), beta=beta)
    assert all(holds for _, holds in book.checks())
    return SimpleNamespace(base=assemble_laplacian(build_grid(n, 1.0, bc)), exponents=book)


@pytest.mark.parametrize("K", [1, 2, 3, 64, 96, 256])
@pytest.mark.parametrize("R", [None, 1, 3, 8])  # None: one (K+1, n) pair
@pytest.mark.parametrize("beta", [0.0, 0.04])
def test_one_pass_distance_equals_the_per_gap_oracle(beta, R, K):
    # The one-pass reduction gives the per-gap modal_norm's bits.  Node 0
    # differs by exact zeros; with three rows or more, row 1 is a zero
    # difference and row 2 holds a NaN, whose gap quotients fmax leaves
    # out (its sup part is NaN all the same), and with eight, row 3 holds
    # an infinity, whose differences of gaps are NaN.
    bc = BoundaryKind.DIRICHLET if beta else BoundaryKind.NEUMANN
    model = beta_model(bc, beta) if beta else ChemotaxisModel.default(build_grid(12, 1.0, bc))
    assert model.exponents.beta == beta
    grid_t = TimeGrid(T=0.5, K=K)
    lead = () if R is None else (R,)
    us, vs = np.random.default_rng(K).standard_normal((2, *lead, K + 1, 12))
    us[..., 0, :] = vs[..., 0, :]
    if R is not None and R >= 3:
        us[1] = vs[1]
        us[2, K // 2, 5] = np.nan
    if R == 8:
        us[3, K, 2] = np.inf
    with np.errstate(invalid="ignore"):
        got = weighted_distance(us, vs, model, grid_t)
        want = per_gap_distance(us, vs, model, grid_t)
    if R is None:
        assert isinstance(got, float) and np.float64(got).tobytes() == np.float64(want).tobytes()
        return
    assert got.shape == (R,) and np.array_equal(got, want, equal_nan=True)
    finite = np.isfinite(want)
    assert got[finite].tobytes() == want[finite].tobytes()
    if R >= 3:
        assert got[1] == 0.0 and np.isnan(got[2]) and finite.sum() == R - 1 - (R == 8)


def test_stacked_distance_raises_where_a_pair_would():
    # Under raise mode the second pair's squared modal coefficients
    # underflow: its own call raises, and so does every stack that holds it,
    # with the same error; the stack of the other two does not.
    model = MODELS["chemotaxis"]
    grid_t = TimeGrid(T=0.5, K=13)
    us = RNG.standard_normal((3, grid_t.K + 1, 12))
    us[1] *= 1e-160
    vs = np.zeros_like(us)
    with np.errstate(all="raise"):
        others = weighted_distance(us[[0, 2]], vs[[0, 2]], model, grid_t)
        assert [d.tobytes() for d in others] == pair_bytes(us[[0, 2]], vs[[0, 2]], model, grid_t)
        with pytest.raises(FloatingPointError) as own:
            weighted_distance(us[1], vs[1], model, grid_t)
        with pytest.raises(FloatingPointError) as stacked:
            weighted_distance(us, vs, model, grid_t)
    assert str(stacked.value) == str(own.value)
