"""Scans and probes sweep their rows together: each row's outcome equals the
one-row recovery of its amplitude or start, bit for bit, however the rows
end and however many rows a batch holds."""
import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import avgrec.evolution
import avgrec.solver
from avgrec.averaging import AveragingCondition, Variant, node_weights
from avgrec.errors import ConvergenceError, NumericalError, SingularOperatorError
from avgrec.evolution import (
    OperatorPath,
    PropagatorMethod,
    StepFactors,
    TimeGrid,
    series_peak_bytes,
    stepper_peak_bytes,
)
from avgrec.models import ChemotaxisModel, LinearTestModel
from avgrec.solver import (
    ProbeReport,
    RecoveryConfig,
    ScanResult,
    ScanRow,
    Trajectory,
    contraction_probe,
    fixed_point_recover,
    random_admissible_trajectory,
    smallness_scan,
    weighted_distance,
)
from avgrec.spatial import BoundaryKind, build_grid

N, K = 12, 24
GRID = TimeGrid(T=0.5, K=K)
CHEMO = ChemotaxisModel.default(build_grid(N, 1.0, BoundaryKind.NEUMANN))
DIRECTION = np.cos(np.pi * CHEMO.base.grid.nodes)
# With max_iters = 12 the rows of this ladder end in every way a recovery
# ends, across the three variants and both methods: converged, the
# iteration cap, diverged, a non-finite operator or propagation, a singular
# resolvent, and the series' overflow cap.
LADDER = [0.0, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0]
LADDER_CONFIG = {"max_iters": 12}
# singular_phi.ini's model: a cosine weight over one full cycle integrates
# the conserved constant mode to zero, so every row's resolvent is singular.
LINEAR = LinearTestModel.default(build_grid(8, 1.0, BoundaryKind.NEUMANN), 1.0)
LINEAR_COND = AveragingCondition.from_preset(
    TimeGrid(T=1.0, K=64), Variant.TIME_AVERAGE, "cosine_cycle"
)

CASES = [
    pytest.param(method, variant, id=f"{method.value}-{variant.value}")
    for method in PropagatorMethod
    for variant in Variant
]


def condition(variant):
    return AveragingCondition.from_preset(GRID, variant, "constant", w0=0.5)


def scan_reference(model, cond, direction, amplitudes, config) -> ScanResult:
    """The scan as one single-row recovery per amplitude, in order, its
    warnings ignored as the scan ignores them."""
    rows, largest = [], None
    for amp in amplitudes:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, _, report = fixed_point_recover(model, cond, amp * direction, config)
            converged, note = True, ""
        except NumericalError as exc:
            report, converged, note = exc.report, False, f"{type(exc).__name__}: {exc}"
        estimates = report.contraction_estimates
        rows.append(
            ScanRow(amp, converged, report.iterates, estimates[-1] if estimates else None, note)
        )
        if converged:
            largest = amp
    return ScanResult(rows=tuple(rows), m0_lower_bound=largest)


def probe_reference(model, cond, M, config, trials, seed) -> ProbeReport:
    """The probe as one single-row recovery per start, in order: the base
    run from zero, then each trial from its seeded draw."""
    rng = np.random.default_rng(seed)
    limits, u0s, per_run, failures = [], [], [], []
    for trial in range(-1, trials):
        start = None
        if trial >= 0:
            start = random_admissible_trajectory(cond.grid, model, config.ball_L, rng)
        try:
            u0, traj, report = fixed_point_recover(model, cond, M, config, initial=start)
        except NumericalError as exc:
            if start is None:
                raise
            failures.append(f"trial {trial}: {type(exc).__name__}: {exc}")
            continue
        limits.append(traj)
        u0s.append(u0)
        per_run.append(tuple(report.contraction_estimates))
    pairs = [(i, k) for i in range(len(limits)) for k in range(i + 1, len(limits))]
    return ProbeReport(
        all_converged=not failures,
        limit_spread=max(
            (
                weighted_distance(limits[i].states, limits[k].states, model, cond.grid)
                for i, k in pairs
            ),
            default=0.0,
        ),
        initial_state_spread=max(
            (float(np.linalg.norm(u0s[i] - u0s[k])) for i, k in pairs), default=0.0
        ),
        contraction_ratios=tuple(r for run in per_run for r in run),
        per_run_ratios=tuple(per_run),
        failures=tuple(failures),
    )


def ladder_scan(method, variant):
    config = RecoveryConfig(method=method, **LADDER_CONFIG)
    return smallness_scan(CHEMO, condition(variant), DIRECTION, LADDER, config)


@pytest.mark.parametrize("method, variant", CASES)
def test_scan_rows_equal_single_row_recoveries(method, variant):
    config = RecoveryConfig(method=method, **LADDER_CONFIG)
    expected = scan_reference(CHEMO, condition(variant), DIRECTION, LADDER, config)
    assert ladder_scan(method, variant) == expected


@pytest.mark.parametrize("method, variant", CASES)
def test_batch_rows_equal_single_row_recoveries_in_full(method, variant):
    # Beyond the scan table: each row's Xi, trajectory, report (ball exits,
    # distances and sigma_min history included) and error, message and
    # partial report, against the single-row recovery of its amplitude.
    cond, config = condition(variant), RecoveryConfig(method=method, **LADDER_CONFIG)
    data = [amp * DIRECTION for amp in LADDER]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = avgrec.solver._recover_rows(CHEMO, cond, data, [None] * len(data), config)
        for row, M in zip(rows, data):
            try:
                xi, traj, report = fixed_point_recover(CHEMO, cond, M, config)
            except NumericalError as exc:
                assert (type(row.error), str(row.error)) == (type(exc), str(exc))
                assert row.error.report == exc.report
                continue
            assert row.error is None
            assert np.array_equal(row.xi, xi) and np.array_equal(row.states, traj.states)
            assert row.report == report
    assert any(row.error is not None and row.report.ball_exits for row in rows)


@pytest.mark.parametrize("method", list(PropagatorMethod))
def test_singular_scan_rows_equal_single_row_recoveries(method):
    config = RecoveryConfig(method=method)
    direction = np.cos(np.pi * LINEAR.base.grid.nodes)
    amplitudes = [0.01, 0.1, 1.0]
    result = smallness_scan(LINEAR, LINEAR_COND, direction, amplitudes, config)
    assert result == scan_reference(LINEAR, LINEAR_COND, direction, amplitudes, config)
    assert all(row.note.startswith("SingularOperatorError: ") for row in result.rows)


def test_ladder_ends_every_way():
    notes = {
        row.note.split(" (")[0] if row.note else "converged"
        for method, variant in [case.values for case in CASES]
        for row in ladder_scan(method, variant).rows
    }
    for ending in (
        "converged",
        "ConvergenceError: no convergence in 12 iterations",
        "ConvergenceError: fixed-point iteration diverged",
        "ConvergenceError: iteration produced non-finite operator or forcing values",
        "ConvergenceError: iteration produced a non-finite propagation",
        "SingularOperatorError: time_average resolvent is numerically singular",
    ):
        assert ending in notes, ending
    assert any(note.startswith("NumericalError: node ") for note in notes)


@pytest.mark.parametrize("fit", [1, 3])
@pytest.mark.parametrize("method", list(PropagatorMethod))
def test_rows_past_the_memory_budget_run_in_later_batches(method, fit, monkeypatch):
    # The budget admits ``fit`` rows at the per-row peak: the scan runs in
    # batches of at most that many rows and its result does not move.
    variant = Variant.TERMINAL_DIFFERENCE
    expected = ladder_scan(method, variant)
    peak = (stepper_peak_bytes if method is PropagatorMethod.STEPPER else series_peak_bytes)(N, K)
    monkeypatch.setattr(avgrec.evolution, "MEMORY_BUDGET", fit * peak + peak - 1)
    original, widths = avgrec.solver._sweep, []

    def recorded(model, cond, Ms, states, config):
        widths.append(len(states))
        return original(model, cond, Ms, states, config)

    monkeypatch.setattr(avgrec.solver, "_sweep", recorded)
    assert ladder_scan(method, variant) == expected
    assert max(widths) == fit


def recorded_widths(monkeypatch):
    """The number of nodes each elimination of the stepper's steps solves."""
    original, widths = avgrec.evolution._eliminated_steps, []

    def recorded(bands, h, forcing):
        rows, nodes = bands[1].shape[:2]
        widths.append(rows * (nodes - 1))
        return original(bands, h, forcing)

    monkeypatch.setattr(avgrec.evolution, "_eliminated_steps", recorded)
    return widths


def test_constant_start_sweep_eliminates_every_row_at_once(monkeypatch):
    # Every row starts from one constant state away from zero, whose path
    # shares one generator and is no multiple of the Laplacian: its first
    # sweep, like the later sweeps, eliminates the nodes of all its rows at
    # once.
    widths = recorded_widths(monkeypatch)
    config = RecoveryConfig(**LADDER_CONFIG)
    data = [amp * DIRECTION for amp in LADDER]
    start = Trajectory(GRID, np.full((K + 1, N), 2e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = avgrec.solver._recover_rows(
            CHEMO, condition(Variant.TERMINAL_DIFFERENCE), data, [start] * len(data), config
        )
    assert widths[0] == len(data) * K
    running = sum(row.report.iterates >= 2 for row in rows)
    assert running > 1 and widths[1] >= running * K


def test_zero_start_sweep_is_one_modal_sweep_for_every_row(monkeypatch):
    # Every row of a scan starts from the zero trajectory, where the
    # chemotaxis generator is the Laplacian: its first sweep is one modal
    # sweep of all rows and eliminates no node, and the later sweeps
    # eliminate the nodes of all their rows at once.
    widths, original, modal = recorded_widths(monkeypatch), avgrec.solver.modal_sweep, []

    def recorded(cond, basis, steps, f_states):
        modal.append(len(steps))
        return original(cond, basis, steps, f_states)

    monkeypatch.setattr(avgrec.solver, "modal_sweep", recorded)
    result = ladder_scan(PropagatorMethod.STEPPER, Variant.TERMINAL_DIFFERENCE)
    assert modal == [len(LADDER)]
    running = sum(row.iterations >= 2 for row in result.rows)
    assert running > 1 and widths[0] >= running * K


def probe_outcomes(method, variant):
    """(report or error, ball warnings) of the ladder's probe, batched and
    as single-row recoveries."""
    cond, M = condition(variant), 0.1 * DIRECTION
    config = RecoveryConfig(method=method, max_iters=9)
    outcomes = []
    for probe in (contraction_probe, probe_reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = probe(CHEMO, cond, M, config, trials=4, seed=3)
            except NumericalError as exc:
                outcome = (type(exc), str(exc), exc.report)
        messages = [str(w.message) for w in caught if w.category is UserWarning]
        outcomes.append((outcome, messages))
    return outcomes


@pytest.mark.parametrize("method, variant", CASES)
def test_probe_equals_single_row_recoveries(method, variant):
    # Failed trials, a failed base run and the ball warnings, in the order
    # the single-row recoveries give them.
    batched, single = probe_outcomes(method, variant)
    assert batched == single


@pytest.mark.parametrize("method", list(PropagatorMethod))
def test_probe_with_a_modal_base_run_and_dense_trials(method, monkeypatch):
    # The base run starts from zero, where the chemotaxis generator is the
    # Laplacian: its first sweep is modal while every trial's is dense, in
    # one batched sweep.  The probe equals its single-row recoveries bit for
    # bit.
    original, modal = avgrec.solver.modal_sweep, []

    def recorded(cond, basis, steps, f_states):
        modal.append(len(steps))
        return original(cond, basis, steps, f_states)

    monkeypatch.setattr(avgrec.solver, "modal_sweep", recorded)
    cond = condition(Variant.TIME_AVERAGE)
    config = RecoveryConfig(method=method)
    batched = contraction_probe(CHEMO, cond, 0.01 * DIRECTION, config, trials=3, seed=3)
    assert modal == [1]
    single = probe_reference(CHEMO, cond, 0.01 * DIRECTION, config, trials=3, seed=3)
    assert modal == [1, 1]
    assert batched == single and batched.all_converged


@pytest.mark.parametrize("method, variant", CASES)
def test_rows_equal_single_row_recoveries_under_raise_mode(method, variant):
    # Under NumPy's raise mode an overflow or underflow in one row's
    # linearise, build or recursion raises for the whole stack: it is redone
    # row by row, and each row still ends as its single-row recovery does,
    # some of them as leaving the computable regime.
    config = RecoveryConfig(method=method, **LADDER_CONFIG)
    with np.errstate(all="raise"):
        scan = ladder_scan(method, variant)
        assert scan == scan_reference(CHEMO, condition(variant), DIRECTION, LADDER, config)
        batched, single = probe_outcomes(method, variant)
    assert batched == single
    left = "ConvergenceError: iteration left the computable regime: "
    assert any(row.note.startswith(left) for row in scan.rows)


@pytest.mark.parametrize("method", list(PropagatorMethod))
def test_a_row_whose_distance_raises_fails_alone(method):
    # Under raise mode the distance of the 1e-150 row underflows: the
    # stacked distance is redone row by row, so that row leaves the
    # computable regime, as its single-row recovery does, and the other row
    # ends as it does in a scan without it.
    config, cond = RecoveryConfig(method=method), condition(Variant.TERMINAL_DIFFERENCE)
    with np.errstate(all="raise"):
        scan = smallness_scan(CHEMO, cond, DIRECTION, [1e-150, 0.01], config)
        alone = smallness_scan(CHEMO, cond, DIRECTION, [0.01], config)
        with pytest.raises(ConvergenceError) as single:
            fixed_point_recover(CHEMO, cond, 1e-150 * DIRECTION, config)
    assert isinstance(single.value.__cause__, FloatingPointError)
    assert str(single.value).startswith("iteration left the computable regime: ")
    assert single.value.report.iterates == 0
    failed, converged = scan.rows
    assert failed.note == f"ConvergenceError: {single.value}" and not failed.converged
    assert converged == alone.rows[0] and converged.converged
    assert scan.m0_lower_bound == 0.01


def test_failed_base_run_raises_before_any_trial_warns():
    # At max_iters = 2 every row's second iterate leaves the ball and every
    # row fails: the probe warns as the base run's own recovery does, then
    # raises its error, and no trial's warning is issued.
    cond, M, config = condition(Variant.TIME_AVERAGE), 0.5 * DIRECTION, RecoveryConfig(max_iters=2)
    rng = np.random.default_rng(0)
    trial_start = random_admissible_trajectory(cond.grid, CHEMO, config.ball_L, rng)
    outcomes = []
    for run in (
        lambda: contraction_probe(CHEMO, cond, M, config, trials=2, seed=0),
        lambda: fixed_point_recover(CHEMO, cond, M, config),
        lambda: fixed_point_recover(CHEMO, cond, M, config, initial=trial_start),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError) as err:
                run()
        messages = [str(w.message) for w in caught if w.category is UserWarning]
        outcomes.append((str(err.value), messages))
    probe, base, trial = outcomes
    assert probe == base and base[1] and trial[1]


def test_probe_ladder_has_failed_trials_and_failed_base_runs():
    failed_trials = contraction_probe(
        CHEMO, condition(Variant.TIME_AVERAGE), 0.1 * DIRECTION, RecoveryConfig(max_iters=9),
        trials=4, seed=3,
    )
    assert failed_trials.failures and len(failed_trials.per_run_ratios) == 4
    series = RecoveryConfig(method=PropagatorMethod.KERNEL_SERIES, max_iters=9)
    with pytest.raises(NumericalError):
        contraction_probe(
            CHEMO, condition(Variant.TIME_AVERAGE), 0.1 * DIRECTION, series, trials=4, seed=3
        )


class ScalarModel:
    """A model whose generator at each node is the 1 x 1 matrix of its
    state, with forcing f(u) = u, on a base of one mode for the distance."""

    exponents = CHEMO.exponents
    base = SimpleNamespace(
        eigenvectors=np.ones((1, 1)), eigenvalues=np.zeros(1), grid=SimpleNamespace(spacing=1.0)
    )

    def linearise(self, states):
        off = np.empty(states.shape[:-1] + (0,))
        return (off, states, off), states


def test_singular_build_fails_only_its_own_row():
    # A stack of three rows whose middle one meets a singular one-step
    # matrix at node 3: the stacked build raises, and the sweep gives that
    # row the error of its single-row sweep and the others their own
    # outcomes, bit for bit.
    grid = TimeGrid(T=0.5, K=4)
    cond = AveragingCondition.from_preset(grid, Variant.TERMINAL_DIFFERENCE, w0=0.5)
    states = -1.0 - np.arange(15.0).reshape(3, 5, 1) / 10
    states[1, 3] = 1.0 / (0.5 * grid.h)
    Ms = np.random.default_rng(8).standard_normal((3, 1))
    model, config = ScalarModel(), RecoveryConfig()
    with pytest.raises(NumericalError) as stacked:
        StepFactors(OperatorPath(grid, model.linearise(states)[0], 0.5)).sweep(cond, states)
    outcomes = avgrec.solver._sweep(model, cond, Ms, states, config)
    singles = [
        avgrec.solver._sweep(model, cond, Ms[r : r + 1], states[r : r + 1], config)[0]
        for r in range(3)
    ]
    message = "singular one-step matrix at node 3: zero pivot in row 1 of the tridiagonal solve"
    assert str(stacked.value) == message
    assert isinstance(outcomes[1], NumericalError) and str(outcomes[1]) == message
    assert str(singles[1]) == message
    for r in (0, 2):
        (states, xi, sigma, dist), (single_states, single_xi, single_sigma, single_dist) = (
            outcomes[r], singles[r]
        )
        assert np.array_equal(states, single_states)
        assert np.array_equal(xi, single_xi) and sigma == single_sigma and dist == single_dist


@pytest.mark.parametrize("variant", list(Variant))
def test_stepper_rows_are_their_own_sweeps(variant):
    # A batch's stepper rows give the resolvent, the observed sums and the
    # rebuilt states of their single-row sweeps bit for bit: each row's
    # products in the stacked Horner and forward passes are the BLAS calls
    # of its own sweep, whose forward pass takes plain vector products.
    rng = np.random.default_rng(12)
    bands, f_states = CHEMO.linearise(0.05 * rng.standard_normal((4, K + 1, N)))
    cond, xi = condition(variant), rng.standard_normal((4, N))
    batch = StepFactors(OperatorPath(GRID, bands, 0.5)).sweep(cond, f_states)
    rebuilt = batch.rebuild(xi)
    for r in range(4):
        row = OperatorPath(GRID, tuple(band[r : r + 1] for band in bands), 0.5)
        single = StepFactors(row).sweep(cond, f_states[r : r + 1])
        assert np.array_equal(batch.resolvent[r], single.resolvent[0])
        assert np.array_equal(batch.sums[r], single.sums[0])
        assert np.array_equal(rebuilt[r], single.rebuild(xi[r : r + 1])[0])


def test_a_nan_resolvent_fails_its_own_row(monkeypatch):
    # One row's resolvent turns NaN once its Duhamel sums grow: the stacked
    # SVD raises, the sweep is redone row by row, and that row fails as its
    # single-row recovery does, leaving the computable regime, while the
    # others go on.
    original = avgrec.solver.resolvent_matrix

    def spoiled(values):
        resolvent = original(values).copy()
        resolvent[np.abs(values.sums).max(axis=-1) > 1e-3] = np.nan
        return resolvent

    monkeypatch.setattr(avgrec.solver, "resolvent_matrix", spoiled)
    config = RecoveryConfig(**LADDER_CONFIG)
    cond, amplitudes = condition(Variant.TERMINAL_DIFFERENCE), [0.01, 0.1, 0.5, 1.0]
    result = smallness_scan(CHEMO, cond, DIRECTION, amplitudes, config)
    assert result == scan_reference(CHEMO, cond, DIRECTION, amplitudes, config)
    notes = [row.note for row in result.rows]
    assert "ConvergenceError: iteration left the computable regime: SVD did not converge" in notes
    assert result.rows[0].converged


def dense_route_calls(monkeypatch, width, floor_row=None):
    """The rows of a batch of ``width`` recoveries, each started from one
    constant state away from zero so that every sweep goes dense, with the
    np.linalg.svd and np.linalg.solve calls they made and the width of each
    sweep.  With ``floor_row``, the first sweep zeroes a column of that
    row's resolvent, which puts it at the floor."""
    calls, sweeps = [], []
    for name in ("svd", "solve"):

        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    original_sweep, original_propagation = avgrec.solver._sweep, avgrec.solver._propagation

    def recorded(model, cond, Ms, states, config):
        sweeps.append(len(states))
        return original_sweep(model, cond, Ms, states, config)

    def spoiled(cond, path, f_states, config, base):
        groups = original_propagation(cond, path, f_states, config, base)
        if floor_row is None or len(sweeps) > 1:
            return groups
        ((rows, values),) = groups
        resolvent = values.resolvent.copy()
        resolvent[floor_row, :, 0] = 0.0
        return [(rows, dataclasses.replace(values, resolvent=resolvent))]

    monkeypatch.setattr(avgrec.solver, "_sweep", recorded)
    monkeypatch.setattr(avgrec.solver, "_propagation", spoiled)
    data = [amp * DIRECTION for amp in np.linspace(0.01, 0.1, width)]
    start = Trajectory(GRID, np.full((K + 1, N), 2e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = avgrec.solver._recover_rows(
            CHEMO, condition(Variant.TERMINAL_DIFFERENCE), data, [start] * width, RecoveryConfig()
        )
    return rows, calls, sweeps


@pytest.mark.parametrize("width", [1, 3, 8])
def test_a_dense_route_makes_one_svd_and_one_solve_per_sweep(width, monkeypatch):
    # A dense route's rows take one stacked SVD and one stacked solve,
    # whatever the batch holds.
    rows, calls, sweeps = dense_route_calls(monkeypatch, width)
    assert all(row.error is None for row in rows)
    assert sweeps[0] == width and len(sweeps) >= 3
    assert calls == ["svd", "solve"] * len(sweeps)


@pytest.mark.parametrize("width", [2, 8])
def test_a_row_at_the_floor_takes_no_svd_of_its_own(width, monkeypatch):
    # The row at the floor gets its error from the stacked SVD, and the
    # other rows still make one stacked solve.
    rows, calls, sweeps = dense_route_calls(monkeypatch, width, floor_row=width // 2)
    assert isinstance(rows[width // 2].error, SingularOperatorError)
    assert all(row.error is None for k, row in enumerate(rows) if k != width // 2)
    assert sweeps[0] == width and sweeps[1] == width - 1
    assert calls == ["svd", "solve"] * len(sweeps)


@pytest.mark.parametrize("variant", list(Variant))
def test_horner_pass_adds_only_nonzero_weights(variant):
    # The pass adds gamma_j to the diagonal where gamma_j is not zero: a
    # terminal difference adds at node 0 alone, the averages at every node.
    # The result does not move.
    adds = []

    class Weight(float):
        """A node weight that records each ufunc it takes part in."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            adds.append(float(self))
            inputs = tuple(float(x) if x is self else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    rng = np.random.default_rng(5)
    for width in (1, 3):
        steps = rng.standard_normal((width, K, N + 1, N + 1))
        steps[..., N, :] = 0.0
        steps[..., N, N] = 1.0
        gamma = node_weights(condition(variant))
        adds.clear()
        top = avgrec.evolution._observed_steps([Weight(g) for g in gamma], steps)
        assert np.array_equal(top, avgrec.evolution._observed_steps(gamma, steps))
        assert adds == [g for g in gamma[-2::-1].tolist() if g != 0.0]
        if variant is Variant.TERMINAL_DIFFERENCE:
            assert adds == [1.0]
        else:
            assert len(adds) == K


def test_mixed_failures_in_one_batch_fail_their_own_rows(monkeypatch):
    # From its first dense sweep on, a row's resolvent is spoiled by the
    # size of its own observed Duhamel sums: the 0.1 row's sits at the floor
    # (a zero column), the 0.3 row's turns NaN on a finite propagation, and
    # the 1.0 row's turns infinite on a non-finite one.  The 0.01 and 0.03
    # rows converge.  Each row ends as its one-row recovery does.
    original = avgrec.solver._propagation

    def spoiled(cond, path, f_states, config, base):
        groups = []
        for rows, values in original(cond, path, f_states, config, base):
            if values.basis is None:
                size = np.abs(values.sums).max(axis=-1)
                resolvent = values.resolvent.copy()
                resolvent[(1e-4 < size) & (size <= 1e-3), :, 0] = 0.0
                resolvent[(1e-3 < size) & (size <= 1e-2)] = np.nan
                resolvent[size > 1e-2] = np.inf
                finite = values.finite() & (size <= 1e-2)
                values = dataclasses.replace(values, resolvent=resolvent, finite=lambda: finite)
            groups.append((rows, values))
        return groups

    monkeypatch.setattr(avgrec.solver, "_propagation", spoiled)
    cond, config = condition(Variant.TERMINAL_DIFFERENCE), RecoveryConfig(**LADDER_CONFIG)
    data = [amp * DIRECTION for amp in (0.01, 0.03, 0.1, 0.3, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = avgrec.solver._recover_rows(CHEMO, cond, data, [None] * len(data), config)
        for row, M in zip(rows, data):
            try:
                xi, traj, report = fixed_point_recover(CHEMO, cond, M, config)
            except NumericalError as exc:
                assert (type(row.error), str(row.error)) == (type(exc), str(exc))
                assert row.error.report == exc.report
                continue
            assert row.error is None and row.report == report
            assert np.array_equal(row.xi, xi) and np.array_equal(row.states, traj.states)
    assert [row.error is None for row in rows] == [True, True, False, False, False]
    assert isinstance(rows[2].error, SingularOperatorError)
    assert str(rows[3].error) == "iteration left the computable regime: SVD did not converge"
    assert str(rows[4].error) == "iteration produced a non-finite propagation"
    assert all(len(row.report.sigma_min_history) == 1 for row in rows[2:])


def spoil_propagation(values, spoiled):
    """A dense route's sweep values whose ``spoiled`` rows have an infinite
    resolvent on a non-finite propagation."""
    resolvent, finite = values.resolvent.copy(), values.finite() & ~spoiled
    resolvent[spoiled] = np.inf
    return dataclasses.replace(values, resolvent=resolvent, finite=lambda: finite)


def spoil_states(values, spoiled):
    """A dense route's sweep values whose ``spoiled`` rows rebuild NaN states
    on a finite propagation."""

    def rebuild(xi):
        states = values.rebuild(xi)
        states[spoiled] = np.nan
        return states

    return dataclasses.replace(values, rebuild=rebuild)


@pytest.mark.parametrize(
    "spoil, message",
    [
        (spoil_propagation, "iteration produced a non-finite propagation"),
        (spoil_states, "iteration produced non-finite states"),
    ],
)
def test_a_non_finite_row_sends_its_batch_to_the_row_by_row_redo(spoil, message, monkeypatch):
    # From its first dense sweep on, a row is spoiled by the size of its own
    # observed Duhamel sums, which only the 1.0 row reaches.  The first
    # sweep is modal; the second, dense, raises for the whole batch and is
    # redone as one sweep per row, the spoiled row failing in its own.  Each
    # row ends as its one-row recovery does.
    original, widths = avgrec.solver._propagation, []

    def spoiled(cond, path, f_states, config, base):
        groups = []
        for rows, values in original(cond, path, f_states, config, base):
            if values.basis is None:
                values = spoil(values, np.abs(values.sums).max(axis=-1) > 1e-2)
            groups.append((rows, values))
        return groups

    original_sweep = avgrec.solver._sweep

    def recorded(model, cond, Ms, states, config):
        widths.append(len(states))
        return original_sweep(model, cond, Ms, states, config)

    monkeypatch.setattr(avgrec.solver, "_propagation", spoiled)
    monkeypatch.setattr(avgrec.solver, "_sweep", recorded)
    cond, config = condition(Variant.TERMINAL_DIFFERENCE), RecoveryConfig(**LADDER_CONFIG)
    data = [amp * DIRECTION for amp in (0.01, 0.03, 0.1, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = avgrec.solver._recover_rows(CHEMO, cond, data, [None] * len(data), config)
        assert widths[:6] == [4, 4, 1, 1, 1, 1] and widths[6] == 3
        for row, M in zip(rows, data):
            try:
                xi, traj, report = fixed_point_recover(CHEMO, cond, M, config)
            except NumericalError as exc:
                assert (type(row.error), str(row.error)) == (type(exc), str(exc))
                assert row.error.report == exc.report
                continue
            assert row.error is None and row.report == report
            assert np.array_equal(row.xi, xi) and np.array_equal(row.states, traj.states)
    assert [row.error is None for row in rows] == [True, True, True, False]
    assert str(rows[3].error) == message
    assert len(rows[3].report.sigma_min_history) == 1
