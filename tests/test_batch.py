"""Scans and probes sweep their rows together: each row's outcome equals the
one-row recovery of its amplitude or start, bit for bit, however the rows
end and however many rows a batch holds."""
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import avgrec.evolution
import avgrec.solver
from avgrec.averaging import AveragingCondition, Variant
from avgrec.errors import ConvergenceError, NumericalError
from avgrec.evolution import (
    OperatorPath,
    PropagatorMethod,
    TimeGrid,
    series_peak_bytes,
    step_factors,
    stepper_peak_bytes,
)
from avgrec.models import ChemotaxisModel, LinearTestModel
from avgrec.solver import (
    ProbeReport,
    RecoveryConfig,
    ScanResult,
    ScanRow,
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
            (weighted_distance(limits[i], limits[k], model) for i, k in pairs), default=0.0
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
            assert np.array_equal(row.xi, xi) and np.array_equal(row.u.states, traj.states)
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


def test_zero_start_sweep_eliminates_one_node_for_every_row(monkeypatch):
    # Every row of a scan starts from the zero trajectory, whose path is
    # constant: its first sweep eliminates one node for all rows, and the
    # later sweeps eliminate the nodes of all their rows at once.
    original, widths = avgrec.evolution._one_step_factors, []

    def recorded(bands, h):
        rows, nodes = bands[1].shape[:2]
        widths.append(rows * (nodes - 1))
        return original(bands, h)

    monkeypatch.setattr(avgrec.evolution, "_one_step_factors", recorded)
    result = ladder_scan(PropagatorMethod.STEPPER, Variant.TERMINAL_DIFFERENCE)
    assert widths[0] == 1
    running = sum(row.iterations >= 2 for row in result.rows)
    assert running > 1 and widths[1] >= running * K


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
        step_factors(OperatorPath(grid, model.linearise(states)[0], 0.5))
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
        (traj, xi, sigma, dist), (single_traj, single_xi, single_sigma, single_dist) = (
            outcomes[r], singles[r]
        )
        assert np.array_equal(traj.states, single_traj.states)
        assert np.array_equal(xi, single_xi) and sigma == single_sigma and dist == single_dist


def test_a_nan_resolvent_fails_its_own_row(monkeypatch):
    # One row's resolvent turns NaN once its Duhamel sums grow: that row's
    # own SVD raises and it fails as its single-row recovery does, leaving
    # the computable regime, while the others go on.
    original = avgrec.solver.resolvent_matrix

    def spoiled(cond, values):
        resolvent = original(cond, values)
        return np.full_like(resolvent, np.nan) if np.abs(values.sums).max() > 1e-3 else resolvent

    monkeypatch.setattr(avgrec.solver, "resolvent_matrix", spoiled)
    config = RecoveryConfig(**LADDER_CONFIG)
    cond, amplitudes = condition(Variant.TERMINAL_DIFFERENCE), [0.01, 0.1, 0.5, 1.0]
    result = smallness_scan(CHEMO, cond, DIRECTION, amplitudes, config)
    assert result == scan_reference(CHEMO, cond, DIRECTION, amplitudes, config)
    notes = [row.note for row in result.rows]
    assert "ConvergenceError: iteration left the computable regime: SVD did not converge" in notes
    assert result.rows[0].converged
