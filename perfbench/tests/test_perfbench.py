"""Tests of the benchmark's own logic: span arithmetic, instrumentation,
the correctness gate and a small run of each workload shape.

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
import types

import numpy as np
import pytest

import layers
import measure
import run
import workloads
from clock import Interval
from tracer import Span, Target, Tracer, instrument, self_times

TINY = {"grid": {"n": 8}, "time": {"steps": 16}}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("b", 6.0, 8.0, 0),  # overlaps its sibling: covered once
        Span("late", 9.5, 11.0, 0),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - (3.0 + 3.0 + 0.5))
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["leaf"] == pytest.approx(1.0)
    assert selfs["b"] == pytest.approx(4.0)
    assert selfs["late"] == pytest.approx(1.5)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")
    exec(
        "def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n",
        module.__dict__,
    )
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_instrument_records_parents_counts_and_restores(fake_module):
    originals = (fake_module.outer, fake_module.inner)
    tracer = Tracer()
    recorded = []
    targets = (
        Target("outer", fake_module.__name__, "outer"),
        Target("inner", fake_module.__name__, "inner", lambda t, result: recorded.append(result)),
    )
    with instrument(tracer, targets) as absent:
        assert fake_module.outer(1) == 4
    assert absent == []
    assert (fake_module.outer, fake_module.inner) == originals
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert recorded == [2]
    outer, inner = tracer.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent) == ("inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_instrument_restores_after_an_exception(fake_module):
    original = fake_module.inner
    with pytest.raises(RuntimeError):
        with instrument(Tracer(), (Target("inner", fake_module.__name__, "inner"),)):
            raise RuntimeError("boom")
    assert fake_module.inner is original


def test_missing_names_are_reported_absent(fake_module):
    targets = (
        Target("gone", fake_module.__name__, "removed_step"),
        Target("nomodule", "perfbench_no_such_module", "step"),
        Target("inner", fake_module.__name__, "inner"),
    )
    with instrument(Tracer(), targets) as absent:
        pass
    assert absent == [f"{fake_module.__name__}.removed_step", "perfbench_no_such_module.step"]


def test_a_layer_is_absent_only_when_all_its_names_are():
    one = ["avgrec.solver.duhamel_sums"]
    both = one + ["avgrec.averaging.duhamel_sums"]
    assert "averaging.duhamel_sums" not in layers.absent_layers(one)
    assert "averaging.duhamel_sums" in layers.absent_layers(both)


def test_run_survives_a_deleted_package_name(monkeypatch):
    import avgrec.averaging

    # Never called on a time-average recovery, so deleting it changes no numbers.
    monkeypatch.delattr(avgrec.averaging, "terminal_forcing")
    info, result = measure.run_workload("recover-stepper", 0, 0.0, True, TINY, setup_samples=1)
    assert result["correct"]
    assert "avgrec.averaging.terminal_forcing" in info["absent"]
    assert info["absent_layers"] == ["averaging.terminal_forcing"]
    assert result["metrics"]["averaging.terminal_forcing.s"]["value"] == 0.0


def test_gate_fails_a_perturbed_recovery():
    case = workloads.build("recover-stepper", 0, TINY)
    reference = workloads.reference_error(case)
    u0, traj, report = workloads.run(case)
    assert workloads.check(case, (u0, traj, report), reference) == []
    perturbed = u0 + 0.2 * np.abs(case.truth).max() * np.cos(3 * np.pi * case.model.base.grid.nodes)
    failures = workloads.check(case, (perturbed, traj, report), reference)
    assert len(failures) == 1 and failures[0].startswith("u0_rel_err")


def test_perturbed_recovery_counts_as_a_failed_operation():
    def perturbed_run(case):
        u0, traj, report = workloads.run(case)
        return u0 * 1.5, traj, report

    info, result = measure.run_workload(
        "recover-stepper", 0, 0.0, False, TINY, setup_samples=1, run_op=perturbed_run
    )
    assert result["attempted"] == info["ops"] == 1
    assert result["failed"] == info["ops_failed"] == 1
    assert result["correct"] is False


def test_interval_is_normalised_by_the_kernel_around_it():
    from clock import REFERENCE_KERNEL_S

    span = Interval(wall=2.0, before=REFERENCE_KERNEL_S, after=3 * REFERENCE_KERNEL_S)
    assert span.normalised == pytest.approx(1.0)


def _row(converged, note=""):
    return types.SimpleNamespace(converged=converged, iterations=4, note=note)


def test_scan_gate():
    ok = types.SimpleNamespace(rows=(_row(True), _row(True), _row(False, "ConvergenceError: x")))
    reentrant = types.SimpleNamespace(rows=(_row(True), _row(False, "X: y"), _row(True)))
    first_fails = types.SimpleNamespace(rows=(_row(False, "SingularOperatorError: z"),))
    assert workloads.check_scan(ok) == []
    assert workloads.check_scan(reentrant) != []
    assert workloads.check_scan(first_fails) != []
    assert workloads.row_outcomes(ok) == {"converged": 2, "ConvergenceError": 1}


def test_benchmark_json_matches_the_reported_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(workload, trace):
    info, result = measure.run_workload(workload, 1, 0.0, trace, TINY, setup_samples=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert info["absent"] == []
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["evolution.propagator.calls"] >= metrics["solver.iterations"] > 0
        if workload == "scan-terminal":
            rows = metrics["solver.scan_rows_converged"] + sum(
                value for name, value in metrics.items() if name.startswith("solver.scan_rows_failed")
            )
            assert rows == len(workloads.SCAN_LADDER.split())
