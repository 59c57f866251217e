"""Measuring one workload: set-up probes, timed and traced operations, and
the metrics they produce.  run.py imports it once the BLAS threads are
pinned and the package is on the path."""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import layers
import workloads
from avgrec import solver
from avgrec.errors import NumericalError
from clock import Clock
from run import ROOT, THREAD_VARIABLES
from tracer import Tracer, instrument

RUN_SCRIPT = Path(__file__).resolve().with_name("run.py")
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120


def measure_setup(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process: import, config parsing,
    model/condition building and the manufactured observation."""
    command = [sys.executable, str(RUN_SCRIPT), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


class Operations:
    """Runs the workload's operation, checks each result, and keeps the
    timings, recovery errors and per-layer records."""

    def __init__(self, case, reference: float, out_dir: Path, clock: Clock, run_op=None):
        self.case = case
        self.reference = reference  # E(h) at the seeded state
        self.out_dir = out_dir
        self.clock = clock
        self.run_op = run_op or workloads.run
        self.timed: list = []  # (clock interval, reported iterations or None)
        self.traced_seconds: list[float] = []
        self.errors: list[float] = []
        self.layers: list[dict] = []
        self.spans: list[list[dict]] = []  # per traced operation
        self.attempted = 0
        self.failures: list[str] = []

    def _attempt(self, tracer):
        try:
            if tracer is None:
                return self.run_op(self.case)
            tracer.reset()
            with tracer.span(layers.ROOT_SPAN):
                return self.run_op(self.case)
        except NumericalError as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None

    def once(self, tracer=None) -> None:
        """One operation: untraced and bracketed by the clock, or traced."""
        self.attempted += 1
        if tracer is None:
            with self.clock.interval() as span:
                result = self._attempt(None)
        else:
            start = time.perf_counter()
            result = self._attempt(tracer)
            self.traced_seconds.append(time.perf_counter() - start)
        iterations = None
        if result is not None:
            problems = workloads.check(self.case, result, self.reference)
            if problems:
                self.failures.append("; ".join(problems))
            iterations = workloads.iterations(self.case, result)
            if self.case.operation == "recover":
                self.errors.append(workloads.recovery_error(self.case, result[0]))
        if tracer is None:
            self.timed.append((span, iterations))
            if result is not None:
                workloads.emit(self.case, result, self.out_dir)
        elif result is not None:
            with tracer.span(layers.EMIT_SPAN):
                workloads.emit(self.case, result, self.out_dir)
            outcomes = workloads.row_outcomes(result) if self.case.operation == "scan" else {}
            self.layers.append(layers.operation_metrics(tracer, iterations, outcomes))
            self.spans.append([s.to_dict() for s in tracer.spans])

    def reference_recovery(self) -> None:
        """A scan returns no states, so its u0_rel_err and accuracy check
        come from one recovery of the manufactured observation itself,
        counted as an attempted operation but not timed."""
        case = self.case
        self.attempted += 1
        try:
            result = solver.fixed_point_recover(
                case.model, case.cond, case.observation, case.recovery
            )
        except NumericalError as exc:
            self.failures.append(f"reference recovery: {type(exc).__name__}: {exc}")
            return
        problems = workloads.check_recovery(case, result, self.reference)
        if problems:
            self.failures.append("reference recovery: " + "; ".join(problems))
        self.errors.append(workloads.recovery_error(case, result[0]))


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return {"percentile": 100.0 * (index + 1) / len(ordered), "value": ordered[index]}


def run_metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None, setup_samples: int = SETUP_SAMPLES,
                 run_op=None) -> tuple[dict, dict]:
    """Measure one workload; returns the (info, result) lines to print."""
    tracer = Tracer()

    def observe(*args):
        with tracer.span("cli.build_observation"):
            return workloads.manufactured_observation(*args)

    case = workloads.build(workload, seed, overrides, observe)
    observe_s = tracer.spans[0].end - tracer.spans[0].start
    reference = workloads.reference_error(case)
    out_dir = OUT_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    ops = Operations(case, reference, out_dir, clock, run_op)
    if case.operation == "scan":
        ops.reference_recovery()

    setup = []

    def probe_setup():
        with clock.interval() as span:
            reported = measure_setup(workload, seed)
        span.wall = reported  # the child's own timer, without interpreter start-up
        setup.append(span)

    # Set-up probes are spread over the run, like the operations.
    absent: list[str] = []
    start = time.perf_counter()
    while True:
        if len(setup) < setup_samples and (
            time.perf_counter() - start >= len(setup) * seconds / setup_samples
        ):
            probe_setup()
        ops.once()
        if trace:
            # Traced operations alternate with untraced ones; the ratio of
            # their medians is the tracing overhead.
            with instrument(tracer, layers.TARGETS) as absent:
                ops.once(tracer)
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < setup_samples:
        probe_setup()
    done = [(span, iters) for span, iters in ops.timed if iters is not None]
    if not done or (trace and not ops.layers):
        raise SystemExit(f"benchmark: every operation failed: {ops.failures[:3]}")

    solve = [span.normalised for span, _ in ops.timed]
    solve_wall = [span.wall for span, _ in ops.timed]
    info = {
        "meta": run_metadata(workload, seed, seconds, trace),
        "ops": ops.attempted,
        "ops_failed": len(ops.failures),
        "failures": ops.failures[:5],
        "samples": len(solve),
        "traced_samples": len(ops.traced_seconds),
        "solve_s_samples": solve,
        "solve_s_tail": tail(solve),
        "solve_s_wall_median": statistics.median(solve_wall),
        "setup_s_samples": [span.normalised for span in setup],
        "setup_s_wall_median": statistics.median(span.wall for span in setup),
        "kernel_s": {"min": min(clock.kernel_s), "median": statistics.median(clock.kernel_s)},
    }
    if trace:
        (out_dir / "spans.json").write_text(json.dumps(ops.spans))
        info["spans"] = str(out_dir / "spans.json")
        info["absent"] = absent
        info["absent_layers"] = layers.absent_layers(absent)
        metrics = {
            name: metric(statistics.median(r[name] for r in ops.layers), layers.UNITS[name])
            for name in ops.layers[0]
        }
        metrics["cli.build_observation.s"] = metric(observe_s, "s")
        metrics["trace_overhead"] = metric(
            statistics.median(ops.traced_seconds) / statistics.median(solve_wall), "ratio"
        )
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sweep_ms = [1e3 * span.normalised / max(iters, 1) for span, iters in done]
        metrics = {
            "solve_s": metric(statistics.median(solve), "s"),
            "sweep_ms": metric(statistics.median(sweep_ms), "ms"),
            "peak_rss_mb": metric(rss_mib, "MiB"),
            "setup_s": metric(statistics.median(info["setup_s_samples"]), "s"),
            "u0_rel_err": metric(statistics.median(ops.errors), "ratio"),
        }
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }
    return info, result
