"""Per-layer metrics: which package names are traced as which layer, and how
one traced operation's spans and counts become metrics.

Layers are the package modules.  The benchmark wraps the public names the
solver's sweep looks up, in the namespace where it looks them up; a later
version of the package that folds or deletes one of them leaves its layer
absent (reported, with metrics of 0) instead of breaking the run.
"""
from __future__ import annotations

from tracer import Target, Tracer, self_times

ROOT_SPAN = "solver"
EMIT_SPAN = "artifacts.emit"
TABLE_MB = "evolution.table_mb"


def record_table_size(tracer: Tracer, table) -> None:
    """Bytes held by a returned propagator table's rows, in MiB."""
    rows = getattr(table, "rows", None)
    if rows is not None:
        tracer.values[TABLE_MB].append(sum(row.nbytes for row in rows) / 2**20)


TARGETS = (
    # Recoveries nested in a scan: their self time is the solver's own work.
    Target("solver", "avgrec.solver", "fixed_point_recover"),
    # The models' assemble_A at every time node.
    Target("solver.operator_path", "avgrec.solver", "operator_path"),
    Target("evolution.propagator", "avgrec.solver", "evolution_stepper", record_table_size),
    Target("evolution.propagator", "avgrec.solver", "evolution_series", record_table_size),
    Target("spatial.matrix_exponential", "avgrec.evolution", "matrix_exponential"),
    Target("averaging.duhamel_sums", "avgrec.solver", "duhamel_sums"),
    Target("averaging.duhamel_sums", "avgrec.averaging", "duhamel_sums"),
    Target("averaging.resolvent_matrix", "avgrec.solver", "resolvent_matrix"),
    Target("averaging.data_shift", "avgrec.solver", "data_shift"),
    Target("averaging.terminal_forcing", "avgrec.averaging", "terminal_forcing"),
    Target("spatial.smallest_singular_value", "avgrec.solver", "smallest_singular_value"),
    Target("spatial.smallest_singular_value", "avgrec.averaging", "smallest_singular_value"),
    Target("solver.weighted_distance", "avgrec.solver", "weighted_distance"),
)

TIMED = (
    "solver.operator_path",
    "evolution.propagator",
    "spatial.matrix_exponential",
    "averaging.duhamel_sums",
    "averaging.resolvent_matrix",
    "averaging.data_shift",
    "averaging.terminal_forcing",
    "solver.weighted_distance",
)
COUNTED = (
    "solver.operator_path",
    "evolution.propagator",
    "spatial.matrix_exponential",
    "averaging.duhamel_sums",
)
SCAN_FAILURES = ("SingularOperatorError", "ConvergenceError")

# Every per-layer metric with its unit, as declared in BENCHMARK.json.
UNITS = {
    "solver.solve.s": "s",
    "solver.self.s": "s",
    **{f"{layer}.s": "s" for layer in TIMED},
    **{f"{layer}.calls": "count" for layer in COUNTED},
    TABLE_MB: "MiB",
    "spatial.smallest_singular_value.calls_per_sweep": "1/sweep",
    "solver.iterations": "count",
    "solver.builds_per_iteration": "ratio",
    "solver.scan_rows_converged": "count",
    **{f"solver.scan_rows_failed.{kind}": "count" for kind in SCAN_FAILURES},
    "solver.scan_rows_failed.other": "count",
    "cli.build_observation.s": "s",
    "artifacts.emit.s": "s",
    "trace_overhead": "ratio",
}


def absent_layers(absent: list[str]) -> list[str]:
    """Layers none of whose targets exist."""
    missing: dict[str, list[bool]] = {}
    for target in TARGETS:
        missing.setdefault(target.layer, []).append(target.qualname in absent)
    return sorted(layer for layer, flags in missing.items() if all(flags))


def operation_metrics(tracer: Tracer, iterations: int, outcomes: dict) -> dict:
    """Per-layer metrics of one traced operation.

    The operation runs under a root span named ROOT_SPAN and its artifacts
    are emitted under EMIT_SPAN.  ``outcomes`` counts scan rows by
    'converged' or failing exception type (empty for a recovery).
    """
    selfs = self_times(tracer.spans)
    calls = tracer.calls

    def per_sweep(count: int) -> float:
        return count / iterations if iterations else 0.0

    root = next(s for s in tracer.spans if s.parent is None and s.name == ROOT_SPAN)
    record = {
        "solver.solve.s": root.end - root.start,
        "solver.self.s": selfs.get(ROOT_SPAN, 0.0),
        **{f"{layer}.s": selfs.get(layer, 0.0) for layer in TIMED},
        **{f"{layer}.calls": calls[layer] for layer in COUNTED},
        TABLE_MB: max(tracer.values[TABLE_MB], default=0.0),
        "spatial.smallest_singular_value.calls_per_sweep": per_sweep(
            calls["spatial.smallest_singular_value"]
        ),
        "solver.iterations": iterations,
        "solver.builds_per_iteration": per_sweep(calls["evolution.propagator"]),
        "solver.scan_rows_converged": outcomes.get("converged", 0),
        **{f"solver.scan_rows_failed.{kind}": outcomes.get(kind, 0) for kind in SCAN_FAILURES},
        "solver.scan_rows_failed.other": sum(
            count for kind, count in outcomes.items() if kind not in ("converged", *SCAN_FAILURES)
        ),
        "artifacts.emit.s": selfs.get(EMIT_SPAN, 0.0),
    }
    return record
