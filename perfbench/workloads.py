"""The benchmark's workloads: seeded inputs, the timed operation, its
correctness gate and the artifacts it emits.

The package is driven the way ``avgrec recover`` and ``avgrec scan`` drive
it: a config document goes through ``cli.parse_config`` and the ``cli``
builders, the observation comes from ``cli.build_observation``, the
operation is ``solver.fixed_point_recover`` or ``solver.smallness_scan``,
and the results go through the ``artifacts`` emitters.  Only the
manufactured initial state is the benchmark's own: it is drawn from the
seed, because the CLI's fixed profiles would make every seed identical.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from avgrec import artifacts, cli, solver

# The amplitude ladder shipped in configs/chemotaxis_scan.ini.
SCAN_LADDER = "0.01 0.0313857 0.0985061 0.309168 0.970346 3.0455 9.5585 30"

WORKLOADS = {
    "recover-stepper": {
        "model": {"kind": "chemotaxis"},
        "grid": {"n": 32},
        "time": {"horizon": 0.5, "steps": 256},
        "condition": {"variant": "time_average", "weight": "constant"},
        "solver": {"method": "stepper"},
        "run": {"operation": "recover"},
    },
    "recover-series": {
        "model": {"kind": "reaction_diffusion"},
        "grid": {"n": 16},
        "time": {"horizon": 0.5, "steps": 96},
        "condition": {"variant": "initial_plus_average", "weight": "exp_decay"},
        "solver": {"method": "series"},
        "run": {"operation": "recover"},
    },
    "scan-terminal": {
        "model": {"kind": "chemotaxis"},
        "grid": {"n": 16},
        "time": {"horizon": 0.5, "steps": 64},
        "condition": {"variant": "terminal_difference", "weight": "constant", "w0": 0.5},
        "solver": {"method": "stepper", "max_iters": 40},
        "data": {"amplitudes": SCAN_LADDER},
        "run": {"operation": "scan"},
    },
}

# Manufactured state: the cosine mode cos(pi x / L) plus modes 2..MODES with
# seeded relative weights in [-PERTURBATION, PERTURBATION], scaled to a peak
# of the config's amplitude (0.01).  The recovery amplifies high modes, so a
# larger perturbation spreads u0_rel_err and the scan's breakdown row across
# seeds far more than it changes the work done.
MODES = 4
PERTURBATION = 0.03

RESIDUAL_LIMIT = 1e-10
# Allowed u0_rel_err / self_convergence_error.  Acceptance criterion 4 allows
# 3 on the cosine profile; seeded multi-mode profiles measure up to about 4
# on recover-stepper (see perfbench/README.md).
ERROR_MULTIPLE = 5.0


@dataclass(frozen=True)
class Case:
    """One workload instance: everything the timed operation needs."""

    operation: str  # "recover" or "scan"
    cfg: object
    model: object
    cond: object
    recovery: object
    truth: np.ndarray  # manufactured initial state
    observation: np.ndarray  # M handed to the solver


def config_text(name: str, seed: int, overrides: dict | None = None) -> str:
    """The workload's config document; ``overrides`` maps section -> key -> value."""
    sections = {section: dict(keys) for section, keys in WORKLOADS[name].items()}
    sections.setdefault("data", {}).update({"source": "manufactured", "amplitude": 0.01})
    sections["run"]["seed"] = seed
    for section, keys in (overrides or {}).items():
        sections.setdefault(section, {}).update(keys)
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def manufactured_state(seed: int, grid, amplitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    weights = np.concatenate(([1.0], rng.uniform(-PERTURBATION, PERTURBATION, MODES - 1)))
    modes = np.cos(np.outer(np.arange(1, MODES + 1), np.pi * grid.nodes / grid.length))
    profile = weights @ modes
    return amplitude * profile / np.abs(profile).max()


def manufactured_observation(cfg, model, cond, truth: np.ndarray) -> np.ndarray:
    """``cli.build_observation`` on the seeded state.

    The CLI's manufactured source takes its initial state from
    ``cli.initial_profile``; that hook is pointed at ``truth`` for the call.
    """
    original = cli.initial_profile
    cli.initial_profile = lambda _cfg, _grid: truth
    try:
        return cli.build_observation(cfg, model, cond)
    finally:
        cli.initial_profile = original


def build(name: str, seed: int, overrides: dict | None = None, observe=None) -> Case:
    """Set-up as a CLI invocation pays it: parse, build, observe.

    ``observe`` wraps the observation step, so a tracer can time it.
    """
    cfg = cli.parse_config(config_text(name, seed, overrides))
    model = cli.build_model(cfg)
    cond = cli.build_condition(cfg)
    recovery = cli.build_recovery_config(cfg)
    truth = manufactured_state(seed, model.base.grid, cfg.amplitude)
    observation = (observe or manufactured_observation)(cfg, model, cond, truth)
    return Case(cfg.operation, cfg, model, cond, recovery, truth, observation)


def run(case: Case):
    """The timed operation.  Names are looked up on the module at call time,
    so an instrumented binding is the one that runs."""
    if case.operation == "recover":
        return solver.fixed_point_recover(case.model, case.cond, case.observation, case.recovery)
    norm = np.linalg.norm(case.observation)
    direction = case.observation / norm if norm > 0 else case.observation
    return solver.smallness_scan(
        case.model, case.cond, direction, list(case.cfg.amplitudes), case.recovery
    )


def iterations(case: Case, result) -> int:
    """Fixed-point iterations the operation reports: the solve's, or the sum
    over the scan's converged rows.

    Failed rows report their sweeps inconsistently: 0 when a sweep raised
    (singular resolvent, non-finite values), the count when the distances
    diverged, though both ran sweeps.  Which way the breakdown row fails
    changes with the seed and with roundoff, so it is left out of the count.
    """
    if case.operation == "recover":
        return result[2].iterates
    return sum(row.iterations for row in result.rows if row.converged)


def recovery_error(case: Case, u0: np.ndarray) -> float:
    return float(np.linalg.norm(u0 - case.truth) / np.linalg.norm(case.truth))


def reference_error(case: Case) -> float:
    """E(h), the forward solver's measured accuracy at the seeded state."""
    return solver.self_convergence_error(case.model, case.truth, case.cond.grid)


def check_recovery(case: Case, result, reference: float) -> list[str]:
    """Failures of one recovery: it must converge, close its condition to
    RESIDUAL_LIMIT, and land within ERROR_MULTIPLE * E(h) of the truth."""
    u0, _, report = result
    failures = []
    if not report.converged:
        failures.append("did not converge")
    if not report.residual <= RESIDUAL_LIMIT:
        failures.append(f"residual {report.residual:.3e} > {RESIDUAL_LIMIT:.0e}")
    err = recovery_error(case, u0)
    if not err <= ERROR_MULTIPLE * reference:
        failures.append(
            f"u0_rel_err {err:.4e} > {ERROR_MULTIPLE} x E(h) = {ERROR_MULTIPLE * reference:.4e}"
        )
    return failures


def check_scan(result) -> list[str]:
    """Failures of one scan: the smallest amplitude converges and the rows
    are a converged prefix followed only by failures.  Failed rows are
    outcomes, not failures of the operation."""
    flags = [row.converged for row in result.rows]
    failures = []
    if not flags or not flags[0]:
        failures.append("smallest amplitude did not converge")
    if flags != sorted(flags, reverse=True):
        failures.append(f"rows are not monotone: {flags}")
    return failures


def check(case: Case, result, reference: float) -> list[str]:
    if case.operation == "recover":
        return check_recovery(case, result, reference)
    return check_scan(result)


def row_outcomes(result) -> dict[str, int]:
    """Scan rows by outcome: 'converged' or the failing exception's type."""
    outcomes: dict[str, int] = {}
    for row in result.rows:
        key = "converged" if row.converged else row.note.split(":", 1)[0]
        outcomes[key] = outcomes.get(key, 0) + 1
    return outcomes


def emit(case: Case, result, out_dir: Path) -> None:
    """Write the artifacts the CLI writes for this operation."""
    if case.operation == "recover":
        u0, traj, report = result
        artifacts.emit_trajectory_csv(traj, out_dir / "trajectory.csv")
        artifacts.emit_field_csv(case.model.base.grid.nodes, u0, out_dir / "recovered_u0.csv")
        payload = {"operation": "recover", "status": "ok", "solve": report.to_dict()}
    else:
        artifacts.emit_scan_csv(result, out_dir / "scan.csv")
        payload = {"operation": "scan", "status": "ok", "scan": result.to_dict()}
    artifacts.emit_report_json(payload, out_dir / "report.json")

