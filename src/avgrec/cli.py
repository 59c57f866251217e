"""Batch command-line front end.

Verbs: ``recover`` | ``forward`` | ``scan`` | ``probe`` | ``validate``, each
driven by a flat sectioned key-value configuration file (see
``configs/SCHEMA.md``).  Runs are deterministic: the seed is explicit in the
config (default 0) and identical config + seed reproduce artifacts
byte-for-byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from . import artifacts as art
from .averaging import AveragingCondition, Variant, WEIGHT_PRESETS, observe
from .errors import ConfigurationError, NumericalError
from .evolution import (
    MEMORY_BUDGET,
    PropagatorMethod,
    TimeGrid,
    series_peak_bytes,
    stepper_peak_bytes,
)
from .models import (
    ChemotaxisModel,
    ExponentBook,
    LinearTestModel,
    NonlocalRDModel,
    validate_exponents,
)
from .solver import (
    RecoveryConfig,
    Trajectory,
    contraction_probe,
    fixed_point_recover,
    forward_solve,
    smallness_scan,
)
from .spatial import BoundaryKind, build_grid

OPERATIONS = ("recover", "forward", "scan", "probe", "validate")
MODEL_KINDS = ("chemotaxis", "reaction_diffusion", "linear_test")
U0_PROFILES = ("cosine", "sine", "gaussian")
DATA_SOURCES = ("manufactured", "file", "zero")

_EXPONENT_KEYS = ("beta", "alpha", "alpha0", "gamma", "xi", "mu", "rho", "ell")

# section -> key -> (type tag, default as string; None means required)
_SCHEMA = {
    "model": {
        "kind": ("str", "chemotaxis"),
        "delta": ("float", "1.0"),
        "s": ("float", "2.25"),
        "ball_radius": ("float", "1.0"),
        "coefficient": ("float", "1.0"),
        "p": ("float", "4.0"),
        "f_poly": ("floats", "0 0 0 -1"),
    },
    "grid": {
        "n": ("int", "32"),
        "length": ("float", "1.0"),
        "bc": ("str", "neumann"),
    },
    "time": {
        "horizon": ("float", "0.5"),
        "steps": ("int", "128"),
    },
    "condition": {
        "variant": ("str", "time_average"),
        "weight": ("str", "constant"),
        "w0": ("float", "0.0"),
    },
    "exponents": {key: ("optfloat", "") for key in _EXPONENT_KEYS},
    "solver": {
        "max_iters": ("int", "30"),
        "tol": ("float", "1e-11"),
        "relaxation": ("float", "1.0"),
        "ball_l": ("float", "0.5"),
        "sigma_floor": ("optfloat", ""),
        "method": ("str", "stepper"),
    },
    "data": {
        "source": ("str", "manufactured"),
        "u0_profile": ("str", "cosine"),
        "amplitude": ("float", "0.01"),
        "path": ("str", ""),
        "amplitudes": ("floats", ""),
    },
    "run": {
        "seed": ("int", "0"),
        "out": ("str", "runs/out"),
        "operation": ("str", "recover"),
        "trials": ("int", "5"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; plain values only, so equality and
    round-trip serialization are exact."""

    model_kind: str
    delta: float
    s: float
    ball_radius: float
    coefficient: float
    p: float
    f_poly: tuple
    grid_n: int
    grid_length: float
    grid_bc: str
    horizon: float
    steps: int
    variant: str
    weight: str
    w0: float
    exponents: tuple | None  # ((key, value), ...) overrides or None
    max_iters: int
    tol: float
    relaxation: float
    ball_l: float
    sigma_floor: float | None
    method: str
    data_source: str
    u0_profile: str
    amplitude: float
    data_path: str
    amplitudes: tuple
    seed: int
    out: str
    operation: str
    trials: int


def _convert(section: str, key: str, tag: str, raw: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "optfloat":
            return float(raw) if raw else None
        if tag == "floats":
            return tuple(float(tok) for tok in raw.split())
        return raw
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Unknown sections or keys, unparsable values, inadmissible weight/variant
    combinations, and exponent-book violations are all rejected with the
    offending path named.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed configuration: {exc}") from None
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown key [{section}] {key}")
            values[section][key] = raw
    out: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        out[section] = {}
        for key, (tag, default) in keys.items():
            raw = values.get(section, {}).get(key, default)
            out[section][key] = _convert(section, key, tag, raw)

    exponents = None
    exp_items = tuple(
        (key, out["exponents"][key]) for key in _EXPONENT_KEYS if out["exponents"][key] is not None
    )
    if exp_items:
        if len(exp_items) != len(_EXPONENT_KEYS):
            missing = [k for k in _EXPONENT_KEYS if out["exponents"][k] is None]
            raise ConfigurationError(
                f"[exponents] overrides must set the full book; missing {missing}"
            )
        exponents = exp_items

    cfg = ExperimentConfig(
        model_kind=out["model"]["kind"],
        delta=out["model"]["delta"],
        s=out["model"]["s"],
        ball_radius=out["model"]["ball_radius"],
        coefficient=out["model"]["coefficient"],
        p=out["model"]["p"],
        f_poly=out["model"]["f_poly"],
        grid_n=out["grid"]["n"],
        grid_length=out["grid"]["length"],
        grid_bc=out["grid"]["bc"],
        horizon=out["time"]["horizon"],
        steps=out["time"]["steps"],
        variant=out["condition"]["variant"],
        weight=out["condition"]["weight"],
        w0=out["condition"]["w0"],
        exponents=exponents,
        max_iters=out["solver"]["max_iters"],
        tol=out["solver"]["tol"],
        relaxation=out["solver"]["relaxation"],
        ball_l=out["solver"]["ball_l"],
        sigma_floor=out["solver"]["sigma_floor"],
        method=out["solver"]["method"],
        data_source=out["data"]["source"],
        u0_profile=out["data"]["u0_profile"],
        amplitude=out["data"]["amplitude"],
        data_path=out["data"]["path"],
        amplitudes=out["data"]["amplitudes"],
        seed=out["run"]["seed"],
        out=out["run"]["out"],
        operation=out["run"]["operation"],
        trials=out["run"]["trials"],
    )
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    def choice(section, key, value, allowed):
        if value not in allowed:
            raise ConfigurationError(f"[{section}] {key}: {value!r} not one of {sorted(allowed)}")

    choice("model", "kind", cfg.model_kind, MODEL_KINDS)
    choice("grid", "bc", cfg.grid_bc, tuple(b.value for b in BoundaryKind))
    choice("condition", "variant", cfg.variant, tuple(v.value for v in Variant))
    choice("condition", "weight", cfg.weight, tuple(WEIGHT_PRESETS))
    choice("solver", "method", cfg.method, ("stepper", "series"))
    choice("data", "source", cfg.data_source, DATA_SOURCES)
    choice("data", "u0_profile", cfg.u0_profile, U0_PROFILES)
    choice("run", "operation", cfg.operation, OPERATIONS)
    if cfg.variant == Variant.TIME_AVERAGE.value and cfg.weight == "ramp":
        raise ConfigurationError(
            "[condition] weight: the ramp weight vanishes at t=0, which the "
            "time-average condition does not admit (w(0) must be nonzero)"
        )
    if cfg.data_source == "file" and not cfg.data_path:
        raise ConfigurationError("[data] path: required when source = file")
    if cfg.steps < 1:
        raise ConfigurationError("[time] steps: must be at least 1")
    if cfg.horizon <= 0:
        raise ConfigurationError("[time] horizon: must be positive")
    stepper_need = stepper_peak_bytes(cfg.grid_n, cfg.steps)
    if cfg.method == "series":
        name, need = "kernel series", series_peak_bytes(cfg.grid_n, cfg.steps)
    else:
        name, need = "stepper", stepper_need
    if need > MEMORY_BUDGET:
        hint = "; use method = stepper" if stepper_need <= MEMORY_BUDGET else ""
        raise ConfigurationError(
            f"[solver] method: the {name} at n={cfg.grid_n}, K={cfg.steps} "
            f"needs an estimated {need / 2**20:.0f} MiB, over the "
            f"{MEMORY_BUDGET / 2**20:.0f} MiB budget{hint}"
        )


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, tuple):
            return " ".join(art.FLOAT_FMT.format(v) for v in value)
        if isinstance(value, float):
            return art.FLOAT_FMT.format(value)
        return str(value)

    exp = dict(cfg.exponents) if cfg.exponents else {}
    sections = {
        "model": {
            "kind": cfg.model_kind,
            "delta": cfg.delta,
            "s": cfg.s,
            "ball_radius": cfg.ball_radius,
            "coefficient": cfg.coefficient,
            "p": cfg.p,
            "f_poly": cfg.f_poly,
        },
        "grid": {"n": cfg.grid_n, "length": cfg.grid_length, "bc": cfg.grid_bc},
        "time": {"horizon": cfg.horizon, "steps": cfg.steps},
        "condition": {"variant": cfg.variant, "weight": cfg.weight, "w0": cfg.w0},
        "exponents": {key: exp.get(key) for key in _EXPONENT_KEYS},
        "solver": {
            "max_iters": cfg.max_iters,
            "tol": cfg.tol,
            "relaxation": cfg.relaxation,
            "ball_l": cfg.ball_l,
            "sigma_floor": cfg.sigma_floor,
            "method": cfg.method,
        },
        "data": {
            "source": cfg.data_source,
            "u0_profile": cfg.u0_profile,
            "amplitude": cfg.amplitude,
            "path": cfg.data_path,
            "amplitudes": cfg.amplitudes,
        },
        "run": {
            "seed": cfg.seed,
            "out": cfg.out,
            "operation": cfg.operation,
            "trials": cfg.trials,
        },
    }
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {fmt(value)}")
        lines.append("")
    return "\n".join(lines)


def build_grid_from(cfg: ExperimentConfig):
    return build_grid(cfg.grid_n, cfg.grid_length, BoundaryKind(cfg.grid_bc))


def build_model(cfg: ExperimentConfig):
    grid = build_grid_from(cfg)
    if cfg.model_kind == "chemotaxis":
        model = ChemotaxisModel.default(
            grid, delta=cfg.delta, s=cfg.s, ball_radius=cfg.ball_radius
        )
    elif cfg.model_kind == "reaction_diffusion":
        model = NonlocalRDModel.default(
            grid, poly_coeffs=cfg.f_poly, p=cfg.p, ball_radius=cfg.ball_radius
        )
    else:
        model = LinearTestModel.default(grid, coefficient=cfg.coefficient)
    if cfg.exponents is not None:
        model = replace(model, exponents=ExponentBook(**dict(cfg.exponents)))
    report = validate_exponents(model)
    if not report.all_passed:
        raise ConfigurationError(
            "exponent book rejected; failed constraints: " + "; ".join(report.failures())
        )
    return model


def build_condition(cfg: ExperimentConfig) -> AveragingCondition:
    tg = TimeGrid(T=cfg.horizon, K=cfg.steps)
    return AveragingCondition.from_preset(tg, Variant(cfg.variant), cfg.weight, w0=cfg.w0)


def build_recovery_config(cfg: ExperimentConfig) -> RecoveryConfig:
    method = PropagatorMethod.STEPPER if cfg.method == "stepper" else PropagatorMethod.KERNEL_SERIES
    return RecoveryConfig(
        max_iters=cfg.max_iters,
        tol_fixed_point=cfg.tol,
        relaxation=cfg.relaxation,
        ball_L=cfg.ball_l,
        sigma_floor=cfg.sigma_floor,
        method=method,
    )


def initial_profile(cfg: ExperimentConfig, grid) -> np.ndarray:
    x = grid.nodes
    L = grid.length
    if cfg.u0_profile == "cosine":
        return cfg.amplitude * np.cos(np.pi * x / L)
    if cfg.u0_profile == "sine":
        return cfg.amplitude * np.sin(np.pi * x / L)
    return cfg.amplitude * np.exp(-(((x - 0.5 * L) / (0.2 * L)) ** 2))


def build_observation(cfg: ExperimentConfig, model, cond: AveragingCondition) -> np.ndarray:
    """M from the configured source: forward-solved manufactured data, a CSV
    field, or zero."""
    grid = model.base.grid
    if cfg.data_source == "zero":
        return np.zeros(grid.n)
    if cfg.data_source == "file":
        return art.read_field_csv(cfg.data_path)
    truth = forward_solve(model, initial_profile(cfg, grid), cond.grid)
    return observe(cond, truth.states)


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = asdict(cfg)
    echo["f_poly"] = list(cfg.f_poly)
    echo["amplitudes"] = list(cfg.amplitudes)
    echo["exponents"] = dict(cfg.exponents) if cfg.exponents else None
    return echo


def run_experiment(cfg: ExperimentConfig) -> art.RunArtifacts:
    """Build the model, generate or load the observation, run the configured
    operation, and persist artifacts.

    Numerical failures are written to the run report (machine readable, with
    sigma_min when a singular resolvent caused them) before being re-raised.
    """
    out_dir = Path(cfg.out)
    artifacts = art.RunArtifacts(out_dir=out_dir)
    report_path = out_dir / "report.json"
    payload = {"config": _config_echo(cfg), "operation": cfg.operation, "status": "ok"}
    try:
        model = build_model(cfg)
        payload["exponents"] = validate_exponents(model).to_dict()
        if cfg.operation == "validate":
            return _finish(artifacts, report_path, payload)
        cond = build_condition(cfg)
        grid = model.base.grid
        if cfg.operation == "forward":
            traj = forward_solve(model, initial_profile(cfg, grid), cond.grid)
            artifacts.trajectory_path = out_dir / "trajectory.csv"
            art.emit_trajectory_csv(traj, artifacts.trajectory_path)
            payload["forward"] = {"final_norm": float(np.linalg.norm(traj.states[-1]))}
            result = _finish(artifacts, report_path, payload)
            art.emit_plot_script(artifacts, "trajectory")
            return result
        rec_cfg = build_recovery_config(cfg)
        M = build_observation(cfg, model, cond)
        if cfg.operation == "recover":
            u0, traj, solve_report = fixed_point_recover(model, cond, M, rec_cfg)
            artifacts.trajectory_path = out_dir / "trajectory.csv"
            artifacts.recovered_path = out_dir / "recovered_u0.csv"
            art.emit_trajectory_csv(traj, artifacts.trajectory_path)
            art.emit_field_csv(grid.nodes, u0, artifacts.recovered_path)
            payload["solve"] = solve_report.to_dict()
            result = _finish(artifacts, report_path, payload)
            art.emit_plot_script(artifacts, "trajectory")
            art.emit_plot_script(artifacts, "convergence")
            return result
        if cfg.operation == "scan":
            if not cfg.amplitudes:
                raise ConfigurationError("[data] amplitudes: required for the scan operation")
            norm = np.linalg.norm(M)
            direction = M / norm if norm > 0 else M
            scan = smallness_scan(model, cond, direction, list(cfg.amplitudes), rec_cfg)
            artifacts.scan_path = out_dir / "scan.csv"
            art.emit_scan_csv(scan, artifacts.scan_path)
            payload["scan"] = scan.to_dict()
            result = _finish(artifacts, report_path, payload)
            art.emit_plot_script(artifacts, "scan")
            return result
        probe = contraction_probe(model, cond, M, rec_cfg, trials=cfg.trials, seed=cfg.seed)
        payload["probe"] = probe.to_dict()
        return _finish(artifacts, report_path, payload)
    except NumericalError as exc:
        payload["status"] = "failed"
        payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
        sigma = getattr(exc, "sigma_min", None)
        if sigma is not None:
            payload["error"]["sigma_min"] = float(sigma)
        _finish(artifacts, report_path, payload)
        raise


def _finish(artifacts: art.RunArtifacts, report_path: Path, payload: dict) -> art.RunArtifacts:
    art.emit_report_json(payload, report_path)
    artifacts.report_path = report_path
    return artifacts


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgrec",
        description="Recover initial states of quasilinear parabolic problems "
        "from time-averaged observations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in OPERATIONS:
        p = sub.add_parser(verb, help=f"run the {verb} operation")
        p.add_argument("--config", required=True, help="path to the experiment configuration")
        p.add_argument("--out", default=None, help="output directory (overrides [run] out)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides [run] seed)")
        p.add_argument(
            "--method",
            choices=("stepper", "series"),
            default=None,
            help="propagator construction inside the solver",
        )
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        cfg = parse_config(text)
        overrides = {"operation": args.verb}
        if args.out is not None:
            overrides["out"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.method is not None:
            overrides["method"] = args.method
        cfg = replace(cfg, **overrides)
        _validate_config(cfg)
        artifacts = run_experiment(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    if not args.quiet:
        print(f"{args.verb}: artifacts in {artifacts.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
