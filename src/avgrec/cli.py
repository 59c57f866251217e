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
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import groupby
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
    check_iteration_ball,
    contraction_probe,
    fixed_point_recover,
    forward_solve,
    smallness_scan,
)
from .spatial import BoundaryKind, build_grid

OPERATIONS = ("recover", "forward", "scan", "probe", "validate")


def _key(section: str, key: str | tuple, tag: str, default: str, choices=None):
    """Schema entry of one config field: ``[section] key`` (a tuple of keys
    for a field read from several), type tag (``int``, ``float``,
    ``optfloat``, ``floats`` or ``str``), default as written in a config
    file, and allowed values (None admits any)."""
    keys = key if isinstance(key, tuple) else (key,)
    return field(metadata=dict(section=section, keys=keys, tag=tag, default=default, choices=choices))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; plain values only, so equality and
    round-trip serialization are exact.

    The fields are the config schema: each carries its ``[section] key``,
    type tag, default and allowed values (``_key``), and parsing, validation,
    serialization and the report echo all read them.  A section's fields are
    consecutive, in the order a serialized config lists them.
    """

    model_kind: str = _key(
        "model", "kind", "str", "chemotaxis", ("chemotaxis", "reaction_diffusion", "linear_test")
    )
    delta: float = _key("model", "delta", "float", "1.0")
    s: float = _key("model", "s", "float", "2.25")
    ball_radius: float = _key("model", "ball_radius", "float", "1.0")
    coefficient: float = _key("model", "coefficient", "float", "1.0")
    p: float = _key("model", "p", "float", "4.0")
    f_poly: tuple = _key("model", "f_poly", "floats", "0 0 0 -1")
    grid_n: int = _key("grid", "n", "int", "32")
    grid_length: float = _key("grid", "length", "float", "1.0")
    grid_bc: str = _key("grid", "bc", "str", "neumann", tuple(b.value for b in BoundaryKind))
    horizon: float = _key("time", "horizon", "float", "0.5")
    steps: int = _key("time", "steps", "int", "128")
    variant: str = _key(
        "condition", "variant", "str", "time_average", tuple(v.value for v in Variant)
    )
    weight: str = _key("condition", "weight", "str", "constant", tuple(WEIGHT_PRESETS))
    w0: float = _key("condition", "w0", "float", "0.0")
    # ((key, value), ...) in book order, or None: the full book or none of it
    exponents: tuple | None = _key(
        "exponents", tuple(f.name for f in fields(ExponentBook)), "optfloat", ""
    )
    max_iters: int = _key("solver", "max_iters", "int", "30")
    tol: float = _key("solver", "tol", "float", "1e-11")
    ball_l: float = _key("solver", "ball_l", "float", "0.5")
    method: str = _key(
        "solver", "method", "str", "stepper", tuple(m.value for m in PropagatorMethod)
    )
    data_source: str = _key(
        "data", "source", "str", "manufactured", ("manufactured", "file", "zero")
    )
    u0_profile: str = _key("data", "u0_profile", "str", "cosine", ("cosine", "sine", "gaussian"))
    amplitude: float = _key("data", "amplitude", "float", "0.01")
    data_path: str = _key("data", "path", "str", "")
    amplitudes: tuple = _key("data", "amplitudes", "floats", "")
    seed: int = _key("run", "seed", "int", "0")
    out: str = _key("run", "out", "str", "runs/out")
    operation: str = _key("run", "operation", "str", "recover", OPERATIONS)
    trials: int = _key("run", "trials", "int", "5")


def _sections():
    """(section, its fields) in schema order."""
    return groupby(fields(ExperimentConfig), key=lambda f: f.metadata["section"])


_KEYS = {section: {k for f in group for k in f.metadata["keys"]} for section, group in _sections()}


def _convert(section: str, key: str, tag: str, raw: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "str":
            return raw
        if tag == "optfloat" and not raw:
            return None
        value = tuple(float(tok) for tok in raw.split()) if tag == "floats" else float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from None
    if not np.all(np.isfinite(value)):
        raise ConfigurationError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse a configuration document, put the ``overrides`` (field name to
    value, the command line's flags) in place of its values, and validate
    the result once.

    Unknown sections (``[DEFAULT]`` included) or keys, unparsable or
    non-finite values, inadmissible weight/variant combinations, and
    exponent-book violations are all rejected with the offending path named.
    Values are taken literally: ``%`` does not interpolate.
    """
    # No section header can name "\n", so [DEFAULT] parses as a section.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None, default_section="\n"
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed configuration: {exc}") from None
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigurationError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigurationError(f"unknown key [{section}] {key}")
    values = {}
    for f in fields(ExperimentConfig):
        section, keys, tag, default = (f.metadata[k] for k in ("section", "keys", "tag", "default"))
        read = [
            _convert(section, key, tag, parser.get(section, key, fallback=default)) for key in keys
        ]
        if len(keys) == 1:
            values[f.name] = read[0]
            continue
        missing = [key for key, value in zip(keys, read) if value is None]
        if 0 < len(missing) < len(keys):
            raise ConfigurationError(
                f"[{section}] overrides must set the full book; missing {missing}"
            )
        values[f.name] = None if missing else tuple(zip(keys, read))
    cfg = ExperimentConfig(**{**values, **overrides})
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    for f in fields(cfg):
        value, allowed = getattr(cfg, f.name), f.metadata["choices"]
        if allowed is not None and value not in allowed:
            key = f.metadata["keys"][0]
            raise ConfigurationError(
                f"[{f.metadata['section']}] {key}: {value!r} not one of {sorted(allowed)}"
            )
    build_recovery_config(cfg)
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
    if cfg.ball_radius <= 0:
        raise ConfigurationError(f"[model] ball_radius: must be positive, got {cfg.ball_radius!r}")
    if cfg.model_kind == "reaction_diffusion" and cfg.p <= 0:
        raise ConfigurationError(f"[model] p: must be positive, got {cfg.p!r}")
    amps = cfg.amplitudes
    if any(a < 0 for a in amps) or any(a2 <= a1 for a1, a2 in zip(amps, amps[1:])):
        raise ConfigurationError(
            f"[data] amplitudes: must be nonnegative and strictly ascending, got {amps!r}"
        )
    if cfg.seed < 0:
        raise ConfigurationError(f"[run] seed: must be nonnegative, got {cfg.seed}")
    if cfg.trials < 1:
        raise ConfigurationError(f"[run] trials: must be at least 1, got {cfg.trials}")
    stepper_need = stepper_peak_bytes(cfg.grid_n, cfg.steps)
    if PropagatorMethod(cfg.method) is PropagatorMethod.KERNEL_SERIES:
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


def build_grid_from(cfg: ExperimentConfig):
    return build_grid(cfg.grid_n, cfg.grid_length, BoundaryKind(cfg.grid_bc))


# The [model] key a model's derived exponent book is computed from.
_BOOK_ORDER = {"chemotaxis": "s", "reaction_diffusion": "p"}
_BOOK_SYMBOLS = frozenset(f.name for f in fields(ExponentBook))


def _constraint_keys(cfg: ExperimentConfig, constraint: str) -> str:
    """The config keys behind one exponent constraint, read off the symbols
    it names: the model's order (``[model] s`` or ``[model] p``) when the
    constraint names it or the book is derived from it, ``[model] f_poly``
    when it names ell of a derived reaction-diffusion book (ell is the
    polynomial's degree less one), and ``[exponents]`` when it names an
    exponent of a book given there."""
    symbols = set(re.findall(r"[a-z]\w*", constraint))
    order = _BOOK_ORDER.get(cfg.model_kind)
    keys = []
    if order is not None and (cfg.exponents is None or order in symbols):
        keys.append(f"[model] {order}")
    if cfg.model_kind == "reaction_diffusion" and cfg.exponents is None and "ell" in symbols:
        keys.append("[model] f_poly")
    if cfg.exponents is not None and symbols & _BOOK_SYMBOLS:
        keys.append("[exponents]")
    return ", ".join(keys)


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
            "exponent book rejected; failed constraints: "
            + "; ".join(f"{name} ({_constraint_keys(cfg, name)})" for name in report.failures())
        )
    # The implicit step's diagonal 1 - h a rounds to -h a once |h a| passes 2^53.
    h, main = cfg.horizon / cfg.steps, model.linearise(np.zeros(grid.n))[0][1]
    if np.any(1.0 - h * main == -(h * main)):
        raise ConfigurationError(
            f"[grid] length: {cfg.grid_length} is too short for n={cfg.grid_n} at time step "
            f"h={h:.6g}: the implicit step's diagonal 1 - h A(0) rounds to -h A(0)"
        )
    return model


def build_condition(cfg: ExperimentConfig) -> AveragingCondition:
    tg = TimeGrid(T=cfg.horizon, K=cfg.steps)
    return AveragingCondition.from_preset(tg, Variant(cfg.variant), cfg.weight, w0=cfg.w0)


def build_recovery_config(cfg: ExperimentConfig) -> RecoveryConfig:
    return RecoveryConfig(
        max_iters=cfg.max_iters,
        tol_fixed_point=cfg.tol,
        ball_L=cfg.ball_l,
        method=PropagatorMethod(cfg.method),
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
    field of n finite values, or zero."""
    grid = model.base.grid
    if cfg.data_source == "zero":
        return np.zeros(grid.n)
    if cfg.data_source == "file":
        try:
            values = art.read_field_csv(cfg.data_path)
        except ValueError as exc:
            raise ConfigurationError(f"[data] path: cannot read {cfg.data_path!r}: {exc}") from None
        if values.shape != (grid.n,):
            raise ConfigurationError(
                f"[data] path: {cfg.data_path!r} holds {values.size} values, need n={grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError(f"[data] path: {cfg.data_path!r} holds non-finite values")
        return values
    truth = forward_solve(model, initial_profile(cfg, grid), cond.grid)
    return observe(cond, truth.states)


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = asdict(cfg)
    echo["exponents"] = dict(cfg.exponents) if cfg.exponents else None
    return echo


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Build the model, generate or load the observation, run the configured
    operation, and persist artifacts in the output directory, which is
    returned: the operation's tables, then the run report
    (``report.json``), then the plot script of each plotted file.

    Numerical failures are written to the run report (machine readable, with
    sigma_min when a singular resolvent caused them, and the partial solve
    report of the recovery they ended) before being re-raised.
    """
    out_dir = Path(cfg.out)
    report_path = out_dir / "report.json"
    payload = {"config": _config_echo(cfg), "operation": cfg.operation, "status": "ok"}
    plots = []  # (kind, source path) of each plot script
    try:
        model = build_model(cfg)
        rec_cfg = build_recovery_config(cfg)
        check_iteration_ball(model, rec_cfg)
        payload["exponents"] = validate_exponents(model).to_dict()
        cond = build_condition(cfg)
        grid = model.base.grid
        if cfg.operation in ("recover", "scan", "probe"):
            M = build_observation(cfg, model, cond)
        if cfg.operation == "forward":
            traj = forward_solve(model, initial_profile(cfg, grid), cond.grid)
            trajectory_path = out_dir / "trajectory.csv"
            art.emit_trajectory_csv(traj, trajectory_path)
            payload["forward"] = {"final_norm": float(np.linalg.norm(traj.states[-1]))}
            plots = [("trajectory", trajectory_path)]
        elif cfg.operation == "recover":
            u0, traj, solve_report = fixed_point_recover(model, cond, M, rec_cfg)
            trajectory_path = out_dir / "trajectory.csv"
            art.emit_trajectory_csv(traj, trajectory_path)
            art.emit_field_csv(grid.nodes, u0, out_dir / "recovered_u0.csv")
            payload["solve"] = solve_report.to_dict()
            plots = [("trajectory", trajectory_path), ("convergence", report_path)]
        elif cfg.operation == "scan":
            if not cfg.amplitudes:
                raise ConfigurationError("[data] amplitudes: required for the scan operation")
            norm = np.linalg.norm(M)
            direction = M / norm if norm > 0 else M
            scan = smallness_scan(model, cond, direction, list(cfg.amplitudes), rec_cfg)
            scan_path = out_dir / "scan.csv"
            art.emit_scan_csv(scan, scan_path)
            payload["scan"] = scan.to_dict()
            plots = [("scan", scan_path)]
        elif cfg.operation == "probe":
            probe = contraction_probe(model, cond, M, rec_cfg, trials=cfg.trials, seed=cfg.seed)
            payload["probe"] = probe.to_dict()
    except NumericalError as exc:
        payload["status"] = "failed"
        payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
        sigma = getattr(exc, "sigma_min", None)
        if sigma is not None:
            payload["error"]["sigma_min"] = float(sigma)
        if exc.report is not None:
            payload["solve"] = exc.report.to_dict()
        art.emit_report_json(payload, report_path)
        raise
    art.emit_report_json(payload, report_path)
    for kind, source in plots:
        art.emit_plot_script(out_dir, kind, source)
    return out_dir


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
            choices=[m.value for m in PropagatorMethod],
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
    flags = {"out": args.out, "seed": args.seed, "method": args.method}
    try:
        cfg = parse_config(
            text, operation=args.verb, **{k: v for k, v in flags.items() if v is not None}
        )
        out_dir = run_experiment(cfg)
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
        print(f"{args.verb}: artifacts in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
