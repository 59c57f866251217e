import json
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgrec.artifacts import (
    emit_field_csv,
    emit_plot_script,
    emit_trajectory_csv,
    read_field_csv,
)
from avgrec.cli import (
    ExperimentConfig,
    _validate_config,
    build_model,
    initial_profile,
    main,
    parse_config,
    run_experiment,
)
from avgrec.errors import ConfigurationError
from avgrec.evolution import TimeGrid, series_peak_bytes
from avgrec.models import ExponentBook
from avgrec.solver import Trajectory

from oracles import read_trajectory_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# An iteration ball that fits min(ball_radius, 1) = 1 but not the model ball.
BALL_OUTSIDE_MODEL = {"solver": ["ball_l = 0.9"], "model": ["ball_radius = 0.8"]}
# A chemotaxis book given in full whose alpha is not s/2 - 1 and whose gamma is too large.
BAD_BOOK = {
    "exponents": [
        "beta = 0", "alpha = 0.2", "alpha0 = 0.22", "gamma = 0.3",
        "xi = 0.5625", "mu = 0.45", "rho = 0.05", "ell = 1",
    ]
}
# A full book with ell = -1, where 1/(ell+1) is undefined.
BOOK_ELL_MINUS_ONE = {
    "exponents": [
        "beta = 0", "alpha = 0.1", "alpha0 = 0.2", "gamma = 0.3",
        "xi = 0.4", "mu = 0.3", "rho = 0.05", "ell = -1",
    ]
}
# Config values at the edges of the float range, and ordinary ones.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300]), st.floats(-5.0, 5.0, allow_nan=False)
)

def fast_config(tmp_path, **extra):
    """Small, quick experiment config; extra[section] = ["key = value", ...]
    entries are merged into the base document, replacing a base entry of
    the same key."""
    sections = {
        "model": ["kind = chemotaxis"],
        "grid": ["n = 8"],
        "time": ["horizon = 0.25", "steps = 16"],
        "data": ["amplitude = 0.005"],
        "run": [f"out = {tmp_path / 'run'}"],
    }

    def key(line):
        return line.split("=")[0].strip()

    for section, lines in extra.items():
        base = [line for line in sections.get(section, []) if key(line) not in map(key, lines)]
        sections[section] = base + lines
    return "\n".join(f"[{name}]\n" + "\n".join(lines) for name, lines in sections.items()) + "\n"


def schema_doc_rows() -> list[tuple[str, str, str, str]]:
    """(section, key, type, default) of each row of the `[section]` tables
    of configs/SCHEMA.md, the type and default cells as written."""
    rows, section = [], None
    for line in (CONFIG_DIR / "SCHEMA.md").read_text().splitlines():
        heading = re.match(r"#+ (?:`\[(\w+)\]`)?", line)
        if heading:
            section = heading[1]
            continue
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)]
        if section and len(cells) > 4 and cells[1].startswith("`"):
            rows.append((section, cells[1].strip("`"), cells[2], cells[3]))
    return rows


class TestParseConfig:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
    def test_shipped_configs_parse(self, name):
        cfg = parse_config((CONFIG_DIR / name).read_text())
        assert isinstance(cfg, ExperimentConfig)

    @pytest.mark.parametrize(
        "text", ["[DEFAULT]\nn = 8\n[grid]\n", "[DEFAULT]\nn = 8\n", "[DEFAULT]\nn = 8\n[time]\n"]
    )
    def test_default_section_rejected(self, text):
        with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]"):
            parse_config(text)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("time", "horizon", "nan"),
            ("time", "horizon", "inf"),
            ("data", "amplitude", "nan"),
            ("exponents", "beta", "-inf"),
            ("data", "amplitudes", "0.1 nan"),
        ],
    )
    def test_non_finite_value_named(self, section, key, value):
        with pytest.raises(ConfigurationError, match=rf"\[{section}\] {key}: must be finite"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_schema_doc_lists_the_field_table(self):
        # Every (section, key, default) row of configs/SCHEMA.md, "empty"
        # meaning the empty default, against the ExperimentConfig metadata.
        documented = {
            (section, key, "" if default == "empty" else default.strip("`"))
            for section, key, _, default in schema_doc_rows()
        }
        table = {
            (f.metadata["section"], key, f.metadata["default"])
            for f in fields(ExperimentConfig)
            for key in f.metadata["keys"]
        }
        assert documented == table

    def test_schema_doc_rows_match_each_field(self):
        # For every key of every field: its section's row, the default as
        # written in the metadata (or "empty"), and, for a field with
        # choices, exactly those choices in the type column.
        rows = {(section, key): cells for section, key, *cells in schema_doc_rows()}
        checked = 0
        for f in fields(ExperimentConfig):
            meta = f.metadata
            for key in meta["keys"]:
                kind, default = rows[meta["section"], key]
                assert default == (f"`{meta['default']}`" if meta["default"] else "empty"), key
                if meta["choices"] is not None:
                    listed = [choice.strip("`") for choice in re.split(r"\s*\\\|\s*", kind)]
                    assert sorted(listed) == sorted(meta["choices"]), key
                checked += 1
        assert checked == len(rows)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match=r"\[grid\] resolution"):
            parse_config("[grid]\nresolution = 4\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigurationError, match=r"\[mesh\]"):
            parse_config("[mesh]\nn = 4\n")

    def test_unparsable_value_named(self):
        with pytest.raises(ConfigurationError, match=r"\[time\] steps"):
            parse_config("[time]\nsteps = many\n")

    def test_ramp_weight_rejected_for_time_average(self):
        text = "[condition]\nvariant = time_average\nweight = ramp\n"
        with pytest.raises(ConfigurationError, match="w\\(0\\)"):
            parse_config(text)

    def test_ramp_weight_accepted_for_initial_plus_average(self):
        text = "[condition]\nvariant = initial_plus_average\nweight = ramp\n"
        cfg = parse_config(text)
        assert cfg.weight == "ramp"

    def test_constant_weight_accepted_for_time_average(self):
        cfg = parse_config("[condition]\nvariant = time_average\nweight = constant\n")
        assert cfg.variant == "time_average"

    def test_partial_exponent_override_rejected(self):
        with pytest.raises(ConfigurationError, match="full book"):
            parse_config("[exponents]\nalpha = 0.2\n")

    def test_invalid_exponent_override_rejected(self, tmp_path):
        text = fast_config(
            tmp_path,
            exponents=[
                "beta = 0.5", "alpha = 0.2", "alpha0 = 0.3", "gamma = 0.5",
                "xi = 0.4", "mu = 0.3", "rho = 0.1", "ell = 1.0",
            ],
        )
        cfg = parse_config(text)
        with pytest.raises(ConfigurationError, match="beta"):
            build_model(cfg)


class TestProfiles:
    def test_cosine_profile(self):
        cfg = parse_config("[data]\nu0_profile = cosine\namplitude = 2.0\n")
        model = build_model(cfg)
        profile = initial_profile(cfg, model.base.grid)
        expected = 2.0 * np.cos(np.pi * model.base.grid.nodes)
        np.testing.assert_allclose(profile, expected, rtol=1e-14)


class TestCsvRoundTrip:
    def test_trajectory_lossless(self, tmp_path):
        grid_t = TimeGrid(T=1.0 / 3.0, K=5)
        states = np.random.default_rng(5).standard_normal((6, 4))
        traj = Trajectory(grid=grid_t, states=states)
        target = tmp_path / "traj.csv"
        emit_trajectory_csv(traj, target)
        ts, back = read_trajectory_csv(target)
        assert np.array_equal(back, states)
        assert np.array_equal(ts, grid_t.nodes)

    def test_zero_trajectory_rows(self, tmp_path):
        traj = Trajectory.zero(TimeGrid(T=1.0, K=1), 2)
        target = tmp_path / "zero.csv"
        emit_trajectory_csv(traj, target)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2"
        assert len(lines) == 3

    def test_field_lossless(self, tmp_path):
        values = np.random.default_rng(6).standard_normal(7)
        target = tmp_path / "field.csv"
        emit_field_csv(np.linspace(0, 1, 7), values, target)
        assert np.array_equal(read_field_csv(target), values)


class TestRunExperiment:
    def test_recover_artifacts(self, tmp_path):
        cfg = parse_config(fast_config(tmp_path))
        out = run_experiment(cfg)
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        assert report["solve"]["converged"]
        assert (out / "trajectory.csv").exists()
        assert (out / "recovered_u0.csv").exists()
        assert (out / "plot_convergence.py").exists()
        assert (out / "plot_trajectory.py").exists()

    def test_zero_data_recovers_zero(self, tmp_path):
        cfg = parse_config(fast_config(tmp_path, data=["source = zero"]))
        out = run_experiment(cfg)
        recovered = read_field_csv(out / "recovered_u0.csv")
        assert np.all(recovered == 0.0)

    def test_forward_operation(self, tmp_path):
        cfg = parse_config(fast_config(tmp_path, run=["operation = forward"]))
        out = run_experiment(cfg)
        ts, states = read_trajectory_csv(out / "trajectory.csv")
        assert states.shape == (17, 8)

    def test_scan_operation(self, tmp_path):
        cfg = parse_config(
            fast_config(tmp_path, data=["amplitudes = 0.001 0.01"], run=["operation = scan"])
        )
        out = run_experiment(cfg)
        lines = (out / "scan.csv").read_text().strip().splitlines()
        assert lines[0] == "amplitude,converged,iterations,contraction"
        assert len(lines) == 3
        assert (out / "plot_scan.py").exists()

    def test_probe_operation(self, tmp_path):
        cfg = parse_config(fast_config(tmp_path, run=["operation = probe", "trials = 2"]))
        out = run_experiment(cfg)
        report = json.loads((out / "report.json").read_text())
        assert report["probe"]["all_converged"]

    def test_validate_operation(self, tmp_path):
        cfg = parse_config(fast_config(tmp_path, run=["operation = validate"]))
        out = run_experiment(cfg)
        report = json.loads((out / "report.json").read_text())
        assert report["exponents"]["all_passed"]

    def test_singular_phi_failure_report_names_sigma(self, tmp_path):
        text = (CONFIG_DIR / "singular_phi.ini").read_text()
        cfg = parse_config(text)
        from dataclasses import replace

        from avgrec.errors import NumericalError

        cfg = replace(cfg, out=str(tmp_path / "singular"))
        with pytest.raises(NumericalError):
            run_experiment(cfg)
        report = json.loads((tmp_path / "singular" / "report.json").read_text())
        assert report["status"] == "failed"
        assert report["error"]["sigma_min"] <= 1e-10

    def test_failed_recover_keeps_its_partial_solve_report(self, tmp_path):
        # The iteration cap ends the shipped scan's recovery after two sweeps.
        config = tmp_path / "capped.ini"
        text = (CONFIG_DIR / "chemotaxis_scan.ini").read_text()
        config.write_text(text.replace("max_iters = 40", "max_iters = 2"))
        out = tmp_path / "capped"
        assert main(["recover", "--config", str(config), "--out", str(out), "--quiet"]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "ConvergenceError"
        solve = report["solve"]
        assert solve["iterates"] == 2 and len(solve["distances"]) == 2
        assert solve["converged"] is False

    @pytest.mark.parametrize(
        "method, failed, errors",
        [
            ("stepper", {9.5585: 3, 30.0: 2}, {"ConvergenceError"}),
            (
                "series",
                {0.970346: 19, 3.0455: 4, 9.5585: 2, 30.0: 1},
                {"ConvergenceError", "SingularOperatorError", "NumericalError"},
            ),
        ],
        ids=["stepper", "series"],
    )
    def test_shipped_scan_failed_rows_count_their_sweeps(self, tmp_path, method, failed, errors):
        # Each failed row of the shipped scan ends in an error raised inside a
        # sweep (non-finite A(u) or f(u), a singular resolvent, or the
        # exponential's cap); its iterations are the sweeps completed before it.
        out = tmp_path / method
        config = str(CONFIG_DIR / "chemotaxis_scan.ini")
        argv = ["scan", "--config", config, "--out", str(out), "--method", method, "--quiet"]
        assert main(argv) == 0
        rows = json.loads((out / "report.json").read_text())["scan"]["rows"]
        bad = [row for row in rows if not row["converged"]]
        assert {row["amplitude"]: row["iterations"] for row in bad} == failed
        assert {row["note"].split(":")[0] for row in bad} == errors
        assert all(np.isfinite(row["contraction"]) for row in bad if row["iterations"] >= 2)

    def test_determinism_byte_identical(self, tmp_path):
        from dataclasses import replace

        cfg = parse_config(fast_config(tmp_path))
        a = run_experiment(replace(cfg, out=str(tmp_path / "a")))
        b = run_experiment(replace(cfg, out=str(tmp_path / "b")))
        for name in ("report.json", "trajectory.csv", "recovered_u0.csv"):
            x, y = a / name, b / name
            ax = x.read_bytes()
            # the config echo embeds the out directory; normalize it away
            ax = ax.replace(str(tmp_path / "a").encode(), b"OUT")
            by = y.read_bytes().replace(str(tmp_path / "b").encode(), b"OUT")
            assert ax == by


class TestPlotScripts:
    def test_missing_artifact_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plot_script(tmp_path, "trajectory", tmp_path / "trajectory.csv")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_script(tmp_path, "histogram", tmp_path / "trajectory.csv")

    def test_scripts_compile(self, tmp_path):
        import py_compile

        traj = Trajectory.zero(TimeGrid(T=1.0, K=2), 3)
        emit_trajectory_csv(traj, tmp_path / "trajectory.csv")
        script = emit_plot_script(tmp_path, "trajectory", tmp_path / "trajectory.csv")
        py_compile.compile(str(script), doraise=True)


def test_census_names_each_differing_run():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "census", Path(__file__).resolve().parent.parent / "scripts" / "census.py"
    )
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    run = {"exit": 0, "stdout": "a", "stderr": "b", "files": {"report.json": "c"}}
    moved = dict(run, exit=3, stdout="d", files={"report.json": "e", "scan.csv": "f"})
    ours, theirs = {"same": run, "moved": moved, "new": run}, {"same": run, "moved": run}
    assert census.differences(ours, theirs, "REV") == [
        "moved: exit 0 -> 3, stdout, report.json, scan.csv",
        "new: only in this tree",
    ]
    assert census.differences(theirs, ours, "REV") == [
        "moved: exit 3 -> 0, stdout, report.json, scan.csv",
        "new: only in REV",
    ]


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        config = tmp_path / "ok.ini"
        config.write_text(fast_config(tmp_path))
        assert main(["recover", "--config", str(config), "--quiet"]) == 0

    def test_out_and_seed_overrides(self, tmp_path):
        config = tmp_path / "ok.ini"
        config.write_text(fast_config(tmp_path))
        out = tmp_path / "elsewhere"
        code = main(
            ["recover", "--config", str(config), "--out", str(out), "--seed", "3", "--quiet"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 3

    def test_config_error_exit_2(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[grid]\nn = 1\n")
        assert main(["recover", "--config", str(config), "--quiet"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        config = tmp_path / "singular.ini"
        text = (CONFIG_DIR / "singular_phi.ini").read_text()
        config.write_text(text.replace("runs/singular_phi", str(tmp_path / "out")))
        assert main(["recover", "--config", str(config), "--quiet"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, code, files",
        [
            ("validate", 0, {"report.json"}),
            ("probe", 0, {"report.json"}),
            ("forward", 0, {"report.json", "trajectory.csv", "plot_trajectory.py"}),
            (
                "recover",
                0,
                {
                    "report.json",
                    "trajectory.csv",
                    "recovered_u0.csv",
                    "plot_trajectory.py",
                    "plot_convergence.py",
                },
            ),
            ("scan", 0, {"report.json", "scan.csv", "plot_scan.py"}),
            ("failure", 3, {"report.json"}),
        ],
    )
    def test_files_each_verb_writes(self, tmp_path, verb, code, files):
        # The run directory holds exactly these files: no stray temporary
        # file, and a failed run writes its report and nothing else.
        config = tmp_path / "run.ini"
        if verb == "failure":
            verb = "recover"
            config.write_text((CONFIG_DIR / "singular_phi.ini").read_text())
        else:
            config.write_text(fast_config(tmp_path, data=["amplitudes = 0.001 0.01"]))
        out = tmp_path / "out"
        assert main([verb, "--config", str(config), "--out", str(out), "--quiet"]) == code
        assert {path.name for path in out.iterdir()} == files

    def test_missing_config_exit_4(self, tmp_path, capsys):
        assert main(["recover", "--config", str(tmp_path / "nope.ini"), "--quiet"]) == 4
        assert "cannot read config" in capsys.readouterr().err

    def test_percent_in_out_directory(self, tmp_path):
        config = tmp_path / "ok.ini"
        config.write_text(fast_config(tmp_path / "50%"))
        assert main(["validate", "--config", str(config), "--quiet"]) == 0
        assert (tmp_path / "50%" / "run" / "report.json").exists()

    @pytest.mark.parametrize(
        "extra, named",
        [
            ({"DEFAULT": ["n = 8"]}, "[DEFAULT]"),
            ({"solver": ["tol = nan"]}, "[solver] tol"),
            ({"solver": ["max_iters = 0"]}, "max_iters"),
        ],
    )
    def test_new_rejections_exit_2(self, tmp_path, capsys, extra, named):
        config = tmp_path / "bad.ini"
        config.write_text(fast_config(tmp_path, **extra))
        assert main(["recover", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize(
        "verb, extra, named",
        [
            ("scan", {"data": ["amplitudes = 0.1 0.01"]}, "[data] amplitudes"),
            ("scan", {"data": ["amplitudes = -0.1 0.01"]}, "[data] amplitudes"),
            ("scan", {"data": ["amplitudes = 0.1 0.1"]}, "[data] amplitudes"),
            ("recover", {"data": ["amplitudes = 0.1 0.01"]}, "[data] amplitudes"),
            ("probe", {"run": ["seed = -1"]}, "[run] seed"),
            ("probe", {"run": ["trials = 0"]}, "[run] trials"),
            ("probe", {"run": ["trials = -2"]}, "[run] trials"),
            ("recover", {"model": ["ball_radius = -1"]}, "[model] ball_radius"),
            ("recover", {"model": ["ball_radius = 0"]}, "[model] ball_radius"),
            ("validate", {"solver": ["tol = -1"]}, "[solver] tol"),
            ("forward", {"solver": ["tol = -1"]}, "[solver] tol"),
            ("validate", {"solver": ["max_iters = 0"]}, "[solver] max_iters"),
            ("forward", {"solver": ["max_iters = 0"]}, "[solver] max_iters"),
            ("recover", {"solver": ["relaxation = 0.5"]}, "[solver] relaxation"),
            ("recover", {"solver": ["sigma_floor = 1e-8"]}, "[solver] sigma_floor"),
            ("validate", {"solver": ["ball_l = 0"]}, "[solver] ball_l"),
            ("validate", {"solver": ["ball_l = 1.5"]}, "[solver] ball_l"),
            ("recover", BALL_OUTSIDE_MODEL, "[solver] ball_l"),
            ("validate", BALL_OUTSIDE_MODEL, "[solver] ball_l"),
            ("forward", BALL_OUTSIDE_MODEL, "[solver] ball_l"),
            ("validate", {"grid": ["n = 1"]}, "[grid] n"),
            ("forward", {"grid": ["n = 300"]}, "[grid] n"),
            ("validate", {"grid": ["length = -1"]}, "[grid] length"),
            ("validate", {"grid": ["bc = dirichlet"]}, "[grid] bc"),
            (
                "validate",
                {"model": ["kind = reaction_diffusion", "f_poly = 1 0 -1"]},
                "[model] f_poly",
            ),
            ("validate", {"model": ["s = 2.6"]}, "2 < s < 5/2 ([model] s)"),
            (
                "validate",
                {"model": ["kind = reaction_diffusion", "p = 2.5"]},
                "(ell + 1) n < p ([model] p, [model] f_poly)",
            ),
            ("validate", BAD_BOOK, "gamma < 1/4 ([exponents])"),
            ("validate", BAD_BOOK, "alpha = s/2 - 1 ([model] s, [exponents])"),
            (
                "validate",
                {"model": ["kind = reaction_diffusion", "f_poly = 0 0 0 0 -1"]},
                "(ell + 1) n < p ([model] p, [model] f_poly)",
            ),
            ("validate", {"model": ["kind = reaction_diffusion", "p = 0"]}, "[model] p"),
            ("validate", {"grid": ["n = 16", "length = 1e-160"]}, "[grid] length"),
            ("recover", {"grid": ["length = 1e-160"]}, "[grid] length"),
            ("validate", {"grid": ["n = 16", "length = 1e-140"]}, "[grid] length"),
            (
                "validate",
                {"model": ["kind = reaction_diffusion"], "grid": ["n = 16", "length = 1e-140"]},
                "[grid] length",
            ),
            (
                "validate",
                {"model": ["kind = linear_test"], "grid": ["n = 16", "length = 1e-140"]},
                "[grid] length",
            ),
            (
                "validate",
                {"model": ["kind = linear_test", "coefficient = 1e300"], "grid": ["length = 1e-4"]},
                "[model] coefficient",
            ),
            (
                "validate",
                {"model": ["kind = reaction_diffusion"], **BOOK_ELL_MINUS_ONE},
                "ell > 0 ([exponents])",
            ),
            ("validate", BOOK_ELL_MINUS_ONE, "ell > 0 ([exponents])"),
        ],
    )
    def test_parse_time_rejections_exit_2(self, tmp_path, capsys, verb, extra, named):
        config = tmp_path / "bad.ini"
        config.write_text(fast_config(tmp_path, **extra))
        assert main([verb, "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert not (tmp_path / "run").exists()

    def test_seed_flag_replaces_a_negative_seed(self, tmp_path):
        # The flags apply before validation, so only the seed the run uses is checked.
        config = tmp_path / "seeded.ini"
        config.write_text(fast_config(tmp_path, run=["seed = -1"]))
        assert main(["validate", "--config", str(config), "--seed", "3", "--quiet"]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config"]["seed"] == 3

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        config = tmp_path / "ok.ini"
        config.write_text(fast_config(tmp_path))
        assert main(["probe", "--config", str(config), "--seed", "-1", "--quiet"]) == 2
        assert "[run] seed" in capsys.readouterr().err

    def test_nonpositive_ball_radius_rejected_for_every_model(self, tmp_path, capsys):
        # The linear model never checks its ball; the radius is rejected all the same.
        text = (CONFIG_DIR / "linear_test.ini").read_text()
        config = tmp_path / "bad.ini"
        config.write_text(
            text.replace("coefficient = 1.0", "coefficient = 1.0\nball_radius = -1").replace(
                "runs/linear_test", str(tmp_path / "run")
            )
        )
        assert main(["recover", "--config", str(config), "--quiet"]) == 2
        assert "[model] ball_radius" in capsys.readouterr().err

    def test_ball_l_checked_against_the_built_model(self, tmp_path):
        # The linear model has no ball (r0 = inf) whatever ball_radius says,
        # so only ball_l < 1 binds.
        config = tmp_path / "ok.ini"
        extra = {"solver": ["ball_l = 0.9"], "model": ["kind = linear_test", "ball_radius = 0.5"]}
        config.write_text(fast_config(tmp_path, **extra))
        assert main(["validate", "--config", str(config), "--quiet"]) == 0

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,1", "0.5,2", "1,3"],  # 3 values for n = 8
            [f"{x / 7}" for x in range(8)],  # no value column
            [f"{x / 7},{'nan' if x == 3 else 0.001}" for x in range(8)],
        ],
        ids=["short", "one-column", "nan"],
    )
    def test_bad_observation_file_exit_2(self, tmp_path, capsys, rows):
        field = tmp_path / "field.csv"
        field.write_text("x,value\n" + "\n".join(rows) + "\n")
        config = tmp_path / "file.ini"
        config.write_text(fast_config(tmp_path, data=["source = file", f"path = {field}"]))
        assert main(["recover", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "[data] path" in err

    def test_header_only_observation_file_one_stderr_line(self, tmp_path, capsys):
        field = tmp_path / "field.csv"
        field.write_text("x,value\n")
        config = tmp_path / "file.ini"
        config.write_text(fast_config(tmp_path, data=["source = file", f"path = {field}"]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["recover", "--config", str(config), "--quiet"]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "[data] path" in err and "no x,value rows" in err

    @given(
        kind=st.sampled_from(["chemotaxis", "reaction_diffusion", "linear_test"]),
        model=st.fixed_dictionaries(
            {key: EDGE_FLOATS for key in ("delta", "s", "p", "coefficient", "ball_radius")}
        ),
        n=st.integers(0, 8),
        length=EDGE_FLOATS,
        bc=st.sampled_from(["neumann", "dirichlet"]),
        book=st.none() | st.fixed_dictionaries({f.name: EDGE_FLOATS for f in fields(ExponentBook)}),
    )
    @settings(max_examples=200, deadline=None)
    def test_validate_exits_0_or_2_on_any_model_grid_and_book(
        self, tmp_path_factory, kind, model, n, length, bc, book
    ):
        # Every value the schema parses is either validated or rejected by
        # name; none reaches an uncaught exception or a RuntimeWarning.
        folder = tmp_path_factory.getbasetemp() / "validate-fuzz"
        folder.mkdir(exist_ok=True)
        sections = {
            "model": [f"kind = {kind}"] + [f"{key} = {value!r}" for key, value in model.items()],
            "grid": [f"n = {n}", f"length = {length!r}", f"bc = {bc}"],
            "run": [f"out = {folder / 'run'}"],
        }
        if book is not None:
            sections["exponents"] = [f"{key} = {value!r}" for key, value in book.items()]
        config = folder / "fuzz.ini"
        config.write_text(
            "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
        )
        assert main(["validate", "--config", str(config), "--quiet"]) in (0, 2)

    def test_method_flag_accepted(self, tmp_path):
        config = tmp_path / "ok.ini"
        config.write_text(fast_config(tmp_path))
        assert main(["recover", "--config", str(config), "--method", "series", "--quiet"]) == 0


class TestMemoryAdmission:
    @staticmethod
    def large_config(tmp_path, method, n=512, steps=256):
        """recover on n=512, K=256 by default: the series estimate is 3090 MiB."""
        return (
            f"[grid]\nn = {n}\n[time]\nsteps = {steps}\n"
            f"[solver]\nmethod = {method}\n[run]\nout = {tmp_path / 'run'}\n"
        )

    def test_over_budget_series_rejected_with_estimate(self, tmp_path, capsys):
        config = tmp_path / "large.ini"
        config.write_text(self.large_config(tmp_path, "series"))
        assert main(["recover", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "3090 MiB" in err
        assert not (tmp_path / "run").exists()

    def test_method_flag_override_is_checked(self, tmp_path, capsys):
        config = tmp_path / "large.ini"
        config.write_text(self.large_config(tmp_path, "stepper"))
        assert main(["recover", "--config", str(config), "--method", "series", "--quiet"]) == 2
        assert "3090 MiB" in capsys.readouterr().err

    def test_method_flag_override_admits_an_over_budget_series_document(self, tmp_path):
        # The document's series needs an estimated 3087 MiB at n=256,
        # K=1024; the stepper it is run with needs 1033 MiB.
        config = tmp_path / "large.ini"
        config.write_text(self.large_config(tmp_path, "series", n=256, steps=1024))
        assert main(["validate", "--config", str(config), "--method", "stepper", "--quiet"]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config"]["method"] == "stepper"

    def test_series_hint_only_when_stepper_fits(self, tmp_path, capsys):
        config = tmp_path / "large.ini"
        config.write_text(self.large_config(tmp_path, "series"))
        assert main(["recover", "--config", str(config), "--quiet"]) == 2
        assert "use method = stepper" in capsys.readouterr().err
        config.write_text(self.large_config(tmp_path, "series", n=256, steps=200000))
        assert main(["recover", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "kernel series" in err and "use method = stepper" not in err

    @pytest.mark.parametrize("verb", ["recover", "scan", "probe"])
    def test_over_budget_stepper_rejected_with_estimate(self, tmp_path, capsys, verb):
        # Two stacks of K+1 n x (n+2) blocks at n=256, K=200000: 201564 MiB.
        config = tmp_path / "large.ini"
        config.write_text(self.large_config(tmp_path, "stepper", n=256, steps=200000))
        assert main([verb, "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "stepper" in err and "201564 MiB" in err
        assert not (tmp_path / "run").exists()

    def test_same_grid_admitted_with_stepper(self, tmp_path):
        cfg = parse_config(self.large_config(tmp_path, "stepper"))
        assert (cfg.grid_n, cfg.steps, cfg.method) == (512, 256, "stepper")

    def test_series_admitted_at_n256_k128(self, tmp_path):
        # Six stacks of K+1 n x (n+1) blocks: an estimated 389 MiB.
        assert round(series_peak_bytes(256, 128) / 2**20) == 389
        cfg = parse_config(self.large_config(tmp_path, "series", n=256, steps=128))
        assert (cfg.grid_n, cfg.steps, cfg.method) == (256, 128, "series")

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.ini")))
    @pytest.mark.parametrize("method", ["stepper", "series"])
    def test_shipped_configs_admitted(self, name, method):
        cfg = parse_config((CONFIG_DIR / name).read_text())
        _validate_config(replace(cfg, method=method))
