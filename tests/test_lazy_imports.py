"""The package runs without SciPy: importing it and every run, stepper and
kernel series alike, load no SciPy module, and every verb exits as it does
with SciPy when SciPy cannot be imported at all.  Each case runs in a fresh
interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path

import avgrec
from avgrec.cli import OPERATIONS

SRC = Path(avgrec.__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fresh_stdout(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def scipy_modules_after(code: str) -> list[str]:
    """The SciPy modules loaded once ``code`` has run in a fresh interpreter."""
    script = (
        code
        + "\nimport sys\n"
        + "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    return fresh_stdout(script).split()


def cli_runs(runs, out, config="chemotaxis_recover.ini") -> str:
    """Code that runs ``avgrec.cli.main`` on each (verb, extra flags) of
    ``runs`` with a shipped config and checks for exit 0."""
    lines = ["from avgrec.cli import main"]
    for i, (verb, *flags) in enumerate(runs):
        argv = [verb, "--config", str(CONFIGS / config), "--quiet", "--out", str(out / f"{i}-{verb}"), *flags]
        lines.append(f"assert main({argv!r}) == 0, {argv!r}")
    return "\n".join(lines)


def test_package_import_loads_no_scipy():
    assert scipy_modules_after("import avgrec, avgrec.cli") == []


def test_stepper_runs_load_no_scipy_linalg(tmp_path):
    runs = [("validate",), ("forward",), ("recover",)]
    assert "scipy.linalg" not in scipy_modules_after(cli_runs(runs, tmp_path))


def test_scan_breakdown_rows_load_no_scipy_linalg(tmp_path):
    # The scan's large amplitudes reach nodes whose implicit matrices need
    # row interchanges; the stepper solves them without SciPy.
    runs = [("recover",), ("scan",)]
    code = cli_runs(runs, tmp_path, config="chemotaxis_scan.ini")
    assert "scipy.linalg" not in scipy_modules_after(code)


def test_series_runs_load_no_scipy(tmp_path):
    # The kernel series' frozen steps come from the package's own expm.
    runs = [("recover", "--method", "series"), ("scan", "--method", "series")]
    code = cli_runs(runs, tmp_path, config="chemotaxis_scan.ini")
    assert scipy_modules_after(code) == []


def expected_exit(config: str, verb: str) -> int:
    """Each shipped config's exit code for a verb: 2 for a scan without
    ``[data] amplitudes``, 3 for the runs that meet the singular resolvent
    of ``singular_phi.ini``, 0 otherwise."""
    if verb == "scan" and config != "chemotaxis_scan.ini":
        return 2
    if config == "singular_phi.ini" and verb in ("recover", "probe"):
        return 3
    return 0


def test_every_verb_exits_alike_without_scipy(tmp_path):
    configs = sorted(path.name for path in CONFIGS.glob("*.ini"))
    runs = [(config, verb, []) for config in configs for verb in OPERATIONS]
    runs += [(config, "recover", ["--method", "series"]) for config in configs]
    runs += [("chemotaxis_scan.ini", "scan", ["--method", "series"])]
    lines = ["import json, sys", "sys.modules['scipy'] = None", "from avgrec.cli import main"]
    calls = []
    for i, (config, verb, flags) in enumerate(runs):
        out = str(tmp_path / str(i))
        argv = [verb, "--config", str(CONFIGS / config), "--quiet", "--out", out, *flags]
        calls.append(f"main({argv!r})")
    lines.append(f"print(json.dumps([{', '.join(calls)}]))")
    codes = json.loads(fresh_stdout("\n".join(lines)).splitlines()[-1])
    assert codes == [expected_exit(config, verb) for config, verb, _ in runs], runs
