"""Only the kernel series loads SciPy, for ``expm``: importing the package
and every stepper run, including the scan's breakdown rows whose nodes need
row interchanges, load no ``scipy.linalg``.  Each case runs in a fresh
interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import avgrec

SRC = Path(avgrec.__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scipy_modules_after(code: str) -> list[str]:
    """The SciPy modules loaded once ``code`` has run in a fresh interpreter."""
    script = (
        code
        + "\nimport sys\n"
        + "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


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


def test_series_run_loads_scipy_linalg(tmp_path):
    # The import is lazy, not missing: the series' expm brings it in.
    runs = [("recover", "--method", "series")]
    assert "scipy.linalg" in scipy_modules_after(cli_runs(runs, tmp_path))
