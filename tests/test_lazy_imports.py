"""The package runs without SciPy: importing it and every run, stepper and
kernel series alike, load no SciPy module.  The census set of
``scripts/census.py`` (every shipped config and its Dirichlet document,
under every verb and both methods) exits as it does with SciPy when SciPy
cannot be imported at all, and its runs give the numbers pinned in
``pinned.json``.  Each case runs in a fresh interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avgrec
from conftest import load_script, read_strict_json

SRC = Path(avgrec.__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PINS = Path(__file__).resolve().parent / "pinned.json"
census = load_script("census")


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


def test_stepper_runs_load_no_scipy(tmp_path):
    runs = [("validate",), ("forward",), ("recover",)]
    assert scipy_modules_after(cli_runs(runs, tmp_path)) == []


def test_scan_breakdown_rows_load_no_scipy(tmp_path):
    # The scan's large amplitudes reach nodes whose implicit matrices need
    # row interchanges; the stepper solves them without SciPy.  The scan's
    # and the probe's rows sweep as one batch.
    runs = [("recover",), ("scan",), ("probe",)]
    code = cli_runs(runs, tmp_path, config="chemotaxis_scan.ini")
    assert scipy_modules_after(code) == []


def test_series_runs_load_no_scipy(tmp_path):
    # The kernel series' frozen steps come from the package's own expm.
    runs = [("recover", "--method", "series"), ("scan", "--method", "series")]
    code = cli_runs(runs, tmp_path, config="chemotaxis_scan.ini")
    assert scipy_modules_after(code) == []


def expected_exit(config: str, verb: str) -> int:
    """Each census document's exit code for a verb: 2 for a scan without
    ``[data] amplitudes`` (every document but ``chemotaxis_scan.ini``), 3
    for the runs that meet the singular resolvent of ``singular_phi.ini``,
    0 otherwise."""
    if verb == "scan" and config != "chemotaxis_scan.ini":
        return 2
    if config == "singular_phi.ini" and verb in ("recover", "probe"):
        return 3
    return 0


@pytest.fixture(scope="module")
def census_runs(tmp_path_factory):
    """The census set, run by ``avgrec.cli.main`` in one fresh interpreter
    that cannot import SciPy: per census run name, its document's file
    name, its verb, its exit code and its output directory."""
    work = tmp_path_factory.mktemp("census")
    dirichlet = work / "rd_dirichlet.ini"
    dirichlet.write_text(census.DIRICHLET)
    runs = {}
    for document in sorted(CONFIGS.glob("*.ini")) + [dirichlet]:
        for verb in census.VERBS:
            for method in census.METHODS:
                name = f"{document.stem}-{verb}-{method}"
                argv = [verb, "--config", str(document), "--method", method, "--out", str(work / name)]
                runs[name] = (document.name, verb, argv)
    calls = ", ".join(f"main({argv!r})" for _, _, argv in runs.values())
    lines = ["import json, sys", "sys.modules['scipy'] = None", "from avgrec.cli import main"]
    lines.append(f"print(json.dumps([{calls}]))")
    codes = json.loads(fresh_stdout("\n".join(lines)).splitlines()[-1])
    return {
        name: (document, verb, code, work / name)
        for (name, (document, verb, _)), code in zip(runs.items(), codes)
    }


def test_census_set_exits_alike_without_scipy(census_runs):
    documents = len(list(CONFIGS.glob("*.ini"))) + 1
    assert len(census_runs) == documents * len(census.VERBS) * len(census.METHODS)
    codes = {name: code for name, (_, _, code, _) in census_runs.items()}
    expected = {name: expected_exit(doc, verb) for name, (doc, verb, _, _) in census_runs.items()}
    assert codes == expected


def test_census_reports_are_strict_json(census_runs):
    reports = [out / "report.json" for *_, out in census_runs.values()]
    reports = [path for path in reports if path.exists()]
    assert reports
    for path in reports:
        read_strict_json(path)


# Pinned to 1e-9 relative, since BLAS builds differ in roundoff; every
# other pin is exact.
CLOSE = ("u0_norm", "u0_nodes", "final_norm")


def measured_pins(out: Path) -> dict:
    """What ``pinned.json`` pins of one run's output directory: the
    iterations and outcome of a recovery, each scan row's outcome and
    iterations and the scan's m0 lower bound, the probe's outcome and
    failure count, a forward solve's final norm, and the recovered u0's
    norm and its entries at nodes 0, n//2 and n-1.  Contraction ratios
    read the roundoff floor and are not pinned."""
    if not (out / "report.json").exists():
        return {}
    report = json.loads((out / "report.json").read_text())
    pins = {}
    if "solve" in report:
        pins["iterates"] = report["solve"]["iterates"]
        pins["converged"] = report["solve"]["converged"]
    if "scan" in report:
        pins["rows"] = [[row["converged"], row["iterations"]] for row in report["scan"]["rows"]]
        pins["m0_lower_bound"] = report["scan"]["m0_lower_bound"]
    if "probe" in report:
        pins["all_converged"] = report["probe"]["all_converged"]
        pins["failures"] = len(report["probe"]["failures"])
    if "forward" in report:
        pins["final_norm"] = report["forward"]["final_norm"]
    if (out / "recovered_u0.csv").exists():
        u0 = np.loadtxt(out / "recovered_u0.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        pins["u0_norm"] = float(np.linalg.norm(u0))
        pins["u0_nodes"] = [float(u0[i]) for i in (0, u0.size // 2, -1)]
    return pins


def pins_agree(got: dict, pinned: dict) -> bool:
    def exact(pins):
        return {key: value for key, value in pins.items() if key not in CLOSE}

    return got.keys() == pinned.keys() and exact(got) == exact(pinned) and all(
        np.allclose(got[key], pinned[key], rtol=1e-9, atol=0.0) for key in CLOSE if key in got
    )


def test_census_runs_give_the_pinned_numbers(census_runs, tmp_path):
    measured = {name: measured_pins(out) for name, (_, _, _, out) in census_runs.items()}
    measured = {name: pins for name, pins in measured.items() if pins}
    pinned = json.loads(PINS.read_text())
    moved = sorted(
        name for name in measured.keys() | pinned.keys()
        if not pins_agree(measured.get(name, {}), pinned.get(name, {}))
    )
    if moved:
        # In the checked-in layout, one run a line, ready to be copied over.
        lines = [
            f"{json.dumps(name)}: {json.dumps(measured[name], sort_keys=True)}"
            for name in sorted(measured)
        ]
        written = tmp_path / "pinned.json"
        written.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        pytest.fail(f"runs moved from {PINS.name}: {moved}; the measured pins are in {written}")
