#!/usr/bin/env python3
"""Byte census of the command line: every shipped config and a Dirichlet
reaction-diffusion document, under every verb and both methods, each run
in its own process.  The manifest records per run its exit code and the
sha256 of its stdout, of its stderr and of each file it wrote.

    python3 scripts/census.py [--out FILE] [--workdir DIR]
    python3 scripts/census.py --against REV [--out FILE] [--workdir DIR]

The first form writes the manifest of this tree, to stdout without --out.
The configs are copied into the working directory and every path a run
sees is relative to it, so identical trees give identical manifests
wherever they run.  The second form also takes the census of the git
revision REV, extracted with ``git archive`` (local git only) into a
temporary directory that is removed afterwards, prints every run whose
entries differ, and exits 1 when any do.  A differing .csv or .json file
is followed by how far its numbers moved: their largest relative
difference and the field that moved by it (``at solve.residual``,
``at value[3]``) when both sides hold numbers in the same places,
otherwise "shape differs".  After it come the counts and flags that
changed, each as ``field old -> new`` (``solve.iterates 5 -> 6``,
``solve.converged true -> false``, ``iterations[2] 7 -> 8``): every JSON
integer or boolean leaf and every cell of a CSV column of integers; where
none changed, "counts and flags unchanged".  --workdir keeps the runs: with --against,
this tree's go under DIR/current and REV's under DIR/against.  A census that cannot
run exits 2.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERBS = ("validate", "forward", "recover", "scan", "probe")
METHODS = ("stepper", "series")
# Every shipped config is Neumann: this document runs the reaction-diffusion
# model's Dirichlet faces.
DIRICHLET = (
    "[model]\nkind = reaction_diffusion\n[grid]\nn = 16\nbc = dirichlet\n[time]\nsteps = 64\n"
)
CLI = "import sys; from avgrec.cli import main; sys.exit(main(sys.argv[1:]))"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fail(message: str):
    """End the script with exit 2, ``message`` on stderr after the name of
    the script that runs (``census``, or ``perf_pairs``, which shares this
    body and :func:`extract`)."""
    print(f"{Path(sys.argv[0]).stem}: {message}", file=sys.stderr)
    raise SystemExit(2)


def census(tree: Path, workdir: Path) -> dict:
    """The manifest of the package under ``tree``, its runs made in the
    empty or absent directory ``workdir``."""
    if workdir.exists() and any(workdir.iterdir()):
        fail(f"{workdir} is not empty")
    configs = workdir / "configs"
    configs.mkdir(parents=True)
    for config in (tree / "configs").glob("*.ini"):
        (configs / config.name).write_bytes(config.read_bytes())
    (configs / "rd_dirichlet.ini").write_text(DIRICHLET)
    path = [str(tree / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    manifest = {}
    for config in sorted(configs.glob("*.ini")):
        for verb in VERBS:
            for method in METHODS:
                run = f"{config.stem}-{verb}-{method}"
                out = workdir / "runs" / run
                argv = [verb, "--config", f"configs/{config.name}", "--method", method]
                done = subprocess.run(
                    [sys.executable, "-c", CLI, *argv, "--out", f"runs/{run}"],
                    cwd=workdir, env=env, capture_output=True,
                )
                files = sorted(f for f in out.rglob("*") if f.is_file())
                manifest[run] = {
                    "exit": done.returncode,
                    "stdout": digest(done.stdout),
                    "stderr": digest(done.stderr),
                    "files": {f.relative_to(out).as_posix(): digest(f.read_bytes()) for f in files},
                }
    return manifest


def extract(rev: str, dest: Path) -> None:
    """The committed files of the git revision ``rev`` of this repository,
    written under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if archive.returncode:
        fail(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def leaves(path: Path) -> dict:
    """The numbers and flags of a .json or .csv file, keyed by the field
    that holds them: a JSON leaf's key path, such as
    ``solve.distances[2]``, or a CSV cell's column name and its row below
    the header, such as ``u0[3]``.  A JSON leaf keeps its type (bool, int
    or float); a CSV cell is an int where every cell of its column is an
    integer, else a float."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = csv.reader(text.splitlines())
        columns = {}
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                columns.setdefault(j, {})[f"{header[j] if j < len(header) else j}[{i}]"] = cell
        found = {}
        for cells in columns.values():
            integral = all(cell.strip().lstrip("+-").isdigit() for cell in cells.values())
            found.update({field: (int if integral else float)(cell) for field, cell in cells.items()})
        return found
    found = {}

    def walk(node, field):
        if isinstance(node, dict):
            for key, child in node.items():
                walk(child, f"{field}.{key}" if field else str(key))
        elif isinstance(node, list):
            for index, child in enumerate(node):
                walk(child, f"{field}[{index}]")
        elif isinstance(node, (int, float)):
            found[field] = node

    walk(json.loads(text), "")
    return found


def counts_and_flags(ours: dict, theirs: dict) -> str:
    """The integer and boolean leaves (:func:`leaves`) that differ between
    two files with the same fields, each as ``field old -> new``, or
    "counts and flags unchanged"."""
    moved = [
        f"{field} {json.dumps(theirs[field])} -> {json.dumps(value)}"
        for field, value in ours.items()
        if isinstance(value, int) and value != theirs[field]
    ]
    return ", ".join(moved) or "counts and flags unchanged"


def relative_difference(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values (NaN equal to NaN), inf
    where either is not finite and they differ."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def movement(ours: Path, theirs: Path) -> str:
    """How far the numbers of one differing .csv or .json file moved: their
    largest relative difference and the first field that moved by it,
    then its counts and flags that changed (:func:`counts_and_flags`)."""
    try:
        a, b = leaves(ours), leaves(theirs)
    except (OSError, ValueError):
        return "shape differs"
    if a.keys() != b.keys():
        return "shape differs"
    moves = {
        field: relative_difference(float(a[field]), float(b[field]))
        for field in a
        if not isinstance(a[field], bool)
    }
    field = max(moves, key=moves.get, default=None)
    largest = "max rel diff 0"
    if field is not None and moves[field] > 0.0:
        largest = f"max rel diff {moves[field]:.3g} at {field}"
    return f"{largest}; {counts_and_flags(a, b)}"


def differences(ours: dict, theirs: dict, rev: str, runs: tuple | None = None) -> list[str]:
    """One line for each run whose entries differ between the manifests.
    With ``runs``, the directories holding the runs of each manifest, a
    differing .csv or .json file is followed by its :func:`movement`."""
    lines = []
    for run in sorted(ours.keys() | theirs.keys()):
        a, b = ours.get(run), theirs.get(run)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{run}: only in {'this tree' if b is None else rev}")
            continue
        parts = [f"exit {b['exit']} -> {a['exit']}"] if a["exit"] != b["exit"] else []
        parts += [stream for stream in ("stdout", "stderr") if a[stream] != b[stream]]
        names = a["files"].keys() | b["files"].keys()
        for name in sorted(names):
            if a["files"].get(name) == b["files"].get(name):
                continue
            if runs is not None and name.endswith((".csv", ".json")):
                name += f" ({movement(*(folder / run / name for folder in runs))})"
            parts.append(name)
        lines.append(f"{run}: {', '.join(parts)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Byte census of the command line.")
    parser.add_argument("--out", type=Path, help="write this tree's manifest here")
    parser.add_argument("--workdir", type=Path, help="make and keep the runs here")
    parser.add_argument("--against", metavar="REV", help="print the runs that differ from REV's")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        base = args.workdir or Path(scratch) / "runs"
        if args.against is None:
            ours = census(ROOT, base)
        else:
            tree = Path(scratch) / "tree"
            tree.mkdir()
            extract(args.against, tree)
            ours = census(ROOT, base / "current")
            theirs = census(tree, base / "against")
            runs = (base / "current" / "runs", base / "against" / "runs")
            lines = differences(ours, theirs, args.against, runs)
    text = json.dumps(ours, indent=1, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    elif args.against is None:
        sys.stdout.write(text)
    if args.against is None:
        return 0
    print("\n".join(lines) if lines else f"no run differs from {args.against}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
