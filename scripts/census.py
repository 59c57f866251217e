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
entries differ, and exits 1 when any do.  --workdir keeps the runs: with
--against, this tree's go under DIR/current and REV's under DIR/against.
A census that cannot run exits 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
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
    print(f"census: {message}", file=sys.stderr)
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


def differences(ours: dict, theirs: dict, rev: str) -> list[str]:
    """One line for each run whose entries differ between the manifests."""
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
        parts += sorted(name for name in names if a["files"].get(name) != b["files"].get(name))
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
    text = json.dumps(ours, indent=1, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    elif args.against is None:
        sys.stdout.write(text)
    if args.against is None:
        return 0
    lines = differences(ours, theirs, args.against)
    print("\n".join(lines) if lines else f"no run differs from {args.against}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
