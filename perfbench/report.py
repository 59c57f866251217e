"""Print every metric of every workload by name and unit.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace]

Runs perfbench/run.py once per workload, each in its own process, and
prints one line per metric, then the run's operation counts.  With
``--trace`` the per-layer metrics are printed as well, from a second,
traced run of each workload.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true", help="also print the per-layer metrics")
    args = parser.parse_args(argv)
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            info, result = measure(workload, args.seed, args.seconds, trace)
            for name, m in result["metrics"].items():
                print(f"{workload:16s} {name:48s} {m['value']:<14.6g} {m['unit']}")
            print(f"{workload:16s} {'ops':48s} {info['ops']:<14d} count")
            print(f"{workload:16s} {'ops_failed':48s} {info['ops_failed']:<14d} count")
            if info.get("absent"):
                print(f"{workload:16s} absent: {' '.join(info['absent'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
