"""avgrec benchmark: one workload, one seed, one measuring run.

    python3 perfbench/run.py --workload recover-stepper --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it carries the run's metadata, sample counts and operation
counts.  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("recover-stepper", "recover-series", "scan-terminal")
# One BLAS thread: on two cores, two threads measured both slower and noisier.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def import_package() -> None:
    """Put the checkout's ``src`` first on the path and make sure ``avgrec``
    comes from there; exit non-zero without a result otherwise."""
    if not (SRC / "avgrec" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no avgrec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import avgrec

    if not Path(avgrec.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: avgrec imported from {avgrec.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import_package()
    import workloads

    workloads.build(workload, seed)
    print(repr(time.perf_counter() - start))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_package()
    import measure

    info, result = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
