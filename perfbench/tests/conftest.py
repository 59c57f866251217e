import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
