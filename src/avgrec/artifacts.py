"""Artifact emission: CSV tables, JSON reports, and plot scripts.

Every file is written atomically (temp file in the target directory, then
rename), and all numeric output uses 17 significant digits so that reading a
CSV back reproduces the binary float values exactly.  Identical inputs
produce byte-identical files.
"""
from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

FLOAT_FMT = "{:.17g}"


def _atomic_write(path: Path, data: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return FLOAT_FMT.format(float(x))


def emit_trajectory_csv(traj, path) -> None:
    """Rows (t, x_1..x_n) in full decimal width; header names the columns."""
    n = traj.states.shape[1]
    lines = ["t," + ",".join(f"x_{k + 1}" for k in range(n))]
    for t, state in zip(traj.grid.nodes, traj.states):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in state]))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def emit_field_csv(coords, values, path) -> None:
    lines = ["x,value"]
    for x, v in zip(coords, values):
        lines.append(f"{_fmt(x)},{_fmt(v)}")
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def read_field_csv(path) -> np.ndarray:
    """The value column of an ``x,value`` CSV; ValueError when there is none.
    A table with no rows raises without numpy's empty-input warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[0] == 0:
        raise ValueError("no x,value rows below the header")
    if raw.shape[1] < 2:
        raise ValueError(f"need x,value rows, got a table of shape {raw.shape}")
    return raw[:, 1]


def emit_scan_csv(scan, path) -> None:
    lines = ["amplitude,converged,iterations,contraction"]
    for row in scan.rows:
        contraction = "nan" if row.contraction is None else _fmt(row.contraction)
        lines.append(f"{_fmt(row.amplitude)},{int(row.converged)},{row.iterations},{contraction}")
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def emit_report_json(payload: dict, path) -> None:
    _atomic_write(Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


_PLOT_TEMPLATES = {
    "trajectory": """\
#!/usr/bin/env python3
\"\"\"Space-time heatmap of {source}.\"\"\"
import numpy as np
import matplotlib.pyplot as plt

raw = np.loadtxt("{source}", delimiter=",", skiprows=1, ndmin=2)
t, u = raw[:, 0], raw[:, 1:]
fig, ax = plt.subplots(figsize=(7, 4))
mesh = ax.pcolormesh(t, np.arange(1, u.shape[1] + 1), u.T, shading="auto", cmap="viridis")
fig.colorbar(mesh, ax=ax, label="state value")
ax.set_xlabel("t")
ax.set_ylabel("node index")
fig.tight_layout()
fig.savefig("trajectory.png", dpi=150)
""",
    "convergence": """\
#!/usr/bin/env python3
\"\"\"Iteration distances of the recovery in {source}.\"\"\"
import json
import matplotlib.pyplot as plt

with open("{source}") as fh:
    report = json.load(fh)
distances = report["solve"]["distances"]
fig, ax = plt.subplots(figsize=(6, 4))
ax.semilogy(range(1, len(distances) + 1), distances, marker="o")
ax.set_xlabel("iteration")
ax.set_ylabel("weighted distance between iterates")
ax.grid(True, which="both", alpha=0.3)
fig.tight_layout()
fig.savefig("convergence.png", dpi=150)
""",
    "scan": """\
#!/usr/bin/env python3
\"\"\"Converged flag against amplitude from {source}.\"\"\"
import numpy as np
import matplotlib.pyplot as plt

raw = np.loadtxt("{source}", delimiter=",", skiprows=1, ndmin=2)
amplitude, converged = raw[:, 0], raw[:, 1]
fig, ax = plt.subplots(figsize=(6, 4))
positive = amplitude[amplitude > 0]
if positive.size:
    ax.set_xscale("log")
ax.step(amplitude, converged, where="post", marker="o")
ax.set_xlabel("amplitude")
ax.set_ylabel("converged")
ax.set_yticks([0, 1])
fig.tight_layout()
fig.savefig("scan.png", dpi=150)
""",
}

PLOT_KINDS = tuple(_PLOT_TEMPLATES)


def emit_plot_script(out_dir, kind: str, source) -> Path:
    """Write a self-contained matplotlib script that reads ``source``, a
    table or report of the run, as ``plot_<kind>.py`` in ``out_dir``."""
    if kind not in _PLOT_TEMPLATES:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    if not Path(source).exists():
        raise FileNotFoundError(f"plot kind {kind!r} needs its source artifact, missing: {source}")
    path = Path(out_dir) / f"plot_{kind}.py"
    _atomic_write(path, _PLOT_TEMPLATES[kind].format(source=Path(source).name))
    return path
