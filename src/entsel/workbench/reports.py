"""Markdown/CSV report rendering from stored run artifacts.

Pure functions of the files on disk: regenerating a report never reflows
timestamps or machine state, so identical artifacts give identical bytes.
"""

import json
import math
import os

import numpy as np

from ..errors import DataError
from ..inference import write_csv


def gaussian_smooth(values, sigma):
    """Discrete Gaussian smoothing, display-only.

    Kernel w_j = exp(-j^2 / (2 sigma^2)) for j in [-R, R], R = ceil(4 sigma),
    renormalized over the part of the window inside the sequence. sigma <= 0
    returns the input unchanged.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DataError("smoothing expects a 1-D sequence")
    if sigma <= 1e-12 or v.size <= 1:
        return v.copy()
    r = max(1, int(math.ceil(4.0 * sigma)))
    offsets = np.arange(-r, r + 1)
    w = np.exp(-(offsets.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
    out = np.empty_like(v)
    for i in range(v.size):
        lo, hi = max(0, i - r), min(v.size, i + r + 1)
        ww = w[lo - i + r:hi - i + r]
        out[i] = float(np.dot(ww, v[lo:hi]) / np.sum(ww))
    return out


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise DataError(f"{path} is empty")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _md_table(header, rows):
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(out) + "\n"


def render_report(run_dir, sigma_fraction=0.02):
    """Write report.md + loss_smoothed.csv from a run directory's artifacts.

    Needs loss.csv and metrics.json; bench/ablation/sweep tables are folded
    in when present. Returns the report path.
    """
    loss_path = os.path.join(run_dir, "loss.csv")
    metrics_path = os.path.join(run_dir, "metrics.json")
    for path in (loss_path, metrics_path):
        if not os.path.exists(path):
            raise DataError(f"missing artifact {path}")
    _, loss_rows = _read_csv(loss_path)
    steps = [int(r[0]) for r in loss_rows]
    losses = np.array([float(r[1]) for r in loss_rows])
    sigma = sigma_fraction * len(losses)
    smoothed = gaussian_smooth(losses, sigma)
    write_csv(os.path.join(run_dir, "loss_smoothed.csv"), ("step", "loss", "smoothed"),
              [(s, f"{raw:.10g}", f"{sm:.10g}") for s, raw, sm in zip(steps, losses, smoothed)])
    with open(metrics_path, encoding="utf-8") as fh:
        metrics = json.load(fh)

    parts = ["# Run report\n"]
    cfg_path = os.path.join(run_dir, "resolved_config.json")
    if os.path.exists(cfg_path):
        with open(cfg_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        parts.append("## Configuration\n")
        parts.append(_md_table(("key", "value"),
                               [(k, str(cfg[k])) for k in sorted(cfg)]))
    parts.append("\n## Training loss\n")
    lo = int(np.argmin(losses))
    parts.append(f"{len(losses)} steps; first {losses[0]:.6g}, "
                 f"min {losses[lo]:.6g} at step {steps[lo]}, last {losses[-1]:.6g}; "
                 f"smoothing sigma = {sigma:.6g} steps (see loss_smoothed.csv).\n")
    parts.append("\n## Evaluation\n")
    flat = dict(metrics.get("metrics", {}))
    flat.update({k: v for k, v in metrics.items() if k != "metrics"})
    parts.append(_md_table(("metric", "value"),
                           [(k, f"{flat[k]:.6g}" if isinstance(flat[k], float) else str(flat[k]))
                            for k in sorted(flat)]))
    for name, title in (("bench.csv", "Benchmark"), ("ablation.csv", "Ablation"),
                        ("sweep.csv", "Retrieval sweep")):
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            header, rows = _read_csv(path)
            parts.append(f"\n## {title}\n")
            parts.append(_md_table(header, rows))
    report_path = os.path.join(run_dir, "report.md")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
    return report_path
