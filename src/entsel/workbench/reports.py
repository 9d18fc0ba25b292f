"""Markdown/CSV report rendering from stored run artifacts.

Pure functions of the files on disk: regenerating a report never reflows
timestamps or machine state, so identical artifacts give identical bytes.
"""

import math
import os

import numpy as np

from ..errors import DataError
from ..files import atomic_write
from ..inference import write_csv
from .datafiles import _read_text, read_json_object


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
    """(header, [(line number, cells)]) of a CSV file, blank lines skipped."""
    lines = [(n, line.split(",")) for n, line in enumerate(_read_text(path).split("\n"), 1)
             if line.strip()]
    if not lines:
        raise DataError(f"{path} is empty")
    return lines[0][1], lines[1:]


def _read_losses(path):
    """(steps, losses) of loss.csv; a bad row raises DataError naming its line."""
    steps, losses = [], []
    for n, cells in _read_csv(path)[1]:
        try:
            step, loss = cells
            steps.append(int(step))
            losses.append(float(loss))
        except ValueError as exc:  # wrong cell count or a cell that is no number
            raise DataError(f"{path}:{n}: expected 'step,loss' ({exc})") from exc
    if not losses:
        raise DataError(f"{path}: no loss rows")
    return steps, np.array(losses)


def _md_table(header, rows):
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(out) + "\n"


def render_report(run_dir):
    """Write report.md + loss_smoothed.csv from a run directory's artifacts.

    Needs loss.csv and metrics.json; bench/ablation/sweep tables are folded
    in when present. The loss curve is smoothed with a Gaussian whose sigma
    is 2% of the step count. Returns the report path.
    """
    loss_path = os.path.join(run_dir, "loss.csv")
    metrics_path = os.path.join(run_dir, "metrics.json")
    for path in (loss_path, metrics_path):
        if not os.path.exists(path):
            raise DataError(f"missing artifact {path}")
    steps, losses = _read_losses(loss_path)
    metrics = read_json_object(metrics_path)
    if not isinstance(metrics.get("metrics", {}), dict):
        raise DataError(f"{metrics_path}: 'metrics' must be a JSON object")
    sigma = 0.02 * len(losses)
    smoothed = gaussian_smooth(losses, sigma)
    write_csv(os.path.join(run_dir, "loss_smoothed.csv"), ("step", "loss", "smoothed"),
              [(s, f"{raw:.10g}", f"{sm:.10g}") for s, raw, sm in zip(steps, losses, smoothed)])

    parts = ["# Run report\n"]
    cfg_path = os.path.join(run_dir, "resolved_config.json")
    if os.path.exists(cfg_path):
        cfg = read_json_object(cfg_path)
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
            parts.append(_md_table(header, [cells for _, cells in rows]))
    report_path = os.path.join(run_dir, "report.md")
    with atomic_write(report_path) as fh:
        fh.write("".join(parts))
    return report_path
