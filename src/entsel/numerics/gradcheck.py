"""Finite-difference verification of analytic gradients."""

from dataclasses import dataclass

import numpy as np

from .tensor import ComputeGraph, backward


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    worst_index: int


def grad_check(f, x, step=1e-4, tolerance=1e-5):
    """Compare analytic grads of scalar-valued f at x to central differences.

    `f` must be deterministic (no dropout). The reported relative error is
    elementwise deviation measured against the gradient's own scale:
    |a_i - n_i| / max(max|a|, max|n|, 1e-6). Near-zero components therefore
    do not drown the report in finite-difference truncation noise, while a
    wrong backward rule still shows up at order 1. x.data is restored on
    return.
    """
    was_rg = x.requires_grad
    x.requires_grad = True
    x.zero_grad()
    try:
        with ComputeGraph():
            backward(f(x))
        if x.grad is None:  # f does not depend on x; analytic gradient is zero
            analytic = np.zeros(x.size)
        else:
            analytic = x.grad.reshape(-1).copy()
        x.zero_grad()

        flat = x.data.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f(x).item()
            flat[i] = orig - step
            fm = f(x).item()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * step)
    finally:
        x.requires_grad = was_rg

    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-6)
    rel = np.abs(analytic - numeric) / scale
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(max_rel_error=max_rel, passed=max_rel < tolerance,
                           worst_index=worst)
