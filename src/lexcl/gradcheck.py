"""Finite-difference verification of the analytic embedding gradients.

Builds a small random instance, backpropagates the combined loss to the
touched embedding rows by the batch step of training, and compares
against central differences of the same loss on the same 64-bit matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import make_text_params, pooling
from .losses import LossConfig, batch_grad


@dataclass
class GradCheckResult:
    max_rel_err: float
    worst_row: int
    worst_col: int
    analytic: float
    numeric: float

    def passed(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err <= tol


def _instance(seed: int, d: int = 8, k: int = 4, l_max: int = 5,
              vocab: int = 16):
    rng = np.random.default_rng(seed)
    params = make_text_params(d, d, L_max=l_max, seed=seed + 1)
    matrix = rng.normal(0.0, 0.5, size=(vocab, d))
    texts = [rng.integers(0, vocab, size=rng.integers(1, l_max + 1))
             for _ in range(k)]
    pooled = pooling(np.concatenate(texts), [len(t) for t in texts], vocab,
                     params)
    r_i = rng.normal(size=(k, d))
    r_e = rng.normal(size=(k, d))
    return params, matrix, pooled, r_i, r_e


def grad_check(seed: int = 0, step: float = 1e-3) -> GradCheckResult:
    """Compare analytic vs central-difference gradients on one instance."""
    cfg = LossConfig(tau=0.07, gamma_cm=1.0, gamma_cl=1.0)
    params, matrix, pooled, r_i, r_e = _instance(seed)

    def loss_at(j, col, delta):
        shifted = matrix.copy()
        shifted[j, col] += delta
        return batch_grad(pooled, shifted, params, r_i, r_e, cfg)[0]

    _, rows, analytic = batch_grad(pooled, matrix, params, r_i, r_e, cfg)

    worst = GradCheckResult(0.0, -1, -1, 0.0, 0.0)
    for j, grad in zip(rows.tolist(), analytic):
        for col, a in enumerate(grad.tolist()):
            numeric = (loss_at(j, col, step) - loss_at(j, col, -step)) / (2 * step)
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            if rel > worst.max_rel_err:
                worst = GradCheckResult(rel, j, col, a, numeric)
    return worst


def run_grad_check(n_instances: int = 5, seed: int = 0) -> GradCheckResult:
    """Worst result over several random instances."""
    worst = GradCheckResult(0.0, -1, -1, 0.0, 0.0)
    for i in range(n_instances):
        res = grad_check(seed + i)
        if res.max_rel_err > worst.max_rel_err:
            worst = res
    return worst
