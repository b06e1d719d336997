"""Finite-difference verification of the analytic embedding gradients.

Builds a small random instance, backpropagates the combined loss to the
touched embedding rows by the batch step of training, and compares
against central differences of the same loss on the same 64-bit matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import make_text_params, pooling
from .losses import LossConfig, batch_grad

# The largest relative error that passes, the central-difference step,
# the number of random instances, and each instance's embedding width,
# batch size, longest text and vocab size.
TOL = 1e-4
STEP = 1e-3
N_INSTANCES = 5
D, K, L_MAX, VOCAB = 8, 4, 5, 16


@dataclass
class GradCheckResult:
    max_rel_err: float
    worst_row: int
    worst_col: int
    analytic: float
    numeric: float

    def passed(self) -> bool:
        return self.max_rel_err <= TOL


def _instance(seed: int):
    rng = np.random.default_rng(seed)
    params = make_text_params(D, D, L_max=L_MAX, seed=seed + 1)
    matrix = rng.normal(0.0, 0.5, size=(VOCAB, D))
    texts = [rng.integers(0, VOCAB, size=rng.integers(1, L_MAX + 1))
             for _ in range(K)]
    pooled = pooling(np.concatenate(texts), [len(t) for t in texts], VOCAB,
                     params)
    r_i = rng.normal(size=(K, D))
    r_e = rng.normal(size=(K, D))
    return params, matrix, pooled, r_i, r_e


def grad_check(seed: int) -> GradCheckResult:
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
            numeric = (loss_at(j, col, STEP) - loss_at(j, col, -STEP)) / (2 * STEP)
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            if rel > worst.max_rel_err:
                worst = GradCheckResult(rel, j, col, a, numeric)
    return worst


def run_grad_check(seed: int = 0) -> GradCheckResult:
    """Worst result over N_INSTANCES random instances."""
    worst = GradCheckResult(0.0, -1, -1, 0.0, 0.0)
    for i in range(N_INSTANCES):
        res = grad_check(seed + i)
        if res.max_rel_err > worst.max_rel_err:
            worst = res
    return worst
