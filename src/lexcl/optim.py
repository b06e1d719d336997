"""Sparse row-wise optimizer with per-token update scaling.

Both the gradient and the decoupled weight-decay rate of a row are
multiplied by that token's lambda coefficient; rows with lambda 0 are
dropped from the index before any write, which makes their bitwise
invariance across a task a structural property rather than a numerical
accident. Updates are lazy: only the rows passed in are touched, all at
once (AdamW after Loshchilov & Hutter, arXiv:1711.05101).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class OptimConfig:
    """Optimiser settings. The run config declares and checks the ones
    a user sets (its optim.* keys)."""

    kind: str = "adamw"  # "adamw" | "sgd"
    lr_peak: float = 5e-5
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    warmup_fraction: float = 0.1
    total_steps: int = 1


@dataclass
class OptimState:
    """AdamW moments of every row (|V| x d, grown with the table), each
    row's own step count t, the global step counter of the schedule, and
    the bias corrections (1 - beta1 ** t, 1 - beta2 ** t) by t."""

    m: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    v: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    t: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    step_count: int = 0
    bias: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))


def lr_at(step: int, cfg: OptimConfig) -> float:
    """Linear ramp from 0 to lr_peak over the warmup steps, then flat."""
    warmup = int(np.ceil(cfg.warmup_fraction * cfg.total_steps))
    if warmup <= 0 or step >= warmup:
        return cfg.lr_peak
    return cfg.lr_peak * (step / warmup)


def step(matrix: np.ndarray, rows, lam: np.ndarray, grads, cfg: OptimConfig,
         state: OptimState) -> None:
    """Apply one scheduled update, in place, to the distinct `rows` of
    the float32 matrix, whose gradients are the rows of `grads`."""
    lr = lr_at(state.step_count, cfg)
    state.step_count += 1
    rows, g = np.asarray(rows, dtype=np.int64), np.asarray(grads, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericError("step: non-finite gradient for row "
                           f"{rows[~np.isfinite(g).all(axis=1)][0]}")
    live = lam[rows] != 0.0
    rows, g = rows[live], g[live]
    lam_r = lam[rows][:, None]
    theta = matrix[rows].astype(np.float64)
    if cfg.kind == "sgd":
        theta = theta * (1.0 - (lr * cfg.weight_decay) * lam_r) \
            - (lr * lam_r) * g
    else:
        extra = len(matrix) - len(state.t)
        if extra > 0:
            state.m, state.v = (np.pad(a.reshape(-1, matrix.shape[1]),
                                       ((0, extra), (0, 0))) for a in (state.m, state.v))
            state.t = np.pad(state.t, (0, extra))
        g = lam_r * g
        theta = theta - ((lr * cfg.weight_decay) * lam_r) * theta
        if len(state.bias) <= state.step_count:  # each row's t <= step_count
            # Python's float power: numpy's can differ from it in the last
            # bit, and from one CPU to another
            n = max(cfg.total_steps, 2 * state.step_count) + 1
            state.bias = np.array([(1.0 - cfg.beta1 ** k, 1.0 - cfg.beta2 ** k)
                                   for k in range(n)])
        t = state.t[rows] + 1
        m = cfg.beta1 * state.m[rows] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[rows] + (1.0 - cfg.beta2) * (g * g)
        bias = state.bias[t]
        theta = theta - lr * (m / bias[:, :1]) / (np.sqrt(v / bias[:, 1:]) + cfg.eps)
        state.m[rows], state.v[rows], state.t[rows] = m, v, t
    matrix[rows] = theta.astype(np.float32)
