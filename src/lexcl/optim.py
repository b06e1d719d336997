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

from .errors import InvalidInputError, NumericError


@dataclass(frozen=True)
class OptimConfig:
    """Optimiser settings; errors name the run-config key of the field."""

    kind: str = "adamw"  # "adamw" | "sgd"
    lr_peak: float = 5e-5
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    warmup_fraction: float = 0.1
    total_steps: int = 1

    def __post_init__(self):
        if not 0 < self.lr_peak < np.inf:
            raise InvalidInputError("optim.lr: must be positive and finite")
        if not 0 <= self.weight_decay < np.inf:
            raise InvalidInputError("optim.weight_decay: must be >= 0 and finite")
        if not 0 <= self.warmup_fraction < 1:
            raise InvalidInputError("optim.warmup_fraction: must be in [0, 1)")
        if self.kind not in ("adamw", "sgd"):
            raise InvalidInputError(f"optim.kind: unknown kind {self.kind!r}")


@dataclass
class OptimState:
    """AdamW moments of every row (|V| x d, grown with the table), each
    row's own step count for its bias correction, and the global step
    counter of the schedule."""

    m: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    v: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    t: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    step_count: int = 0


def lr_at(step: int, cfg: OptimConfig) -> float:
    """Linear ramp from 0 to lr_peak over the warmup steps, then flat."""
    warmup = int(np.ceil(cfg.warmup_fraction * cfg.total_steps))
    if warmup <= 0 or step >= warmup:
        return cfg.lr_peak
    return cfg.lr_peak * (step / warmup)


def step(table, rows, lam: np.ndarray, grads, cfg: OptimConfig,
         state: OptimState) -> None:
    """Apply one scheduled update to the distinct `rows`, whose
    gradients are the rows of `grads`."""
    lr = lr_at(state.step_count, cfg)
    state.step_count += 1
    rows, g = np.asarray(rows, dtype=np.int64), np.asarray(grads, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericError("step: non-finite gradient for row "
                           f"{rows[~np.isfinite(g).all(axis=1)][0]}")
    live = lam[rows] != 0.0
    rows, g = rows[live], g[live]
    lam_r = lam[rows][:, None]
    mat = table.matrix
    theta = mat[rows].astype(np.float64)
    if cfg.kind == "sgd":
        theta = theta * (1.0 - (lr * cfg.weight_decay) * lam_r) \
            - (lr * lam_r) * g
    else:
        extra = len(mat) - len(state.t)
        if extra > 0:
            state.m, state.v = (np.pad(a.reshape(-1, mat.shape[1]),
                                       ((0, extra), (0, 0))) for a in (state.m, state.v))
            state.t = np.pad(state.t, (0, extra))
        g = lam_r * g
        theta = theta - ((lr * cfg.weight_decay) * lam_r) * theta
        t = state.t[rows] + 1
        m = cfg.beta1 * state.m[rows] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[rows] + (1.0 - cfg.beta2) * (g * g)
        # Python's float power: numpy's can differ from it in the last
        # bit, and from one CPU to another
        m_hat = m / np.array([1.0 - cfg.beta1 ** k for k in t.tolist()])[:, None]
        v_hat = v / np.array([1.0 - cfg.beta2 ** k for k in t.tolist()])[:, None]
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        state.m[rows], state.v[rows], state.t[rows] = m, v, t
    mat[rows] = theta.astype(np.float32)
