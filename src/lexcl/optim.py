"""Sparse row-wise optimizer with per-token update scaling.

A row's step and its decoupled weight-decay rate are both multiplied by
that token's lambda coefficient, under SGD and AdamW alike. AdamW's
moments see the raw gradient and lambda scales the step,
lr * lambda * m_hat / (sqrt(v_hat) + eps): a factor on the gradient
would cancel in m / sqrt(v). Rows with lambda 0 are dropped from the
index before any write, which makes their bitwise invariance across a
task a structural property rather than a numerical accident. Updates
are lazy: only the rows passed in are touched, all at once (AdamW after
Loshchilov & Hutter, arXiv:1711.05101). A task builds one OptimState
for its table and its number of steps; a step past them raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError, check_keys, key

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Optimiser of the first step, which trains the anchor from the fixed
# init; every later step uses the configured one.
PRETRAIN_OPTIM = {"kind": "adamw", "lr_peak": 0.03}


@dataclass(frozen=True)
class OptimConfig:
    """The optim.* section of the run config."""

    kind: str = key("sgd", "optim.kind", choices=("adamw", "sgd"))
    lr_peak: float = key(1.0, "optim.lr", gt=0)
    weight_decay: float = key(0.005, "optim.weight_decay", ge=0)
    warmup_fraction: float = key(0.1, "optim.warmup_fraction", ge=0, lt=1)

    def __post_init__(self):
        check_keys(self)
        # from lr * wd = 1 on, the decay factor 1 - lr * wd of SGD and AdamW
        # is <= 0, so a step zeroes or flips every row it reads at lambda 1;
        # pretraining's lr counts
        lr = max(self.lr_peak, PRETRAIN_OPTIM["lr_peak"])
        if lr * self.weight_decay >= 1:
            raise InvalidInputError(f"optim.weight_decay {self.weight_decay!r} "
                                    f"times optim.lr {lr!r} must be < 1")


class OptimState:
    """The schedule position of one task of `total_steps` steps on a
    table of `shape`. Under AdamW, also every row's moments and own step
    count t, and the bias corrections (1 - BETA1 ** t, 1 - BETA2 ** t)
    by t; SGD keeps no moments."""

    def __init__(self, shape: tuple[int, int], total_steps: int, kind: str):
        self.total_steps = total_steps
        self.step_count = 0
        if kind == "adamw":
            self.m, self.v = np.zeros(shape), np.zeros(shape)
            self.t = np.zeros(shape[0], dtype=np.int64)
            # Python's float power: numpy's can differ from it in the last
            # bit, and from one CPU to another
            self.bias = np.array([(1.0 - BETA1 ** k, 1.0 - BETA2 ** k)
                                  for k in range(total_steps + 1)])


def lr_at(step: int, total_steps: int, cfg: OptimConfig) -> float:
    """Linear ramp from 0 to lr_peak over the warmup steps of a
    `total_steps` schedule, then flat."""
    warmup = int(np.ceil(cfg.warmup_fraction * total_steps))
    if warmup <= 0 or step >= warmup:
        return cfg.lr_peak
    return cfg.lr_peak * (step / warmup)


def step(matrix: np.ndarray, rows, lam: np.ndarray, grads, cfg: OptimConfig,
         state: OptimState) -> None:
    """Apply one scheduled update, in place, to the distinct `rows` of
    the float32 matrix, whose gradients are the rows of `grads`."""
    if state.step_count >= state.total_steps:
        raise InvalidInputError(f"step: the schedule's {state.total_steps} "
                                "steps are all taken")
    lr = lr_at(state.step_count, state.total_steps, cfg)
    state.step_count += 1
    rows, g = np.asarray(rows, dtype=np.int64), np.asarray(grads, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericError(f"step {state.step_count}: non-finite gradient for row "
                           f"{rows[~np.isfinite(g).all(axis=1)][0]}")
    live = lam[rows] != 0.0
    rows, g = rows[live], g[live]
    lam_r = lam[rows][:, None]
    theta = matrix[rows].astype(np.float64)
    if cfg.kind == "sgd":
        with np.errstate(over="ignore"):  # an inf step fails the check below
            theta = theta * (1.0 - (lr * cfg.weight_decay) * lam_r) \
                - (lr * lam_r) * g
    else:
        theta = theta - ((lr * cfg.weight_decay) * lam_r) * theta
        t = state.t[rows] + 1
        m = BETA1 * state.m[rows] + (1.0 - BETA1) * g
        v = BETA2 * state.v[rows] + (1.0 - BETA2) * (g * g)
        bias = state.bias[t]
        with np.errstate(over="ignore"):
            theta = theta - (lr * lam_r) * (m / bias[:, :1]) \
                / (np.sqrt(v / bias[:, 1:]) + EPS)
        state.m[rows], state.v[rows], state.t[rows] = m, v, t
    bad = ~(np.abs(theta) < 2.0 ** 128 - 2.0 ** 103).all(axis=1)  # float32 inf
    if bad.any():
        raise NumericError(f"step {state.step_count}: row {rows[bad][0]} "
                           "leaves float32's range")
    matrix[rows] = theta.astype(np.float32)
