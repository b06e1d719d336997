"""Training objectives: symmetric InfoNCE over cosine logits, paired-text
MSE, and their weighted combination, each over one batch of K x d
features with its exact gradient with respect to the foreign-text
features (the only trainable branch); and `batch_grad`, the forward and
backward pass of one batch from the embedding rows to its loss and back."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import encode_text, encode_text_grad
from .errors import DegenerateFeatureError, InvalidInputError, check_keys, key


@dataclass(frozen=True)
class LossConfig:
    # bounds that keep a gradient and its square far inside float64
    tau: float = key(0.07, "loss.tau", ge=1e-6)
    gamma_cm: float = key(0.01, "loss.gamma_cm", ge=0, le=1e6)
    gamma_cl: float = key(1.0, "loss.gamma_cl", ge=0, le=1e6)

    def __post_init__(self):
        check_keys(self)


@dataclass
class FeatureBatch:
    R_I: np.ndarray  # image features, no gradient
    R_E: np.ndarray  # anchor text features, no gradient
    R_F: np.ndarray  # foreign text features, trainable branch

    def __post_init__(self):
        if (self.R_F.ndim != 2
                or not self.R_I.shape == self.R_E.shape == self.R_F.shape):
            raise InvalidInputError("FeatureBatch: shape mismatch")

    @property
    def K(self) -> int:
        return self.R_I.shape[0]


def unit_rows(m, who: str):
    """(the rows of `m` scaled to unit norm, their norms). A zero-norm or
    non-finite row is an error naming `who` and the row."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
    if bad.size:
        i = int(bad[0])
        kind = "zero-norm" if norms[i] == 0 else "non-finite"
        raise DegenerateFeatureError(f"{who}: {kind} row {i}")
    return m / norms[:, None], norms


def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def cm_loss(batch: FeatureBatch, tau: float):
    """Symmetric InfoNCE over cosine similarities scaled by 1/tau.

    Returns (loss, dloss/dR_F); the image branch is treated as constant.
    """
    K = batch.K
    U, _ = unit_rows(batch.R_I, "R_I")
    V, v_norms = unit_rows(batch.R_F, "R_F")
    S = (U @ V.T) / tau  # S[k, l] = cos(img_k, txt_l) / tau

    log_p = _log_softmax(S, axis=1)  # image -> text
    log_q = _log_softmax(S, axis=0)  # text -> image
    loss = -0.5 / K * (np.trace(log_p) + np.trace(log_q))

    P, Q = np.exp(log_p), np.exp(log_q)
    P.flat[::K + 1] -= 1.0
    Q.flat[::K + 1] -= 1.0
    G = (P + Q) / (2.0 * K)  # dloss / dS

    A = (G.T @ U) / tau   # dloss / d(normalized rows of R_F)
    inner = np.einsum("ij,ij->i", A, V)
    grad = (A - inner[:, None] * V) / v_norms[:, None]
    return loss, grad


def cl_loss(batch: FeatureBatch):
    """Mean-square error between paired anchor and foreign text features."""
    K = batch.K
    diff = np.asarray(batch.R_F, dtype=np.float64) - np.asarray(batch.R_E, dtype=np.float64)
    loss = (diff * diff).sum() / (2.0 * K)
    return loss, diff / K


def total_loss(batch: FeatureBatch, cfg: LossConfig):
    """gamma_cm * contrastive + gamma_cl * cross-lingual, with gradient. A
    term of weight 0 is not computed; with both 0 the gradient is 0.0."""
    l_cm, g_cm = cm_loss(batch, cfg.tau) if cfg.gamma_cm != 0.0 else (0.0, 0.0)
    l_cl, g_cl = cl_loss(batch) if cfg.gamma_cl != 0.0 else (0.0, 0.0)
    return (cfg.gamma_cm * l_cm + cfg.gamma_cl * l_cl,
            cfg.gamma_cm * g_cm + cfg.gamma_cl * g_cl)


def batch_grad(pooled, matrix, params, img_feats, eng_feats, cfg: LossConfig):
    """The forward and backward pass of one training batch: the loss of
    the foreign texts `pooled`, encoded under `matrix`, against their
    image and anchor English features, and its gradient w.r.t. the
    embedding rows read, as (loss, rows, grads)."""
    r_f = encode_text(pooled, matrix, params)
    loss, grad_rf = total_loss(FeatureBatch(img_feats, eng_feats, r_f), cfg)
    rows, grads = encode_text_grad(pooled, r_f, params, grad_rf)
    return loss, rows, grads
