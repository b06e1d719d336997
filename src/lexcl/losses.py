"""Training objectives: symmetric InfoNCE over cosine logits, paired-text
MSE, and their weighted combination, each with the exact gradient with
respect to the foreign-text feature batch (the only trainable branch).

Each takes one batch of K x d features, or a stack of such batches
(... x K x d), and then returns one loss per batch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatureError, InvalidInputError


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.07
    gamma_cm: float = 0.01
    gamma_cl: float = 1.0

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise InvalidInputError("loss.tau: must be positive and finite")


@dataclass
class FeatureBatch:
    R_I: np.ndarray  # image features, no gradient
    R_E: np.ndarray  # anchor text features, no gradient
    R_F: np.ndarray  # foreign text features, trainable branch

    def __post_init__(self):
        if not (self.R_I.shape == self.R_E.shape == self.R_F.shape):
            raise InvalidInputError("FeatureBatch: shape mismatch")

    @property
    def K(self) -> int:
        return self.R_I.shape[-2]


def _normalize_rows(m: np.ndarray, name: str):
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=-1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise DegenerateFeatureError(f"{name}: zero-norm row {int(bad[0])}")
    return m / norms[..., None], norms


def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def cm_loss(batch: FeatureBatch, tau: float):
    """Symmetric InfoNCE over cosine similarities scaled by 1/tau.

    Returns (loss, dloss/dR_F); the image branch is treated as constant.
    """
    K = batch.K
    U, _ = _normalize_rows(batch.R_I, "R_I")
    V, v_norms = _normalize_rows(batch.R_F, "R_F")
    S = (U @ np.swapaxes(V, -1, -2)) / tau  # S[k, l] = cos(img_k, txt_l) / tau

    log_p = _log_softmax(S, axis=-1)  # image -> text
    log_q = _log_softmax(S, axis=-2)  # text -> image
    loss = -0.5 / K * (np.diagonal(log_p, axis1=-2, axis2=-1).sum(-1)
                       + np.diagonal(log_q, axis1=-2, axis2=-1).sum(-1))

    P = np.exp(log_p)
    Q = np.exp(log_q)
    eye = np.eye(K)
    G = ((P - eye) + (Q - eye)) / (2.0 * K)  # dloss / dS

    A = (np.swapaxes(G, -1, -2) @ U) / tau   # dloss / d(normalized rows of R_F)
    inner = np.einsum("...ij,...ij->...i", A, V)
    grad = (A - inner[..., None] * V) / v_norms[..., None]
    return loss, grad


def cl_loss(batch: FeatureBatch):
    """Mean-square error between paired anchor and foreign text features."""
    K = batch.K
    diff = np.asarray(batch.R_F, dtype=np.float64) - np.asarray(batch.R_E, dtype=np.float64)
    loss = (diff * diff).sum(axis=(-2, -1)) / (2.0 * K)
    return loss, diff / K


def total_loss(batch: FeatureBatch, cfg: LossConfig):
    """gamma_cm * contrastive + gamma_cl * cross-lingual, with gradient."""
    grad = np.zeros_like(np.asarray(batch.R_F, dtype=np.float64))
    loss = np.zeros(grad.shape[:-2])
    if cfg.gamma_cm != 0.0:
        l_cm, g_cm = cm_loss(batch, cfg.tau)
        loss += cfg.gamma_cm * l_cm
        grad += cfg.gamma_cm * g_cm
    if cfg.gamma_cl != 0.0:
        l_cl, g_cl = cl_loss(batch)
        loss += cfg.gamma_cl * l_cl
        grad += cfg.gamma_cl * g_cl
    return loss[()], grad
