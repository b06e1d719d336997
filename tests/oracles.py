"""Slow reference implementations that the batched code paths are tested
against: the per-caption text encoder and its adjoint, the row-by-row
optimizer step with per-row moment dicts, and Recall@K by a stable
argsort of every similarity row."""

from dataclasses import dataclass, field

import numpy as np

from lexcl.errors import InvalidIdError, InvalidInputError, NumericError
from lexcl.optim import lr_at


def _pooled(ids, matrix, params):
    ids = list(ids)
    if not ids:
        raise InvalidInputError("encode_text: empty id sequence")
    L = min(len(ids), params.L_max)
    ids = ids[:L]
    for i in ids:
        if not 0 <= i < matrix.shape[0]:
            raise InvalidIdError(f"encode_text: id {i} out of range")
    emb = matrix[ids].astype(np.float64)
    return ids, L, (emb + params.pos[:L]).mean(axis=0)


def encode_text(ids, matrix, params):
    """r = tanh(W h + b), h = mean over positions of (embedding + pos)."""
    _, _, h = _pooled(ids, matrix, params)
    return np.tanh(params.W @ h + params.b)


def encode_text_grad(ids, matrix, params, upstream):
    """{row: gradient of upstream . encode_text(ids) w.r.t. that row}."""
    ids, L, h = _pooled(ids, matrix, params)
    r = np.tanh(params.W @ h + params.b)
    g_row = (params.W.T @ ((1.0 - r * r) * np.asarray(upstream))) / L
    grads = {}
    for i in ids:
        grads[i] = grads[i] + g_row if i in grads else g_row.copy()
    return grads


def batch_grads(id_lists, matrix, params, upstream):
    """Sum of encode_text_grad over a batch, as one {row: gradient} dict."""
    total = {}
    for ids, up in zip(id_lists, upstream):
        for j, g in encode_text_grad(ids, matrix, params, up).items():
            total[j] = total[j] + g if j in total else g
    return total


@dataclass
class DictState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)
    step_count: int = 0


def step(table, grads, lam, cfg, state: DictState) -> None:
    """One scheduled update of the rows in `grads` ({row: gradient}),
    row by row; rows with lambda 0 are skipped."""
    lr = lr_at(state.step_count, cfg)
    state.step_count += 1
    mat = table.matrix
    for j in sorted(grads):
        g = np.asarray(grads[j], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"step: non-finite gradient for row {j}")
        lam_j = float(lam[j])
        if lam_j == 0.0:
            continue
        theta = mat[j].astype(np.float64)
        if cfg.kind == "sgd":
            theta = theta * (1.0 - (lr * cfg.weight_decay) * lam_j) \
                - (lr * lam_j) * g
        else:
            g = lam_j * g
            theta = theta - ((lr * cfg.weight_decay) * lam_j) * theta
            m = state.m.get(j, np.zeros_like(theta))
            v = state.v.get(j, np.zeros_like(theta))
            t = state.t.get(j, 0) + 1
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
            m_hat = m / (1.0 - cfg.beta1 ** t)
            v_hat = v / (1.0 - cfg.beta2 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
            state.m[j], state.v[j], state.t[j] = m, v, t
        mat[j] = theta.astype(np.float32)


def recall_at_k(query_feats, gallery_feats, relevance, k) -> float:
    """Percent of queries with a relevant item among the first k of a
    stable argsort of the negated cosine row."""
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    sims = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ \
        (g / np.linalg.norm(g, axis=1, keepdims=True)).T
    hits = 0
    for qi in range(q.shape[0]):
        top = np.argsort(-sims[qi], kind="stable")[:k]
        hits += bool(relevance[qi].intersection(top.tolist()))
    return 100.0 * hits / q.shape[0]
