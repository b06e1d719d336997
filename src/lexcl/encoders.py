"""Frozen text encoder: deterministic mean pooling, one affine map and
tanh squashing, batched as one sparse product (plus its exact adjoint
w.r.t. the embedding rows). Image features are a frozen array that
`bench.load_images` reads.

The text encoder is deliberately simple so gradients are hand-derivable
and finite-difference-checkable; the only trainable parameters anywhere
are the embedding rows fed into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InvalidIdError, InvalidInputError


@dataclass(frozen=True)
class FrozenTextParams:
    W: np.ndarray      # d_out x d
    b: np.ndarray      # d_out
    pos: np.ndarray    # L_max x d sinusoidal
    L_max: int
    seed: int

    @property
    def dim(self) -> int:
        return self.W.shape[1]


def sinusoidal_positions(L_max: int, d: int) -> np.ndarray:
    pos = np.zeros((L_max, d), dtype=np.float64)
    i = np.arange(L_max, dtype=np.float64)[:, None]
    k = np.arange(0, d, 2, dtype=np.float64)[None, :]
    angles = i / np.power(10000.0, k / d)
    pos[:, 0::2] = np.sin(angles)
    pos[:, 1::2] = np.cos(angles[:, : d // 2])
    return pos


def make_text_params(dim: int, d_out: int, L_max: int = 32,
                     seed: int = 0) -> FrozenTextParams:
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, (1.0 / np.sqrt(dim)) ** 0.5, size=(d_out, dim))
    b = np.zeros(d_out, dtype=np.float64)
    pos = sinusoidal_positions(L_max, dim)
    for a in (W, b, pos):
        a.flags.writeable = False
    return FrozenTextParams(W=W, b=b, pos=pos, L_max=L_max, seed=seed)


@dataclass(frozen=True)
class Pooling:
    """K texts pooled as one sparse product, h = A @ E[rows] + pos: `rows`
    are the distinct ids read, ascending; `A` (CSR) is the K x |V| row-
    averaging matrix without its zero columns, entry (k, r) = c / L with
    c the count of rows[r] in text k's first L = min(length, L_max) ids;
    `pos` is the mean of each text's first L position vectors."""

    A: sparse.csr_matrix
    rows: np.ndarray
    pos: np.ndarray

    def take(self, index) -> "Pooling":
        """The pooling of texts `index`, in that order."""
        sub = self.A[index]
        cols, compact = np.unique(sub.indices, return_inverse=True)
        A = sparse.csr_matrix((sub.data, compact, sub.indptr),
                              shape=(len(index), len(cols)))
        return Pooling(A, self.rows[cols], self.pos[index])


def pooling(tokens, n_rows: int, params: FrozenTextParams) -> Pooling:
    """The Pooling of every text of `tokens` (`vocab.TokenArrays`)."""
    lengths = np.diff(tokens.offsets)
    if np.any(lengths == 0):
        raise InvalidInputError("encode_text: empty id sequence "
                                f"(text {int(np.argmin(lengths))})")
    text = np.repeat(np.arange(len(lengths)), lengths)
    keep = np.arange(len(text)) - tokens.offsets[text] < params.L_max
    text, ids = text[keep], tokens.ids[keep].astype(np.int64)
    bad = (ids < 0) | (ids >= n_rows)
    if np.any(bad):
        raise InvalidIdError(f"encode_text: id {ids[bad][0]} out of range "
                             f"for table with {n_rows} rows")
    rows, col = np.unique(ids, return_inverse=True)
    n = np.minimum(lengths, params.L_max)
    # repeated (text, id) entries are summed, to c / L
    A = sparse.csr_matrix((1.0 / n[text], (text, col)),
                          shape=(len(n), len(rows)))
    mean_pos = np.cumsum(params.pos, axis=0) / np.arange(1, params.L_max + 1)[:, None]
    return Pooling(A, rows, mean_pos[n - 1])


def encode_text(pooled: Pooling, matrix: np.ndarray,
                params: FrozenTextParams) -> np.ndarray:
    """K x d_out features r = tanh(W h + b) of the pooled texts."""
    h = pooled.A @ matrix[pooled.rows].astype(np.float64)
    h += pooled.pos
    r = h @ params.W.T
    r += params.b
    return np.tanh(r, out=r)


def text_features(tokens, matrix, params: FrozenTextParams) -> np.ndarray:
    """encode_text of every text of `tokens` under the embedding matrix:
    the routine that training, validation and `lexcl eval` all score with."""
    return encode_text(pooling(tokens, len(matrix), params), matrix, params)


def pooled_grad(feats, params: FrozenTextParams, upstream) -> np.ndarray:
    """K x d gradient of sum(upstream * feats) w.r.t. the pooled inputs h."""
    return ((1.0 - feats * feats) * upstream) @ params.W


def encode_text_grad(pooled: Pooling, feats, params: FrozenTextParams,
                     upstream):
    """Gradient of sum(upstream * feats) w.r.t. the embedding rows read:
    (rows, A^T @ pooled_grad), so repeated ids accumulate linearly."""
    return pooled.rows, pooled.A.T @ pooled_grad(feats, params, upstream)
