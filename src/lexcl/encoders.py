"""Frozen text encoder: deterministic mean pooling, one affine map and
tanh squashing, batched over padded id/weight arrays, one product per
call (plus its exact adjoint w.r.t. the embedding rows). `chunks` cuts
the transient blocks of at most ENTRIES entries. Image features are a
frozen array that `bench.load_images` reads.

The text encoder is deliberately simple so gradients are hand-derivable
and finite-difference-checkable; the only trainable parameters anywhere
are the embedding rows fed into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

ENTRIES = 1 << 16  # per block of `chunks`, 512 KB of float64


@dataclass(frozen=True)
class FrozenTextParams:
    W: np.ndarray         # d_out x d
    b: np.ndarray         # d_out
    pos: np.ndarray       # L_max x d sinusoidal
    mean_pos: np.ndarray  # L_max x d, row L - 1 the mean of pos[:L]
    L_max: int


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
    mean_pos = np.cumsum(pos, axis=0) / np.arange(1, L_max + 1)[:, None]
    for a in (W, b, pos, mean_pos):
        a.flags.writeable = False
    return FrozenTextParams(W=W, b=b, pos=pos, mean_pos=mean_pos,
                            L_max=L_max)


@dataclass(frozen=True)
class Pooling:
    """K texts pooled as h[k] = sum_m w[k, m] E[ids[k, m]] + mean_pos[L - 1]
    with L = n[k] = min(length, L_max). Row k of `ids` holds the distinct
    ids among text k's first L ids, ascending, and `w` their weights c / L
    (c the id's count; 0 for pads)."""

    ids: np.ndarray  # int32
    w: np.ndarray
    n: np.ndarray

    def take(self, index) -> "Pooling":
        """The pooling of texts `index`, in that order."""
        return Pooling(self.ids[index], self.w[index], self.n[index])

    @classmethod
    def concat(cls, parts) -> "Pooling":
        """The texts of several poolings, in order, as one, each part padded
        to the widest: the same arrays as pooling their texts together."""
        if len(parts) == 1:  # the part itself, not a copy
            return parts[0]
        width = max(p.w.shape[1] for p in parts)
        pads = [((0, 0), (0, width - p.w.shape[1])) for p in parts]
        return cls(np.concatenate([np.pad(p.ids, s) for p, s in zip(parts, pads)]),
                   np.concatenate([np.pad(p.w, s) for p, s in zip(parts, pads)]),
                   np.concatenate([p.n for p in parts]))


def pooling(ids, lengths, n_rows: int, params: FrozenTextParams) -> Pooling:
    """The Pooling of texts whose ids lie back to back in `ids`, text k
    holding lengths[k] of them, as `VocabState.tokenize` returns them."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths == 0):
        raise InvalidInputError("encode_text: empty id sequence "
                                f"(text {int(np.argmin(lengths))})")
    text = np.repeat(np.arange(len(lengths)), lengths)
    start = np.cumsum(lengths) - lengths
    keep = np.arange(len(text)) - start[text] < params.L_max
    text, ids = text[keep], np.asarray(ids, dtype=np.int64)[keep]
    bad = (ids < 0) | (ids >= n_rows)
    if np.any(bad):
        raise InvalidInputError(f"encode_text: id {ids[bad][0]} out of "
                                f"range for table with {n_rows} rows")
    n = np.minimum(lengths, params.L_max)
    # the distinct (text, id) pairs, ascending; repeats sum to c / L
    _, first, pair = np.unique(text * n_rows + ids, return_index=True,
                               return_inverse=True)
    k = text[first]
    slot = np.arange(len(k)) - np.searchsorted(k, k)
    shape = (len(n), slot.max(initial=-1) + 1)
    padded_ids, w = np.zeros(shape, dtype=np.int32), np.zeros(shape)
    padded_ids[k, slot], w[k, slot] = ids[first], np.bincount(pair, 1.0 / n[text])
    return Pooling(padded_ids, w, n)


def chunks(n: int, width: int) -> list[tuple[int, int]]:
    """range(n) in blocks of max(1, ENTRIES // width) rows of `width`."""
    rows = max(1, ENTRIES // max(width, 1))
    return [(a, min(a + rows, n)) for a in range(0, n, rows)]


def encode_text(pooled: Pooling, matrix: np.ndarray,
                params: FrozenTextParams) -> np.ndarray:
    """K x d_out features r = tanh(W h + b) of the pooled texts under the
    embedding matrix: h gathered a chunk of texts at a time, each text's
    terms summed in slot order from 0 (pads adding zeros), then one
    product over all K texts."""
    h = np.empty((len(pooled.n), matrix.shape[1]))
    for a, b in chunks(len(h), pooled.w.shape[1] * matrix.shape[1]):
        np.einsum("km,kmd->kd", pooled.w[a:b], matrix[pooled.ids[a:b]],
                  out=h[a:b])
        h[a:b] += params.mean_pos[pooled.n[a:b] - 1]
    r = h @ params.W.T
    r += params.b
    return np.tanh(r, out=r)


def pooled_grad(feats, params: FrozenTextParams, upstream) -> np.ndarray:
    """K x d gradient of sum(upstream * feats) w.r.t. the pooled inputs h."""
    return ((1.0 - feats * feats) * upstream) @ params.W


def encode_text_grad(pooled: Pooling, feats, params: FrozenTextParams,
                     upstream):
    """Gradient of sum(upstream * feats) w.r.t. the embedding rows read,
    rows ascending: A @ pooled_grad, A[r, k] the weight of rows[r] in text
    k, so repeated ids accumulate linearly; pads read no row."""
    k, m = np.nonzero(pooled.w)
    ids = pooled.ids[k, m]
    read = np.zeros(ids.max(initial=-1) + 1, dtype=bool)
    read[ids] = True
    rows = np.flatnonzero(read)
    A = np.zeros((len(rows), len(pooled.w)))
    A[np.cumsum(read)[ids] - 1, k] = pooled.w[k, m]
    return rows, A @ pooled_grad(feats, params, upstream)
