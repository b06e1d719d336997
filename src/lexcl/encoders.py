"""Frozen feature extractors: a deterministic mean-pooled text encoder
with one affine map and tanh squashing (plus its exact adjoint w.r.t.
the embedding rows), and an image-feature provider.

The text encoder is deliberately simple so gradients are hand-derivable
and finite-difference-checkable; the only trainable parameters anywhere
are the embedding rows fed into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import read_matrix, write_matrix
from .errors import InvalidIdError, InvalidInputError

IMG_MAGIC = b"TEIRIMG1"


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

    @property
    def d_out(self) -> int:
        return self.W.shape[0]


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


def _pooled(ids, matrix: np.ndarray, params: FrozenTextParams):
    ids = list(ids)
    if not ids:
        raise InvalidInputError("encode_text: empty id sequence")
    L = min(len(ids), params.L_max)
    ids = ids[:L]
    for i in ids:
        if not 0 <= i < matrix.shape[0]:
            raise InvalidIdError(f"encode_text: id {i} out of range "
                                 f"for table with {matrix.shape[0]} rows")
    emb = matrix[ids].astype(np.float64)
    h = (emb + params.pos[:L]).mean(axis=0)
    return ids, L, h


def encode_text(ids, table, params: FrozenTextParams) -> np.ndarray:
    """r = tanh(W h + b), h = mean over positions of (embedding + pos)."""
    _, _, h = _pooled(ids, table.matrix, params)
    return np.tanh(params.W @ h + params.b)


def encode_text_grad(ids, table, params: FrozenTextParams,
                     upstream: np.ndarray) -> dict[int, np.ndarray]:
    """Gradient of upstream . encode_text(ids) w.r.t. the touched rows.

    Every position contributes the same row gradient, so repeated ids
    accumulate linearly.
    """
    ids_l, L, h = _pooled(ids, table.matrix, params)
    r = np.tanh(params.W @ h + params.b)
    g_row = (params.W.T @ ((1.0 - r * r) * np.asarray(upstream, dtype=np.float64))) / L
    grads: dict[int, np.ndarray] = {}
    for i in ids_l:
        if i in grads:
            grads[i] = grads[i] + g_row
        else:
            grads[i] = g_row.copy()
    return grads


class ImageFeatureProvider:
    """Frozen n_images x d_out feature matrix, file-backed or seeded."""

    def __init__(self, features: np.ndarray):
        f = np.ascontiguousarray(features, dtype=np.float32)
        if not np.all(np.isfinite(f)):
            raise InvalidInputError("ImageFeatureProvider: non-finite features")
        f.flags.writeable = False
        self.features = f

    @property
    def n_images(self) -> int:
        return self.features.shape[0]

    @property
    def d_out(self) -> int:
        return self.features.shape[1]

    def image_feature(self, index: int) -> np.ndarray:
        if not 0 <= index < self.n_images:
            raise InvalidIdError(f"image index {index} out of range "
                                 f"[0, {self.n_images})")
        return self.features[index]

    @classmethod
    def synthetic(cls, n_images: int, d_out: int, seed: int) -> "ImageFeatureProvider":
        rng = np.random.default_rng(seed)
        return cls(rng.standard_normal((n_images, d_out)).astype(np.float32))

    @classmethod
    def from_file(cls, path) -> "ImageFeatureProvider":
        return cls(read_matrix(path, IMG_MAGIC))

    def save(self, path) -> None:
        write_matrix(path, IMG_MAGIC, self.features)
