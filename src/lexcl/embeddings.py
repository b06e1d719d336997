"""Expandable trainable embedding matrix, its frozen anchor snapshot,
distribution statistics, initialization policies and checkpoint I/O."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (CheckpointFormatError, CheckpointTruncatedError,
                     DimensionMismatchError, InvalidInputError, StateError,
                     VocabMismatchError)

EMB_MAGIC = b"TEIREMB1"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class DistStats:
    mu: float
    sigma: float  # population standard deviation


@dataclass(frozen=True)
class InitPolicy:
    kind: str  # "matched" | "fixed"
    mu: float
    sigma: float


def fixed_policy(mu0: float = 0.0, sigma0: float = 0.02) -> InitPolicy:
    return InitPolicy("fixed", mu0, sigma0)


def matched_policy(stats: DistStats) -> InitPolicy:
    return InitPolicy("matched", stats.mu, stats.sigma)


class EmbeddingTable:
    """|V| x d matrix of 32-bit floats; statistics computed in 64-bit."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise InvalidInputError("EmbeddingTable: matrix must be 2-D")
        self.matrix = matrix
        self._anchor_taken = False

    @property
    def row_count(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.matrix.copy())


class AnchorTable:
    """Frozen snapshot of an embedding table; never modified."""

    def __init__(self, matrix: np.ndarray):
        m = matrix.copy()
        m.flags.writeable = False
        self.matrix = m

    @property
    def row_count(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def init_table(rows: int, dim: int, policy: InitPolicy, rng_seed: int) -> EmbeddingTable:
    """Fresh table with every row drawn from the policy's Gaussian."""
    if rows < 1 or dim < 1:
        raise InvalidInputError("init_table: rows and dim must be positive")
    if policy.sigma < 0:
        raise InvalidInputError("init_table: sigma must be non-negative")
    rng = np.random.default_rng(rng_seed)
    m = rng.normal(policy.mu, policy.sigma, size=(rows, dim))
    return EmbeddingTable(m.astype(np.float32))


def dist_stats(table) -> DistStats:
    """Scalar mean and population std over all matrix entries."""
    m = table.matrix
    if m.size == 0:
        raise InvalidInputError("dist_stats: empty table")
    flat = m.astype(np.float64, copy=False)
    return DistStats(float(flat.mean()), float(flat.std()))


def ks_statistic(x, mu: float, sigma: float) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov statistic of the values
    `x` against N(mu, sigma^2): the largest gap between their empirical
    CDF and the normal CDF, on either side of each step."""
    x = np.sort(np.asarray(x, dtype=np.float64).ravel())
    n = x.size
    if n == 0 or not sigma > 0:
        raise InvalidInputError("ks_statistic: needs values and sigma > 0")
    scale = sigma * math.sqrt(2.0)
    cdf = np.array([0.5 * math.erfc(-(v - mu) / scale) for v in x.tolist()])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def expand(table: EmbeddingTable, n_new: int, policy: InitPolicy,
           rng_seed: int) -> EmbeddingTable:
    """Append n_new Gaussian rows; existing rows are preserved bit-exactly,
    and a table whose anchor was taken yields one that refuses another.

    New rows are drawn from the policy's (mu, sigma): for the matched
    policy, the pre-expansion table's own statistics.
    """
    if n_new < 0:
        raise InvalidInputError("expand: n_new must be non-negative")
    if policy.sigma < 0:
        raise InvalidInputError("expand: sigma must be non-negative")
    rng = np.random.default_rng(rng_seed)
    new_rows = rng.normal(policy.mu, policy.sigma,
                          size=(n_new, table.dim)).astype(np.float32)
    out = EmbeddingTable(np.vstack([table.matrix, new_rows]))
    out._anchor_taken = table._anchor_taken
    return out


def snapshot_anchor(table: EmbeddingTable) -> AnchorTable:
    """Deep-copy freeze of the current table; allowed exactly once."""
    if table._anchor_taken:
        raise StateError("snapshot_anchor: anchor already taken from this table")
    table._anchor_taken = True
    return AnchorTable(table.matrix)


# --- checkpoint I/O ----------------------------------------------------

def vocab_hash(tokens: list[bytes]) -> str:
    h = hashlib.sha256()
    for t in tokens:
        h.update(struct.pack("<I", len(t)))
        h.update(t)
    return h.hexdigest()


def _write_atomic(path, *chunks) -> None:
    """Write to a temp file beside `path`, then rename it into place, so
    that a reader sees the old file or the whole new one, never a part."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_matrix(path, magic: bytes, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(matrix, dtype="<f4")
    _write_atomic(path, magic,
                  struct.pack("<III", FORMAT_VERSION, m.shape[0], m.shape[1]),
                  m.data)


def read_matrix(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(len(magic) + 12)
        if len(head) < len(magic) + 12:
            raise CheckpointTruncatedError(f"{path}: truncated header")
        if head[: len(magic)] != magic:
            raise CheckpointFormatError(
                f"{path}: bad magic {head[:len(magic)]!r}, expected {magic!r}")
        version, rows, dim = struct.unpack("<III", head[len(magic):])
        if version != FORMAT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported version {version}")
        payload = f.read(rows * dim * 4)
        if len(payload) < rows * dim * 4:
            raise CheckpointTruncatedError(f"{path}: truncated payload")
        if f.read(1):
            raise CheckpointFormatError(f"{path}: trailing bytes after the payload")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dim).copy()


def save_checkpoint(table, manifest: dict, path) -> None:
    """Binary matrix plus a JSON sidecar (vocab hash, task, policy, seed)."""
    write_matrix(path, EMB_MAGIC, table.matrix)
    side = dict(manifest)
    side.setdefault("rows", table.row_count)
    side.setdefault("dim", table.dim)
    _write_atomic(str(path) + ".json",
                  json.dumps(side, indent=1, sort_keys=True).encode())


def load_checkpoint(path, expected_rows: int | None = None,
                    expected_vocab_hash: str | None = None) -> EmbeddingTable:
    """Read a checkpoint and check it against its sidecar and, when
    given, the row count and vocab hash of the caller's vocabulary."""
    m = read_matrix(path, EMB_MAGIC)
    try:
        with open(str(path) + ".json") as f:
            side = json.load(f)
    except FileNotFoundError:
        side = {}
    declared = side.get("rows", expected_rows)
    if expected_rows is not None and m.shape[0] != expected_rows:
        raise DimensionMismatchError(
            f"{path}: checkpoint has {m.shape[0]} rows, vocab expects {expected_rows}")
    if declared is not None and m.shape[0] != declared:
        raise DimensionMismatchError(
            f"{path}: checkpoint has {m.shape[0]} rows, sidecar declares {declared}")
    if (expected_vocab_hash is not None
            and side.get("vocab_hash") != expected_vocab_hash):
        raise VocabMismatchError(
            f"{path}: sidecar vocab hash {side.get('vocab_hash')!r} is not the "
            f"vocab's {expected_vocab_hash!r}")
    return EmbeddingTable(m)
