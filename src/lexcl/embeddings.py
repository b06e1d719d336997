"""Growth of the trainable float32 embedding matrix, its read-only
anchor copy, distribution statistics, the fixed init, checkpoint I/O, the
atomic file writes every run and dataset file goes through, and the
checked reads of every text and JSON file."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, InvalidInputError, LexclError

EMB_MAGIC = b"TEIREMB1"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class DistStats:
    mu: float
    sigma: float  # population standard deviation


# Init of the first step's rows, and of later rows without run.teir_init;
# the matched init is the trained matrix's own dist_stats.
FIXED_INIT = DistStats(0.0, 0.02)


def dist_stats(matrix: np.ndarray) -> DistStats:
    """Scalar mean and population std over all matrix entries, computed
    in 64-bit."""
    if matrix.size == 0:
        raise InvalidInputError("dist_stats: empty matrix")
    flat = matrix.astype(np.float64, copy=False)
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


def expand(matrix: np.ndarray, n_new: int, init: DistStats,
           rng_seed: int) -> np.ndarray:
    """The float32 matrix with n_new rows appended, drawn from
    N(init.mu, init.sigma^2); existing rows are preserved bit-exactly.
    Grown from an empty 0 x d matrix, every row is drawn."""
    if n_new < 0:
        raise InvalidInputError("expand: n_new must be non-negative")
    if init.sigma < 0:
        raise InvalidInputError("expand: sigma must be non-negative")
    rng = np.random.default_rng(rng_seed)
    new_rows = rng.normal(init.mu, init.sigma,
                          size=(n_new, matrix.shape[1])).astype(np.float32)
    return np.vstack([matrix, new_rows])


def snapshot_anchor(matrix: np.ndarray) -> np.ndarray:
    """Read-only deep copy of the matrix."""
    anchor = matrix.copy()
    anchor.flags.writeable = False
    return anchor


# --- checkpoint I/O ----------------------------------------------------

def vocab_hash(tokens: list[bytes]) -> str:
    h = hashlib.sha256()
    for t in tokens:
        h.update(struct.pack("<I", len(t)))
        h.update(t)
    return h.hexdigest()


def write_atomic(path, *chunks) -> None:
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


def write_csv(path, rows) -> None:
    """Write `rows`, header first, as CSV with CRLF line ends, through
    write_atomic."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, text.getvalue().encode())


def _read_text(path, encoding: str, error) -> str:
    """The text of file `path`; bytes that do not decode raise `error`
    naming path:line."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as e:
        lineno = raw.count(b"\n", 0, e.start) + 1
        raise error(f"{path}:{lineno}: not {encoding} text") from None


def read_lines(path, parse, error, encoding: str = "utf-8",
               header: str | None = None, at_once=None) -> list:
    """parse(line) of each non-blank line of text file `path`, in order,
    with its line end (LF or CRLF) stripped. When `header` is given, the
    first line must equal it and is not parsed. Bytes that do not decode,
    a missing or wrong header, or a ValueError from parse raise `error`
    naming path:line; a package error from parse keeps its class and
    gains path:line. `at_once(text)`, when given, parses the whole text in
    one pass and returns the same list, or None for a text it does not
    take, which is then parsed line by line."""
    text = _read_text(path, encoding, error)
    if at_once is not None and (out := at_once(text)) is not None:
        return out
    lines = enumerate(text.replace("\r\n", "\n").split("\n"), start=1)
    if header is not None and next(lines)[1] != header:
        raise error(f"{path}:1: expected the header {header!r}")
    out = []
    try:
        for lineno, line in lines:
            if line.strip():
                out.append(parse(line))
    except ValueError as e:
        raise error(f"{path}:{lineno}: {e}") from None
    except LexclError as e:
        raise type(e)(f"{path}:{lineno}: {e}") from None
    return out


def read_json(path, error):
    """The JSON value in UTF-8 file `path`; a file that does not decode
    or parse raises `error` naming the path and the line."""
    text = _read_text(path, "utf-8", error)
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an int too long to convert
        raise error(f"{path}: not valid JSON: {e}") from None


def write_matrix(path, magic: bytes, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(matrix, dtype="<f4")
    write_atomic(path, magic,
                 struct.pack("<III", FORMAT_VERSION, m.shape[0], m.shape[1]),
                 m.data)


def read_matrix(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(len(magic) + 12)
        if len(head) < len(magic) + 12:
            raise CheckpointError(f"{path}: truncated header")
        if head[: len(magic)] != magic:
            raise CheckpointError(
                f"{path}: bad magic {head[:len(magic)]!r}, expected {magic!r}")
        version, rows, dim = struct.unpack("<III", head[len(magic):])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        if rows * dim * 4 > os.fstat(f.fileno()).st_size - len(head):
            raise CheckpointError(f"{path}: truncated payload of {rows} x "
                                  f"{dim} float32")
        payload = f.read(rows * dim * 4)
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the payload")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dim).copy()


def save_checkpoint(matrix: np.ndarray, manifest: dict, path) -> None:
    """Binary matrix plus a JSON sidecar (vocab hash, task, policy, seed)."""
    write_matrix(path, EMB_MAGIC, matrix)
    side = dict(manifest)
    side.setdefault("rows", matrix.shape[0])
    side.setdefault("dim", matrix.shape[1])
    write_atomic(str(path) + ".json",
                 json.dumps(side, indent=1, sort_keys=True).encode())


def load_checkpoint(path, expected_rows: int | None = None,
                    expected_vocab_hash: str | None = None,
                    expected_dim: int | None = None) -> tuple[np.ndarray, dict]:
    """(matrix, sidecar) of a checkpoint, its shape checked against its
    sidecar, which must exist and declare both, and, when given, the row
    count and vocab hash of the caller's vocabulary and the caller's
    embedding width."""
    m = read_matrix(path, EMB_MAGIC)
    side_path = f"{path}.json"
    side = read_json(side_path, CheckpointError)
    if not (isinstance(side, dict) and type(side.get("rows")) is int
            and type(side.get("dim")) is int):
        raise CheckpointError(f"{side_path}: not a JSON object with integer "
                              "'rows' and 'dim'")
    rows, dim = m.shape
    for n, unit, source, want in (
            (rows, "rows", "vocab expects", expected_rows),
            (rows, "rows", "sidecar declares", side["rows"]),
            (dim, "columns", "model.dim is", expected_dim),
            (dim, "columns", "sidecar declares", side["dim"])):
        if want is not None and n != want:
            raise CheckpointError(
                f"{path}: checkpoint has {n} {unit}, {source} {want}")
    if (expected_vocab_hash is not None
            and side.get("vocab_hash") != expected_vocab_hash):
        raise CheckpointError(
            f"{path}: sidecar vocab hash {side.get('vocab_hash')!r} is not the "
            f"vocab's {expected_vocab_hash!r}")
    return m, side
