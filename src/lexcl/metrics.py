"""Retrieval metrics (paired Recall@K: item i of line i, both directions
from image x text cosines formed in the aligned row blocks of `spans`,
over rows that `losses.unit_rows` normalises; average recall,
forgetting) and diagnostics (Fisher-trace proxy, embedding histograms)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import dist_stats, read_lines, write_csv
from .encoders import Pooling, encode_text, spans
from .errors import InvalidInputError, MetricError
from .losses import batch_grad, unit_rows

DIRECTIONS = ("img2txt", "txt2img")


@dataclass
class EvalMatrix:
    """Lower-triangular Recall@1 entries a[j, i] per retrieval direction.

    j is the last task trained, i <= j the task evaluated; values are
    percentages in [0, 100]."""

    entries: dict[tuple[int, int, str], float] = field(default_factory=dict)

    def set(self, j: int, i: int, direction: str, value: float) -> None:
        if direction not in DIRECTIONS:
            raise InvalidInputError(f"unknown direction {direction!r}")
        if i > j:
            raise InvalidInputError("EvalMatrix: requires i <= j")
        if not 0.0 <= value <= 100.0:
            raise InvalidInputError(f"EvalMatrix: value {value} outside [0, 100]")
        self.entries[(j, i, direction)] = value

    def get(self, j: int, i: int, direction: str) -> float:
        return self.entries[(j, i, direction)]

    def row(self, j: int, direction: str) -> list[float]:
        return [self.entries[(j, i, direction)] for i in range(j + 1)]

    def row_complete(self, j: int, direction: str) -> bool:
        return all((j, i, direction) in self.entries for i in range(j + 1))

    def save_csv(self, path) -> None:
        write_csv(path, [["j", "i", "direction", "recall1"],
                         *([j, i, d, repr(v)]
                           for (j, i, d), v in sorted(self.entries.items()))])

    @classmethod
    def load_csv(cls, path) -> "EvalMatrix":
        out = cls()

        def add(line: str) -> None:
            j, i, d, v = line.split(",")
            if (int(j), int(i), d) in out.entries:
                raise ValueError(f"a second row for ({j}, {i}, {d})")
            out.set(int(j), int(i), d, float(v))

        read_lines(path, add, InvalidInputError, header="j,i,direction,recall1")
        return out


def _cosines(u: np.ndarray, v: np.ndarray, blocks):
    """(a, b, rows a:b of u @ v.T) per (a, b) of `blocks`, each written over
    the last in one buffer: the caller is done with a block at the next."""
    buf = np.empty((max((b - a for a, b in blocks), default=0), len(v)))
    for a, b in blocks:
        yield a, b, np.matmul(u[a:b], v.T, out=buf[:b - a])


def _first_max(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Both directions' Recall@1 ranks (0 a hit): line p hits when item p
    is its first maximum. Column p's own score must top every earlier
    block, be its own block's first maximum and reach every later one."""
    n = len(u)
    ranks, own, top = np.empty((2, n), dtype=np.int64), np.empty(n), np.full(n, -np.inf)
    for a, b, s in _cosines(u, v, spans(n)):
        i, m, own[a:b] = np.arange(b - a), s.max(axis=0), s.diagonal(a)
        eq = s[:, a:b] == own[a:b]
        ranks[0, a:b] = s.argmax(axis=1) != a + i
        ranks[1, a:b] = (own[a:b] <= top[a:b]) | (m[a:b] > own[a:b])
        if np.count_nonzero(eq) > b - a:  # a tie off the diagonal: rare
            ranks[1, a:b] |= (eq & (i[:, None] < i)).any(axis=0)
        np.maximum(top, m, out=top)
    ranks[1] |= own < top
    return ranks


def _count_ranks(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Both directions' ranks: line p's items that score above its own, or
    equal to it at an index below p. Each block counts its rows and the
    columns whose own score is known; the columns right of a block are
    counted against it once every own score is, from its product again."""
    n, count, blocks = len(u), np.count_nonzero, spans(len(u))
    own, ranks = np.empty(n), np.zeros((2, n), dtype=np.int64)
    for a, b, s in _cosines(u, v, blocks):
        r = slice(a, b)
        own[r] = s.diagonal(a)
        ranks[0, r] = (count(s[:, :a] >= own[r, None], axis=1)
                       + count(s[:, a:] > own[r, None], axis=1))
        ranks[1, :b] += count(s[:, :b] > own[:b], axis=0)
        for d, eq in enumerate((s[:, r] == own[r, None], (s[:, r] == own[r]).T)):
            if count(eq) > b - a:  # a tie off the diagonal: rare
                ranks[d, r] += count(eq & np.tri(b - a, k=-1, dtype=bool), axis=1)
    del s  # the first pass's buffer
    for a, b, s in _cosines(u, v, blocks[:-1]):
        ranks[1, b:] += count(s[:, b:] >= own[b:], axis=0)
    return ranks


def _recall(rank: np.ndarray, ks) -> dict[int, float]:
    """{k: percent of the lines whose item ranks below k}."""
    return {k: 100.0 * int(np.count_nonzero(rank < k)) / len(rank) for k in ks}


def paired_recall(pooled: Pooling, matrix, params, image_feats,
                  ks=(1,)) -> dict:
    """{direction: {k: Recall@k}} between the pooled texts, encoded under
    the embedding `matrix`, and their images: text i goes with image i.
    img2txt ranks the rows of img @ txt.T, txt2img its columns, by block."""
    txt = encode_text(pooled, matrix, params)
    img = np.asarray(image_feats, dtype=np.float64)
    if len(txt) != len(img):
        raise InvalidInputError(f"paired_recall: {len(txt)} texts, {len(img)} images")
    u, _ = unit_rows(img, "paired_recall images")
    v, _ = unit_rows(txt, "paired_recall texts")
    ranks = (_first_max if max(ks) == 1 else _count_ranks)(u, v)
    return {d: _recall(r, ks) for d, r in zip(DIRECTIONS, ranks)}


def score_row(evals: EvalMatrix, row: int, matrix, params, test_set) -> None:
    """Set row `row` of the recall matrix `evals`: Recall@1 of tasks
    0..row under the embedding `matrix`, both directions. test_set[i] is
    task i's (test Pooling, image features); the run and `lexcl eval` both
    score through here."""
    for i in range(row + 1):
        pooled, images = test_set[i]
        for d, recall in paired_recall(pooled, matrix, params, images).items():
            evals.set(row, i, d, recall[1])


def average_recall(matrix: EvalMatrix, j: int, direction: str) -> float:
    """Mean Recall@1 over all tasks seen so far (0-based task indices)."""
    if not matrix.row_complete(j, direction):
        raise MetricError(f"average_recall: row {j}/{direction} incomplete")
    row = matrix.row(j, direction)
    return float(sum(row) / len(row))


def forgetting(matrix: EvalMatrix, j: int, direction: str) -> float:
    """Mean drop from each earlier task's best historical Recall@1.

    Undefined after fewer than two tasks. The running max for task i is
    taken over checkpoints k in [i, j-1] (a task cannot be measured
    before it is learned)."""
    if j < 1:
        raise MetricError("forgetting: undefined before the second task")
    for jj in range(j + 1):
        if not matrix.row_complete(jj, direction):
            raise MetricError(f"forgetting: row {jj}/{direction} incomplete")
    gaps = []
    for i in range(j):
        best = max(matrix.get(k, i, direction) for k in range(i, j))
        gaps.append(best - matrix.get(j, i, direction))
    return float(sum(gaps) / len(gaps))


def fisher_and_loss(img_feats, eng_feats, pooled: Pooling, matrix, params,
                    loss_cfg, batch_size: int) -> tuple[float, float]:
    """(Fisher-trace proxy, mean loss) over consecutive batches of
    `batch_size` samples, in order, as training takes them: the mean over
    batches of the squared norm of the loss's gradient w.r.t. the
    embedding rows, and the mean batch loss. Row k of each array is
    sample k: its image feature, its English feature from the anchor and
    its pooled foreign text."""
    n = len(pooled.w)
    if n == 0:
        raise InvalidInputError("empty dataset")
    traces, losses = [], []
    for start in range(0, n, batch_size):
        block = slice(start, start + batch_size)
        loss, _, grads = batch_grad(pooled.take(block), matrix, params,
                                    img_feats[block], eng_feats[block], loss_cfg)
        traces.append(np.einsum("ij,ij->", grads, grads))
        losses.append(loss)
    return float(np.mean(traces)), float(np.mean(losses))


def ted_histogram(matrix: np.ndarray, bins: int):
    """Equal-width histogram of all embedding entries over mu +/- 5 sigma.

    Returns (edges, counts, n_below, n_above, stats); a zero-sigma matrix
    degenerates to a single bin holding everything."""
    if bins < 2:
        raise InvalidInputError("ted_histogram: bins must be >= 2")
    stats = dist_stats(matrix)
    flat = matrix.astype(np.float64).ravel()
    if stats.sigma == 0.0:
        edges = np.array([stats.mu, stats.mu])
        return edges, np.array([flat.size]), 0, 0, stats
    lo, hi = stats.mu - 5 * stats.sigma, stats.mu + 5 * stats.sigma
    counts, edges = np.histogram(flat, bins=bins, range=(lo, hi))
    n_below = int((flat < lo).sum())
    n_above = int((flat > hi).sum())
    return edges, counts, n_below, n_above, stats


def save_histogram_csv(edges, counts, path) -> None:
    write_csv(path, [["bin_left", "bin_right", "count"],
                     *([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
                       for i, c in enumerate(counts))])
