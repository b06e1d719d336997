"""Retrieval metrics (paired Recall@K: item i of line i, both directions,
ranked on canonical image x text cosines of the rows that
`losses.unit_rows` normalises; average recall,
forgetting) and diagnostics (Fisher-trace proxy, embedding histograms)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import dist_stats, read_lines, write_csv
from .encoders import Pooling, chunks, encode_text
from .errors import InvalidInputError
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


def _ranks(u: np.ndarray, v: np.ndarray, k_max: int) -> np.ndarray:
    """Both directions' ranks of item p in line p on canonical scores,
    einsum("pd,pd->p") of C-contiguous unit rows: the items that score
    above p, or equal to it at an index below p. Each block of `chunks`
    of u @ v.T is formed once with the own pairs masked, and its entries
    outside a band around a line's own score are counted (at k_max = 1,
    the lines' maxima tell rank 0 from the rest); a line with an entry
    inside the band is scored again canonically."""
    (n, d), count = u.shape, np.count_nonzero
    # A dot of two unit rows lies within gamma_d = d u / (1 - d u) of its
    # exact value in any summation order (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., 3.1): a product entry more than the
    # band, 4 gamma_d, from a canonical score orders as its own one does.
    du = d * np.finfo(np.float64).eps / 2
    own = np.einsum("pd,pd->p", u, v)
    hi, lo = own + 4 * du / (1 - du), own - 4 * du / (1 - du)
    above, reach = np.zeros((2, 2, n), dtype=np.int64)  # > hi, >= lo
    top = np.full(n, -np.inf)
    for a, b, s in _cosines(u, v, chunks(n, n)):
        np.fill_diagonal(s[:, a:], -np.inf)
        r = slice(a, b)
        if k_max == 1:
            m = s.max(axis=1)
            above[0, r], reach[0, r] = m > hi[r], m >= lo[r]
            np.maximum(top, s.max(axis=0), out=top)
        else:
            above[0, r] = count(s > hi[r, None], axis=1)
            reach[0, r] = count(s >= lo[r, None], axis=1)
            above[1] += count(s > hi, axis=0)
            reach[1] += count(s >= lo, axis=0)
    if k_max == 1:
        above[1], reach[1] = top > hi, top >= lo
    for side, p in zip(*np.nonzero(above != reach)):  # rare
        line = np.full(n, p)
        c = np.einsum("pd,pd->p", *((u, v[line]) if side else (u[line], v)))
        above[side, p] = count(c > own[p]) + count(c[:p] == own[p])
    return above


def _recall(rank: np.ndarray, ks) -> dict[int, float]:
    """{k: percent of the lines whose item ranks below k}."""
    return {k: 100.0 * int(np.count_nonzero(rank < k)) / len(rank) for k in ks}


def paired_recall(pooled: Pooling, matrix, params, images, ks=(1,)) -> dict:
    """{direction: {k: Recall@k}} between the pooled texts, encoded under
    the embedding `matrix`, and their images: text i goes with image i.
    img2txt ranks the rows of img @ txt.T, txt2img its columns."""
    txt = encode_text(pooled, matrix, params)
    if len(txt) != len(images):
        raise InvalidInputError(f"paired_recall: {len(txt)} texts, {len(images)} images")
    v, _ = unit_rows(txt, "paired_recall texts")
    del txt  # the float64 images, too, live only until their unit rows exist
    u, _ = unit_rows(np.ascontiguousarray(images, dtype=np.float64),
                     "paired_recall images")
    return {d: _recall(r, ks) for d, r in zip(DIRECTIONS, _ranks(u, v, max(ks)))}


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
        raise InvalidInputError(
            f"average_recall: row {j}/{direction} incomplete")
    row = matrix.row(j, direction)
    return float(sum(row) / len(row))


def forgetting(matrix: EvalMatrix, j: int, direction: str) -> float:
    """Mean drop from each earlier task's best historical Recall@1.

    Undefined after fewer than two tasks. The running max for task i is
    taken over checkpoints k in [i, j-1] (a task cannot be measured
    before it is learned)."""
    if j < 1:
        raise InvalidInputError("forgetting: undefined before the second task")
    for jj in range(j + 1):
        if not matrix.row_complete(jj, direction):
            raise InvalidInputError(
                f"forgetting: row {jj}/{direction} incomplete")
    gaps = [max(matrix.get(k, i, direction) for k in range(i, j))
            - matrix.get(j, i, direction) for i in range(j)]
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
    return edges, counts, int((flat < lo).sum()), int((flat > hi).sum()), stats


def save_histogram_csv(edges, counts, path) -> None:
    write_csv(path, [["bin_left", "bin_right", "count"],
                     *([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
                       for i, c in enumerate(counts))])
