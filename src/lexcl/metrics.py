"""Retrieval metrics (paired Recall@K: item i of line i, both directions,
ranked on canonical image x text cosines of the rows that
`losses.unit_rows` normalises; average recall,
forgetting) and diagnostics (Fisher-trace proxy, embedding histograms)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import dist_stats, read_lines, write_csv
from .encoders import ENTRIES, Pooling, chunks, encode_text
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


def _cosines(x: np.ndarray, y: np.ndarray, rows, buf: np.ndarray):
    """(r, x[r] @ y.T) per row selection r of `rows`, a slice or an index
    array, each product written over the last at the head of `buf`: the
    caller is done with one at the next."""
    for r in rows:
        xr = x[r]
        out = buf[:len(xr) * len(y)].reshape(len(xr), len(y))
        yield r, np.matmul(xr, y.T, out=out)


def _ranks(u: np.ndarray, v: np.ndarray, k_max: int) -> np.ndarray:
    """Both directions' min(rank, k_max) of item p in line p on canonical
    scores, einsum("pd,pd->p") of C-contiguous unit rows: the items that
    score above p, or equal to it at an index below p.

    A line's product entries above and below a band around its own score
    are counted (at k_max = 1, each product's line maximum tells rank 0
    from the rest), and the line is settled, rank k_max, once k_max
    entries lie above the band. First u @ v[:w].T, w = min(n, ENTRIES // n)
    and at least 1, ranks texts 0..w-1 against every image in its columns
    and scores every image against them in its rows; v[w:] @ u[:w].T does
    the same for images 0..w-1 and the other texts. Then each line of w..
    not yet settled meets items w.. in `chunks` of such lines. Up to 256
    pairs w = n, and the first product is the only one. A line left with
    an entry inside the band is scored again canonically."""
    (n, d), count = u.shape, np.count_nonzero
    # A dot of two unit rows lies within gamma_d = d u / (1 - d u) of its
    # exact value in any summation order (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., 3.1): a product entry more than the
    # band, 4 gamma_d, from a canonical score orders as its own one does.
    du = d * np.finfo(np.float64).eps / 2
    own = np.einsum("pd,pd->p", u, v)
    hi, lo = own + 4 * du / (1 - du), own - 4 * du / (1 - du)
    above, reach = np.zeros((2, 2, n), dtype=np.int64)  # > hi, >= lo

    def tally(side, lines, s):
        """Count row i of s into line lines[i] of direction `side`."""
        if k_max == 1:
            m = s.max(axis=1)
            above[side, lines] += m > hi[lines]
            reach[side, lines] += m >= lo[lines]
        else:
            above[side, lines] += count(s > hi[lines, None], axis=1)
            reach[side, lines] += count(s >= lo[lines, None], axis=1)

    w = max(1, min(n, ENTRIES // n))
    buf = np.empty(min(n * n, max(ENTRIES, n)))  # holds every product
    for r, s in _cosines(u, v[:w], [slice(a, b) for a, b in chunks(n, w)],
                         buf):
        np.fill_diagonal(s[:, r.start:], -np.inf)
        tally(0, r, s)
        tally(1, slice(0, w), s.T)
    for r, s in _cosines(v, u[:w], [slice(w + a, w + b)
                                    for a, b in chunks(n - w, w)], buf):
        tally(1, r, s)
        tally(0, slice(0, w), s.T)
    for side, (x, y) in enumerate(((u, v[w:]), (v, u[w:]))):
        lines = w + np.flatnonzero(above[side, w:] < k_max)
        for r, s in _cosines(x, y, [lines[a:b] for a, b
                                    in chunks(len(lines), n - w)], buf):
            s[np.arange(len(r)), r - w] = -np.inf
            tally(side, r, s)
    for side, p in zip(*np.nonzero((above < k_max) & (above != reach))):
        line = np.full(n, p)
        c = np.einsum("pd,pd->p", *((u, v[line]) if side else (u[line], v)))
        above[side, p] = count(c > own[p]) + count(c[:p] == own[p])
    return np.minimum(above, k_max)


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
