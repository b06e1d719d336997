"""Retrieval metrics (Recall@K, average recall, forgetting) and
diagnostics (Fisher-trace proxy, embedding histograms)."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .embeddings import DistStats, dist_stats
from .encoders import Pooling, encode_text, pooled_grad, text_features
from .errors import (DegenerateFeatureError, InvalidInputError, MetricError)
from .losses import FeatureBatch, total_loss

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
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["j", "i", "direction", "recall1"])
            for (j, i, d), v in sorted(self.entries.items()):
                w.writerow([j, i, d, repr(v)])

    @classmethod
    def load_csv(cls, path) -> "EvalMatrix":
        out = cls()
        with open(path, newline="") as f:
            r = csv.reader(f)
            header = next(r)
            if header != ["j", "i", "direction", "recall1"]:
                raise InvalidInputError(f"{path}: unexpected header {header}")
            for j, i, d, v in r:
                out.set(int(j), int(i), d, float(v))
        return out


# Queries ranked, or samples scored, per block: bounds the temporaries.
_BLOCK = 256


def recall_at_k(query_feats: np.ndarray, gallery_feats: np.ndarray,
                relevance: dict[int, set[int]], k: int | tuple[int, ...]):
    """Percent of queries whose cosine top-k holds a relevant gallery item.

    An item's rank is the number of scores above its own plus the equal
    scores at a lower gallery index (ties go to the lower index); a query
    hits when a relevant item ranks below k. A tuple of k gives
    {k: recall} from one rank pass."""
    q, g = (np.asarray(a, dtype=np.float64) for a in (query_feats, gallery_feats))
    qn, gn = (np.linalg.norm(a, axis=1, keepdims=True) for a in (q, g))
    if not all(np.all(np.isfinite(n) & (n > 0)) for n in (qn, gn)):
        raise DegenerateFeatureError("recall_at_k: zero-norm or non-finite feature row")
    sims = (q / qn) @ (g / gn).T
    n_query, n_gallery = sims.shape
    missing = [qi for qi in range(n_query) if not relevance.get(qi)]
    if missing:
        raise InvalidInputError(f"recall_at_k: query {missing[0]} has no relevant items")
    query, item = np.array([(qi, j) for qi in range(n_query) for j in relevance[qi]
                            if 0 <= j < n_gallery], dtype=np.int64).reshape(-1, 2).T
    best = np.full(n_query, n_gallery)
    for s in range(0, len(item), _BLOCK):
        qs, its = query[s:s + _BLOCK], item[s:s + _BLOCK, None]
        row = sims[qs]
        own = np.take_along_axis(row, its, axis=1)
        rank = np.count_nonzero((row > own) | ((row == own) & (np.arange(n_gallery) < its)),
                                axis=1)
        np.minimum.at(best, qs, rank)
    if isinstance(k, tuple):
        return {kk: 100.0 * int(np.count_nonzero(best < kk)) / n_query for kk in k}
    return 100.0 * int(np.count_nonzero(best < k)) / n_query


def paired_recall(tokens, table, params, image_feats, ks=(1,)) -> dict:
    """{direction: {k: Recall@k}} between the texts of `tokens`, encoded
    under `table`, and their images: text i goes with image i."""
    txt = text_features(tokens, table, params)
    img = np.asarray(image_feats, dtype=np.float64)
    ident = {i: {i} for i in range(len(img))}
    return {"img2txt": recall_at_k(img, txt, ident, tuple(ks)),
            "txt2img": recall_at_k(txt, img, ident, tuple(ks))}


def score_row(matrix: EvalMatrix, row: int, table, params, test_set) -> None:
    """Set row `row` of the recall matrix: Recall@1 of tasks 0..row under
    `table`, both directions. test_set[i] is task i's (test tokens, image
    features); the run and `lexcl eval` both score through here."""
    for i in range(row + 1):
        tokens, images = test_set[i]
        for d, recall in paired_recall(tokens, table, params, images).items():
            matrix.set(row, i, d, recall[1])


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


def _sample_terms(img_feats, eng_feats, pooled: Pooling, matrix, params,
                  loss_cfg):
    """(loss, squared gradient norm) of each sample as a batch of its own
    (batch size 1). Row k of each array is sample k: its image feature,
    its English feature from the anchor table and its pooled foreign
    text. Its gradient w.r.t. the row of id j is c_j / L times its pooled
    gradient g, so its squared norm is |g|^2 * sum_j (c_j / L)^2."""
    n = pooled.A.shape[0]
    if n == 0:
        raise InvalidInputError("empty dataset")
    losses, norms = [], []
    for start in range(0, n, _BLOCK):
        block = np.arange(start, min(start + _BLOCK, n))
        sub = pooled.take(block)
        r_f = encode_text(sub, matrix, params)
        loss, grad = total_loss(FeatureBatch(
            np.asarray(img_feats[block], dtype=np.float64)[:, None],
            np.asarray(eng_feats[block], dtype=np.float64)[:, None],
            r_f[:, None]), loss_cfg)
        g = pooled_grad(r_f, params, grad[:, 0])
        losses.append(loss)
        norms.append(np.einsum("ij,ij->i", g, g)
                     * (sub.A.power(2) @ np.ones(sub.A.shape[1])))
    return np.concatenate(losses), np.concatenate(norms)


def fisher_trace(img_feats, eng_feats, pooled: Pooling, matrix, params,
                 loss_cfg) -> float:
    """Average squared gradient norm over per-sample (batch size 1)
    losses; arguments as for `_sample_terms`. 64-bit accumulation."""
    return float(np.mean(_sample_terms(img_feats, eng_feats, pooled, matrix,
                                       params, loss_cfg)[1]))


def mean_sample_loss(img_feats, eng_feats, pooled: Pooling, matrix, params,
                     loss_cfg) -> float:
    """Average per-sample (batch size 1) training loss; diagnostics only."""
    return float(np.mean(_sample_terms(img_feats, eng_feats, pooled, matrix,
                                       params, loss_cfg)[0]))


def ted_histogram(table, bins: int):
    """Equal-width histogram of all embedding entries over mu +/- 5 sigma.

    Returns (edges, counts, n_below, n_above, stats); a zero-sigma table
    degenerates to a single bin holding everything."""
    if bins < 2:
        raise InvalidInputError("ted_histogram: bins must be >= 2")
    stats = dist_stats(table)
    flat = table.matrix.astype(np.float64).ravel()
    if stats.sigma == 0.0:
        edges = np.array([stats.mu, stats.mu])
        return edges, np.array([flat.size]), 0, 0, stats
    lo, hi = stats.mu - 5 * stats.sigma, stats.mu + 5 * stats.sigma
    counts, edges = np.histogram(flat, bins=bins, range=(lo, hi))
    n_below = int((flat < lo).sum())
    n_above = int((flat > hi).sum())
    return edges, counts, n_below, n_above, stats


def save_histogram_csv(edges, counts, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(counts):
            w.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)])
