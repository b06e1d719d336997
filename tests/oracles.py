"""Slow reference implementations that the fast code paths are tested
against: the per-caption text encoder and its adjoint, the one-shot
batched encoder whose bits the blocked one keeps, the scipy CSR
pooling whose summation order the padded forward pass keeps, the
row-by-row optimizer step with per-row moment dicts and its bias
corrections powered step by step, the canonical cosines that recall
ranks on, Recall@K by a stable argsort of every canonical similarity
row, paired Recall@K ranked on the whole n x n canonical cosine matrix,
the full-recount BPE trainer, the rule-by-rule
BPE encoder, a plain hash of a matrix's bytes, one SeedSequence per
named random stream of the benchmark generator, and the caption that one
such stream draws through numpy's Generator; whether OPENBLAS_CORETYPE
can pick another BLAS kernel, and what a fresh interpreter with a given
number of BLAS threads prints; and an ndarray subclass that records each
product's shape."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from lexcl import bpe
from lexcl.errors import InvalidIdError, InvalidInputError, NumericError
from lexcl.losses import unit_rows
from lexcl.optim import BETA1, BETA2, EPS, lr_at


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


def encode_text_one_shot(pooled, matrix, params):
    """The batched encoder as one gather, one einsum and one product over
    all K texts of a Pooling: the bits that `encoders.encode_text` keeps
    while it works block by block."""
    h = np.einsum("km,kmd->kd", pooled.w, matrix[pooled.ids])
    h += params.mean_pos[pooled.n - 1]
    r = h @ params.W.T
    r += params.b
    return np.tanh(r, out=r)


def dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose
    kernel OPENBLAS_CORETYPE picks at load time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def fresh_interpreter(script: str, kernel: str | None = None,
                      threads: int = 1) -> str:
    """The last line that `script` prints in a fresh interpreter with
    `threads` OpenBLAS threads and lexcl and the tests on its path. With
    `kernel`, OpenBLAS must report running that kernel; without, it runs
    its default."""
    src = os.path.dirname(os.path.dirname(bpe.__file__))
    path = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_VERBOSE="2",
               OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert kernel is None or f"Core: {kernel}" in done.stdout + done.stderr
    return done.stdout.splitlines()[-1]


def matmul_recorder(products: list) -> type:
    """An ndarray subclass whose matmuls append (rows, columns) of their
    product to `products`, then compute on plain arrays."""

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *args, **kw):
            if ufunc is np.matmul:
                products.append((len(args[0]), args[1].shape[1]))
            plain = [np.asarray(x) for x in (*args, *kw.pop("out", ()))]
            return getattr(ufunc, method)(*plain[:len(args)],
                                          out=(*plain[len(args):],) or None,
                                          **kw)

    return Recorded


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


@dataclass(frozen=True)
class CsrPooling:
    """K texts pooled as one sparse product, h = A @ E[rows] + pos: `rows`
    are the distinct ids read, ascending; `A` (CSR) is the K x |V| row-
    averaging matrix without its zero columns, entry (k, r) = c / L with
    c the count of rows[r] in text k's first L = min(length, L_max) ids;
    `pos` is the mean of each text's first L position vectors."""

    A: sparse.csr_matrix
    rows: np.ndarray
    pos: np.ndarray

    @classmethod
    def of(cls, ids, lengths, params) -> "CsrPooling":
        """The pooling of texts whose ids lie back to back in `ids`, text
        k holding lengths[k] of them."""
        lengths = np.asarray(lengths, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        text = np.repeat(np.arange(len(lengths)), lengths)
        keep = np.arange(len(text)) - offsets[text] < params.L_max
        text, ids = text[keep], np.asarray(ids, dtype=np.int64)[keep]
        rows, col = np.unique(ids, return_inverse=True)
        n = np.minimum(lengths, params.L_max)
        # repeated (text, id) entries are summed, to c / L
        A = sparse.csr_matrix((1.0 / n[text], (text, col)),
                              shape=(len(n), len(rows)))
        mean_pos = (np.cumsum(params.pos, axis=0)
                    / np.arange(1, params.L_max + 1)[:, None])
        return cls(A, rows, mean_pos[n - 1])

    def take(self, index) -> "CsrPooling":
        sub = self.A[index]
        cols, compact = np.unique(sub.indices, return_inverse=True)
        A = sparse.csr_matrix((sub.data, compact, sub.indptr),
                              shape=(len(index), len(cols)))
        return CsrPooling(A, self.rows[cols], self.pos[index])

    def features(self, matrix, params):
        """tanh(W (A @ E[rows] + pos) + b)."""
        h = self.A @ matrix[self.rows].astype(np.float64)
        h += self.pos
        r = h @ params.W.T
        r += params.b
        return np.tanh(r, out=r)

    def grad(self, pooled_grad):
        """(rows, A^T @ pooled_grad)."""
        return self.rows, self.A.T @ pooled_grad


@dataclass
class DictState:
    total_steps: int
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)
    step_count: int = 0


def step(matrix, grads, lam, cfg, state: DictState) -> None:
    """One scheduled update of the rows in `grads` ({row: gradient}),
    row by row; rows with lambda 0 are skipped. AdamW's moments take the
    raw gradient, and lambda scales the step and the decay. Its bias
    corrections are Python float powers 1 - beta ** t of each row's t,
    taken anew at every step: the per-task table of optim.step must
    match them."""
    lr = lr_at(state.step_count, state.total_steps, cfg)
    state.step_count += 1
    for j in sorted(grads):
        g = np.asarray(grads[j], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"step: non-finite gradient for row {j}")
        lam_j = float(lam[j])
        if lam_j == 0.0:
            continue
        theta = matrix[j].astype(np.float64)
        if cfg.kind == "sgd":
            theta = theta * (1.0 - (lr * cfg.weight_decay) * lam_j) \
                - (lr * lam_j) * g
        else:
            theta = theta - ((lr * cfg.weight_decay) * lam_j) * theta
            m = state.m.get(j, np.zeros_like(theta))
            v = state.v.get(j, np.zeros_like(theta))
            t = state.t.get(j, 0) + 1
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * (g * g)
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            theta = theta - (lr * lam_j) * m_hat / (np.sqrt(v_hat) + EPS)
            state.m[j], state.v[j], state.t[j] = m, v, t
        matrix[j] = theta.astype(np.float32)


def canonical_cosines(query_feats, gallery_feats) -> np.ndarray:
    """The cosines that recall ranks on, query x gallery: each score the
    einsum dot of the two rows that `unit_rows` normalises, whose bits
    no BLAS kernel, thread count or blocking moves."""
    return np.einsum("id,jd->ij", unit_rows(query_feats, "query")[0],
                     unit_rows(gallery_feats, "gallery")[0])


def recall_at_k(query_feats, gallery_feats, relevance, k) -> float:
    """Percent of queries with a relevant item among the first k of a
    stable argsort of the negated canonical cosine row."""
    sims = canonical_cosines(query_feats, gallery_feats)
    hits = 0
    for qi in range(len(sims)):
        top = np.argsort(-sims[qi], kind="stable")[:k]
        hits += bool(relevance[qi].intersection(top.tolist()))
    return 100.0 * hits / len(sims)


_LINES = 256  # lines ranked per block


def _whole_ranks(lines: np.ndarray, k_max: int) -> np.ndarray:
    """min(rank, k_max) of item p in line p of the square `lines`: row p
    of a C-ordered cosine matrix, or column p of one read through its .T
    view. The rank is the number of scores above the item's own plus the
    equal scores at a lower index."""
    own = lines.diagonal()
    if k_max == 1:
        # rank 0 is the first maximum: search only lines at their maximum
        rank = np.ones(len(own), dtype=np.int64)
        top = np.flatnonzero(own == lines.max(axis=1))
        for p in np.split(top, range(_LINES, len(top), _LINES)):
            rank[p] = lines[p].argmax(axis=1) != p
        return rank
    if lines.flags.c_contiguous:
        rank = np.concatenate([
            np.count_nonzero(lines[s:s + _LINES] > own[s:s + _LINES, None], axis=1)
            for s in range(0, len(lines), _LINES)])
    else:
        base = lines.T
        rank = np.zeros(len(own), dtype=np.int64)
        for s in range(0, len(base), _LINES):
            rank += np.count_nonzero(base[s:s + _LINES] > own, axis=0)
    # Equal scores at a lower index can only move a line still below
    # k_max, and only one that holds a tie: count them on those lines.
    near = np.flatnonzero(rank < k_max)
    for p in np.split(near, range(_LINES, len(near), _LINES)):
        eq = lines[p] == own[p, None]
        tied = np.count_nonzero(eq, axis=1) > 1
        p, eq = p[tied], eq[tied]
        rank[p] += np.count_nonzero(
            eq & (np.arange(eq.shape[1]) < p[:, None]), axis=1)
    return np.minimum(rank, k_max)


def paired_ranks_whole(txt, image_feats, k_max: int):
    """(img2txt, txt2img) min(rank, k_max) of each line's own item, ranked
    on one n x n matrix of canonical cosines, image x text: img2txt reads
    its rows, txt2img its columns."""
    sims = canonical_cosines(image_feats, txt)
    return _whole_ranks(sims, k_max), _whole_ranks(sims.T, k_max)


def paired_recall_whole(txt, image_feats, ks=(1,)) -> dict:
    """`metrics.paired_recall` of the text features `txt`, from
    `paired_ranks_whole`."""
    return {d: {k: 100.0 * int(np.count_nonzero(rank < k)) / len(rank)
                for k in ks}
            for d, rank in zip(("img2txt", "txt2img"),
                               paired_ranks_whole(txt, image_feats, max(ks)))}


def train_bpe_reference(corpus, target_size: int,
                        task_index: int = 0) -> bpe.TaskVocab:
    """Slow reference trainer: recount every pair before each merge."""
    words, freqs = bpe._corpus_words(corpus, target_size)
    words = [[bytes([b]) for b in w] for w in words]
    out = bpe._Merges(task_index)

    while len(out.tokens) < target_size:
        pair_counts: Counter = Counter()
        for parts, f in zip(words, freqs):
            for pair in zip(parts, parts[1:]):
                pair_counts[pair] += f
        if not pair_counts:
            break
        (left, right), count = min(pair_counts.items(),
                                   key=lambda kv: (-kv[1], kv[0]))
        if count < 2:
            break
        merged = out.add(left, right)
        words = [bpe._merge_word(p, left, right, merged) if len(p) > 1 else p
                 for p in words]

    return out.vocab()


def encode_reference(text: bytes, scope) -> list[int]:
    """Slow reference encoder: apply each rule exhaustively in priority order."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    if not text:
        return []
    parts = [bytes([b]) for b in text]
    items = sorted(scope.merge_ranks().items(), key=lambda kv: kv[1][0])
    for (left, right), (_, merged) in items:
        parts = bpe._merge_word(parts, left, right, merged)
    return [scope.id_of[p] for p in parts]


def matrix_hash(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()


def sub_rng(seed: int, *names) -> np.random.Generator:
    """The benchmark generator's stream `names`: a SeedSequence of the
    seed and the first 8 bytes (little-endian) of the sha256 of the
    '/'-joined names."""
    h = hashlib.sha256(("/".join(str(n) for n in names)).encode()).digest()
    mix = int.from_bytes(h[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, mix]))


def caption_reference(rng, concept_words: list[str],
                      function_words: list[str]) -> str:
    """One caption drawn through `rng`'s scalar methods: the concept words
    shuffled, then one or two function words, each at a drawn position."""
    words = list(concept_words)
    rng.shuffle(words)
    n_func = int(rng.integers(1, 3))
    for _ in range(n_func):
        pos = int(rng.integers(len(words) + 1))
        words.insert(pos, function_words[int(rng.integers(len(function_words)))])
    return " ".join(words)
