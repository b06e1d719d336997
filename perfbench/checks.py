"""Output checks on one finished workload, computed apart from lexcl.

The final row of the Recall@1 matrix is recomputed from the stored
checkpoints with this file's own file readers, BPE encoder, text encoder
and brute-force rank count, and compared with `eval_matrix.csv`. The
other checks read the checkpoint and vocabulary files directly. Only
the tokenizer round trip calls lexcl, because lexcl's own `encode` and
`decode` are what it checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import struct

import numpy as np

EMB_MAGIC = b"TEIREMB1"
IMG_MAGIC = b"TEIRIMG1"
_ESCAPE = re.compile(rb"\\x([0-9a-f]{2})")
_SEGMENT = re.compile(rb"\s+|\S+")


def read_matrix(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:len(magic)] != magic:
        raise ValueError(f"{path}: bad magic")
    _, rows, dim = struct.unpack_from("<III", raw, len(magic))
    return np.frombuffer(raw, dtype="<f4", count=rows * dim,
                         offset=len(magic) + 12).reshape(rows, dim)


def read_tokens(path) -> list[bytes]:
    """Token literals, one per line: `"..."` with `\\xNN` escapes."""
    with open(path, encoding="ascii") as f:
        return [_ESCAPE.sub(lambda m: bytes([int(m.group(1), 16)]),
                            line.strip()[1:-1].encode("ascii"))
                for line in f if line.strip()]


def read_merges(path) -> list[tuple[int, int, int]]:
    """(left, right, result) local ids in priority order."""
    rules = []
    with open(path, encoding="ascii") as f:
        for line in f:
            if line.strip():
                task, rank, left, right, result = map(int, line.split())
                rules.append(((task, rank), left, right, result))
    return [r[1:] for r in sorted(rules)]


def read_eval_matrix(path) -> dict[tuple[int, int, str], float]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return {(int(j), int(i), d): float(v) for j, i, d, v in rows}


class Tokenizer:
    """Plain BPE over one task's merge list: merge the best-ranked
    adjacent pair of a whitespace-free segment until none applies."""

    def __init__(self, tokens: list[bytes], merges):
        self.tokens = tokens
        self.byte_id = {tok[0]: i for i, tok in enumerate(tokens) if len(tok) == 1}
        self.rules = {(a, b): (prio, res) for prio, (a, b, res) in enumerate(merges)}
        self._cache: dict[bytes, list[int]] = {}

    def encode(self, text: bytes) -> list[int]:
        out: list[int] = []
        for seg in _SEGMENT.findall(text):
            if seg[:1].isspace():
                out.extend(self.byte_id[b] for b in seg)
            else:
                out.extend(self._word(seg))
        return out

    def _word(self, seg: bytes) -> list[int]:
        ids = self._cache.get(seg)
        if ids is not None:
            return ids
        ids = [self.byte_id[b] for b in seg]
        while len(ids) > 1:
            hits = [(self.rules[p][0], p) for p in zip(ids, ids[1:])
                    if p in self.rules]
            if not hits:
                break
            _, (a, b) = min(hits)
            merged_id = self.rules[(a, b)][1]
            merged, k = [], 0
            while k < len(ids):
                if k + 1 < len(ids) and ids[k] == a and ids[k + 1] == b:
                    merged.append(merged_id)
                    k += 2
                else:
                    merged.append(ids[k])
                    k += 1
            ids = merged
        self._cache[seg] = ids
        return ids


class TextEncoder:
    """The frozen text encoder: r = tanh(W h + b), where h is the mean of
    (embedding + sinusoidal position) over at most l_max tokens."""

    def __init__(self, dim: int, d_out: int, l_max: int, seed: int):
        rng = np.random.default_rng(seed)
        self.W = rng.normal(0.0, (1.0 / np.sqrt(dim)) ** 0.5, size=(d_out, dim))
        self.b = np.zeros(d_out)
        i = np.arange(l_max, dtype=np.float64)[:, None]
        k = np.arange(0, dim, 2, dtype=np.float64)[None, :]
        angles = i / np.power(10000.0, k / dim)
        self.pos = np.zeros((l_max, dim))
        self.pos[:, 0::2] = np.sin(angles)
        self.pos[:, 1::2] = np.cos(angles[:, : dim // 2])
        self.l_max = l_max

    def encode(self, id_lists, table: np.ndarray) -> np.ndarray:
        out = np.empty((len(id_lists), self.W.shape[0]))
        for n, ids in enumerate(id_lists):
            ids = ids[: self.l_max]
            h = (table[ids].astype(np.float64) + self.pos[: len(ids)]).mean(axis=0)
            out[n] = np.tanh(self.W @ h + self.b)
        return out


def recall_at_1(queries: np.ndarray, gallery: np.ndarray) -> float:
    """Percent of queries whose own gallery item ranks first by cosine;
    an equal score at a lower gallery index outranks it."""
    q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    g = gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
    sims = q @ g.T
    hits = 0
    for k, row in enumerate(sims):
        above = np.count_nonzero(row > row[k]) + np.count_nonzero(row[:k] == row[k])
        hits += above == 0
    return 100.0 * hits / len(sims)


def _split(data_dir, lang: str, split: str):
    with open(os.path.join(data_dir, lang, f"{split}.tsv"), encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    return [int(r[0]) for r in rows], [r[2] for r in rows]


def average_recall(matrix, j: int, direction: str) -> float:
    return float(np.mean([matrix[(j, i, direction)] for i in range(j + 1)]))


def forgetting(matrix, j: int, direction: str) -> float:
    return float(np.mean([
        max(matrix[(k, i, direction)] for k in range(i, j)) - matrix[(j, i, direction)]
        for i in range(j)]))


def check_run(data_dir, run_dir, seed: int) -> tuple[list[str], dict]:
    """Return (failures, facts) for one trained and evaluated run."""
    failures: list[str] = []
    with open(os.path.join(run_dir, "config.json")) as f:
        cfg = json.load(f)
    with open(os.path.join(data_dir, "manifest.json")) as f:
        manifest = json.load(f)
    languages = manifest["languages"]
    shared_vocab = cfg["oracle_vocab"] or cfg["mode"] == "joint"
    rows = sorted(int(m.group(1)) for name in os.listdir(run_dir)
                  for m in [re.fullmatch(r"ckpt_task(\d+)\.bin", name)] if m)

    vocabs = {t: read_tokens(os.path.join(run_dir, f"vocab_task{t}.txt"))
              for t in rows}
    tables = {t: read_matrix(os.path.join(run_dir, f"ckpt_task{t}.bin"), EMB_MAGIC)
              for t in rows}

    # Union vocabulary after each stored task: ids are append-only.
    union_id = {bytes([b]): b for b in range(256)}
    unions = {}
    for t in rows:
        before = dict(union_id)
        for tok in vocabs[t]:
            union_id.setdefault(tok, len(union_id))
        unions[t] = (before, dict(union_id))
        if tables[t].shape[0] != len(union_id):
            failures.append(f"ckpt_task{t}: {tables[t].shape[0]} rows, union "
                            f"vocabulary has {len(union_id)}")

    lam0_rows = 0
    if cfg["mode"] == "continual" and cfg["teir_reg"]:
        for prev, t in zip(rows, rows[1:]):
            before, _ = unions[t]
            present = set(vocabs[t])
            frozen = sorted(gid for tok, gid in before.items()
                            if tok not in present)
            lam0_rows += len(frozen)
            a = tables[prev][frozen].view(np.uint32)
            b = tables[t][frozen].view(np.uint32)
            if not np.array_equal(a, b):
                failures.append(f"ckpt_task{t}: lambda=0 rows differ from "
                                f"ckpt_task{prev}")

    # Independent recomputation of the final Recall@1 row.
    stored = read_eval_matrix(os.path.join(run_dir, "eval_matrix.csv"))
    final = max(j for j, _, _ in stored)
    images = read_matrix(os.path.join(data_dir, "images.feat"), IMG_MAGIC)
    encoder = TextEncoder(cfg["dim"], cfg["d_out"], cfg["l_max"], cfg["encoder_seed"])
    _, final_union = unions[final]
    n_test = manifest["splits"]["test"]
    tasks = range(len(languages)) if cfg["mode"] == "joint" else range(final + 1)
    for i in tasks:
        scope = rows[0] if shared_vocab else i
        tok = Tokenizer(vocabs[scope],
                        read_merges(os.path.join(run_dir, f"merges_task{scope}.txt")))
        img_idx, captions = _split(data_dir, languages[i], "test")
        ids = [[final_union[tok.tokens[x]] for x in tok.encode(c.encode("utf-8"))]
               for c in captions]
        txt = encoder.encode(ids, tables[final])
        img = images[img_idx].astype(np.float64)
        for direction, (q, g) in (("img2txt", (img, txt)), ("txt2img", (txt, img))):
            mine = recall_at_1(q, g)
            theirs = stored[(final, i, direction)]
            if abs(mine - theirs) > 100.0 / len(captions) + 1e-9:
                failures.append(f"recall {direction} task {i}: recomputed "
                                f"{mine:.2f}, eval_matrix.csv has {theirs:.2f}")

    recomputed = read_eval_matrix(
        os.path.join(run_dir, "eval_matrix_recomputed_test.csv"))
    if recomputed != stored:
        failures.append("lexcl eval: recomputed matrix differs from the stored one")

    failures += _round_trip(data_dir, run_dir, languages, rows, shared_vocab, seed)

    ar = {d: average_recall(stored, final, d) for d in ("img2txt", "txt2img")}
    if not ar["img2txt"] > 100.0 / n_test:
        failures.append(f"img2txt AR {ar['img2txt']:.3f} not above chance "
                        f"{100.0 / n_test:.3f}")
    f_ = ({d: forgetting(stored, final, d) for d in ("img2txt", "txt2img")}
          if cfg["mode"] == "continual" and final >= 1 else {})
    with open(os.path.join(run_dir, f"ckpt_task{final}.bin"), "rb") as f:
        sha = hashlib.sha256(f.read()).hexdigest()
    facts = {"ar": ar, "f": f_, "final_ckpt_sha256": sha, "lam0_rows": lam0_rows}
    return failures, facts


def _round_trip(data_dir, run_dir, languages, rows, shared_vocab, seed) -> list[str]:
    """decode(encode(caption)) == caption with lexcl's own tokenizer, on 20
    seeded training captions per language."""
    from lexcl import bpe

    failures = []
    rng = np.random.default_rng(seed)
    for i, lang in enumerate(languages):
        t = rows[0] if shared_vocab else i
        tv = bpe.vocab_from_files(os.path.join(run_dir, f"vocab_task{t}.txt"),
                                  os.path.join(run_dir, f"merges_task{t}.txt"))
        _, captions = _split(data_dir, lang, "train")
        for k in rng.choice(len(captions), size=20, replace=False):
            text = captions[k].encode("utf-8")
            if bpe.decode(bpe.encode(text, tv), tv) != text:
                failures.append(f"round trip failed for {lang} train caption {k}")
    return failures
