"""Union vocabulary across tasks: stable global ids, old/overlap/new
partition, per-token task-presence counts and the update-scaling
coefficients derived from them, plus flat (CSR) token arrays of many
texts at once."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bpe import TaskVocab, _byte_tokens, encode
from .embeddings import write_atomic
from .errors import InvalidInputError


@dataclass(frozen=True)
class TokenArrays:
    """Token ids of n texts in CSR form: text k is
    ids[offsets[k]:offsets[k + 1]]."""

    ids: np.ndarray      # int32, all texts' ids back to back
    offsets: np.ndarray  # int64, n + 1 entries, offsets[0] == 0

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def row(self, k: int) -> list[int]:
        return self.ids[self.offsets[k] : self.offsets[k + 1]].tolist()

    @classmethod
    def from_rows(cls, rows) -> "TokenArrays":
        """CSR arrays of a sequence of id lists."""
        return cls(np.array([i for r in rows for i in r], dtype=np.int32),
                   np.cumsum([0] + [len(r) for r in rows], dtype=np.int64))

    @classmethod
    def concat(cls, parts) -> "TokenArrays":
        """The texts of several TokenArrays, in order, as one."""
        starts = np.cumsum([0] + [len(p.ids) for p in parts])
        return cls(np.concatenate([p.ids for p in parts]), np.concatenate(
            [[0]] + [p.offsets[1:] + s for p, s in zip(parts, starts)]))


@dataclass
class VocabState:
    """Evolving union vocabulary. Ids are append-only and never reused."""

    tokens: list[bytes]
    id_of: dict[bytes, int]
    task_vocabs: list[TaskVocab]

    @property
    def size(self) -> int:
        return len(self.tokens)

    def global_ids(self, text, task_index: int) -> list[int]:
        """Encode text with one task's merge rules, mapped to global ids."""
        tv = self.task_vocabs[task_index]
        local = encode(text, tv)
        return [self.id_of[tv.tokens[i]] for i in local]

    def tokenize(self, texts, task_index: int,
                 memo: dict | None = None) -> TokenArrays:
        """`global_ids` of every text, as one CSR array.

        Each distinct text is encoded once; pass the same `memo`
        (text -> ids) to several calls under one task index to share
        that work between them."""
        memo = {} if memo is None else memo
        rows = []
        for text in texts:
            ids = memo.get(text)
            if ids is None:
                ids = memo[text] = self.global_ids(text, task_index)
            rows.append(ids)
        return TokenArrays.from_rows(rows)


@dataclass(frozen=True)
class Partition:
    old: frozenset[int]
    overlap: frozenset[int]
    new: frozenset[int]


def new_state() -> VocabState:
    tokens = _byte_tokens()
    return VocabState(tokens=tokens,
                      id_of={t: i for i, t in enumerate(tokens)},
                      task_vocabs=[])


def merge_vocab(state: VocabState, task_vocab: TaskVocab):
    """Union-merge a task vocabulary into the state.

    New tokens get fresh consecutive ids in task-vocab order; existing
    tokens keep their ids. Returns (updated state, partition of the
    post-merge id set into old / overlap / new).
    """
    tokens = list(state.tokens)
    id_of = dict(state.id_of)
    prev_ids = frozenset(id_of.values())
    task_ids = set()
    for tok in task_vocab.tokens:
        gid = id_of.get(tok)
        if gid is None:
            gid = len(tokens)
            tokens.append(tok)
            id_of[tok] = gid
        task_ids.add(gid)
    new_state_ = VocabState(tokens=tokens, id_of=id_of,
                            task_vocabs=state.task_vocabs + [task_vocab])
    part = Partition(old=frozenset(prev_ids - task_ids),
                     overlap=frozenset(prev_ids & task_ids),
                     new=frozenset(task_ids - prev_ids))
    return new_state_, part


def update_counts(counts: np.ndarray, task_vocab: TaskVocab,
                  state: VocabState) -> np.ndarray:
    """Bump the task-presence count of every token in the task vocab.

    Called once after finishing training on a task; ids not yet covered
    by the counts vector enter at zero and are bumped to one.
    """
    out = np.zeros(state.size, dtype=np.int64)
    out[: len(counts)] = counts
    for tok in task_vocab.tokens:
        out[state.id_of[tok]] += 1
    return out


def lambda_for(partition: Partition, counts: np.ndarray) -> np.ndarray:
    """Per-token update scale: 0 for old, 1/(c+1) for overlap, 1 for new."""
    all_ids = partition.old | partition.overlap | partition.new
    if all_ids and max(all_ids) >= len(counts):
        raise InvalidInputError(
            "lambda_for: counts vector does not cover all partition ids")
    lam = np.zeros(len(counts), dtype=np.float64)
    overlap = np.fromiter(partition.overlap, dtype=np.int64,
                          count=len(partition.overlap))
    new = np.fromiter(partition.new, dtype=np.int64, count=len(partition.new))
    if overlap.size:
        lam[overlap] = 1.0 / (counts[overlap] + 1.0)
    if new.size:
        lam[new] = 1.0
    return lam


@dataclass
class RegistryRecord:
    task_index: int
    vocab_before: int
    vocab_after: int
    n_old: int
    n_overlap: int
    n_new: int
    counts: list[int]


@dataclass
class RegistryManifest:
    records: list[RegistryRecord] = field(default_factory=list)

    def add(self, task_index, vocab_before, vocab_after, part: Partition,
            counts: np.ndarray) -> None:
        self.records.append(RegistryRecord(
            task_index, vocab_before, vocab_after,
            len(part.old), len(part.overlap), len(part.new),
            [int(c) for c in counts]))

    def save(self, path) -> None:
        write_atomic(path, json.dumps([vars(r) for r in self.records],
                                      indent=1).encode())
