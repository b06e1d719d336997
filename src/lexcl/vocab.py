"""Union vocabulary across tasks: stable global ids, per-token
task-presence counts and the update-scaling coefficients (λ) derived
from them, plus flat (CSR) token arrays of many texts at once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import TaskVocab, _byte_tokens, encode


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
    """Evolving union vocabulary. Ids are append-only and never reused;
    counts[j] is the number of merged task vocabs that hold token j."""

    tokens: list[bytes]
    id_of: dict[bytes, int]
    task_vocabs: list[TaskVocab]
    counts: np.ndarray  # int64, one per id

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


def new_state() -> VocabState:
    tokens = _byte_tokens()
    return VocabState(tokens=tokens,
                      id_of={t: i for i, t in enumerate(tokens)},
                      task_vocabs=[],
                      counts=np.zeros(len(tokens), dtype=np.int64))


def merge_vocab(state: VocabState, task_vocab: TaskVocab):
    """Union-merge a task vocabulary into the state.

    New tokens get fresh consecutive ids in task-vocab order; existing
    tokens keep their ids. Returns (updated state, λ): the update scale
    of every post-merge id, 1/(c+1) for an id of the task vocab that c
    earlier task vocabs held (so 1 for a new token) and 0 for an id the
    task vocab lacks. The counts go up by one per task-vocab entry.
    """
    tokens = list(state.tokens)
    id_of = dict(state.id_of)
    task_ids = []
    for tok in task_vocab.tokens:
        gid = id_of.get(tok)
        if gid is None:
            gid = id_of[tok] = len(tokens)
            tokens.append(tok)
        task_ids.append(gid)
    counts = np.zeros(len(tokens), dtype=np.int64)
    counts[: len(state.counts)] = state.counts
    lam = np.zeros(len(tokens), dtype=np.float64)
    lam[task_ids] = 1.0 / (counts[task_ids] + 1.0)
    np.add.at(counts, task_ids, 1)
    return VocabState(tokens=tokens, id_of=id_of,
                      task_vocabs=state.task_vocabs + [task_vocab],
                      counts=counts), lam
