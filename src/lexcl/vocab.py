"""Union vocabulary across tasks: stable global ids, per-token
task-presence counts and the update-scaling coefficients (λ) derived
from them, and the global ids of many texts, via each vocab's piece cache."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bpe import TaskVocab, _byte_tokens, encode_texts


@dataclass
class VocabState:
    """Evolving union vocabulary. Ids are append-only and never reused;
    counts[j] is the number of merged task vocabs that hold token j, and
    task_ids[t][i] the global id of task vocab t's local id i."""

    tokens: list[bytes]
    id_of: dict[bytes, int]
    task_vocabs: list[TaskVocab]
    task_ids: list[np.ndarray]  # int64, one per task vocab
    counts: np.ndarray  # int64, one per id

    @property
    def size(self) -> int:
        return len(self.tokens)

    def tokenize(self, texts, task_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, lengths): the global ids of every text under one task's
        merge rules, back to back, and each text's number of ids. Each
        piece of text is merged once, in the task vocab's piece cache, and
        the pieces new to it in one call; the local ids of all texts map
        to global ids in one gather."""
        local = encode_texts(texts, self.task_vocabs[task_index])
        lengths = np.fromiter(map(len, local), dtype=np.int64, count=len(local))
        flat = np.fromiter(chain.from_iterable(local), dtype=np.int64,
                           count=int(lengths.sum()))
        return self.task_ids[task_index][flat], lengths


def new_state() -> VocabState:
    tokens = _byte_tokens()
    return VocabState(tokens=tokens,
                      id_of={t: i for i, t in enumerate(tokens)},
                      task_vocabs=[], task_ids=[],
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
    task_ids = np.array(task_ids, dtype=np.int64)
    counts = np.zeros(len(tokens), dtype=np.int64)
    counts[: len(state.counts)] = state.counts
    lam = np.zeros(len(tokens), dtype=np.float64)
    lam[task_ids] = 1.0 / (counts[task_ids] + 1.0)
    np.add.at(counts, task_ids, 1)
    return VocabState(tokens=tokens, id_of=id_of,
                      task_vocabs=state.task_vocabs + [task_vocab],
                      task_ids=state.task_ids + [task_ids],
                      counts=counts), lam
