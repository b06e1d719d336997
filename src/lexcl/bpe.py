"""Byte-level byte-pair-encoding tokenizer.

Training is greedy: repeatedly merge the most frequent adjacent token
pair inside whitespace-separated words, ties broken by lexicographically
smaller (left-bytes, right-bytes). `train_bpe` counts pairs once and
then updates the counts of only the words each merge touches
(Sennrich et al. 2016); a trainer that recounts the whole corpus per
merge is kept as its oracle in `tests/oracles.py`. The 256 single bytes
are always the base alphabet, so any byte string encodes losslessly.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

from .errors import InvalidIdError, InvalidInputError

N_BYTES = 256

Pair = tuple[bytes, bytes]


@dataclass(frozen=True)
class MergeRule:
    left: int
    right: int
    result: int
    task_index: int
    rank: int


@dataclass
class TaskVocab:
    """One task's BPE vocabulary: 256 byte tokens plus learned merges.

    The rank table is built once, by `merge_ranks()`, when the vocab is
    made; `encode` reads it and fills `segment_ids`, its cache of
    encoded whitespace-free segments. Both are derived state, left out
    of equality and repr."""

    task_index: int
    tokens: list[bytes]
    rules: list[MergeRule]
    id_of: dict[bytes, int] = field(default_factory=dict)
    ranks: dict[Pair, tuple[tuple[int, int], bytes]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    segment_ids: dict[bytes, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id_of:
            self.id_of = {tok: i for i, tok in enumerate(self.tokens)}
        self.ranks = self.merge_ranks()

    @property
    def size(self) -> int:
        return len(self.tokens)

    def merge_ranks(self) -> dict[Pair, tuple[tuple[int, int], bytes]]:
        """Map (left bytes, right bytes) -> ((task, rank) priority, merged bytes)."""
        out = {}
        for r in self.rules:
            key = (self.tokens[r.left], self.tokens[r.right])
            out[key] = ((r.task_index, r.rank), self.tokens[r.result])
        return out


def _byte_tokens() -> list[bytes]:
    return [bytes([i]) for i in range(N_BYTES)]


def _merge_word(parts: list[bytes], left: bytes, right: bytes, merged: bytes) -> list[bytes]:
    """Replace leftmost-first occurrences of (left, right) with merged."""
    out = []
    i = 0
    n = len(parts)
    while i < n:
        if i + 1 < n and parts[i] == left and parts[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(parts[i])
            i += 1
    return out


def _corpus_words(corpus, target_size: int):
    """Distinct words of the corpus as byte-token lists, with their counts."""
    corpus = list(corpus)
    if not corpus:
        raise InvalidInputError("train_bpe: corpus is empty")
    if target_size < N_BYTES + 1:
        raise InvalidInputError(
            f"train_bpe: target_size {target_size} < {N_BYTES + 1}")
    word_counts: Counter[bytes] = Counter()
    for line in corpus:
        for word in line.split():
            word_counts[word.encode("utf-8")] += 1
    words = [[bytes([b]) for b in w] for w in word_counts]
    return words, list(word_counts.values())


class _Merges:
    """The growing token list and merge rules of one training run."""

    def __init__(self, task_index: int):
        self.task_index = task_index
        self.tokens = _byte_tokens()
        self.id_of = {tok: i for i, tok in enumerate(self.tokens)}
        self.rules: list[MergeRule] = []

    def add(self, left: bytes, right: bytes) -> bytes:
        merged = left + right
        new_id = len(self.tokens)
        self.tokens.append(merged)
        self.id_of[merged] = new_id
        self.rules.append(MergeRule(self.id_of[left], self.id_of[right],
                                    new_id, self.task_index, len(self.rules)))
        return merged

    def vocab(self) -> TaskVocab:
        return TaskVocab(task_index=self.task_index, tokens=self.tokens,
                         rules=self.rules)


def _pairs(parts: list[bytes]):
    return zip(parts, parts[1:])


def train_bpe(corpus, target_size: int, task_index: int = 0) -> TaskVocab:
    """Learn merge rules from a corpus of text strings.

    Merges are chosen by descending pair frequency (overlapping
    occurrences counted), ties by the smaller (left, right) bytes,
    stopping early once no pair occurs twice. Pair counts are taken
    once; each merge then re-counts only the words that hold the merged
    pair, through a pair -> word index, and a heap keyed
    (-count, left, right) with stale entries skipped on pop picks the
    next pair.
    """
    words, freqs = _corpus_words(corpus, target_size)
    out = _Merges(task_index)

    counts: dict[Pair, int] = {}
    where: dict[Pair, set[int]] = {}
    for w, (parts, f) in enumerate(zip(words, freqs)):
        for pair in _pairs(parts):
            counts[pair] = counts.get(pair, 0) + f
            where.setdefault(pair, set()).add(w)
    heap = [(-c, left, right) for (left, right), c in counts.items()]
    heapq.heapify(heap)

    while len(out.tokens) < target_size:
        while heap and counts.get(heap[0][1:]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        _, left, right = heapq.heappop(heap)
        merged = out.add(left, right)
        delta: Counter[Pair] = Counter()
        for w in where.pop((left, right)):
            parts, f = words[w], freqs[w]
            for pair in _pairs(parts):
                delta[pair] -= f
            parts = words[w] = _merge_word(parts, left, right, merged)
            for pair in _pairs(parts):
                delta[pair] += f
                where.setdefault(pair, set()).add(w)
        for pair, d in delta.items():
            if d == 0:
                continue
            c = counts.get(pair, 0) + d
            if c:
                counts[pair] = c
                heapq.heappush(heap, (-c, *pair))
            else:
                del counts[pair]

    return out.vocab()


def _encode_parts(parts: list[bytes], ranks) -> list[bytes]:
    """Apply merge rules to a token sequence until none applies.

    Equivalent to applying rules one by one in priority order; here the
    best-priority applicable pair is merged each pass, which is the same
    fixed point because later rules never re-enable earlier ones.
    """
    while len(parts) > 1:
        best_key = None
        best_pair = None
        for a, b in zip(parts, parts[1:]):
            hit = ranks.get((a, b))
            if hit is not None and (best_key is None or hit[0] < best_key):
                best_key = hit[0]
                best_pair = (a, b, hit[1])
        if best_pair is None:
            break
        parts = _merge_word(parts, *best_pair)
    return parts


def encode(text: bytes, vocab: TaskVocab) -> list[int]:
    """Encode a byte string into token ids under one task vocabulary.

    Merges never contain whitespace bytes, so whitespace-separated
    segments encode independently, against the vocab's rank table; each
    distinct segment is encoded once and kept in `vocab.segment_ids`.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    if not text:
        return []
    ranks = vocab.ranks
    cache = vocab.segment_ids
    id_of = vocab.id_of
    out: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        j = i
        if text[i : i + 1].isspace():
            while j < n and text[j : j + 1].isspace():
                out.append(text[j])
                j += 1
        else:
            while j < n and not text[j : j + 1].isspace():
                j += 1
            seg = text[i:j]
            ids = cache.get(seg)
            if ids is None:
                parts = _encode_parts([bytes([b]) for b in seg], ranks)
                ids = [id_of[p] for p in parts]
                cache[seg] = ids
            out.extend(ids)
        i = j
    return out


def decode(ids, scope) -> bytes:
    tokens = scope.tokens
    out = []
    for i in ids:
        if not 0 <= i < len(tokens):
            raise InvalidIdError(f"decode: unknown token id {i}")
        out.append(tokens[i])
    return b"".join(out)


# --- serialization -----------------------------------------------------

_PRINTABLE = set(range(0x20, 0x7F)) - {ord('"'), ord("\\")}


def token_to_text(tok: bytes) -> str:
    body = "".join(chr(c) if c in _PRINTABLE else f"\\x{c:02x}" for c in tok)
    return f'"{body}"'


def token_from_text(s: str) -> bytes:
    s = s.strip()
    if len(s) < 2 or s[0] != '"' or s[-1] != '"':
        raise InvalidInputError(f"bad token literal: {s!r}")
    body = s[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        if body[i] == "\\":
            if body[i + 1] != "x":
                raise InvalidInputError(f"bad escape in token literal: {s!r}")
            out.append(int(body[i + 2 : i + 4], 16))
            i += 4
        else:
            out.append(ord(body[i]))
            i += 1
    return bytes(out)


def save_vocab(tokens: list[bytes], path) -> None:
    with open(path, "w", encoding="ascii") as f:
        for tok in tokens:
            f.write(token_to_text(tok) + "\n")


def load_vocab(path) -> list[bytes]:
    with open(path, "r", encoding="ascii") as f:
        return [token_from_text(line) for line in f if line.strip()]


def save_merges(rules: list[MergeRule], path) -> None:
    with open(path, "w", encoding="ascii") as f:
        for r in rules:
            f.write(f"{r.task_index} {r.rank} {r.left} {r.right} {r.result}\n")


def load_merges(path) -> list[MergeRule]:
    rules = []
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            if not line.strip():
                continue
            t, rank, left, right, result = (int(x) for x in line.split())
            rules.append(MergeRule(left, right, result, t, rank))
    return rules


def vocab_from_files(vocab_path, merges_path, task_index=None) -> TaskVocab:
    tokens = load_vocab(vocab_path)
    rules = load_merges(merges_path)
    t = task_index if task_index is not None else (rules[0].task_index if rules else 0)
    return TaskVocab(task_index=t, tokens=tokens, rules=rules)
