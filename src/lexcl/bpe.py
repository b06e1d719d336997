"""Byte-level byte-pair-encoding tokenizer.

Training is greedy: repeatedly merge the most frequent adjacent token
pair inside whitespace-separated words, ties broken by lexicographically
smaller (left-bytes, right-bytes). `train_bpe` counts pairs once and
then changes only the counts of the pairs beside each merge site
(Sennrich et al. 2016); a trainer that recounts the whole corpus per
merge is kept as its oracle in `tests/oracles.py`. The 256 single bytes
are always the base alphabet, so any byte string encodes losslessly.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .embeddings import read_lines, write_atomic
from .errors import InvalidInputError

N_BYTES = 256

# Runs of the bytes that bytes.isspace() accepts.
_WHITESPACE = re.compile(rb"([ \t\n\r\x0b\x0c]+)")
# The id of the space byte, which `encode` splits on.
_SPACE = ord(" ")
# The pair-table entry of a pair that no rule names: after every rule.
_NO_RULE = (1 << 63, -1)


class MergeRule(NamedTuple):
    left: int
    right: int
    result: int
    task_index: int
    rank: int


@dataclass
class TaskVocab:
    """One task's BPE vocabulary: 256 byte tokens plus learned merges.

    `id_of` (token bytes to id) and the pair table, `merge_ranks()`, are
    built once, when the vocab is made. `segment_ids` caches the ids of
    each distinct piece of text with no space in it: `train_bpe` seeds it
    with its words, and `encode` adds the pieces it meets first. All
    three are derived state, left out of equality and repr."""

    tokens: list[bytes]
    rules: list[MergeRule]
    id_of: dict[bytes, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    ranks: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    segment_ids: dict[bytes, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.id_of = {tok: i for i, tok in enumerate(self.tokens)}
        self.ranks = self.merge_ranks()

    @property
    def size(self) -> int:
        return len(self.tokens)

    def merge_ranks(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Map (left id, right id) -> (priority, result id), priorities
        counting up in (task, rank) order. Each id is the one `id_of` gives
        its token's bytes, so a pair of byte strings that two rules name
        keeps the later rule. Bytes 0-255 must be ids 0-255."""
        id_of, tokens = self.id_of, self.tokens
        if any(id_of.get(tok) != b for b, tok in enumerate(_byte_tokens())):
            raise InvalidInputError("ids 0-255 are not the 256 single bytes")
        order = {key: p for p, key in enumerate(dict.fromkeys(
            sorted((r.task_index, r.rank) for r in self.rules)))}
        return {(id_of[tokens[r.left]], id_of[tokens[r.right]]):
                (order[r.task_index, r.rank], id_of[tokens[r.result]])
                for r in self.rules}


def _byte_tokens() -> list[bytes]:
    return [bytes([i]) for i in range(N_BYTES)]


def _corpus_words(corpus, target_size: int) -> tuple[list[bytes], list[int]]:
    """Distinct words of the corpus, UTF-8 encoded, and their counts."""
    corpus = list(corpus)
    if not corpus:
        raise InvalidInputError("train_bpe: corpus is empty")
    if target_size < N_BYTES + 1:
        raise InvalidInputError(
            f"train_bpe: target_size {target_size} < {N_BYTES + 1}")
    word_counts = Counter(chain.from_iterable(line.split() for line in corpus))
    return ([w.encode("utf-8") for w in word_counts],
            list(word_counts.values()))


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
        return TaskVocab(tokens=self.tokens, rules=self.rules)


def train_bpe(corpus, target_size: int, task_index: int = 0) -> TaskVocab:
    """Learn merge rules from a corpus of text strings.

    Merges are chosen by descending pair frequency (overlapping
    occurrences counted), ties by the smaller (left, right) bytes,
    stopping early once no pair occurs twice. Words are lists of token
    ids. Pair counts are taken once. A merge of (a, b) into m then
    visits the words that a pair -> word index lists for (a, b), finds
    their merge sites leftmost first, and at each site moves the count
    of (left neighbour, a) to (left neighbour, m) and of
    (b, right neighbour) to (m, right neighbour); the left neighbour is
    m when the previous site ends there. A heap keyed
    (-count, left bytes, right bytes), stale entries skipped on pop,
    picks the next pair. Each trained word's final ids are its
    encoding, so they seed the vocab's segment cache.
    """
    words, freqs = _corpus_words(corpus, target_size)
    out = _Merges(task_index)
    tokens = out.tokens
    # The id that stands for each token's bytes in the words: a merge
    # whose bytes equal an earlier token's continues that token, as a
    # trainer keyed by bytes would.
    canon = dict(out.id_of)
    parts_of = [list(w) for w in words]

    counts: dict[tuple[int, int], int] = {}
    where: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
    for w, (parts, f) in enumerate(zip(parts_of, freqs)):
        for pair in zip(parts, parts[1:]):
            counts[pair] = counts.get(pair, 0) + f
            where[pair].add(w)
    heap = [(-c, tokens[a], tokens[b], (a, b)) for (a, b), c in counts.items()]
    heapq.heapify(heap)

    while len(tokens) < target_size:
        while heap and counts.get(heap[0][3]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        pair = heapq.heappop(heap)[3]
        a, b = pair
        m = canon.setdefault(out.add(tokens[a], tokens[b]), len(tokens) - 1)
        delta: defaultdict[tuple[int, int], int] = defaultdict(int)
        for w in where.pop(pair):
            parts, f = parts_of[w], freqs[w]
            n = len(parts)
            end = 0  # where the last merge site ended
            sites = []
            j = -1
            for _ in range(parts.count(a)):
                j = parts.index(a, j + 1)
                if j < end or j + 1 == n or parts[j + 1] != b:
                    continue  # not (a, b), or overlaps the last site: a == b
                if j:
                    x = m if j == end else parts[j - 1]
                    delta[x, a] -= f
                    delta[x, m] += f
                    where[x, m].add(w)
                if j + 2 < n:
                    y = parts[j + 2]
                    delta[b, y] -= f
                    delta[m, y] += f
                    where[m, y].add(w)
                sites.append(j)
                end = j + 2
            for j in reversed(sites):
                parts[j:j + 2] = [m]
        # no (a, b) is left; (b, y) is (a, b) when a == b == y
        del counts[pair]
        delta.pop(pair, None)
        for p, d in delta.items():
            if d == 0:
                continue
            c = counts.get(p, 0) + d
            if c:
                counts[p] = c
                heapq.heappush(heap, (-c, tokens[p[0]], tokens[p[1]], p))
            else:
                del counts[p]

    tv = out.vocab()
    id_of = tv.id_of
    tv.segment_ids.update((word, [id_of[tokens[t]] for t in parts])
                          for word, parts in zip(words, parts_of))
    return tv


def _encode_parts(seg: bytes, vocab: TaskVocab) -> list[int]:
    """The ids of a byte string with no whitespace, merged by passes: each
    merges every leftmost-first occurrence of the adjacent pair of best
    priority (the leftmost among equals) until no pair has a rule.
    `prio[i]` is the priority of (ids[i], ids[i + 1]); a merge re-reads
    only the two pairs beside it. The tests check it against the pass
    loop on bytes in `tests/oracles.py`, which rule-by-rule merging does
    not always equal: a rule can rebuild the bytes an earlier one reads."""
    ranks = vocab.ranks
    get = ranks.get
    ids = list(seg)
    prio = [get(p, _NO_RULE)[0] for p in zip(ids, ids[1:])]
    while prio and (best := min(prio)) != _NO_RULE[0]:
        i = prio.index(best)
        a, b = ids[i], ids[i + 1]
        m = ranks[a, b][1]
        sites = [i]  # merge sites, right to left
        # the later pairs of this priority: (a, b), unless it overlaps the
        # last site, or a pair of the same (task, rank), left to a later pass
        for _ in range(prio.count(best) - 1):
            i = prio.index(best, i + 1)
            if i > sites[0] + 1 and ids[i] == a and ids[i + 1] == b:
                sites.insert(0, i)
        for i in sites:
            ids[i:i + 2] = (m,)
            del prio[i]
            if i:
                prio[i - 1] = get((ids[i - 1], m), _NO_RULE)[0]
            if i < len(prio):
                prio[i] = get((m, ids[i + 1]), _NO_RULE)[0]
    return ids


def _encode_piece(piece: bytes, vocab: TaskVocab) -> list[int]:
    """The ids of a byte string with no space in it: each byte of its other
    whitespace runs, and the segments between them merged."""
    out: list[int] = []
    # odd items are the whitespace runs, even ones the segments between
    for k, seg in enumerate(_WHITESPACE.split(piece)):
        if k % 2:
            out.extend(seg)
        elif seg:
            out += _encode_parts(seg, vocab)
    return out


def encode(text: bytes, vocab: TaskVocab) -> list[int]:
    """Encode a byte string into token ids under one task vocabulary.

    Merges never contain whitespace bytes, so the pieces between single
    spaces encode independently and each space is its own id. Each
    distinct piece is encoded once and kept in `vocab.segment_ids`, which
    training seeds with its words; an empty piece (at an end of the text
    or between two spaces) has no ids.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    cache = vocab.segment_ids
    out: list[int] = []
    for piece in text.split(b" "):
        ids = cache.get(piece)
        if ids is None:
            ids = cache[piece] = _encode_piece(piece, vocab)
        out += ids
        out.append(_SPACE)
    out.pop()
    return out


def decode(ids, scope) -> bytes:
    tokens = scope.tokens
    out = []
    for i in ids:
        if not 0 <= i < len(tokens):
            raise InvalidInputError(f"decode: unknown token id {i}")
        out.append(tokens[i])
    return b"".join(out)


# --- serialization -----------------------------------------------------

_PRINTABLE = set(range(0x20, 0x7F)) - {ord('"'), ord("\\")}
# A literal's body: any characters, each backslash starting a \xHH escape.
_ESCAPED = re.compile(r"(?:[^\\]|\\x[0-9a-fA-F]{2})*")


def token_to_text(tok: bytes) -> str:
    body = "".join(chr(c) if c in _PRINTABLE else f"\\x{c:02x}" for c in tok)
    return f'"{body}"'


def token_from_text(s: str) -> bytes:
    s = s.strip()
    if len(s) < 2 or s[0] != '"' or s[-1] != '"':
        raise InvalidInputError(f"bad token literal: {s!r}")
    body = s[1:-1]
    if "\\" in body:
        if not _ESCAPED.fullmatch(body):
            raise InvalidInputError(f"bad escape in token literal: {s!r}")
        body = body.encode("latin-1").decode("unicode_escape")
    return body.encode("latin-1")


def save_vocab(tokens: list[bytes], path) -> None:
    write_atomic(path, "".join(token_to_text(tok) + "\n"
                               for tok in tokens).encode("ascii"))


def save_merges(rules: list[MergeRule], path) -> None:
    write_atomic(path, "".join(f"{r.task_index} {r.rank} {r.left} {r.right} "
                               f"{r.result}\n" for r in rules).encode("ascii"))


def vocab_from_files(vocab_path, merges_path) -> TaskVocab:
    tokens = read_lines(vocab_path, token_from_text, InvalidInputError, "ascii")
    n = len(tokens)

    def merge_rule(line: str) -> MergeRule:
        """The rule on a merges line, whose ids must name tokens of the
        vocab with the result token the left one followed by the right."""
        t, rank, left, right, result = map(int, line.split())
        if not (0 <= left < n and 0 <= right < n and 0 <= result < n):
            raise ValueError(f"ids {left} {right} {result} are not all in "
                             f"[0, {n}) of the vocab")
        if tokens[result] != tokens[left] + tokens[right]:
            raise ValueError(f"token {result} is not token {left} followed "
                             f"by token {right}")
        return MergeRule(left, right, result, t, rank)

    rules = read_lines(merges_path, merge_rule, InvalidInputError, "ascii")
    try:
        return TaskVocab(tokens=tokens, rules=rules)
    except InvalidInputError as e:
        raise InvalidInputError(f"{vocab_path}: {e}") from None
