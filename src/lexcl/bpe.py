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

import codecs
import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .embeddings import read_lines, write_atomic
from .errors import InvalidInputError

N_BYTES = 256
_BYTES = tuple(bytes([i]) for i in range(N_BYTES))

# The bytes that bytes.isspace() accepts, by value: no merge holds one.
_IS_WHITESPACE = np.zeros(N_BYTES, dtype=bool)
_IS_WHITESPACE[list(b" \t\n\r\x0b\x0c")] = True
# The id of the space byte, which `encode_texts` splits on.
_SPACE = ord(" ")
# Pair priorities sit above the low 32 bits, which hold a position.
_POSITION = (1 << 32) - 1
# The priority of a pair that no rule names: after every rule.
_NO_RULE = 1 << 62
_INT64_MAX = np.iinfo(np.int64).max


class MergeRule(NamedTuple):
    left: int
    right: int
    result: int
    task_index: int
    rank: int


class _PairTable(NamedTuple):
    """Merge rules as arrays by slot: `keys` (left id * vocab size + right
    id, ascending), `prio` (priority << 32) and `result`. The last slot is
    no pair's: its key is above every key, its priority `_NO_RULE`."""
    keys: np.ndarray
    prio: np.ndarray
    result: np.ndarray


@dataclass
class TaskVocab:
    """One task's BPE vocabulary: 256 byte tokens plus learned merges.

    `id_of` (token bytes to id) and the pair table, `merge_ranks()`, are
    built once, when the vocab is made, and its arrays, `pairs`, on the
    first merge. `segment_ids` caches the ids of each distinct piece of
    text with no space in it: `train_bpe` seeds it with its words, and
    `encode_texts` adds the pieces it meets first. All four are derived
    state, left out of equality and repr."""

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

    @cached_property
    def pairs(self) -> _PairTable:
        """The pairs of `ranks` as a `_PairTable`, less those that hold a
        whitespace byte: no text merges one."""
        n, size = len(self.ranks), self.size
        left, right = np.fromiter(chain.from_iterable(self.ranks), np.int64,
                                  2 * n).reshape(-1, 2).T
        prio, result = np.fromiter(chain.from_iterable(self.ranks.values()),
                                   np.int64, 2 * n).reshape(-1, 2).T
        whitespace = np.zeros(size, dtype=bool)
        whitespace[:N_BYTES] = _IS_WHITESPACE
        keep = ~(whitespace[left] | whitespace[right])
        keys = left[keep] * size + right[keep]
        order = keys.argsort()
        return _PairTable(np.append(keys[order], _INT64_MAX),
                          np.append(prio[keep][order] << 32, _NO_RULE),
                          np.append(result[keep][order], -1))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def merge_ranks(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Map (left id, right id) -> (priority, result id), priorities
        counting up in (task, rank) order. Each id is the one `id_of` gives
        its token's bytes, so a pair of byte strings that two rules name
        keeps the later rule. Bytes 0-255 must be ids 0-255."""
        id_of = self.id_of
        if list(map(id_of.get, _BYTES)) != list(range(N_BYTES)):
            raise InvalidInputError("ids 0-255 are not the 256 single bytes")
        canon = list(map(id_of.__getitem__, self.tokens))
        order = {key: p for p, key in enumerate(dict.fromkeys(
            sorted([(t, rank) for _, _, _, t, rank in self.rules])))}
        return {(canon[left], canon[right]): (order[t, rank], canon[result])
                for left, right, result, t, rank in self.rules}


def _byte_tokens() -> list[bytes]:
    return list(_BYTES)


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


def _lookup(pairs: _PairTable, keys: np.ndarray) -> np.ndarray:
    """The slot in `pairs` of each key (left id * vocab size + right id):
    its rule's, or the last slot, which no rule has."""
    at = pairs.keys.searchsorted(keys)
    return np.where(pairs.keys[at] == keys, at, len(pairs.keys) - 1)


def _every_other(sites: np.ndarray) -> np.ndarray:
    """`sites` (ascending) without the second, fourth, ... site of each run
    of consecutive ones: in a run of (a, a) pairs, merging one takes the
    next one's left token."""
    k = np.arange(len(sites))
    first = np.ones(len(sites), dtype=bool)
    first[1:] = sites[1:] - sites[:-1] != 1
    return sites[(k - np.maximum.accumulate(np.where(first, k, 0))) % 2 == 0]


def _merge_pieces(pieces: list[bytes], vocab: TaskVocab) -> list[list[int]]:
    """The ids of each piece, a byte string with no space in it, merged by
    passes over all the pieces at once. The pieces lie back to back in one
    id array, each followed by a space, so every segment (a run of bytes
    that are not whitespace) ends in a whitespace byte, which no rule
    joins. Each pass takes, in every segment that still has a pair with a
    rule, the leftmost pair of best priority, and merges every site of
    the same pair in that segment, leftmost first; a pair of equal
    priority but other ids waits for a later pass. `slot[i]` is the pair
    table's slot of (ids[i], ids[i + 1]); a merge looks up only the two
    pairs beside it. The tests check it against the scalar pass loops in
    `tests/oracles.py`."""
    if not pieces:
        return []
    pairs, size = vocab.pairs, vocab.size
    ids = np.frombuffer(b" ".join(pieces) + b" ",
                        dtype=np.uint8).astype(np.int64)
    lens = np.diff(_IS_WHITESPACE[ids].nonzero()[0], prepend=-1)
    slot = _lookup(pairs, np.append(ids[:-1] * size + ids[1:], -1))
    position = np.arange(len(ids))
    while True:
        starts = lens.cumsum()
        starts -= lens
        # each segment's best priority and, below it, its leftmost position
        best = pairs.prio[slot]
        best += position[:len(ids)]
        best = np.minimum.reduceat(best, starts)
        live = best < _NO_RULE
        if not live.any():
            break
        # the sites of each live segment's best pair; -1 is no slot
        sites = (slot == np.where(live, slot[best & _POSITION], -1)
                 .repeat(lens)).nonzero()[0]
        if (sites[1:] - sites[:-1] == 1).any():
            sites = _every_other(sites)
        ids[sites] = pairs.result[slot[sites]]
        keep = np.ones(len(ids), dtype=bool)
        keep[sites + 1] = False
        ids, slot = ids[keep], slot[keep]
        lens -= np.bincount(starts.searchsorted(sites, "right") - 1,
                            minlength=len(lens))
        merged = sites - position[:len(sites)]
        around = np.concatenate((merged - 1, merged))
        slot[around] = _lookup(pairs, ids[around] * size + ids[around + 1])
    bounds = (ids == _SPACE).nonzero()[0].tolist()
    flat = ids.tolist()
    return [flat[i + 1:j] for i, j in zip([-1] + bounds, bounds)]


def _pieces(text) -> list[bytes]:
    """The pieces between single spaces of a byte string, or of a str as
    UTF-8."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return text.split(b" ")


def encode_texts(texts, vocab: TaskVocab) -> list[list[int]]:
    """Encode a list of byte strings (or str, as UTF-8) into token ids
    under one task vocabulary.

    Merges never contain whitespace bytes, so the pieces between single
    spaces encode independently and each space is its own id. Each
    distinct piece is encoded once and kept in `vocab.segment_ids`, which
    training seeds with its words: the pieces of `texts` not in it are
    merged in one `_merge_pieces` call. An empty piece (at an end of a
    text or between two spaces) has no ids.
    """
    cache = vocab.segment_ids
    new = list({piece for text in texts for piece in _pieces(text)
                if piece not in cache})
    cache.update(zip(new, _merge_pieces(new, vocab)))
    out = []
    for text in texts:
        ids: list[int] = []
        for piece in _pieces(text):
            ids += cache[piece]
            ids.append(_SPACE)
        ids.pop()
        out.append(ids)
    return out


def encode(text: bytes, vocab: TaskVocab) -> list[int]:
    """The ids of one text: `encode_texts` of a list of one."""
    return encode_texts([text], vocab)[0]


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
# A backslash that does not start a \xHH escape.
_BAD_ESCAPE = re.compile(r"\\(?!x[0-9a-fA-F]{2})")
_unescape = codecs.getdecoder("unicode_escape")
_NO_DIGITS = str.maketrans("", "", "0123456789")


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
        body = _unescape(body.encode("latin-1"))[0]
    return body.encode("latin-1")


def save_vocab(tokens: list[bytes], path) -> None:
    write_atomic(path, "".join(token_to_text(tok) + "\n"
                               for tok in tokens).encode("ascii"))


def save_merges(rules: list[MergeRule], path) -> None:
    write_atomic(path, "".join(f"{r.task_index} {r.rank} {r.left} {r.right} "
                               f"{r.result}\n" for r in rules).encode("ascii"))


def _tokens_at_once(text: str) -> list[bytes] | None:
    """The tokens of a vocab file's text as `save_vocab` writes it, one
    literal to a line and nothing else, or None for any other text."""
    if (len(text) < 3 or text[0] != '"' or not text.endswith('"\n')
            or _BAD_ESCAPE.search(text)):
        return None
    bodies = text[1:-2].split('"\n"')
    if len(bodies) != text.count("\n"):
        return None
    return [_unescape(body.encode("latin-1"))[0].encode("latin-1")
            for body in bodies]


def _rules_at_once(text: str, tokens: list[bytes]) -> list[MergeRule] | None:
    """The rules of a merges file's text as `save_merges` writes it, five
    decimal ints and four single spaces to a line, if every rule passes
    the checks of `vocab_from_files`; else None."""
    lines = text.count("\n")
    if text.translate(_NO_DIGITS) != "    \n" * lines:
        return None
    # an empty field would leave fewer ints; a clamped one reads the maximum
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if len(values) != 5 * lines or lines and values.max() == _INT64_MAX:
        return None
    t, rank, left, right, result = values.reshape(-1, 5).T.tolist()
    if lines and max(max(left), max(right), max(result)) >= len(tokens) or any(
            tokens[m] != tokens[a] + tokens[b]
            for a, b, m in zip(left, right, result)):
        return None
    return list(map(MergeRule, left, right, result, t, rank))


def vocab_from_files(vocab_path, merges_path) -> TaskVocab:
    """The vocab of a vocab file and a merges file. Each is parsed in one
    pass when it is as `save_vocab` and `save_merges` write it, else line
    by line, which names the line of a fault."""
    tokens = read_lines(vocab_path, token_from_text, InvalidInputError,
                        "ascii", at_once=_tokens_at_once)
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

    rules = read_lines(merges_path, merge_rule, InvalidInputError, "ascii",
                       at_once=lambda text: _rules_at_once(text, tokens))
    try:
        return TaskVocab(tokens=tokens, rules=rules)
    except InvalidInputError as e:
        raise InvalidInputError(f"{vocab_path}: {e}") from None
