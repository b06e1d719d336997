"""Deterministic synthetic multilingual retrieval benchmark.

Images are abstract feature vectors (normalized sums of concept
prototypes plus noise); each language captions the same images in its
own lexicon. A configurable fraction of concepts reuses language 0's
word forms, which dials the lexical overlap between per-task BPE
vocabularies."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .embeddings import (read_json, read_lines, read_matrix, write_atomic,
                         write_matrix)
from .errors import DatasetError, InvalidInputError, check_keys, key

FORMAT_VERSION = 1
SPLITS = ("train", "val", "test")
IMG_MAGIC = b"TEIRIMG1"

# Each language draws its unique word forms from its own codepoint block
# so that at overlap 0 the per-task vocabs share only byte tokens.
_ALPHABET_BASES = [0x61, 0x3B1, 0x430, 0x5D0, 0x905, 0x10D0, 0x3041, 0x0E01]
_MAX_ALPHABET = min(b - a for a, b in zip(sorted(_ALPHABET_BASES),
                                          sorted(_ALPHABET_BASES)[1:]))
_WORD_LENGTHS = range(4, 8)


@dataclass(frozen=True)
class BenchConfig:
    n_concepts: int = key(500, "bench.n_concepts", ge=1)
    n_languages: int = key(5, "bench.n_languages", ge=1,
                           le=len(_ALPHABET_BASES))
    n_train: int = key(2000, "bench.n_train", ge=1)
    n_val: int = key(250, "bench.n_val", ge=1)
    n_test: int = key(250, "bench.n_test", ge=1)
    concepts_per_image: int = key(3, "bench.concepts_per_image", ge=1)
    d_out: int = key(64, "bench.d_out", ge=1)
    lexical_overlap: float = key(0.5, "bench.lexical_overlap", ge=0, le=1)
    # le: so that the languages' codepoint blocks do not overlap
    alphabet_size: int = key(12, "bench.alphabet_size", ge=1,
                             le=_MAX_ALPHABET)
    function_words: int = key(6, "bench.function_words", ge=1)
    sigma_img: float = key(0.05, "bench.sigma_img", ge=0)
    seed: int = key(0, "bench.seed", ge=0, lt=2**64)

    def __post_init__(self):
        check_keys(self)
        if self.n_concepts < self.concepts_per_image:
            raise InvalidInputError(
                "bench.n_concepts: fewer concepts than concepts_per_image")
        n_words = self.n_concepts + self.function_words
        n_forms = sum(self.alphabet_size ** n for n in _WORD_LENGTHS)
        if n_forms < n_words:
            raise InvalidInputError(
                f"bench.alphabet_size: {self.alphabet_size} letters make "
                f"{n_forms} words of length 4-7, fewer than the {n_words} "
                "concept and function words")


@dataclass(frozen=True)
class Split:
    """One language's split as columns: row k pairs image `image[k]`
    with English caption `english[k]` and foreign caption `foreign[k]`."""
    image: np.ndarray  # int64
    english: list[str]
    foreign: list[str]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier, as its high and low uint64 words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)


def _stream_mix(name: str) -> int:
    h = hashlib.sha256(name.encode()).digest()
    return int.from_bytes(h[:8], "little")


def _rng(seed: int, *names) -> np.random.Generator:
    """Stream `names`: `np.random.default_rng(np.random.SeedSequence(
    [seed, mix]))`, where mix is the first 8 bytes (little-endian) of the
    sha256 of the '/'-joined names."""
    return np.random.default_rng(np.random.SeedSequence(
        [seed, _stream_mix("/".join(map(str, names)))]))


def _add128(a_hi, a_lo, b_hi, b_lo):
    """a + b mod 2^128, on uint64 hi/lo arrays."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul_hi64(a, b):
    """The high 64 bits of each 128-bit product a * b of uint64s, summed
    from 32-bit limbs so that no partial product overflows."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    lo_lo, hi_lo, lo_hi = a0 * b0, a1 * b0, a0 * b1
    mid = (lo_lo >> 32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    return a1 * b1 + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


def _pcg_step(s_hi, s_lo, i_hi, i_lo):
    """PCG64's LCG step, state * multiplier + inc mod 2^128, on uint64
    hi/lo arrays."""
    hi = (s_hi * _PCG_MULT_LO + s_lo * _PCG_MULT_HI
          + _mul_hi64(s_lo, _PCG_MULT_LO))
    return _add128(hi, s_lo * _PCG_MULT_LO, i_hi, i_lo)


def _pcg64_states(seed: int, mixes):
    """The PCG64 state of `np.random.default_rng(np.random.SeedSequence(
    [seed, mix]))` for every mix, from one pass of array arithmetic over
    all of them (uint32 for SeedSequence, uint64 for PCG64's seeding
    steps), as four uint64 arrays: the state's high and low words, then
    the increment's. seed and each mix lie in [0, 2^64), so
    the entropy (seed's 1 or 2 little-endian uint32 words, then mix's) is
    at most 4 words and fits SeedSequence's pool, whose missing words are
    hashed as 0. Zero-padding the entropy to 4 words is therefore the
    same, and it lets a mix below 2^32 keep its zero high word."""
    mixes = np.asarray(mixes, dtype=np.uint64)
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = np.zeros((_POOL_SIZE, len(mixes)), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = mixes & _MASK32
    entropy[len(seed_words) + 1] = mixes >> 32

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = value ^ (value >> 16)

    # generate_state(4, np.uint64): 8 words cycling over the pool, paired
    # little-endian into (seed high, seed low, inc high, inc low).
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (state[2 * j] | state[2 * j + 1] << 32
                              for j in range(4))

    # pcg64_set_seed: state 0, inc = seq << 1 | 1, step, add the seed, step.
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    return (*_pcg_step(*_add128(*inc, s_hi, s_lo), *inc), *inc)


class _Lanes:
    """PCG64 streams stepped together in uint64 array arithmetic, one lane
    each. A lane's draws are the uint32s that its Generator would draw:
    each step's XSL-RR output, low half first, then high half. Every lane
    keeps its own place in one buffer of draws, which grows for all lanes
    when any lane reaches its end."""

    def __init__(self, states, n_draws: int):
        self.s_hi, self.s_lo, self.i_hi, self.i_lo = states
        self.buf = np.empty((len(self.s_hi), 0), dtype=np.uint64)
        self.used = np.zeros(len(self.s_hi), dtype=np.intp)
        self._grow(n_draws)

    def _grow(self, n_draws: int) -> None:
        halves = []
        for _ in range(-(-n_draws // 2)):
            self.s_hi, self.s_lo = _pcg_step(self.s_hi, self.s_lo,
                                             self.i_hi, self.i_lo)
            x = self.s_hi ^ self.s_lo
            rot = self.s_hi >> 58
            out = x >> rot | x << ((64 - rot) & 63)
            halves += [out & _MASK32, out >> 32]
        self.buf = np.column_stack([self.buf, *halves])

    def draw(self, lanes: np.ndarray) -> np.ndarray:
        """The next draw of each lane in `lanes`, distinct indices."""
        at = self.used[lanes]
        if at.max(initial=0) == self.buf.shape[1]:
            self._grow(self.buf.shape[1])
        self.used[lanes] = at + 1
        return self.buf[lanes, at]


def _bounded(lanes: _Lanes, idx: np.ndarray, excl: int) -> np.ndarray:
    """`Generator.integers(excl)` on each lane in idx, by numpy's Lemire
    rule: m = u * excl is redrawn while its low 32 bits are below
    (2^32 - excl) % excl, and the result is m >> 32. An excl of 1 makes
    no draw. Only the lanes that reject draw again."""
    if excl == 1:
        return np.zeros(len(idx), dtype=np.intp)
    threshold = (2**32 - excl) % excl
    m = lanes.draw(idx) * np.uint64(excl)
    redo = np.flatnonzero((m & _MASK32) < threshold)
    while len(redo):
        m[redo] = lanes.draw(idx[redo]) * np.uint64(excl)
        redo = redo[(m[redo] & _MASK32) < threshold]
    return (m >> 32).astype(np.intp)


def _interval(lanes: _Lanes, idx: np.ndarray, bound: int) -> np.ndarray:
    """The swap index in [0, bound] that `Generator.shuffle` draws for a
    list, on each lane in idx: a draw masked to the smallest 2^k - 1 that
    is at least bound, redrawn while it exceeds bound."""
    mask = (1 << bound.bit_length()) - 1
    value = lanes.draw(idx) & mask
    redo = np.flatnonzero(value > bound)
    while len(redo):
        value[redo] = lanes.draw(idx[redo]) & mask
        redo = redo[value[redo] > bound]
    return value.astype(np.intp)


def _make_word(rng: np.random.Generator, alphabet: str) -> str:
    length = int(rng.integers(_WORD_LENGTHS.start, _WORD_LENGTHS.stop))
    return "".join(alphabet[i] for i in rng.integers(len(alphabet), size=length))


def _make_lexicon(cfg: BenchConfig, lang: int) -> tuple[list[str], list[str]]:
    """Concept words and function words for one language."""
    alphabet = "".join(chr(_ALPHABET_BASES[lang] + i) for i in range(cfg.alphabet_size))
    rng = _rng(cfg.seed, "lexicon", lang)
    seen: set[str] = set()
    words = []
    for _ in range(cfg.n_concepts + cfg.function_words):
        w = _make_word(rng, alphabet)
        while w in seen:
            w = _make_word(rng, alphabet)
        seen.add(w)
        words.append(w)
    return words[: cfg.n_concepts], words[cfg.n_concepts:]


def _shuffled(lanes: _Lanes, c: int) -> np.ndarray:
    """Per lane, the order that `Generator.shuffle` leaves a list of c
    items in: for i = c-1 down to 1, item i swaps with item `_interval(i)`."""
    every = np.arange(len(lanes.used))
    order = np.tile(np.arange(c), (len(every), 1))
    for i in range(c - 1, 0, -1):
        j = _interval(lanes, every, i)
        order[every, i], order[every, j] = order[every, j], order[every, i]
    return order


def _captions(seed: int, names: list[str], concepts: np.ndarray,
              concept_words: list[str], function_words: list[str]) -> list[str]:
    """The caption of every image k at once, drawn on stream names[k] (the
    '/'-joined names of `_rng`) as `_Lanes`: the words of row k of
    `concepts` shuffled, then one or two function words, each inserted at
    a drawn position. A lane draws in a Generator's order: the shuffle,
    the number of function words, then each one's position and index."""
    n, c = concepts.shape
    mixes = np.fromiter(map(_stream_mix, names), dtype=np.uint64, count=n)
    # the draws of a caption with two function words and no redraw
    lanes = _Lanes(_pcg64_states(seed, mixes), c + 4)
    words = np.array(concept_words, dtype=object)[
        np.take_along_axis(concepts, _shuffled(lanes, c), axis=1)].tolist()
    n_func = 1 + _bounded(lanes, np.arange(n), 2)  # 1 or 2
    func = np.array(function_words, dtype=object)
    for k in range(2):  # the k-th function word of the lanes that have one
        idx = np.flatnonzero(n_func > k)
        pos = _bounded(lanes, idx, c + k + 1).tolist()
        word = func[_bounded(lanes, idx, len(function_words))].tolist()
        for i, p, w in zip(idx.tolist(), pos, word):
            words[i].insert(p, w)
    return [" ".join(w) for w in words]


def language_ids(cfg: BenchConfig) -> list[str]:
    return [f"L{i}" for i in range(cfg.n_languages)]


def gen_benchmark(cfg: BenchConfig, out_dir) -> None:
    """Write the full dataset directory; byte-identical for equal configs."""
    os.makedirs(out_dir, exist_ok=True)

    proto_rng = _rng(cfg.seed, "prototypes")
    prototypes = proto_rng.standard_normal((cfg.n_concepts, cfg.d_out))

    n_images = cfg.n_train + cfg.n_val + cfg.n_test
    img_rng = _rng(cfg.seed, "images")
    concepts = np.empty((n_images, cfg.concepts_per_image), dtype=np.intp)
    features = np.empty((n_images, cfg.d_out), dtype=np.float64)  # noise
    for i in range(n_images):
        concepts[i] = img_rng.choice(cfg.n_concepts,
                                     size=cfg.concepts_per_image, replace=False)
        features[i] = img_rng.normal(0.0, cfg.sigma_img, cfg.d_out)
    # plus each image's unit prototype sum; vecdot gives np.linalg.norm's bits
    for a in range(0, n_images, 512):
        raw = prototypes[concepts[a:a + 512]].sum(axis=1)
        features[a:a + 512] += raw / np.sqrt(np.vecdot(raw, raw))[:, None]
    write_matrix(os.path.join(out_dir, "images.feat"), IMG_MAGIC, features)

    split_ranges = {
        "train": range(0, cfg.n_train),
        "val": range(cfg.n_train, cfg.n_train + cfg.n_val),
        "test": range(cfg.n_train + cfg.n_val, n_images),
    }

    lexicons, func_lexicons = zip(*(_make_lexicon(cfg, lang)
                                    for lang in range(cfg.n_languages)))
    n_shared = int(cfg.lexical_overlap * cfg.n_concepts)
    for lang in range(1, cfg.n_languages):
        # Prefix of a rho-independent permutation: nested shared sets
        # across overlap settings, so the dial is monotone by design.
        # Reused forms are cross-lingual false friends: the shared
        # subset is cyclically shifted, so a borrowed word form names
        # a different concept than it does in language 0. This is the
        # interference channel that makes shared tokens conflict.
        shared = _rng(cfg.seed, "overlap", lang).permutation(
            cfg.n_concepts)[:n_shared].tolist()
        for k, c in enumerate(shared):
            lexicons[lang][c] = lexicons[0][shared[(k + 1) % len(shared)]]

    def captions(lang: int) -> list[str]:
        """Language lang's caption of every image, in image order (the
        splits cover the image indices in order)."""
        names = [f"captions/{lang}/{split}/{img}"
                 for split in SPLITS for img in split_ranges[split]]
        return _captions(cfg.seed, names, concepts, lexicons[lang],
                         func_lexicons[lang])

    # Every language pairs an image with the same English caption.
    english = captions(0)
    for lang in range(cfg.n_languages):
        foreign = english if lang == 0 else captions(lang)
        lang_dir = os.path.join(out_dir, f"L{lang}")
        os.makedirs(lang_dir, exist_ok=True)
        for split in SPLITS:
            lines = [f"{img}\t{english[img]}\t{foreign[img]}"
                     for img in split_ranges[split]]
            write_atomic(os.path.join(lang_dir, f"{split}.tsv"),
                         ("\n".join(lines) + "\n").encode("utf-8"))

    manifest = {"format_version": FORMAT_VERSION, **asdict(cfg),
                "splits": {s: len(split_ranges[s]) for s in SPLITS},
                "languages": language_ids(cfg)}
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 json.dumps(manifest, indent=1, sort_keys=True).encode())


def load_manifest(dataset_dir) -> dict:
    path = os.path.join(dataset_dir, "manifest.json")
    manifest = read_json(path, DatasetError)
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("languages"), list)
            and manifest["languages"]
            and all(isinstance(lang, str) for lang in manifest["languages"])
            and isinstance(manifest.get("splits"), dict)
            and all(type(manifest["splits"].get(s)) is int
                    and manifest["splits"][s] >= 1 for s in SPLITS)):
        raise DatasetError(f"{path}: not an object with a non-empty "
                           "'languages' list of names and a 'splits' "
                           "count of at least 1 per split")
    return manifest


def load_images(dataset_dir) -> np.ndarray:
    """The frozen n_images x d_out float32 image features, read-only."""
    features = read_matrix(os.path.join(dataset_dir, "images.feat"), IMG_MAGIC)
    if not np.all(np.isfinite(features)):
        raise InvalidInputError(f"{dataset_dir}: non-finite image features")
    features.flags.writeable = False
    return features


def load_dataset(dataset_dir, language_id: str, split: str,
                 manifest: dict | None = None,
                 images: np.ndarray | None = None) -> Split:
    """Parse one language/split into its columns. The manifest and the
    image features are read unless passed in."""
    if split not in SPLITS:
        raise InvalidInputError(f"load_dataset: unknown split {split!r}")
    manifest = load_manifest(dataset_dir) if manifest is None else manifest
    n_images = len(load_images(dataset_dir) if images is None else images)
    path = os.path.join(dataset_dir, language_id, f"{split}.tsv")

    def record(line: str) -> tuple[int, str, str]:
        index, english, foreign = line.split("\t")  # else a ValueError
        img = int(index)
        if not 0 <= img < n_images:
            raise DatasetError(f"image index {img} not in images.feat")
        if not (english and foreign):
            raise ValueError("empty caption")
        return img, english, foreign

    records = read_lines(path, record, DatasetError)
    declared = manifest["splits"][split]
    if len(records) != declared:
        raise DatasetError(f"{path}: {len(records)} records, manifest "
                           f"declares {declared}")
    return Split(np.array([r[0] for r in records], dtype=np.int64),
                 [r[1] for r in records], [r[2] for r in records])
