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
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .embeddings import (read_json, read_lines, read_matrix, write_atomic,
                         write_matrix)
from .errors import (DanglingReferenceError, DatasetFormatError,
                     InvalidInputError, check_keys, key)

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
# PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _stream_mix(names) -> int:
    h = hashlib.sha256("/".join(map(str, names)).encode()).digest()
    return int.from_bytes(h[:8], "little")


def _pcg64_states(seed: int, mixes) -> Iterator[dict]:
    """The PCG64 state of `np.random.default_rng(np.random.SeedSequence(
    [seed, mix]))` for every mix, from one pass of uint32 array arithmetic
    over all of them. seed and each mix lie in [0, 2^64), so the entropy
    (seed's 1 or 2 little-endian uint32 words, then mix's) is at most 4
    words and fits SeedSequence's pool, whose missing words are hashed
    as 0. Zero-padding the entropy to 4 words is therefore the same, and
    it lets a mix below 2^32 keep its zero high word."""
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
    words = [(state[2 * j] | state[2 * j + 1] << np.uint64(32)).tolist()
             for j in range(4)]

    # pcg64_set_seed: state 0, inc = seq << 1 | 1, step, add the seed, step.
    for s_hi, s_lo, i_hi, i_lo in zip(*words):
        inc = (((i_hi << 64 | i_lo) << 1) | 1) & _MASK128
        pcg = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": pcg, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _streams(seed: int, names: Iterable[tuple]) -> Iterator[np.random.Generator]:
    """For each name tuple in turn, a Generator in the state that
    `np.random.default_rng(np.random.SeedSequence([seed, mix]))` starts
    in, where mix is the first 8 bytes (little-endian) of the sha256 of
    the '/'-joined names. It is one Generator, re-seeded for each name,
    so a stream is spent before the next is drawn."""
    rng = np.random.Generator(np.random.PCG64(0))
    mixes = np.fromiter(map(_stream_mix, names), dtype=np.uint64)
    for state in _pcg64_states(seed, mixes):
        rng.bit_generator.state = state
        yield rng


def _rng(seed: int, *names) -> np.random.Generator:
    return next(_streams(seed, [names]))


def _make_word(rng: np.random.Generator, alphabet: str) -> str:
    length = int(rng.integers(_WORD_LENGTHS.start, _WORD_LENGTHS.stop))
    return "".join(alphabet[int(rng.integers(len(alphabet)))] for _ in range(length))


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


def _caption(rng, concept_words: list[str], function_words: list[str]) -> str:
    words = list(concept_words)
    rng.shuffle(words)
    n_func = int(rng.integers(1, 3))
    for _ in range(n_func):
        pos = int(rng.integers(len(words) + 1))
        words.insert(pos, function_words[int(rng.integers(len(function_words)))])
    return " ".join(words)


def language_ids(cfg: BenchConfig) -> list[str]:
    return [f"L{i}" for i in range(cfg.n_languages)]


def gen_benchmark(cfg: BenchConfig, out_dir) -> None:
    """Write the full dataset directory; byte-identical for equal configs."""
    os.makedirs(out_dir, exist_ok=True)

    proto_rng = _rng(cfg.seed, "prototypes")
    prototypes = proto_rng.standard_normal((cfg.n_concepts, cfg.d_out))

    n_images = cfg.n_train + cfg.n_val + cfg.n_test
    img_rng = _rng(cfg.seed, "images")
    image_concepts = []
    features = np.empty((n_images, cfg.d_out), dtype=np.float64)
    for i in range(n_images):
        concepts = img_rng.choice(cfg.n_concepts, size=cfg.concepts_per_image,
                                  replace=False)
        image_concepts.append([int(c) for c in concepts])
        raw = prototypes[concepts].sum(axis=0)
        raw = raw / np.linalg.norm(raw)
        features[i] = raw + img_rng.normal(0.0, cfg.sigma_img, cfg.d_out)
    write_matrix(os.path.join(out_dir, "images.feat"), IMG_MAGIC, features)

    split_ranges = {
        "train": range(0, cfg.n_train),
        "val": range(cfg.n_train, cfg.n_train + cfg.n_val),
        "test": range(cfg.n_train + cfg.n_val, n_images),
    }

    lex0_concepts, func0 = _make_lexicon(cfg, 0)
    n_shared = int(cfg.lexical_overlap * cfg.n_concepts)

    lexicons = [lex0_concepts]
    func_lexicons = [func0]
    for lang in range(1, cfg.n_languages):
        concept_words, function_words = _make_lexicon(cfg, lang)
        # Prefix of a rho-independent permutation: nested shared sets
        # across overlap settings, so the dial is monotone by design.
        # Reused forms are cross-lingual false friends: the shared
        # subset is cyclically shifted, so a borrowed word form names
        # a different concept than it does in language 0. This is the
        # interference channel that makes shared tokens conflict.
        rng = _rng(cfg.seed, "overlap", lang)
        perm = rng.permutation(cfg.n_concepts)
        shared = [int(c) for c in perm[:n_shared]]
        for k, c in enumerate(shared):
            donor = shared[(k + 1) % len(shared)]
            concept_words[c] = lex0_concepts[donor]
        lexicons.append(concept_words)
        func_lexicons.append(function_words)

    def captions(lang: int) -> list[str]:
        """Language lang's caption of every image, in image order (the
        splits cover the image indices in order)."""
        names = (("captions", lang, split, img)
                 for split in SPLITS for img in split_ranges[split])
        return [_caption(rng, [lexicons[lang][c] for c in concepts],
                         func_lexicons[lang])
                for concepts, rng in zip(image_concepts,
                                         _streams(cfg.seed, names))]

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
    manifest = read_json(path, DatasetFormatError)
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("languages"), list)
            and all(isinstance(lang, str) for lang in manifest["languages"])
            and isinstance(manifest.get("splits"), dict)
            and all(type(manifest["splits"].get(s)) is int for s in SPLITS)):
        raise DatasetFormatError(f"{path}: not an object with a 'languages' "
                                 "list of names and a 'splits' count per split")
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
            raise DanglingReferenceError(f"image index {img} not in images.feat")
        if not (english and foreign):
            raise ValueError("empty caption")
        return img, english, foreign

    records = read_lines(path, record, DatasetFormatError)
    declared = manifest["splits"][split]
    if len(records) != declared:
        raise DatasetFormatError(
            f"{path}: {len(records)} records, manifest declares {declared}")
    return Split(np.array([r[0] for r in records], dtype=np.int64),
                 [r[1] for r in records], [r[2] for r in records])
