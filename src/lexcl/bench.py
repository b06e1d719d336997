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
from dataclasses import dataclass, asdict, field

import numpy as np

from .embeddings import read_matrix, write_atomic, write_matrix
from .errors import (DanglingReferenceError, DatasetFormatError,
                     InvalidInputError)

FORMAT_VERSION = 1
SPLITS = ("train", "val", "test")
IMG_MAGIC = b"TEIRIMG1"

# Each language draws its unique word forms from its own codepoint block
# so that at overlap 0 the per-task vocabs share only byte tokens.
_ALPHABET_BASES = [0x61, 0x3B1, 0x430, 0x5D0, 0x905, 0x10D0, 0x3041, 0x0E01]


@dataclass(frozen=True)
class BenchConfig:
    n_concepts: int = 500
    n_languages: int = 5
    n_train: int = 2000
    n_val: int = 250
    n_test: int = 250
    concepts_per_image: int = 3
    d_out: int = 64
    lexical_overlap: float = 0.5
    alphabet_size: int = 12
    function_words: int = 6
    sigma_img: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.lexical_overlap <= 1.0:
            raise InvalidInputError(
                f"bench.lexical_overlap: {self.lexical_overlap} outside [0, 1]")
        if self.concepts_per_image < 1:
            raise InvalidInputError("bench.concepts_per_image: must be >= 1")
        if self.n_concepts < self.concepts_per_image:
            raise InvalidInputError(
                "bench.n_concepts: fewer concepts than concepts_per_image")
        if self.n_languages > len(_ALPHABET_BASES):
            raise InvalidInputError(
                f"bench.n_languages: at most {len(_ALPHABET_BASES)} supported")


@dataclass(frozen=True)
class Split:
    """One language's split as columns: row k pairs image `image[k]`
    with English caption `english[k]` and foreign caption `foreign[k]`."""
    image: np.ndarray  # int64
    english: list[str]
    foreign: list[str]


def _sub_rng(seed: int, *names) -> np.random.Generator:
    h = hashlib.sha256(("/".join(str(n) for n in names)).encode()).digest()
    mix = int.from_bytes(h[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, mix]))


def _make_word(rng: np.random.Generator, alphabet: str) -> str:
    length = int(rng.integers(4, 8))
    return "".join(alphabet[int(rng.integers(len(alphabet)))] for _ in range(length))


def _make_lexicon(cfg: BenchConfig, lang: int) -> tuple[list[str], list[str]]:
    """Concept words and function words for one language."""
    alphabet = "".join(chr(_ALPHABET_BASES[lang] + i) for i in range(cfg.alphabet_size))
    rng = _sub_rng(cfg.seed, "lexicon", lang)
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
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)

    proto_rng = _sub_rng(cfg.seed, "prototypes")
    prototypes = proto_rng.standard_normal((cfg.n_concepts, cfg.d_out))

    n_images = cfg.n_train + cfg.n_val + cfg.n_test
    img_rng = _sub_rng(cfg.seed, "images")
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

    lex0_concepts, _ = _make_lexicon(cfg, 0)
    n_shared = int(cfg.lexical_overlap * cfg.n_concepts)

    lexicons = []
    func_lexicons = []
    for lang in range(cfg.n_languages):
        concept_words, function_words = _make_lexicon(cfg, lang)
        if lang > 0:
            # Prefix of a rho-independent permutation: nested shared sets
            # across overlap settings, so the dial is monotone by design.
            # Reused forms are cross-lingual false friends: the shared
            # subset is cyclically shifted, so a borrowed word form names
            # a different concept than it does in language 0. This is the
            # interference channel that makes shared tokens conflict.
            rng = _sub_rng(cfg.seed, "overlap", lang)
            perm = rng.permutation(cfg.n_concepts)
            shared = [int(c) for c in perm[:n_shared]]
            for k, c in enumerate(shared):
                donor = shared[(k + 1) % len(shared)]
                concept_words[c] = lex0_concepts[donor]
        lexicons.append(concept_words)
        func_lexicons.append(function_words)

    # Every language pairs an image with the same English caption; the
    # splits cover the image indices in order, so english[img] is image
    # img's caption.
    english = [_caption(_sub_rng(cfg.seed, "captions", 0, split, img),
                        [lex0_concepts[c] for c in image_concepts[img]],
                        func_lexicons[0])
               for split in SPLITS for img in split_ranges[split]]

    for lang in range(cfg.n_languages):
        lang_dir = os.path.join(out_dir, f"L{lang}")
        os.makedirs(lang_dir, exist_ok=True)
        corpus_lines = []
        for split in SPLITS:
            lines = []
            for img in split_ranges[split]:
                concepts = image_concepts[img]
                eng = english[img]
                if lang == 0:
                    fore = eng
                else:
                    fore = _caption(_sub_rng(cfg.seed, "captions", lang, split, img),
                                    [lexicons[lang][c] for c in concepts],
                                    func_lexicons[lang])
                lines.append(f"{img}\t{eng}\t{fore}")
                if split == "train":
                    corpus_lines.append(fore)
            write_atomic(os.path.join(lang_dir, f"{split}.tsv"),
                         ("\n".join(lines) + "\n").encode("utf-8"))
        write_atomic(os.path.join(lang_dir, "corpus.txt"),
                     ("\n".join(corpus_lines) + "\n").encode("utf-8"))

    manifest = {"format_version": FORMAT_VERSION, **asdict(cfg),
                "splits": {s: len(split_ranges[s]) for s in SPLITS},
                "languages": language_ids(cfg)}
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 json.dumps(manifest, indent=1, sort_keys=True).encode())


def load_manifest(dataset_dir) -> dict:
    with open(os.path.join(dataset_dir, "manifest.json")) as f:
        return json.load(f)


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
    image, english, foreign = [], [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, "
                    f"got {len(parts)}")
            try:
                img = int(parts[0])
            except ValueError:
                raise DatasetFormatError(
                    f"{path}:{lineno}: bad image index {parts[0]!r}") from None
            if not 0 <= img < n_images:
                raise DanglingReferenceError(
                    f"{path}:{lineno}: image index {img} not in images.feat")
            image.append(img)
            english.append(parts[1])
            foreign.append(parts[2])
    declared = manifest["splits"][split]
    if len(image) != declared:
        raise DatasetFormatError(
            f"{path}: {len(image)} records, manifest declares {declared}")
    return Split(np.array(image, dtype=np.int64), english, foreign)


def load_corpus(dataset_dir, language_id: str) -> list[str]:
    path = os.path.join(dataset_dir, language_id, "corpus.txt")
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]
