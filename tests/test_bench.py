"""Benchmark generator tests: determinism, overlap dial, format validation."""

import filecmp
import hashlib
import os

import numpy as np
import pytest

from lexcl import bench, bpe, vocab
from lexcl.errors import (DanglingReferenceError, DatasetFormatError,
                          InvalidInputError)


def tiny_cfg(**kw):
    base = dict(n_concepts=30, n_languages=3, n_train=60, n_val=12, n_test=12,
                concepts_per_image=3, d_out=8, lexical_overlap=0.5, seed=0)
    base.update(kw)
    return bench.BenchConfig(**base)


def tree_files(root):
    out = []
    for dirpath, _, names in os.walk(root):
        for n in sorted(names):
            out.append(os.path.relpath(os.path.join(dirpath, n), root))
    return sorted(out)


def tree_digest(root):
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for rel in tree_files(root):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = tiny_cfg()
        bench.gen_benchmark(cfg, a)
        bench.gen_benchmark(cfg, b)
        files = tree_files(a)
        assert files == tree_files(b)
        match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
        assert not mismatch and not errors

    @pytest.mark.parametrize("cfg, digest", [
        (tiny_cfg(),
         "5c9f0b8dca5b8846c5e7c707f5e01d700fe70dda31a8c31bbd33d9d18a58b2ff"),
        (tiny_cfg(n_concepts=40, n_languages=5, n_train=30, n_val=8, n_test=8,
                  concepts_per_image=2, d_out=4, lexical_overlap=0.25, seed=3),
         "f81f6ba9c03c36e885a59dac99df4cd8396ce6e55c68b5a0598d5eba99d5c3d0"),
    ])
    def test_output_matches_golden_digest(self, tmp_path, cfg, digest):
        """The generated bytes are pinned, so a change to the generator
        that is deterministic but alters the data is caught; every run
        and checkpoint downstream depends on them."""
        bench.gen_benchmark(cfg, tmp_path)
        assert tree_digest(tmp_path) == digest

    def test_split_sizes_match_manifest(self, tmp_path):
        cfg = tiny_cfg()
        bench.gen_benchmark(cfg, tmp_path)
        for split, n in (("train", 60), ("val", 12), ("test", 12)):
            triplets = bench.load_dataset(tmp_path, "L1", split)
            assert len(triplets) == n

    def test_split_images_disjoint(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        seen = {}
        for split in bench.SPLITS:
            triplets = bench.load_dataset(tmp_path, "L0", split)
            seen[split] = {t.image_index for t in triplets}
        assert not (seen["train"] & seen["val"])
        assert not (seen["train"] & seen["test"])
        assert not (seen["val"] & seen["test"])

    def test_caption_concepts_aligned(self, tmp_path):
        """English and foreign captions of an image name the same concepts."""
        cfg = tiny_cfg(lexical_overlap=0.0)
        bench.gen_benchmark(cfg, tmp_path)
        # reconstruct lexicons the generator used
        lex0, func0 = bench._make_lexicon(cfg, 0)
        lex1, func1 = bench._make_lexicon(cfg, 1)
        concept_of_eng = {w: c for c, w in enumerate(lex0)}
        concept_of_for = {w: c for c, w in enumerate(lex1)}
        triplets = bench.load_dataset(tmp_path, "L1", "test")
        for t in triplets:
            eng = {concept_of_eng[w] for w in t.english_text.split()
                   if w in concept_of_eng}
            fore = {concept_of_for[w] for w in t.foreign_text.split()
                    if w in concept_of_for}
            assert eng == fore

    def test_zero_overlap_vocabs_share_only_bytes(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(lexical_overlap=0.0), tmp_path)
        st = vocab.new_state()
        st, _ = vocab.merge_vocab(
            st, bpe.train_bpe(bench.load_corpus(tmp_path, "L0"), 300, 0))
        st, part = vocab.merge_vocab(
            st, bpe.train_bpe(bench.load_corpus(tmp_path, "L1"), 300, 1))
        assert part.overlap == frozenset(range(256))

    def test_full_overlap_words_shared(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(lexical_overlap=1.0), tmp_path)
        words0 = {w for line in bench.load_corpus(tmp_path, "L0")
                  for w in line.split()}
        cfg = tiny_cfg(lexical_overlap=1.0)
        lex1, func1 = bench._make_lexicon(cfg, 1)
        concept_words_used = {w for line in bench.load_corpus(tmp_path, "L1")
                              for w in line.split()} - set(func1)
        assert concept_words_used <= words0

    def test_overlap_dial_monotone(self, tmp_path):
        fractions = []
        for k, rho in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            d = tmp_path / f"rho{k}"
            bench.gen_benchmark(tiny_cfg(lexical_overlap=rho), d)
            st = vocab.new_state()
            st, _ = vocab.merge_vocab(
                st, bpe.train_bpe(bench.load_corpus(d, "L0"), 320, 0))
            tv1 = bpe.train_bpe(bench.load_corpus(d, "L1"), 320, 1)
            st, part = vocab.merge_vocab(st, tv1)
            non_byte = [i for i in part.overlap if i >= 256]
            denom = tv1.size - 256
            fractions.append(len(non_byte) / denom)
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0 and fractions[-1] > fractions[0]

    def test_image_features_near_unit_norm(self, tmp_path):
        cfg = tiny_cfg(sigma_img=0.0)
        bench.gen_benchmark(cfg, tmp_path)
        prov = bench.load_images(tmp_path)
        norms = np.linalg.norm(prov.features, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_invalid_configs(self):
        with pytest.raises(InvalidInputError):
            tiny_cfg(lexical_overlap=1.5).validate()
        with pytest.raises(InvalidInputError):
            tiny_cfg(n_concepts=2, concepts_per_image=3).validate()
        with pytest.raises(InvalidInputError):
            tiny_cfg(n_languages=99).validate()


class TestLoad:
    def test_captions_round_trip(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        raw = (tmp_path / "L2" / "val.tsv").read_text(encoding="utf-8")
        triplets = bench.load_dataset(tmp_path, "L2", "val")
        lines = [l for l in raw.split("\n") if l]
        assert len(lines) == len(triplets)
        for line, t in zip(lines, triplets):
            img, eng, fore = line.split("\t")
            assert (int(img), eng, fore) == (t.image_index, t.english_text,
                                             t.foreign_text)

    def test_malformed_line_names_lineno(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        p = tmp_path / "L1" / "val.tsv"
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[4] = "no tabs here"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=r":5:"):
            bench.load_dataset(tmp_path, "L1", "val")

    def test_dangling_image_reference(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        p = tmp_path / "L1" / "val.tsv"
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[0] = "99999" + lines[0][lines[0].index("\t"):]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DanglingReferenceError, match=r":1:"):
            bench.load_dataset(tmp_path, "L1", "val")

    def test_count_mismatch_detected(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        p = tmp_path / "L1" / "val.tsv"
        lines = p.read_text(encoding="utf-8").splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="manifest declares"):
            bench.load_dataset(tmp_path, "L1", "val")

    def test_unknown_split(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        with pytest.raises(InvalidInputError):
            bench.load_dataset(tmp_path, "L1", "dev")
