"""Benchmark generator tests: determinism, overlap dial, format validation."""

import filecmp
import hashlib
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lexcl import bench, bpe, vocab
from lexcl.embeddings import write_matrix
from lexcl.errors import DatasetError, InvalidInputError


def tiny_cfg(**kw):
    base = dict(n_concepts=30, n_languages=3, n_train=60, n_val=12, n_test=12,
                concepts_per_image=3, d_out=8, lexical_overlap=0.5, seed=0)
    base.update(kw)
    return bench.BenchConfig(**base)


def train_captions(data_dir, language_id):
    """A language's foreign train captions: what its BPE vocab trains on."""
    return bench.load_dataset(data_dir, language_id, "train").foreign


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
         "c3b9cd0e630e467d04e49902b26ada83cc1c949e0d058e01be5cfd831d8bcf41"),
        (tiny_cfg(n_concepts=40, n_languages=5, n_train=30, n_val=8, n_test=8,
                  concepts_per_image=2, d_out=4, lexical_overlap=0.25, seed=3),
         "fadb6af19b1a70e1c0d0c436805f76b5d4c541e2037987046d0c0a254bbf2f20"),
        (bench.BenchConfig(),
         "17a5b1fe628f9b47de821c96b450c3acdd9e98224de7ed5340c2c202e18ac03e"),
        (tiny_cfg(seed=2**32 + 7),  # a seed of two 32-bit words
         "466d0ca99bfded13d6dcadb91d53748867d2de11a293ebba52d4a13a340be722"),
        (tiny_cfg(seed=2**64 - 1),
         "b464acd129f4890640fe4f1a60c73b80b07dc37c800750786c235a05d64d2bb8"),
        # one concept and one function word: no shuffle or word-index draw
        (tiny_cfg(concepts_per_image=1, function_words=1),
         "b70949c01b240a01494f6f3668c9ec7282b670526f27d10b9fab44129e641568"),
        (tiny_cfg(concepts_per_image=6, function_words=9),
         "b9dd98af986e793e98bc695346eb31a45b144ca0a2c8b2f2213652fbd0a57090"),
    ], ids=["tiny", "five-languages", "default", "two-word-seed", "max-seed",
            "one-word-each", "six-concepts-nine-words"])
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
            data = bench.load_dataset(tmp_path, "L1", split)
            assert len(data.image) == len(data.english) == len(data.foreign) == n

    def test_split_images_disjoint(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        seen = {}
        for split in bench.SPLITS:
            seen[split] = set(bench.load_dataset(tmp_path, "L0", split).image.tolist())
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
        data = bench.load_dataset(tmp_path, "L1", "test")
        for english, foreign in zip(data.english, data.foreign):
            eng = {concept_of_eng[w] for w in english.split()
                   if w in concept_of_eng}
            fore = {concept_of_for[w] for w in foreign.split()
                    if w in concept_of_for}
            assert eng == fore

    def test_zero_overlap_vocabs_share_only_bytes(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(lexical_overlap=0.0), tmp_path)
        st = vocab.new_state()
        st, _ = vocab.merge_vocab(
            st, bpe.train_bpe(train_captions(tmp_path, "L0"), 300, 0))
        before = st.size
        st, lam = vocab.merge_vocab(
            st, bpe.train_bpe(train_captions(tmp_path, "L1"), 300, 1))
        # overlap: the ids before the merge that L1's vocab holds (λ > 0)
        assert np.flatnonzero(lam[:before]).tolist() == list(range(256))

    def test_full_overlap_words_shared(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(lexical_overlap=1.0), tmp_path)
        words0 = {w for line in train_captions(tmp_path, "L0")
                  for w in line.split()}
        cfg = tiny_cfg(lexical_overlap=1.0)
        lex1, func1 = bench._make_lexicon(cfg, 1)
        concept_words_used = {w for line in train_captions(tmp_path, "L1")
                              for w in line.split()} - set(func1)
        assert concept_words_used <= words0

    def test_overlap_dial_monotone(self, tmp_path):
        fractions = []
        for k, rho in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            d = tmp_path / f"rho{k}"
            bench.gen_benchmark(tiny_cfg(lexical_overlap=rho), d)
            st = vocab.new_state()
            st, _ = vocab.merge_vocab(
                st, bpe.train_bpe(train_captions(d, "L0"), 320, 0))
            tv1 = bpe.train_bpe(train_captions(d, "L1"), 320, 1)
            before = st.size
            st, lam = vocab.merge_vocab(st, tv1)
            non_byte = np.count_nonzero(lam[256:before])
            denom = tv1.size - 256
            fractions.append(non_byte / denom)
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0 and fractions[-1] > fractions[0]

    def test_image_features_near_unit_norm(self, tmp_path):
        cfg = tiny_cfg(sigma_img=0.0)
        bench.gen_benchmark(cfg, tmp_path)
        norms = np.linalg.norm(bench.load_images(tmp_path), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_invalid_configs(self):
        with pytest.raises(InvalidInputError):
            tiny_cfg(lexical_overlap=1.5)
        with pytest.raises(InvalidInputError):
            tiny_cfg(n_concepts=2, concepts_per_image=3)
        with pytest.raises(InvalidInputError):
            tiny_cfg(n_languages=99)

    @pytest.mark.parametrize("kw", [
        dict(alphabet_size=1),
        dict(alphabet_size=2),
        # 3 letters make 81 + 243 + 729 + 2187 = 3240 words
        dict(alphabet_size=3, n_concepts=3235, function_words=6),
    ])
    def test_alphabet_too_small_for_the_lexicon(self, kw):
        """Checked before generation, where drawing distinct words from
        too few forms would never end."""
        with pytest.raises(InvalidInputError, match="bench.alphabet_size"):
            bench.BenchConfig(**kw)

    def test_alphabet_just_large_enough(self):
        bench.BenchConfig(alphabet_size=3, n_concepts=3234,
                          function_words=6)


_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
                   st.integers(0, 2**64 - 1))
_MIXES = st.lists(st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                            st.integers(0, 2**64 - 1)), min_size=1, max_size=8)


def _first_draws(rng):
    words = list(range(7))
    rng.shuffle(words)
    return rng.integers(1000, size=4).tolist(), words, rng.random(3).tolist()


def _lanes(seed, n):
    """Lanes for streams ("draws", 0) .. ("draws", n - 1), with a buffer
    of 2 draws, so that a third draw grows it."""
    mixes = [bench._stream_mix(f"draws/{k}") for k in range(n)]
    return bench._Lanes(bench._pcg64_states(seed, mixes), 2)


class TestStreams:
    @given(seed=_SEEDS, mixes=_MIXES)
    @settings(max_examples=200, deadline=None)
    @example(seed=0, mixes=[0])
    @example(seed=2**64 - 1, mixes=[2**64 - 1, 2**32, 2**32 - 1, 0])
    def test_batched_seeding_matches_seed_sequence(self, seed, mixes):
        s_hi, s_lo, i_hi, i_lo = (a.tolist()
                                  for a in bench._pcg64_states(seed, mixes))
        assert len(s_hi) == len(s_lo) == len(i_hi) == len(i_lo) == len(mixes)
        for k, mix in enumerate(mixes):
            ref = np.random.default_rng(np.random.SeedSequence([seed, mix]))
            state = {"bit_generator": "PCG64",
                     "state": {"state": s_hi[k] << 64 | s_lo[k],
                               "inc": i_hi[k] << 64 | i_lo[k]},
                     "has_uint32": 0, "uinteger": 0}
            assert state == ref.bit_generator.state
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = state
            assert _first_draws(rng) == _first_draws(ref)

    def test_streams_match_one_seed_sequence_each(self):
        names = [("captions", lang, split, img) for lang in (0, 3)
                 for split in bench.SPLITS for img in (0, 1, 250)]
        names += [("prototypes",), ("lexicon", 2)]
        for seed in (0, 7, 2**32 + 7):
            for n in names:
                assert _first_draws(bench._rng(seed, *n)) == _first_draws(
                    oracles.sub_rng(seed, *n))

    @pytest.mark.parametrize("seed", [0, 2**32 + 7, 2**64 - 1])
    def test_lane_draws_match_next_uint32(self, seed):
        """Each lane yields its Generator's uint32s in order, past several
        growths of the buffer."""
        lanes = _lanes(seed, 50)
        every = np.arange(50)
        got = np.stack([lanes.draw(every) for _ in range(9)], axis=1)
        for k in range(50):
            ref = oracles.sub_rng(seed, "draws", k)
            assert got[k].tolist() == ref.integers(
                2**32, size=9, dtype=np.uint32).tolist()

    @pytest.mark.parametrize("excl", [2, 7, 2**31 + 1, 3 * 2**30 + 5,
                                      2**32 - 1])
    def test_bounded_matches_integers(self, excl):
        """A draw is rejected with odds (2^32 - excl) % excl / 2^32: about
        1/2 at 2^31 + 1 and 1/4 at 3 * 2^30 + 5, under 1e-9 on the other
        ranges. Only the rejecting lanes draw again."""
        n, draws = 1000, 5
        lanes = _lanes(0, n)
        every = np.arange(n)
        got = np.stack([bench._bounded(lanes, every, excl)
                        for _ in range(draws)], axis=1)
        odds = (2**32 - excl) % excl / 2**32
        assert int(lanes.used.sum()) - n * draws >= int(n * draws * odds / 2)
        after = lanes.draw(every)  # in step only if as many were drawn
        for k in range(n):
            ref = oracles.sub_rng(0, "draws", k)
            assert got[k].tolist() == [int(ref.integers(excl))
                                       for _ in range(draws)]
            assert after[k] == ref.integers(2**32, dtype=np.uint32)

    def test_bounded_keeps_a_draw_at_the_threshold(self):
        """For excl 3 the threshold is (2^32 - 3) % 3 = 1. A draw of 0
        leaves 0 and is redrawn; 0xAAAAAAAB (3^-1 mod 2^32) leaves
        exactly 1 and is kept, as 0xAAAAAAAB * 3 >> 32 = 2: on the first
        draw (lane 0) and on a redraw (lane 1)."""
        lanes = _lanes(0, 2)
        lanes.buf[:] = [[0xAAAAAAAB, 0], [0, 0xAAAAAAAB]]
        assert bench._bounded(lanes, np.arange(2), 3).tolist() == [2, 2]
        assert lanes.used.tolist() == [1, 2]

    def test_bounded_of_one_draws_nothing(self):
        lanes = _lanes(0, 4)
        assert bench._bounded(lanes, np.arange(4), 1).tolist() == [0] * 4
        assert lanes.used.tolist() == [0] * 4

    @pytest.mark.parametrize("c", range(2, 10))
    def test_shuffled_matches_shuffle(self, c):
        """Masked rejection redraws 1 in 4 draws at bound 2 and up to 7 in
        16 (bound 8); bound 1 never redraws."""
        n = 400
        lanes = _lanes(7, n)
        order = bench._shuffled(lanes, c)
        if c > 2:
            assert int(lanes.used.sum()) > n * (c - 1)
        after = lanes.draw(np.arange(n))
        for k in range(n):
            ref, rng = list(range(c)), oracles.sub_rng(7, "draws", k)
            rng.shuffle(ref)
            assert order[k].tolist() == ref
            assert after[k] == rng.integers(2**32, dtype=np.uint32)

    @given(seed=_SEEDS, c=st.integers(1, 6), n_func=st.integers(1, 9),
           n_concepts=st.integers(6, 40), draw_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    @example(seed=0, c=1, n_func=1, n_concepts=6, draw_seed=0)
    @example(seed=2**32 - 1, c=6, n_func=9, n_concepts=6, draw_seed=1)
    @example(seed=2**32 + 7, c=3, n_func=6, n_concepts=30, draw_seed=2)
    @example(seed=2**64 - 1, c=2, n_func=2, n_concepts=7, draw_seed=3)
    def test_captions_match_reference(self, seed, c, n_func, n_concepts,
                                      draw_seed):
        """Every caption equals the one its own Generator draws."""
        rng = np.random.default_rng(draw_seed)
        n = 300
        concepts = np.stack([rng.choice(n_concepts, c, replace=False)
                             for _ in range(n)])
        concept_words = [f"c{k}" for k in range(n_concepts)]
        function_words = [f"f{k}" for k in range(n_func)]
        names = [f"captions/1/val/{img}" for img in range(n)]
        got = bench._captions(seed, names, concepts, concept_words,
                              function_words)
        assert got == [oracles.caption_reference(
            oracles.sub_rng(seed, name),
            [concept_words[i] for i in row], function_words)
            for name, row in zip(names, concepts.tolist())]

    def test_seeding_cost_does_not_grow_with_the_captions(self, tmp_path,
                                                          monkeypatch):
        """gen-data seeds a fixed number of Generators, whatever the
        number of captions."""
        counts = {}

        def counting(name):
            real = getattr(np.random, name)

            def make(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(np.random, name, make)

        counting("SeedSequence")
        counting("PCG64")
        counting("default_rng")
        seen = []
        for n_train in (20, 200):
            counts.clear()
            bench.gen_benchmark(tiny_cfg(n_train=n_train), tmp_path / str(n_train))
            seen.append(dict(counts))
        assert seen[0] == seen[1]


class TestLoad:
    def test_captions_round_trip(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        raw = (tmp_path / "L2" / "val.tsv").read_text(encoding="utf-8")
        data = bench.load_dataset(tmp_path, "L2", "val")
        lines = [l for l in raw.split("\n") if l]
        assert len(lines) == len(data.image)
        for k, line in enumerate(lines):
            img, eng, fore = line.split("\t")
            assert (int(img), eng, fore) == (data.image[k], data.english[k],
                                             data.foreign[k])
        assert data.image.dtype == np.int64

    def test_malformed_line_names_lineno(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        p = tmp_path / "L1" / "val.tsv"
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[4] = "no tabs here"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError,
                           match=r"val\.tsv:5: not enough values to unpack"):
            bench.load_dataset(tmp_path, "L1", "val")

    def test_dangling_image_reference(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        p = tmp_path / "L1" / "val.tsv"
        lines = p.read_text(encoding="utf-8").splitlines()
        lines[0] = "99999" + lines[0][lines[0].index("\t"):]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError,
                           match=r"val\.tsv:1: image index 99999 not in "):
            bench.load_dataset(tmp_path, "L1", "val")

    def test_count_mismatch_detected(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        p = tmp_path / "L1" / "val.tsv"
        lines = p.read_text(encoding="utf-8").splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="manifest declares"):
            bench.load_dataset(tmp_path, "L1", "val")

    def test_unknown_split(self, tmp_path):
        bench.gen_benchmark(tiny_cfg(), tmp_path)
        with pytest.raises(InvalidInputError):
            bench.load_dataset(tmp_path, "L1", "dev")


class TestImages:
    def _write(self, tmp_path, features):
        write_matrix(tmp_path / "images.feat", bench.IMG_MAGIC, features)

    def test_file_round_trip(self, tmp_path):
        features = np.random.default_rng(3).standard_normal((7, 5)).astype(np.float32)
        self._write(tmp_path, features)
        back = bench.load_images(tmp_path)
        assert back.dtype == np.float32
        assert np.array_equal(back, features)

    def test_features_frozen(self, tmp_path):
        self._write(tmp_path, np.ones((4, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            bench.load_images(tmp_path)[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, tmp_path, bad):
        features = np.ones((4, 4), dtype=np.float32)
        features[2, 1] = bad
        self._write(tmp_path, features)
        with pytest.raises(InvalidInputError, match="non-finite"):
            bench.load_images(tmp_path)
