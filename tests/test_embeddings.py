"""Embedding-table tests: init policies, expansion, anchor freeze, checkpoints."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

import oracles
from lexcl import embeddings as emb
from lexcl.errors import (CheckpointFormatError, CheckpointTruncatedError,
                          DimensionMismatchError, InvalidInputError, StateError,
                          VocabMismatchError)

# one-sided KS critical value at alpha = 0.01 is c(alpha)/sqrt(n), c = 1.628
KS_C_01 = 1.628


class TestDistStats:
    def test_all_zero(self):
        s = emb.dist_stats(emb.EmbeddingTable(np.zeros((4, 4))))
        assert s.mu == 0.0 and s.sigma == 0.0

    def test_hand_case(self):
        s = emb.dist_stats(emb.EmbeddingTable(np.array([[1.0, -1.0], [1.0, -1.0]])))
        assert s.mu == 0.0 and s.sigma == 1.0

    def test_sampled_table_moments(self):
        t = emb.init_table(10_000, 64, emb.fixed_policy(0.0, 0.02), rng_seed=5)
        s = emb.dist_stats(t)
        n = 10_000 * 64
        assert abs(s.mu) < 4 * 0.02 / np.sqrt(n)
        assert abs(s.sigma - 0.02) < 0.01 * 0.02

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8))
        a = emb.dist_stats(emb.EmbeddingTable(m))
        perm = rng.permutation(m.ravel()).reshape(8, 8)
        b = emb.dist_stats(emb.EmbeddingTable(perm))
        assert np.isclose(a.mu, b.mu) and np.isclose(a.sigma, b.sigma)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            emb.dist_stats(emb.EmbeddingTable(np.zeros((0, 4))))


def scipy_ks(x, mu, sigma):
    return sps.kstest(np.asarray(x, dtype=np.float64).ravel(), "norm",
                      args=(mu, sigma)).statistic


class TestKsStatistic:
    """`ks_statistic` against scipy's `kstest`, its oracle."""

    @pytest.mark.parametrize("x, mu, sigma", [
        ([0.3], 0.0, 1.0),                           # n = 1
        ([-2.5], 1.0, 0.5),
        ([0.5] * 5 + [1.0] * 3, 0.7, 0.2),           # ties
        ([0.0, 0.0, 0.0, 0.0], 0.0, 1.0),            # all tied at the mean
        ([40.0, 50.0, -60.0], 0.0, 1.0),             # far in both tails
        (np.arange(-3, 4, dtype=float), 0.0, 2.0),
    ])
    def test_hand_cases(self, x, mu, sigma):
        assert abs(emb.ks_statistic(x, mu, sigma) - scipy_ks(x, mu, sigma)) < 1e-12

    @pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (5.0, 1.0),
                                              (0.0, 1e-3), (-3.0, 40.0)])
    def test_shifted_and_scaled(self, shift, scale):
        z = np.random.default_rng(1).standard_normal(2000)
        x = shift + scale * z
        assert abs(emb.ks_statistic(x, shift, scale) - scipy_ks(x, shift, scale)) < 1e-12
        # the statistic of z against N(0, 1) is invariant under the map
        assert abs(emb.ks_statistic(x, shift, scale)
                   - emb.ks_statistic(z, 0.0, 1.0)) < 1e-9

    def test_float32_matrix_like_the_harness_passes(self):
        m = np.random.default_rng(2).normal(0.01, 0.3, size=(40, 16)).astype(np.float32)
        assert abs(emb.ks_statistic(m, 0.0, 0.3) - scipy_ks(m, 0.0, 0.3)) < 1e-12

    @given(x=st.lists(st.floats(-50, 50), min_size=1, max_size=200),
           mu=st.floats(-5, 5), sigma=st.floats(1e-3, 100))
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy(self, x, mu, sigma):
        assert abs(emb.ks_statistic(x, mu, sigma) - scipy_ks(x, mu, sigma)) < 1e-12

    @given(x=st.lists(st.integers(-3, 3), min_size=1, max_size=60),
           sigma=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy_with_many_ties(self, x, sigma):
        assert abs(emb.ks_statistic(x, 0.0, sigma) - scipy_ks(x, 0.0, sigma)) < 1e-12

    @pytest.mark.parametrize("x, sigma", [([], 1.0), ([1.0], 0.0), ([1.0], -1.0)])
    def test_rejects_empty_or_nonpositive_sigma(self, x, sigma):
        with pytest.raises(InvalidInputError):
            emb.ks_statistic(x, 0.0, sigma)


class TestExpand:
    def test_zero_new_rows_identity(self):
        t = emb.init_table(10, 8, emb.fixed_policy(), rng_seed=1)
        out = emb.expand(t, 0, emb.fixed_policy(), rng_seed=2)
        assert np.array_equal(out.matrix, t.matrix)

    def test_prefix_bit_exact(self):
        t = emb.init_table(50, 16, emb.fixed_policy(), rng_seed=3)
        before = oracles.matrix_hash(t.matrix)
        out = emb.expand(t, 200, emb.matched_policy(emb.dist_stats(t)), rng_seed=4)
        assert oracles.matrix_hash(out.matrix[:50]) == before

    def test_fixed_policy_distribution(self):
        t = emb.init_table(4, 8, emb.fixed_policy(), rng_seed=0)
        out = emb.expand(t, 2000, emb.fixed_policy(0.0, 0.02), rng_seed=7)
        new = out.matrix[4:].astype(np.float64).ravel()
        n = new.size
        assert n >= 10_000
        assert abs(new.mean()) < 4 * 0.02 / np.sqrt(n)
        se_sigma = 0.02 / np.sqrt(2 * n)
        assert abs(new.std() - 0.02) < 4 * se_sigma
        ks = sps.kstest(new, "norm", args=(0.0, 0.02)).statistic
        assert ks < KS_C_01 / np.sqrt(n)

    def test_matched_policy_distribution(self):
        rng = np.random.default_rng(11)
        trained = emb.EmbeddingTable(rng.normal(0.03, 0.31, size=(400, 64)))
        src = emb.dist_stats(trained)
        out = emb.expand(trained, 200, emb.matched_policy(src), rng_seed=13)
        new = out.matrix[400:].astype(np.float64).ravel()
        n = new.size
        assert n >= 10_000
        assert abs(new.mean() - src.mu) < 4 * src.sigma / np.sqrt(n)
        assert abs(new.std() - src.sigma) < 4 * src.sigma / np.sqrt(2 * n)
        ks = sps.kstest(new, "norm", args=(src.mu, src.sigma)).statistic
        assert ks < KS_C_01 / np.sqrt(n)

    def test_negative_rejected(self):
        t = emb.init_table(4, 4, emb.fixed_policy(), rng_seed=0)
        with pytest.raises(InvalidInputError):
            emb.expand(t, -1, emb.fixed_policy(), rng_seed=0)
        with pytest.raises(InvalidInputError):
            emb.expand(t, 1, emb.fixed_policy(0.0, -0.1), rng_seed=0)

    def test_seeded_determinism(self):
        t = emb.init_table(4, 4, emb.fixed_policy(), rng_seed=0)
        a = emb.expand(t, 10, emb.fixed_policy(), rng_seed=9)
        b = emb.expand(t, 10, emb.fixed_policy(), rng_seed=9)
        assert np.array_equal(a.matrix, b.matrix)


class TestAnchor:
    def test_anchor_frozen_under_mutation(self):
        t = emb.init_table(6, 4, emb.fixed_policy(), rng_seed=2)
        anchor = emb.snapshot_anchor(t)
        snap = anchor.matrix.copy()
        t.matrix += 1.0
        assert np.array_equal(anchor.matrix, snap)

    def test_anchor_write_blocked(self):
        t = emb.init_table(3, 3, emb.fixed_policy(), rng_seed=2)
        anchor = emb.snapshot_anchor(t)
        with pytest.raises(ValueError):
            anchor.matrix[0, 0] = 1.0

    def test_second_snapshot_rejected(self):
        t = emb.init_table(3, 3, emb.fixed_policy(), rng_seed=2)
        emb.snapshot_anchor(t)
        with pytest.raises(StateError):
            emb.snapshot_anchor(t)

    @pytest.mark.parametrize("n_new", [0, 4])
    def test_expanded_table_keeps_the_taken_anchor(self, n_new):
        t = emb.init_table(3, 3, emb.fixed_policy(), rng_seed=2)
        emb.snapshot_anchor(t)
        grown = emb.expand(t, n_new, emb.fixed_policy(), rng_seed=3)
        with pytest.raises(StateError):
            emb.snapshot_anchor(grown)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        t = emb.init_table(17, 9, emb.fixed_policy(), rng_seed=5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {"task": 0}, p)
        back = emb.load_checkpoint(p)
        assert np.array_equal(back.matrix, t.matrix)

    def test_corrupt_magic(self, tmp_path):
        t = emb.init_table(3, 3, emb.fixed_policy(), rng_seed=5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            emb.load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        t = emb.init_table(3, 3, emb.fixed_policy(), rng_seed=5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(CheckpointTruncatedError):
            emb.load_checkpoint(p)

    def test_row_mismatch(self, tmp_path):
        t = emb.init_table(3, 3, emb.fixed_policy(), rng_seed=5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        with pytest.raises(DimensionMismatchError):
            emb.load_checkpoint(p, expected_rows=5)

    def test_unsupported_version(self, tmp_path):
        t = emb.init_table(2, 2, emb.fixed_policy(), rng_seed=5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        raw = bytearray(p.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            emb.load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        t = emb.init_table(3, 3, emb.fixed_policy(), rng_seed=5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        with open(p, "ab") as f:
            f.write(b"\0")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            emb.load_checkpoint(p)

    def test_vocab_hash_checked_when_given(self, tmp_path):
        t = emb.init_table(3, 3, emb.fixed_policy(), rng_seed=5)
        ours, theirs = emb.vocab_hash([b"a", b"b"]), emb.vocab_hash([b"a", b"c"])
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {"vocab_hash": ours}, p)
        assert np.array_equal(
            emb.load_checkpoint(p, expected_vocab_hash=ours).matrix, t.matrix)
        emb.load_checkpoint(p)  # no expectation, no check
        with pytest.raises(VocabMismatchError):
            emb.load_checkpoint(p, expected_vocab_hash=theirs)
        os.remove(str(p) + ".json")
        with pytest.raises(VocabMismatchError):
            emb.load_checkpoint(p, expected_vocab_hash=ours)

    @pytest.mark.parametrize("target", [".bin", ".json"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, target):
        """A write that dies half way (disk full, a crash) must leave the
        previous checkpoint and sidecar whole, and no temp file behind."""
        p = tmp_path / "ckpt.bin"
        old = emb.init_table(6, 4, emb.fixed_policy(), rng_seed=1)
        emb.save_checkpoint(old, {"vocab_hash": "old"}, p)
        before = {n: (tmp_path / n).read_bytes() for n in os.listdir(tmp_path)}

        class HalfWriter:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(bytes(data)[: len(data) // 2])
                raise OSError("no space left on device")

        real_open = open

        def failing_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            if "w" in mode and (".json" in str(path)) == (target == ".json"):
                return HalfWriter(f)
            return f

        monkeypatch.setattr(emb, "open", failing_open, raising=False)
        new = emb.init_table(9, 4, emb.fixed_policy(), rng_seed=2)
        with pytest.raises(OSError):
            emb.save_checkpoint(new, {"vocab_hash": "new"}, p)
        monkeypatch.undo()
        after = {n: (tmp_path / n).read_bytes() for n in os.listdir(tmp_path)}
        if target == ".bin":
            assert after == before
        else:  # the matrix went in whole; only the sidecar write failed
            assert after[p.name + ".json"] == before[p.name + ".json"]
            assert set(after) == set(before)
