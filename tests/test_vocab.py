"""Union-vocabulary tests: merge semantics, partition, counts, λ coefficients."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexcl import bpe, vocab
from lexcl.errors import InvalidInputError


def _tv(corpus, task_index, size=280):
    return bpe.train_bpe(corpus, size, task_index)


def _setup_two_tasks(c0, c1):
    st_ = vocab.new_state()
    tv0 = _tv(c0, 0)
    st_, p0 = vocab.merge_vocab(st_, tv0)
    counts = vocab.update_counts(np.zeros(0, dtype=np.int64), tv0, st_)
    tv1 = _tv(c1, 1)
    st_, p1 = vocab.merge_vocab(st_, tv1)
    counts = np.concatenate([counts, np.zeros(st_.size - len(counts), dtype=np.int64)])
    return st_, tv0, tv1, p1, counts


class TestMerge:
    def test_first_merge_partition(self):
        st_ = vocab.new_state()
        tv0 = _tv(["hello hello world world"], 0)
        st_, part = vocab.merge_vocab(st_, tv0)
        # the whole base-byte alphabet plus learned merges are new-or-overlap
        assert part.old == frozenset()
        assert part.overlap == frozenset(range(256))
        assert part.new == frozenset(range(256, st_.size))

    def test_ids_append_only(self):
        st_ = vocab.new_state()
        st_, _ = vocab.merge_vocab(st_, _tv(["alpha beta alpha beta"], 0))
        before = list(st_.tokens)
        st_, _ = vocab.merge_vocab(st_, _tv(["gamma delta gamma delta"], 1))
        assert st_.tokens[: len(before)] == before

    def test_identical_vocab_all_overlap(self):
        st_ = vocab.new_state()
        tv0 = _tv(["repeat repeat again again"], 0)
        st_, _ = vocab.merge_vocab(st_, tv0)
        st_, part = vocab.merge_vocab(st_, tv0)
        assert part.new == frozenset()
        assert part.old == frozenset()
        assert len(part.overlap) == st_.size

    def test_disjoint_alphabets_overlap_is_bytes(self):
        st_ = vocab.new_state()
        st_, _ = vocab.merge_vocab(st_, _tv(["abc abc abd abd"], 0))
        st_, part = vocab.merge_vocab(st_, _tv(["xyz xyz xyw xyw"], 1))
        assert part.overlap == frozenset(range(256))

    def test_global_ids_match_token_strings(self):
        st_, tv0, tv1, _, _ = _setup_two_tasks(
            ["shared words shared words"], ["shared tokens shared tokens"])
        ids = st_.global_ids(b"shared tokens", 1)
        assert b"".join(st_.tokens[i] for i in ids) == b"shared tokens"


class TestTokenize:
    def test_rows_equal_global_ids(self):
        st_, _, _, _, _ = _setup_two_tasks(
            ["shared words shared words"], ["shared tokens shared tokens"])
        texts = ["shared tokens", "", "words", "shared tokens"]
        for t in (0, 1):
            arr = st_.tokenize(texts, t)
            assert len(arr) == len(texts)
            assert [arr.row(k) for k in range(len(arr))] == \
                [st_.global_ids(x, t) for x in texts]

    def test_empty_list(self):
        st_ = vocab.new_state()
        arr = st_.tokenize([], 0)
        assert len(arr) == 0 and len(arr.ids) == 0

    def test_concat_keeps_every_row_in_order(self):
        parts = [vocab.TokenArrays.from_rows(rows)
                 for rows in ([[1, 2], [3]], [], [[4], [5, 6, 7]])]
        whole = vocab.TokenArrays.concat(parts)
        assert [whole.row(k) for k in range(len(whole))] == \
            [[1, 2], [3], [4], [5, 6, 7]]
        assert whole.offsets.dtype == np.int64

    def test_memo_encodes_each_text_once(self, monkeypatch):
        st_, _, _, _, _ = _setup_two_tasks(["aa bb aa bb"], ["cc dd cc dd"])
        calls = []
        real = st_.global_ids
        monkeypatch.setattr(st_, "global_ids",
                            lambda text, t: calls.append(text) or real(text, t))
        memo = {}
        a = st_.tokenize(["aa", "bb", "aa"], 0, memo)
        b = st_.tokenize(["bb", "aa bb"], 0, memo)
        assert sorted(calls) == ["aa", "aa bb", "bb"]
        assert a.row(0) == a.row(2) == st_.global_ids("aa", 0)
        assert b.row(0) == a.row(1)


class TestCountsAndLambda:
    def test_fresh_token_count_one(self):
        st_ = vocab.new_state()
        tv0 = _tv(["new new token token"], 0)
        st_, _ = vocab.merge_vocab(st_, tv0)
        counts = vocab.update_counts(np.zeros(0, dtype=np.int64), tv0, st_)
        assert counts.min() == 1 and counts.max() == 1

    def test_token_in_two_tasks_counts_two(self):
        st_ = vocab.new_state()
        tv = _tv(["stable stable vocab vocab"], 0)
        st_, _ = vocab.merge_vocab(st_, tv)
        counts = vocab.update_counts(np.zeros(0, dtype=np.int64), tv, st_)
        st_, _ = vocab.merge_vocab(st_, tv)
        counts = vocab.update_counts(counts, tv, st_)
        assert (counts == 2).all()

    def test_absent_token_count_unchanged(self):
        st_, tv0, tv1, _, counts0 = _setup_two_tasks(
            ["abc abc abd abd"], ["xyz xyz xyw xyw"])
        counts1 = vocab.update_counts(counts0, tv1, st_)
        merged0 = [st_.id_of[t] for t in tv0.tokens if t not in tv1.id_of]
        assert (counts1[merged0] == counts0[merged0]).all()

    def test_lambda_values(self):
        st_, tv0, tv1, p1, counts = _setup_two_tasks(
            ["abc abc abd abd"], ["xyz xyz abc abc"])
        lam = vocab.lambda_for(p1, counts)
        for j in p1.old:
            assert lam[j] == 0.0
        for j in p1.overlap:
            assert lam[j] == 1.0 / (counts[j] + 1.0)
        for j in p1.new:
            assert lam[j] == 1.0

    def test_lambda_overlap_exact_fractions(self):
        # c=1 -> 0.5; c=3 -> 0.25
        part = vocab.Partition(old=frozenset(), overlap=frozenset([0, 1]),
                               new=frozenset([2]))
        counts = np.array([1, 3, 0], dtype=np.int64)
        lam = vocab.lambda_for(part, counts)
        assert lam[0] == 0.5 and lam[1] == 0.25 and lam[2] == 1.0

    def test_lambda_missing_counts(self):
        part = vocab.Partition(old=frozenset(), overlap=frozenset(),
                               new=frozenset([5]))
        with pytest.raises(InvalidInputError):
            vocab.lambda_for(part, np.zeros(3, dtype=np.int64))


@given(seed=st.integers(0, 10_000), n_tasks=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_lambda_purity_property(seed, n_tasks):
    """Across random task sequences: λ is 0/1/(c+1)^-1 exactly by partition."""
    rng = np.random.default_rng(seed)
    words = ["w%d" % i for i in range(12)]
    st_ = vocab.new_state()
    counts = np.zeros(0, dtype=np.int64)
    for t in range(n_tasks):
        picks = rng.choice(words, size=6, replace=False)
        corpus = [" ".join(picks)] * 3
        tv = _tv(corpus, t, 270)
        st_, part = vocab.merge_vocab(st_, tv)
        padded = np.zeros(st_.size, dtype=np.int64)
        padded[: len(counts)] = counts
        lam = vocab.lambda_for(part, padded)
        assert set(np.unique(lam[list(part.old)])) <= {0.0}
        for j in part.overlap:
            assert lam[j] == 1.0 / (padded[j] + 1.0)
        for j in part.new:
            assert lam[j] == 1.0
        counts = vocab.update_counts(counts, tv, st_)


class TestManifest:
    def test_round_trip(self, tmp_path):
        st_, tv0, tv1, p1, counts = _setup_two_tasks(
            ["abc abc"], ["abd abd"])
        man = vocab.RegistryManifest()
        man.add(0, 0, 257, vocab.Partition(frozenset(), frozenset(range(256)),
                                           frozenset([256])), counts)
        man.add(1, 257, st_.size, p1, counts)
        path = tmp_path / "registry.json"
        man.save(path)
        back = json.loads(path.read_text())
        assert [r["task_index"] for r in back] == [0, 1]
        assert back[1]["vocab_after"] == st_.size
