"""Union-vocabulary tests: merge semantics, counts, λ coefficients."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from lexcl import bpe, vocab


def _tv(corpus, task_index, size=280):
    return bpe.train_bpe(corpus, size, task_index)


def _reference_ids(state, text, t) -> list[int]:
    """Global ids of one text under task vocab t, by the reference
    encoder and the token strings."""
    tv = state.task_vocabs[t]
    return [state.id_of[tv.tokens[i]] for i in oracles.encode_reference(text, tv)]


def _rows(ids, lengths) -> list[list[int]]:
    """The id list of each text of `tokenize`'s (ids, lengths)."""
    return [r.tolist() for r in np.split(ids, np.cumsum(lengths)[:-1])]


def _partition(state, before, task_vocab):
    """(old, overlap, new) ids of a merge, from the token sets alone: ids
    that existed before it, split by whether the task vocab holds them,
    and the ids it added."""
    prev = set(range(before))
    task = {state.id_of[tok] for tok in task_vocab.tokens}
    return prev - task, prev & task, task - prev


def _merge(state, task_vocab):
    """merge_vocab, plus the counts before it and its partition."""
    counts_before = state.counts
    new, lam = vocab.merge_vocab(state, task_vocab)
    return new, lam, counts_before, _partition(new, state.size, task_vocab)


def _setup_two_tasks(c0, c1):
    st_ = vocab.new_state()
    tv0 = _tv(c0, 0)
    st_, _ = vocab.merge_vocab(st_, tv0)
    tv1 = _tv(c1, 1)
    st_, lam1, counts0, part1 = _merge(st_, tv1)
    return st_, tv0, tv1, lam1, counts0, part1


class TestMerge:
    def test_first_merge_partition(self):
        st_ = vocab.new_state()
        tv0 = _tv(["hello hello world world"], 0)
        st_, lam, _, (old, overlap, new) = _merge(st_, tv0)
        # the whole base-byte alphabet plus learned merges are new-or-overlap
        assert old == set()
        assert overlap == set(range(256))
        assert new == set(range(256, st_.size))
        # every byte is seen for the first time, so every λ is 1
        assert (lam == 1.0).all() and len(lam) == st_.size

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
        st_, lam, _, (old, overlap, new) = _merge(st_, tv0)
        assert new == set()
        assert old == set()
        assert len(overlap) == st_.size
        assert (lam == 0.5).all()

    def test_disjoint_alphabets_overlap_is_bytes(self):
        st_ = vocab.new_state()
        st_, _ = vocab.merge_vocab(st_, _tv(["abc abc abd abd"], 0))
        st_, lam, _, (_, overlap, _) = _merge(st_, _tv(["xyz xyz xyw xyw"], 1))
        assert overlap == set(range(256))
        assert (lam[:256] == 0.5).all()

    def test_merge_leaves_the_input_state_alone(self):
        st0 = vocab.new_state()
        tv = _tv(["some words some words"], 0)
        st1, _ = vocab.merge_vocab(st0, tv)
        counts1 = st1.counts.copy()
        st2, _ = vocab.merge_vocab(st1, tv)
        assert (st0.counts == 0).all() and st0.size == 256
        assert (st1.counts == counts1).all()
        assert st1.task_vocabs == [tv] and len(st2.task_vocabs) == 2

    def test_global_ids_match_token_strings(self):
        st_, tv0, tv1, _, _, _ = _setup_two_tasks(
            ["shared words shared words"], ["shared tokens shared tokens"])
        for t, tv in enumerate((tv0, tv1)):
            assert st_.task_ids[t].tolist() == \
                [st_.id_of[tok] for tok in tv.tokens]
        ids, lengths = st_.tokenize([b"shared tokens"], 1)
        assert lengths.tolist() == [len(ids)]
        assert b"".join(st_.tokens[i] for i in ids) == b"shared tokens"


class TestTokenize:
    def test_rows_equal_global_ids(self):
        st_, _, _, _, _, _ = _setup_two_tasks(
            ["shared words shared words"], ["shared tokens shared tokens"])
        texts = ["shared tokens", "", "words", "shared tokens"]
        for t in (0, 1):
            ids, lengths = st_.tokenize(texts, t)
            assert ids.dtype == lengths.dtype == np.int64
            assert _rows(ids, lengths) == \
                [_reference_ids(st_, x, t) for x in texts]

    def test_empty_list(self):
        st_, _ = vocab.merge_vocab(vocab.new_state(), _tv(["aa bb"], 0))
        ids, lengths = st_.tokenize([], 0)
        assert len(ids) == 0 and len(lengths) == 0

    def test_piece_cache_merges_each_piece_once(self, monkeypatch):
        """Two calls under one vocab merge each new piece once, in the
        task vocab's piece cache; its training seeded the words it saw."""
        st_, _, _, _, _, _ = _setup_two_tasks(["aa bb aa bb"], ["cc dd cc dd"])
        calls = []
        real = bpe._merge_pieces
        monkeypatch.setattr(bpe, "_merge_pieces",
                            lambda pieces, tv: calls.append(sorted(pieces))
                            or real(pieces, tv))
        texts = ["xy", "aa xy", "zz", "xy aa", "bb zz xy"]
        a = _rows(*st_.tokenize(texts[:3], 0))
        b = _rows(*st_.tokenize(texts[3:], 0))
        assert calls == [[b"xy", b"zz"], []]
        assert a + b == [_reference_ids(st_, x, 0) for x in texts]


_TEXT_FRAGMENTS = [" ", "  ", "\t", "\n", "aaaa", "abab", "é", "世界", "αβ"]
texts_strategy = st.lists(
    st.lists(st.one_of(st.sampled_from(_TEXT_FRAGMENTS),
                       st.text(alphabet="abcdαβ \t", max_size=6)),
             max_size=6).map("".join),
    min_size=1, max_size=12)


class TestTokenizeCalls:
    @given(corpus=st.lists(st.text(alphabet="abcd αβ", min_size=1,
                                   max_size=16), min_size=1, max_size=6),
           texts=texts_strategy, cuts=st.lists(st.integers(0, 12)),
           warm=st.lists(st.integers(0, 11), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_ids_do_not_depend_on_the_calls_or_the_cache(self, corpus, texts,
                                                         cuts, warm):
        """The same texts give the same ids in one call, cut into several
        calls, or after some of them were tokenised, from a cold cache or
        one that training seeded."""
        seeded = _tv(corpus, 0)
        local = [oracles.encode_passes(x.encode(), seeded) for x in texts]
        for tv in (seeded, bpe.TaskVocab(seeded.tokens, seeded.rules)):
            st_, _ = vocab.merge_vocab(vocab.new_state(), tv)
            want = [st_.task_ids[0][ids].tolist() for ids in local]
            st_.tokenize([texts[k] for k in warm if k < len(texts)], 0)
            bounds = sorted({0, len(texts), *(c for c in cuts
                                               if c < len(texts))})
            rows = [row for a, b in zip(bounds, bounds[1:])
                    for row in _rows(*st_.tokenize(texts[a:b], 0))]
            assert rows == want
            assert _rows(*st_.tokenize(texts, 0)) == rows


class TestCountsAndLambda:
    def test_fresh_token_count_one(self):
        st_ = vocab.new_state()
        tv0 = _tv(["new new token token"], 0)
        st_, _ = vocab.merge_vocab(st_, tv0)
        assert st_.counts.min() == 1 and st_.counts.max() == 1
        assert len(st_.counts) == st_.size

    def test_token_in_two_tasks_counts_two(self):
        st_ = vocab.new_state()
        tv = _tv(["stable stable vocab vocab"], 0)
        st_, _ = vocab.merge_vocab(st_, tv)
        st_, _ = vocab.merge_vocab(st_, tv)
        assert (st_.counts == 2).all()

    def test_absent_token_count_unchanged(self):
        st_, tv0, tv1, _, counts0, _ = _setup_two_tasks(
            ["abc abc abd abd"], ["xyz xyz xyw xyw"])
        merged0 = [st_.id_of[t] for t in tv0.tokens if t not in tv1.id_of]
        assert merged0
        assert (st_.counts[merged0] == counts0[merged0]).all()

    def test_lambda_values(self):
        st_, tv0, tv1, lam, counts, (old, overlap, new) = _setup_two_tasks(
            ["abc abc abd abd"], ["xyz xyz abc abc"])
        assert old and overlap and new
        for j in old:
            assert lam[j] == 0.0
        for j in overlap:
            assert lam[j] == 1.0 / (counts[j] + 1.0)
        for j in new:
            assert lam[j] == 1.0

    def test_lambda_overlap_exact_fractions(self):
        # c=1 -> 0.5; c=3 -> 0.25; a new token -> 1
        st_ = vocab.new_state()
        st_ = dataclasses.replace(st_, counts=np.array(
            [1, 3] + [0] * (st_.size - 2), dtype=np.int64))
        tv = _tv(["ab ab ab"], 0, 257)
        st_, lam = vocab.merge_vocab(st_, tv)
        assert st_.size == 257
        assert lam[0] == 0.5 and lam[1] == 0.25 and lam[256] == 1.0
        assert st_.counts[0] == 2 and st_.counts[1] == 4

    def test_duplicate_entries_bump_once_each(self):
        """The counts go up once per task-vocab entry; λ reads the count
        from before the merge."""
        tv = _tv(["ab ab ab"], 0, 257)
        dup = dataclasses.replace(tv, tokens=tv.tokens + [tv.tokens[256]])
        st_, lam = vocab.merge_vocab(vocab.new_state(), dup)
        assert st_.size == 257
        assert st_.counts[256] == 2 and lam[256] == 1.0


@given(seed=st.integers(0, 10_000), n_tasks=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_lambda_purity_property(seed, n_tasks):
    """Across random task sequences: λ is 0/1/(c+1)^-1 exactly by partition,
    and the counts go up by one on the task's ids only."""
    rng = np.random.default_rng(seed)
    words = ["w%d" % i for i in range(12)]
    st_ = vocab.new_state()
    for t in range(n_tasks):
        picks = rng.choice(words, size=6, replace=False)
        corpus = [" ".join(picks)] * 3
        tv = _tv(corpus, t, 270)
        before = st_.size
        st_, lam, counts, (old, overlap, new) = _merge(st_, tv)
        assert len(lam) == len(st_.counts) == st_.size
        assert set(np.unique(lam[list(old)])) <= {0.0}
        for j in overlap:
            assert lam[j] == 1.0 / (counts[j] + 1.0)
        for j in new:
            assert lam[j] == 1.0
        assert (st_.counts[:before] - counts
                == [j in overlap for j in range(before)]).all()
        assert (st_.counts[before:] == 1).all()
