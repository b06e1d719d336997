"""Tokenizer tests: training greedy order, encode/decode round-trips, file formats."""

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lexcl import bpe
from lexcl.errors import InvalidIdError, InvalidInputError


def tok(tv, s):
    return tv.id_of[s.encode("utf-8") if isinstance(s, str) else s]


text_strategy = st.text(
    alphabet=st.characters(codec="utf-8"), min_size=0, max_size=40
)
corpus_strategy = st.lists(
    st.text(alphabet="abcdefg αβγ", min_size=1, max_size=20), min_size=1, max_size=8
)


class TestTrain:
    def test_most_frequent_pair_merged_first(self):
        tv = bpe.train_bpe(["aaab", "aaab"], 258)
        # ('a','a') occurs four times, more than any other pair
        assert tv.tokens[256] == b"aa"

    def test_no_repeated_pair_gives_no_merges(self):
        tv = bpe.train_bpe(["x"], 257)
        assert tv.size == 256
        assert tv.rules == []

    def test_merged_token_participates_in_later_merges(self):
        tv = bpe.train_bpe(["abab", "abab"], 259)
        assert tv.tokens[256] == b"ab"
        assert tv.tokens[257] == b"abab"

    def test_tie_break_lexicographic(self):
        # "xz" and "yz" both occur twice; (x,z) < (y,z)
        tv = bpe.train_bpe(["xz xz yz yz"], 258)
        assert tv.tokens[256] == b"xz"

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError):
            bpe.train_bpe([], 300)

    def test_target_size_below_base_rejected(self):
        with pytest.raises(InvalidInputError):
            bpe.train_bpe(["ab"], 256)

    def test_early_stop_caps_vocab(self):
        tv = bpe.train_bpe(["ab ab"], 400)
        # only ('a','b') repeats; after that merge no pair occurs twice
        assert tv.size == 257

    def test_deterministic(self):
        corpus = ["the quick brown fox", "the slow brown dog", "fox fox dog"]
        a = bpe.train_bpe(corpus, 300)
        b = bpe.train_bpe(corpus, 300)
        assert a.tokens == b.tokens
        assert a.rules == b.rules

    def test_rule_ranks_sequential(self):
        tv = bpe.train_bpe(["banana banana split split"], 280, task_index=3)
        assert [r.rank for r in tv.rules] == list(range(len(tv.rules)))
        assert all(r.task_index == 3 for r in tv.rules)


class TestIncrementalTrainer:
    """train_bpe against the full-recount oracle in tests/oracles.py."""

    @pytest.mark.parametrize("corpus, size", [
        (["aaaa"], 300),                  # overlapping occurrences
        (["abab", "abab"], 300),          # merged token merges again
        (["aaaa abab aaaa abab"], 300),
        (["ab cd ef gh"] * 2, 300),       # four-way tie every merge
        (["xz xz yz yz"], 258),           # tie broken by the left bytes
        (["ab ab"], 400),                 # early stop: no pair left twice
        (["x"], 300),                     # no pairs at all
    ])
    def test_matches_reference(self, corpus, size):
        a = bpe.train_bpe(corpus, size)
        b = oracles.train_bpe_reference(corpus, size)
        assert a.tokens == b.tokens
        assert a.rules == b.rules

    @given(corpus=st.lists(st.text(alphabet="ab ", min_size=1, max_size=24),
                           min_size=1, max_size=6),
           size=st.integers(min_value=257, max_value=290),
           task_index=st.integers(min_value=0, max_value=3))
    @example(corpus=["aaaa"], size=290, task_index=0)
    @example(corpus=["abab"], size=290, task_index=0)
    @example(corpus=["aaaaaaa aaa"], size=290, task_index=1)
    @example(corpus=["ab ba ab ba"], size=290, task_index=0)
    @settings(max_examples=150, deadline=None)
    def test_two_letter_corpora_match_reference(self, corpus, size,
                                                task_index):
        # Two letters and heavy repetition: long runs, overlapping pairs,
        # many count ties and early stops.
        a = bpe.train_bpe(corpus, size, task_index)
        b = oracles.train_bpe_reference(corpus, size, task_index)
        assert a.tokens == b.tokens
        assert a.rules == b.rules

    @given(corpus=corpus_strategy,
           size=st.integers(min_value=257, max_value=330))
    @settings(max_examples=100, deadline=None)
    def test_mixed_corpora_match_reference(self, corpus, size):
        a = bpe.train_bpe(corpus, size)
        b = oracles.train_bpe_reference(corpus, size)
        assert a.tokens == b.tokens
        assert a.rules == b.rules

    def test_early_stop_below_target(self):
        tv = bpe.train_bpe(["abc abc abd"], 400)
        assert tv.size < 400
        assert tv.rules == oracles.train_bpe_reference(["abc abc abd"], 400).rules


class TestRankTable:
    def test_built_once_per_vocab(self, monkeypatch):
        calls = []
        real = bpe.TaskVocab.merge_ranks

        def counting(self):
            calls.append(id(self))
            return real(self)

        monkeypatch.setattr(bpe.TaskVocab, "merge_ranks", counting)
        corpora = [["the cat sat on the mat"] * 3, ["le chat est assis"] * 3]
        vocabs = [bpe.train_bpe(c, 290, t) for t, c in enumerate(corpora)]
        for tv in vocabs:
            for _ in range(3):
                for line in corpora[0] + corpora[1]:
                    bpe.encode(line.encode("utf-8"), tv)
        assert sorted(calls) == sorted(id(tv) for tv in vocabs)

    def test_cached_state_outside_equality(self):
        a = bpe.train_bpe(["banana bandana"] * 2, 280)
        b = bpe.train_bpe(["banana bandana"] * 2, 280)
        bpe.encode(b"banana", a)
        assert a.segment_ids and not b.segment_ids
        assert a == b
        assert "segment_ids" not in repr(a) and "ranks" not in repr(a)
        assert a.ranks == a.merge_ranks()


class TestEncodeDecode:
    def test_empty_input(self):
        tv = bpe.train_bpe(["ab"], 257)
        assert bpe.encode(b"", tv) == []
        assert bpe.decode([], tv) == b""

    def test_single_merge_sequence(self):
        tv = bpe.train_bpe(["aaab", "aaab"], 257)
        ids = bpe.encode(b"aaab", tv)
        assert ids == [tok(tv, "aa"), tok(tv, "a"), tok(tv, "b")]

    def test_second_merge_applies(self):
        # with room for two merges, ('a','b') fires after 'aa'
        tv = bpe.train_bpe(["aaab", "aaab"], 258)
        assert tv.tokens[257] == b"ab"
        assert bpe.encode(b"aaab", tv) == [tok(tv, "aa"), tok(tv, "ab")]

    def test_bytes_only_scope_yields_byte_ids(self):
        tv = bpe.train_bpe(["q"], 257)
        data = "héllo 世界".encode("utf-8")
        assert bpe.encode(data, tv) == list(data)

    def test_decode_concatenates(self):
        tv = bpe.train_bpe(["aaab", "aaab"], 258)
        assert bpe.decode([tok(tv, "aa"), tok(tv, "b")], tv) == b"aab"

    def test_decode_unknown_id(self):
        tv = bpe.train_bpe(["ab"], 257)
        with pytest.raises(InvalidIdError, match="512"):
            bpe.decode([512], tv)

    def test_multibyte_round_trip(self):
        corpus = ["καλημέρα κόσμε", "мир труд май", "héllo 世界 héllo"]
        tv = bpe.train_bpe(corpus, 300)
        for line in corpus + ["mixed καλη мир 世"]:
            data = line.encode("utf-8")
            assert bpe.decode(bpe.encode(data, tv), tv) == data

    def test_matches_reference_implementation(self):
        corpus = ["the cat sat on the mat", "the bat sat on the hat"] * 3
        tv = bpe.train_bpe(corpus, 290)
        for text in corpus + ["that cat", "", "zzz the"]:
            data = text.encode("utf-8")
            assert bpe.encode(data, tv) == oracles.encode_reference(data, tv)

    def test_ids_in_range(self):
        tv = bpe.train_bpe(["roundtrip roundtrip trip trip"], 280)
        ids = bpe.encode(b"roundtrip tripwire", tv)
        assert all(0 <= i < tv.size for i in ids)


class TestProperties:
    @given(corpus=corpus_strategy, text=text_strategy)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, corpus, text):
        tv = bpe.train_bpe(corpus, 290)
        data = text.encode("utf-8")
        assert bpe.decode(bpe.encode(data, tv), tv) == data

    @given(corpus=corpus_strategy, text=text_strategy)
    @settings(max_examples=40, deadline=None)
    def test_fast_encode_equals_reference(self, corpus, text):
        tv = bpe.train_bpe(corpus, 290)
        data = text.encode("utf-8")
        assert bpe.encode(data, tv) == oracles.encode_reference(data, tv)

    @given(corpus=corpus_strategy, text=text_strategy)
    @settings(max_examples=40, deadline=None)
    def test_monotone_coverage(self, corpus, text):
        small = bpe.train_bpe(corpus, 260)
        large = bpe.train_bpe(corpus, 320)
        data = text.encode("utf-8")
        assert len(bpe.encode(data, large)) <= len(bpe.encode(data, small))


class TestFiles:
    def test_vocab_and_merges_round_trip(self, tmp_path):
        tv = bpe.train_bpe(["file format file format round trip"], 290, task_index=2)
        vp, mp = tmp_path / "vocab.txt", tmp_path / "merges.txt"
        bpe.save_vocab(tv.tokens, vp)
        bpe.save_merges(tv.rules, mp)
        back = bpe.vocab_from_files(vp, mp)
        assert back.tokens == tv.tokens
        assert back.rules == tv.rules

    def test_token_text_escaping(self):
        for raw in [b"plain", b"with space", b"\x00\xff", "né".encode("utf-8")]:
            assert bpe.token_from_text(bpe.token_to_text(raw)) == raw
