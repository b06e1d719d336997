"""Tokenizer tests: training greedy order, encode/decode round-trips, file formats."""

import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lexcl import bpe
from lexcl.errors import InvalidInputError


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
        bpe.encode(b"bananas", a)
        assert b"bananas" in a.segment_ids and b"bananas" not in b.segment_ids
        assert a == b
        assert "segment_ids" not in repr(a) and "ranks" not in repr(a)
        assert a.ranks == a.merge_ranks()


# Pieces of texts that exercise the space split: single, leading,
# trailing and doubled spaces, the other ASCII whitespace bytes, U+0085
# and U+00A0 (which split nothing), and multibyte letters.
_FRAGMENTS = [" ", "  ", "\t", "\r", "\n", "\x0b", "\x0c", "\x85", "\xa0",
              "ab", "bad", "cafe", "αβ", "γ", "é", "世界"]
spaced_text_strategy = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS),
              st.text(alphabet="abcdefg αβγ\t", max_size=6)),
    max_size=12).map("".join)


def hand_vocab(rules) -> bpe.TaskVocab:
    """A vocab of the 256 bytes and one token per rule (left bytes, right
    bytes, (task, rank)), each rule's result the token it appends."""
    tokens = bpe._byte_tokens()
    out = []
    for left, right, (t, rank) in rules:
        ids = [tokens.index(tok) for tok in (left, right)]
        tokens.append(left + right)
        out.append(bpe.MergeRule(*ids, len(tokens) - 1, t, rank))
    return bpe.TaskVocab(tokens, out)


def round_trip(tv) -> bpe.TaskVocab:
    """`tv` written with save_vocab and save_merges and read back."""
    with tempfile.TemporaryDirectory() as d:
        vp, mp = os.path.join(d, "vocab.txt"), os.path.join(d, "merges.txt")
        bpe.save_vocab(tv.tokens, vp)
        bpe.save_merges(tv.rules, mp)
        return bpe.vocab_from_files(vp, mp)


@st.composite
def drawn_vocabs(draw, distinct_keys: bool = True) -> bpe.TaskVocab:
    """Vocabs no trainer writes: each rule joins two tokens of "abc" or of
    earlier rules, so results repeat earlier tokens' bytes and byte pairs
    repeat, and the rules' (task, rank) are in any order: distinct, or
    with `distinct_keys` False drawn from so few that they repeat."""
    n = draw(st.integers(0, 14))
    keys = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 30))
                         if distinct_keys else
                         st.tuples(st.integers(0, 1), st.integers(0, 3)),
                         min_size=n, max_size=n, unique=distinct_keys))
    tokens = [b"a", b"b", b"c"]
    rules = []
    for key in keys:
        left, right = draw(st.sampled_from(tokens)), draw(st.sampled_from(tokens))
        tokens.append(left + right)
        rules.append((left, right, key))
    return hand_vocab(rules)


abc_text = st.text(alphabet="abc \t", max_size=24)

# The first rule's result has the bytes of the fourth's, and (a, b) is
# named twice, the later rule winning; neither rebuilds bytes that an
# earlier rule reads, so all three encoders agree.
_DUPLICATES = {
    "duplicate-bytes": [(b"a", b"b", (0, 0)), (b"b", b"c", (0, 1)),
                        (b"ab", b"c", (0, 2)), (b"a", b"bc", (0, 3))],
    "pair-named-twice": [(b"a", b"b", (0, 0)), (b"c", b"c", (0, 1)),
                         (b"a", b"b", (1, 0)), (b"ab", b"cc", (1, 1))],
}


class TestColdMerge:
    """The id-pair merge against the pass loop on bytes
    (`oracles.encode_passes`) and rule-by-rule merging
    (`oracles.encode_reference`), on cold piece caches."""

    @given(corpus=corpus_strategy, size=st.integers(257, 330),
           text=spaced_text_strategy)
    @settings(max_examples=80, deadline=None)
    def test_trained_vocabs_match_both_oracles(self, corpus, size, text):
        seeded = bpe.train_bpe(corpus, size)
        cold = bpe.TaskVocab(seeded.tokens, seeded.rules)
        data = text.encode("utf-8")
        want = oracles.encode_passes(data, seeded)
        assert want == oracles.encode_reference(data, seeded)
        assert bpe.encode(data, cold) == want
        assert bpe.encode(data, seeded) == want

    @given(corpus=corpus_strategy, size=st.integers(257, 330),
           task_index=st.integers(0, 4), text=spaced_text_strategy)
    @settings(max_examples=40, deadline=None)
    def test_round_tripped_vocabs_match_both_oracles(self, corpus, size,
                                                     task_index, text):
        tv = bpe.train_bpe(corpus, size, task_index)
        back = round_trip(tv)
        assert (back.tokens, back.rules) == (tv.tokens, tv.rules)
        assert back.ranks == tv.ranks
        data = text.encode("utf-8")
        want = oracles.encode_passes(data, tv)
        assert want == oracles.encode_reference(data, tv)
        assert bpe.encode(data, back) == bpe.encode(data, tv) == want

    @pytest.mark.parametrize("name", sorted(_DUPLICATES))
    @given(text=abc_text)
    @settings(max_examples=60, deadline=None)
    def test_hand_built_duplicates_match_both_oracles(self, name, text):
        tv = hand_vocab(_DUPLICATES[name])
        data = text.encode("utf-8")
        want = oracles.encode_passes(data, tv)
        assert want == oracles.encode_reference(data, tv)
        assert bpe.encode(data, tv) == want
        assert bpe.encode(data, round_trip(tv)) == want

    def test_duplicates_keep_canonical_ids(self):
        dup = hand_vocab(_DUPLICATES["duplicate-bytes"])
        # "abc" is ids 258 and 259; id_of, and so the encoder, gives 259
        assert dup.tokens[258] == dup.tokens[259] == b"abc"
        assert bpe.encode(b"abc abc", dup) == [259, 32, 259]
        twice = hand_vocab(_DUPLICATES["pair-named-twice"])
        # the later (a, b) rule sets the pair's priority and result
        assert twice.ranks[97, 98] == (2, 258)
        assert bpe.encode(b"abcc", twice) == [259]

    @given(tv=drawn_vocabs(), text=abc_text)
    # a rule reading "ab" ranks before the rule that builds it: every "ab"
    # of a pass is built before (ab, a) is looked for
    @example(tv=hand_vocab([(b"a", b"b", (0, 1)), (b"ab", b"a", (0, 0))]),
             text="abab")
    @settings(max_examples=200, deadline=None)
    def test_drawn_vocabs_match_the_pass_loop(self, tv, text):
        data = text.encode("utf-8")
        want = oracles.encode_passes(data, tv)
        assert bpe.encode(data, tv) == want
        assert bpe.encode(data, round_trip(tv)) == want

    def test_rebuilt_bytes_follow_the_pass_loop(self):
        """Rule (ab, c) comes before the rule (a, b) that builds "ab": the
        pass loop merges "abc" whole, while rules taken one by one meet
        (ab, c) before "ab" exists."""
        tv = hand_vocab([(b"a", b"b", (0, 1)), (b"ab", b"c", (0, 0))])
        assert oracles.encode_passes(b"abc", tv) == [257]
        assert oracles.encode_reference(b"abc", tv) == [256, 99]
        assert bpe.encode(b"abc", tv) == [257]

    def test_equal_task_rank_merges_leftmost_first(self):
        """Two rules of one (task, rank), which `train_bpe` never writes,
        are read from files and merged as the pass loop does: the leftmost
        pair of that priority first, not the rule listed first."""
        tv = hand_vocab([(b"b", b"c", (0, 0)), (b"a", b"b", (0, 0))])
        back = round_trip(tv)
        assert back.ranks == tv.ranks == {(98, 99): (0, 256),
                                          (97, 98): (0, 257)}
        for data, want in [(b"abc", [257, 99]), (b"bcab", [256, 257]),
                           (b"cabbc", [99, 257, 256])]:
            assert bpe.encode(data, back) == want
            assert oracles.encode_passes(data, tv) == want
        assert oracles.encode_reference(b"abc", tv) == [97, 256]


# Space-free pieces: runs of one letter, runs of the other whitespace
# bytes, multibyte letters, and the empty piece.
_PIECE_FRAGMENTS = ["aaaa", "aaa", "bbb", "abab", "\t", "\t\n", "\r\x0b\x0c",
                    "é", "世界", "αβγ", "\x85", "\xa0"]
piece_strategy = st.lists(
    st.one_of(st.sampled_from(_PIECE_FRAGMENTS),
              st.text(alphabet="abcdefgαβγ\t\n", max_size=6)),
    max_size=8).map(lambda parts: "".join(parts).encode("utf-8"))
abc_piece = st.text(alphabet="abc\t\n", max_size=16).map(str.encode)


def merged_piece_by_piece(pieces, tv) -> list[list[int]]:
    """The ids of each piece by both scalar pass loops, which must agree."""
    want = [oracles.encode_passes(p, tv) for p in pieces]
    assert want == [oracles.encode_ids_passes(p, tv) for p in pieces]
    return want


class TestArrayMerge:
    """`_merge_pieces` merges many pieces in one call, each as the scalar
    pass loops merge it alone."""

    @given(corpus=corpus_strategy, size=st.integers(257, 330),
           task_index=st.integers(0, 4),
           pieces=st.lists(piece_strategy, max_size=24, unique=True))
    @example(corpus=["aaaa aaaa aaaa"], size=300, task_index=0,
             pieces=[b"aaaaaaa", b"", b"a\taa\t\taaa", b"aa"])
    @settings(max_examples=80, deadline=None)
    def test_trained_and_round_tripped_vocabs(self, corpus, size, task_index,
                                              pieces):
        tv = bpe.train_bpe(corpus, size, task_index)
        want = merged_piece_by_piece(pieces, tv)
        assert bpe._merge_pieces(pieces, tv) == want
        assert bpe._merge_pieces(pieces, round_trip(tv)) == want

    @pytest.mark.parametrize("distinct_keys", [True, False],
                             ids=["distinct-keys", "repeated-keys"])
    @given(data=st.data(),
           pieces=st.lists(abc_piece, max_size=24, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_drawn_vocabs(self, distinct_keys, data, pieces):
        tv = data.draw(drawn_vocabs(distinct_keys))
        want = merged_piece_by_piece(pieces, tv)
        assert bpe._merge_pieces(pieces, tv) == want
        assert bpe._merge_pieces(pieces, round_trip(tv)) == want

    def test_runs_of_one_pair_merge_every_other_site(self):
        """In a run of (a, a) pairs the first site merges, then every
        other one, in each segment apart; a pair of equal priority but
        other ids waits for a later pass."""
        tv = hand_vocab([(b"a", b"a", (0, 0)), (b"b", b"c", (0, 0)),
                         (b"c", b"b", (0, 0))])
        pieces = [b"aaaaa", b"aaa\taaaa", b"bcbcb", b"cbcb", b""]
        assert bpe._merge_pieces(pieces, tv) == [
            [256, 256, 97], [256, 97, 9, 256, 256], [257, 257, 98],
            [258, 258], []]
        assert bpe._merge_pieces(pieces, tv) == merged_piece_by_piece(
            pieces, tv)

    def test_whitespace_is_never_merged(self):
        """A rule that names a whitespace byte, which a vocab file can
        hold, never fires: those bytes are emitted one by one."""
        tv = hand_vocab([(b"\t", b"\t", (0, 0)), (b"a", b"\t", (0, 1)),
                         (b"a", b"b", (0, 2))])
        pieces = [b"\t\t", b"a\tab", b"\r\n"]
        assert bpe._merge_pieces(pieces, tv) == [[9, 9], [97, 9, 258],
                                                  [13, 10]]
        assert bpe._merge_pieces(pieces, tv) == merged_piece_by_piece(
            pieces, tv)

    def test_no_pieces(self):
        tv = bpe.train_bpe(["ab ab"], 260)
        assert bpe._merge_pieces([], tv) == []
        assert bpe._merge_pieces([b""], tv) == [[]]


class TestSegmentCache:
    """The trainer seeds `segment_ids` with its words; `encode` splits on
    single spaces and caches each piece."""

    @given(corpus=corpus_strategy, text=spaced_text_strategy)
    @example(corpus=["ab ab"], text=" ab  ab\t\x0bab \r")
    @example(corpus=["αβ αβ"], text="\x85αβ\xa0 αβ ")
    @settings(max_examples=100, deadline=None)
    def test_cold_and_seeded_caches_match_reference(self, corpus, text):
        seeded = bpe.train_bpe(corpus, 300)
        cold = bpe.TaskVocab(seeded.tokens, seeded.rules)
        assert not cold.segment_ids
        data = text.encode("utf-8")
        want = oracles.encode_reference(data, seeded)
        for tv in (seeded, cold):
            assert bpe.encode(data, tv) == want
            assert bpe.encode(data, tv) == want  # from the cache
            for piece, ids in tv.segment_ids.items():
                assert ids == oracles.encode_reference(piece, tv)

    @given(corpus=corpus_strategy)
    @settings(max_examples=60, deadline=None)
    def test_every_trained_word_is_seeded(self, corpus):
        tv = bpe.train_bpe(corpus, 300)
        words = {w.encode("utf-8") for line in corpus for w in line.split()}
        assert set(tv.segment_ids) == words
        for word, ids in tv.segment_ids.items():
            assert ids == oracles.encode_reference(word, tv)

    def test_training_captions_need_no_merging(self, monkeypatch):
        """Every word of the training captions is in the seeded cache, so
        the merge meets no word: only the empty piece between two spaces,
        which has no ids."""
        corpus = ["the cat sat on the mat", "le chat  est assis "] * 3
        tv = bpe.train_bpe(corpus, 290)
        merged = []
        real = bpe._merge_pieces
        monkeypatch.setattr(bpe, "_merge_pieces",
                            lambda pieces, v: merged.extend(pieces)
                            or real(pieces, v))
        for line in corpus:
            bpe.encode(line.encode("utf-8"), tv)
        bpe.encode_texts(corpus, tv)
        assert merged == [b""]


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
        with pytest.raises(InvalidInputError, match="unknown token id 512"):
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

    @pytest.mark.parametrize("sep", [b" ", b"\t", b"\n", b"\r", b"\x0b",
                                     b"\x0c", b"\x1c", b"\xc2\x85", b"\xc2\xa0"])
    def test_separators_match_reference(self, sep):
        """The six ASCII bytes of bytes.isspace split segments; 0x1c, U+0085
        and U+00A0, which str.isspace also accepts, stay inside them, and
        so do the bytes 0x85 and 0xa0 of "Å" and "à", which merges hold."""
        corpus = ["the cat sat on the mat", "voilà Åsa voilà Åsa"] * 3
        tv = bpe.train_bpe(corpus, 290)
        assert {"voilà".encode(), "Åsa".encode()} <= set(tv.tokens)
        for data in (b"the" + sep + b"cat", sep + "Åsa".encode() + sep,
                     sep * 3 + "voilà".encode() + sep * 2 + b"mat" + sep
                     + "Åsa".encode() + sep * 2):
            ids = bpe.encode(data, tv)
            assert ids == oracles.encode_reference(data, tv)
            assert bpe.decode(ids, tv) == data

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

    @given(corpus=corpus_strategy, size=st.integers(257, 330),
           task_index=st.integers(0, 4),
           extra=st.lists(st.binary(max_size=6), max_size=8))
    @example(corpus=["ab ab"], size=260, task_index=0,
             extra=[b"", b'"\n"', b"\\x41", b'"', b"\n", b"\xff"])
    @settings(max_examples=60, deadline=None)
    def test_one_pass_reads_what_the_line_reader_reads(self, corpus, size,
                                                       task_index, extra):
        """A vocab and merges file as `save_vocab` and `save_merges` write
        them, any bytes in the tokens, parse in one pass to what the line
        by line reader gives."""
        tv = bpe.train_bpe(corpus, size, task_index)
        tokens = tv.tokens + extra
        with tempfile.TemporaryDirectory() as d:
            vp, mp = os.path.join(d, "vocab.txt"), os.path.join(d, "merges.txt")
            bpe.save_vocab(tokens, vp)
            bpe.save_merges(tv.rules, mp)
            with open(vp, encoding="ascii") as f:
                vocab_text = f.read()
            with open(mp, encoding="ascii") as f:
                merges_text = f.read()
        lines = vocab_text.splitlines()
        assert [bpe.token_from_text(line) for line in lines] == tokens
        assert bpe._tokens_at_once(vocab_text) == tokens
        assert bpe._rules_at_once(merges_text, tokens) == tv.rules

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n\n", 3),
        lambda text: "  " + text.replace("\n", " \n", 5),
        lambda text: text.rstrip("\n"),
    ], ids=["crlf", "blank-lines", "spaces-around", "no-final-newline"])
    def test_hand_edited_files_read_line_by_line(self, tmp_path, edit):
        """Files that are not as the writers make them, but that the line
        by line reader takes, give the same vocab through it."""
        tv = bpe.train_bpe(["file format file format round trip"], 290,
                           task_index=2)
        vp, mp = tmp_path / "vocab.txt", tmp_path / "merges.txt"
        bpe.save_vocab(tv.tokens, vp)
        bpe.save_merges(tv.rules, mp)
        texts = [edit(path.read_bytes().decode("ascii")) for path in (vp, mp)]
        vp.write_bytes(texts[0].encode("ascii"))
        mp.write_bytes(texts[1].encode("ascii"))
        assert bpe._tokens_at_once(texts[0]) is None
        assert bpe._rules_at_once(texts[1], tv.tokens) is None
        back = bpe.vocab_from_files(vp, mp)
        assert (back.tokens, back.rules) == (tv.tokens, tv.rules)

    @pytest.mark.parametrize("tokens", [
        [b"a", b"b"],                                    # no byte base
        bpe._byte_tokens()[:97] + [b"b", b"a"] + bpe._byte_tokens()[99:],
        bpe._byte_tokens() + [b"ab", b"a"],              # a second "a"
    ], ids=["short", "swapped", "repeated"])
    def test_byte_ids_must_be_the_bytes(self, tmp_path, tokens):
        """The encoder starts from each byte's value as its id, so a vocab
        file whose ids 0-255 are not the bytes is refused, naming it."""
        vp, mp = tmp_path / "vocab.txt", tmp_path / "merges.txt"
        bpe.save_vocab(tokens, vp)
        bpe.save_merges([], mp)
        with pytest.raises(InvalidInputError,
                           match=f"^{vp}: ids 0-255 are not the 256"):
            bpe.vocab_from_files(vp, mp)
        with pytest.raises(InvalidInputError, match="^ids 0-255"):
            bpe.TaskVocab(tokens, [])

    def test_token_literals_of_every_byte(self):
        raw = bytes(range(256))
        assert bpe.token_from_text(bpe.token_to_text(raw)) == raw
        assert bpe.token_from_text('"\\x5C\\x22x"') == b'\\"x'

    def test_token_text_escaping(self):
        for raw in [b"plain", b"with space", b"\x00\xff", "né".encode("utf-8")]:
            assert bpe.token_from_text(bpe.token_to_text(raw)) == raw

    @pytest.mark.parametrize("literal", ['"ab\\"', '"\\x4"', '"\\y41"',
                                         '"\\x+f"', "ab"])
    def test_bad_token_literal_rejected(self, literal):
        with pytest.raises(InvalidInputError):
            bpe.token_from_text(literal)
