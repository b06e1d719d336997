"""Metric tests: recall oracle, AR/F hand matrices and brute force, fusion,
Fisher trace finite differences, histograms, CSV fidelity."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lexcl import metrics as M
from lexcl.embeddings import snapshot_anchor
from lexcl.encoders import ROWS, encode_text, make_text_params, pooling
from lexcl.losses import FeatureBatch, LossConfig, total_loss, unit_rows
from lexcl.errors import (DegenerateFeatureError, InvalidInputError, MetricError)


def full_sort_recall(q, g, k):
    """Brute-force oracle: full stable sort of every similarity row; line
    i hits when item i is among its first k."""
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    gn = g / np.linalg.norm(g, axis=1, keepdims=True)
    hits = 0
    for qi in range(q.shape[0]):
        sims = [(-float(qn[qi] @ gn[gi]), gi) for gi in range(g.shape[0])]
        sims.sort()
        hits += qi in [gi for _, gi in sims[:k]]
    return 100.0 * hits / q.shape[0]


def text_case(seed, texts, d_out=4):
    """(pooling, table, params, encoded texts) of the id lists `texts`
    over a random 12-row table."""
    rng = np.random.default_rng(seed)
    rows, d = 12, 4
    table = rng.normal(size=(rows, d)).astype(np.float32)
    params = make_text_params(d, d_out, 8, seed=seed)
    pooled = pooling([i for ids in texts for i in ids],
                     [len(ids) for ids in texts], rows, params)
    return pooled, table, params, encode_text(pooled, table, params)


def paired_case(seed, n, dup_txt=0, dup_img=0, noise=0.3, d_out=4):
    """paired_recall's inputs for n random texts: (pooling, table, params,
    image features, encoded texts). Each image is its text's feature plus
    noise; dup_txt texts and dup_img images are then copies of another
    one, at a lower or a higher index."""
    rng = np.random.default_rng(seed)
    texts = [rng.integers(0, 12, size=int(rng.integers(1, 4))).tolist()
             for _ in range(n)]
    for i, j in rng.integers(0, n, size=(dup_txt, 2)):
        texts[j] = texts[i]
    pooled, table, params, txt = text_case(seed, texts, d_out)
    img = txt + noise * rng.normal(size=txt.shape)
    for i, j in rng.integers(0, n, size=(dup_img, 2)):
        img[j] = img[i]
    return pooled, table, params, img, txt


def assert_paired_matches_oracle(seed, n, ks, **kw):
    """Both directions equal the argsort oracle: img2txt ranks texts per
    image, txt2img images per text from the oracle's own txt @ img.T."""
    pooled, table, params, img, txt = paired_case(seed, n, **kw)
    got = M.paired_recall(pooled, table, params, img, ks=ks)
    ident = {i: {i} for i in range(n)}
    assert list(got) == ["img2txt", "txt2img"]
    for d, (q, g) in (("img2txt", (img, txt)), ("txt2img", (txt, img))):
        assert got[d] == {k: oracles.recall_at_k(q, g, ident, k) for k in ks}


# One-id texts over distinct rows: no two encode alike.
DISTINCT = [[0], [1], [2], [3], [4]]


class TestRecallAtK:
    """The Recall@K rules of `paired_recall`: line i of either direction
    ranks item i, equal scores go to the lower index, a feature's norm
    does not count, and a degenerate feature is refused."""

    def test_identity_gallery(self):
        pooled, table, params, txt = text_case(0, DISTINCT)
        assert M.paired_recall(pooled, table, params, txt, ks=(1, 5)) == \
            {d: {1: 100.0, 5: 100.0} for d in M.DIRECTIONS}

    def test_orthogonal_miss(self):
        """Image i is text i + 1's feature, so no line ranks its own item
        first."""
        pooled, table, params, txt = text_case(0, DISTINCT)
        img = np.roll(txt, -1, axis=0)
        assert M.paired_recall(pooled, table, params, img) == \
            {d: {1: 0.0} for d in M.DIRECTIONS}

    def test_matches_full_sort_oracle_100_instances(self):
        rng = np.random.default_rng(1)
        for seed in range(100):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            pooled, table, params, img, txt = paired_case(seed, n)
            got = M.paired_recall(pooled, table, params, img, ks=(k,))
            assert got == {"img2txt": {k: full_sort_recall(img, txt, k)},
                           "txt2img": {k: full_sort_recall(txt, img, k)}}

    def test_tie_break_lower_index(self):
        """Two equal texts and two equal images: every score ties, so
        line 0 ranks its item first and line 1 second, on the k = 1 path
        and on the counting path alike."""
        pooled, table, params, _ = text_case(0, [[3], [3]])
        img = np.ones((2, 4))
        for ks in ((1,), (1, 2)):
            assert M.paired_recall(pooled, table, params, img, ks=ks) == \
                {d: {k: {1: 50.0, 2: 100.0}[k] for k in ks} for d in M.DIRECTIONS}

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            pooled, table, params, img, _ = paired_case(seed, 30)
            base = M.paired_recall(pooled, table, params, img, ks=(1, 5, 10))
            img = img * rng.uniform(0.1, 9.0, size=(30, 1))
            assert M.paired_recall(pooled, table, params, img,
                                   ks=(1, 5, 10)) == base

    def test_zero_norm_rejected(self):
        """A zero text feature: W = 0 and b = 0 make tanh(W h + b) = 0."""
        pooled, table, params, img, _ = paired_case(0, 5)
        params = replace(params, W=np.zeros_like(params.W))
        with pytest.raises(DegenerateFeatureError, match="paired_recall"):
            M.paired_recall(pooled, table, params, img)

    def test_non_finite_rejected(self):
        pooled, table, params, img, _ = paired_case(0, 5)
        for bad in (np.nan, np.inf, -np.inf):
            img[3, 1] = bad
            with pytest.raises(DegenerateFeatureError, match="paired_recall"):
                M.paired_recall(pooled, table, params, img)

    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("d_out", [1, 3])
    def test_matches_argsort_oracle_with_ties(self, k, d_out):
        """One-wide features make every cosine +1 or -1, so nearly every
        score ties; three-wide ones tie through copied texts and images."""
        rng = np.random.default_rng(k * 10 + d_out)
        for seed in range(30):
            n, dup_txt, dup_img = (int(v) for v in rng.integers(1, 30, size=3))
            assert_paired_matches_oracle(seed, n, (k,), dup_txt=dup_txt,
                                         dup_img=dup_img, d_out=d_out)

    @given(seed=st.integers(0, 100_000), k=st.sampled_from([1, 5, 10]))
    @settings(max_examples=40, deadline=None)
    def test_matches_argsort_oracle_random(self, seed, k):
        """Up to 600 pairs, up to two row blocks. The oracle sorts the
        lines of the canonical cosines: a BLAS product can round a tie
        apart, and did at 462 pairs under two BLAS threads when the
        ranks were read off the product's bits."""
        n = int(np.random.default_rng(seed).integers(1, 600))
        pooled, table, params, img, txt = paired_case(
            seed, n, dup_txt=n // 3, dup_img=n // 3)
        sims = oracles.canonical_cosines(img, txt)
        got = M.paired_recall(pooled, table, params, img, ks=(k,))
        for d, lines in (("img2txt", sims), ("txt2img", sims.T)):
            top = np.argsort(-lines, axis=1, kind="stable")[:, :k]
            hits = np.count_nonzero(top == np.arange(n)[:, None])
            assert got[d] == {k: 100.0 * hits / n}

    @given(seed=st.integers(0, 100_000),
           ks=st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True),
           noise=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_tuple_of_k_equals_one_call_per_k(self, seed, ks, noise):
        """A call with k = 1 and larger k counts ranks for k = 1 too; a
        call with k = 1 alone reads the lines' maxima. Both give
        the same recall, and so does a call per larger k. Ties are
        frequent."""
        ks = (1, *ks)
        n = int(np.random.default_rng(seed).integers(1, 300))
        case = paired_case(seed, n, dup_txt=n // 3, dup_img=n // 3,
                           noise=noise)[:4]
        together = M.paired_recall(*case, ks=ks)
        for d in M.DIRECTIONS:
            assert list(together[d]) == list(ks)
            for k in ks:
                assert together[d][k] == M.paired_recall(*case, ks=(k,))[d][k]

    def test_empty_gallery_rejected(self):
        pooled, table, params, img, _ = paired_case(0, 3)
        with pytest.raises(InvalidInputError, match="3 texts, 0 images"):
            M.paired_recall(pooled, table, params, img[:0])


class TestPairedRecall:
    @pytest.mark.parametrize("ks", [(1,), (1, 5, 10)])
    @pytest.mark.parametrize("n, dups", [
        (1, {}), (2, {"dup_txt": 1}), (30, {}), (30, {"dup_txt": 12}),
        (30, {"dup_img": 12}), (30, {"dup_txt": 8, "dup_img": 8}),
        (30, {"dup_txt": 8, "dup_img": 8, "noise": 0.0}),
    ], ids=["n1", "n2-dup", "plain", "dup-texts", "dup-images", "dup-both",
            "dup-both-exact"])
    def test_matches_oracle_both_directions(self, ks, n, dups):
        for seed in range(10):
            assert_paired_matches_oracle(seed, n, ks, **dups)

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 80),
           dup_txt=st.integers(0, 20), dup_img=st.integers(0, 20),
           noise=st.sampled_from([0.0, 0.3, 2.0]),
           ks=st.sampled_from([(1,), (1, 5, 10)]))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_random(self, seed, n, dup_txt, dup_img, noise, ks):
        assert_paired_matches_oracle(seed, n, ks, dup_txt=dup_txt,
                                     dup_img=dup_img, noise=noise)

    def test_count_mismatch_rejected(self):
        pooled, table, params, img, _ = paired_case(0, 5)
        with pytest.raises(InvalidInputError, match="5 texts, 4 images"):
            M.paired_recall(pooled, table, params, img[:4])

    def test_zero_norm_image_rejected(self):
        pooled, table, params, img, _ = paired_case(0, 5)
        img[2] = 0.0
        with pytest.raises(DegenerateFeatureError, match="paired_recall"):
            M.paired_recall(pooled, table, params, img)

    @pytest.mark.parametrize("n, blocks", [
        (6, [6]), (319, [319]), (320, [288, 32]),
        (1030, [288, 288, 288, 166])], ids=["n6", "n319", "n320", "n1030"])
    def test_block_products(self, monkeypatch, n, blocks):
        """Both directions read one (b - a) x n product of img @ txt.T per
        span of `spans`, whatever the k, and no other product."""
        products = []
        Counted = oracles.matmul_recorder(products)

        def counted(m, who):
            u, norms = unit_rows(m, who)
            return u.view(Counted), norms

        monkeypatch.setattr(M, "unit_rows", counted)
        case = paired_case(0, n)[:4]
        for ks in ((1,), (5,), (1, 5, 10), (1, n + 1)):
            products.clear()
            res = M.paired_recall(*case, ks=ks)
            assert products == [(rows, n) for rows in blocks]
            assert list(res) == ["img2txt", "txt2img"]
            assert all(list(res[d]) == list(ks) for d in res)


# Gallery sizes around the row blocks' edges (multiples of ROWS) and
# their least tail, encoders.MIN_TAIL.
STREAM_SIZES = (1, 2, 31, 250, 287, 288, 289, 319, 320, 576, 577, 607,
                608, 1000, 1030, 2017)


def edge_pairs(n):
    """(i, j) index pairs beside and across each row-block edge, each way
    round, and from the first and last lines to lines past the edge."""
    out = []
    for e in range(ROWS, n, ROWS):
        out += [(e - 1, e), (e + 1, e - 2), (0, e + 3), (n - 1, e - 5)]
    return [(i, j) for i, j in out if 0 <= min(i, j) and max(i, j) < n]


def exact_case(seed, n, d=16):
    """(text, image) features of n pairs whose cosines every BLAS kernel,
    thread count and block split computes exactly: a row holds 1, 4 or 16
    (at most d) entries of +-1, so its unit entries are powers of two and
    every cosine is a multiple of 1/16. Scores tie often: a third of the
    images copy their text, a quarter of the texts and of the images copy
    another one, at a lower or a higher index, and `edge_pairs` add copies
    across the block edges."""
    rng = np.random.default_rng(seed)
    widths = [k for k in (1, 4, 16) if k <= d]

    def rows():
        out = np.zeros((n, d))
        for row, k in zip(out, rng.choice(widths, size=n)):
            row[rng.choice(d, size=k, replace=False)] = rng.choice([-1, 1], k)
        return out

    txt, img = rows(), rows()
    own = rng.random(n) < 1 / 3
    img[own] = txt[own]
    for feats in (txt, img):
        for i, j in [*rng.integers(0, n, size=(n // 4, 2)), *edge_pairs(n)]:
            feats[j] = feats[i]
    return txt, img


def streamed_recall(monkeypatch, txt, img, ks):
    """`paired_recall` of the text features `txt` and the images `img`."""
    monkeypatch.setattr(M, "encode_text", lambda *a: txt)
    return M.paired_recall(None, None, None, img, ks=ks)


class TestStreaming:
    """`paired_recall` forms the cosines in row blocks of `spans` and
    ranks as the whole-matrix oracle does."""

    @pytest.mark.parametrize("n", STREAM_SIZES)
    @pytest.mark.parametrize("ks", [(1,), (5,), (1, 5, 10), "over"],
                             ids=["k1", "k5", "k1-5-10", "k-over-n"])
    def test_matches_whole_matrix_oracle(self, monkeypatch, n, ks):
        ks = (1, n + 1) if ks == "over" else ks
        for seed in range(3):
            txt, img = exact_case(seed, n)
            assert streamed_recall(monkeypatch, txt, img, ks) == \
                oracles.paired_recall_whole(txt, img, ks)

    @given(seed=st.integers(0, 100_000), n=st.sampled_from(STREAM_SIZES),
           ks=st.sampled_from([(1,), (5,), (1, 5, 10), (3, 2500)]),
           d=st.sampled_from([1, 4, 16]))
    @settings(max_examples=30, deadline=None)
    def test_matches_whole_matrix_oracle_random(self, seed, n, ks, d):
        txt, img = exact_case(seed, n, d)
        with pytest.MonkeyPatch.context() as mp:
            assert streamed_recall(mp, txt, img, ks) == \
                oracles.paired_recall_whole(txt, img, ks)

    def test_peak_memory_is_bounded(self):
        """2,000 pairs of 64-wide features: the whole cosine matrix alone
        is 32 MB, one 288-row block 4.6 MB."""
        rng = np.random.default_rng(3)
        n, V = 2000, 5000
        params = make_text_params(64, 64, 16, seed=3)
        table = rng.normal(size=(V, 64)).astype(np.float32)
        pooled = pooling(rng.integers(0, V, size=16 * n), np.full(n, 16), V,
                         params)
        txt = encode_text(pooled, table, params)
        img = txt + rng.normal(size=(n, 64))
        tracemalloc.start()
        try:
            res = M.paired_recall(pooled, table, params, img, ks=(1, 5, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert res == oracles.paired_recall_whole(txt, img, (1, 5, 10))


def gamma(d):
    """gamma_d = d u / (1 - d u), u = 2**-53: how far a dot of two unit
    rows of length d can round from its exact value, in any order."""
    du = d * 2.0 ** -53
    return du / (1 - du)


def near_tie_case(seed, n, d=64):
    """(text, image) unit features of n Gaussian pairs, each image its
    text plus noise, with ties planted between line p and item q at the
    `edge_pairs` of the row blocks and at random pairs, in both
    directions: an exact copy of item p, a copy a few ulps apart, or a
    copy moved along line p's row so that its score sits 0.25, 0.9, 1.1,
    1.5 or 3 bands (4 gamma_d) above or below line p's own."""
    rng = np.random.default_rng(seed)
    txt = unit_rows(rng.normal(size=(n, d)), "txt")[0]
    img = unit_rows(txt + rng.normal(size=(n, d)), "img")[0]
    pairs = [*edge_pairs(n), *rng.integers(0, n, size=(n // 8, 2))]
    offsets = [0, "ulps", *(s * f for f in (0.25, 0.9, 1.1, 1.5, 3)
                            for s in (-1, 1))]
    for t, (p, q) in enumerate(pairs):
        if p == q:
            continue
        # image p's item is text p; text p's item is image p
        line, items = (img, txt) if t % 2 else (txt, img)
        kind = offsets[(t // 2) % len(offsets)]
        items[q] = items[p]
        if kind == "ulps":
            items[q, :2] = np.nextafter(items[q, :2], 2.0)
        elif kind:
            c = line[p] @ items[p]
            w = line[p] - c * items[p]
            items[q] += (kind * 4 * gamma(d) / (1 - c * c)) * w
    return txt, img


def ranks_both_ways(txt, img, k_max):
    """`paired_recall`'s min(rank, k_max) per direction, stacked."""
    u, v = unit_rows(img, "img")[0], unit_rows(txt, "txt")[0]
    return np.minimum(M._ranks(u, v, k_max), k_max)


def noisy_products(monkeypatch, size, extreme):
    """Add up to +-size to every entry of every `_cosines` block: uniform
    draws, or +-size exactly when `extreme`."""
    rng, cosines = np.random.default_rng(0), M._cosines

    def noisy(u, v, blocks):
        for a, b, s in cosines(u, v, blocks):
            s += size * (rng.choice([-1.0, 1.0], s.shape) if extreme
                         else rng.uniform(-1.0, 1.0, s.shape))
            yield a, b, s

    monkeypatch.setattr(M, "_cosines", noisy)


def thread_cases():
    """(text, image, k_max) of the tie-heavy non-exact cases ranked under
    one and two BLAS threads: at 462, 513, 1030 and 2017 pairs,
    `paired_case`'s copied texts and images (seed 22 at 462 pairs is
    where ranks read off the product's bits differed under two threads)
    and `near_tie_case`'s planted near-ties, each at k_max 1 and 10."""
    for n in (462, 513, 1030, 2017):
        *_, img, txt = paired_case(22, n, dup_txt=n // 3, dup_img=n // 3)
        for case in ((txt, img), near_tie_case(n, n)):
            for k_max in (1, 10):
                yield (*case, k_max)


def digest(ranks) -> str:
    """sha256 of a sequence of int64 rank arrays."""
    h = hashlib.sha256()
    for r in ranks:
        h.update(np.asarray(r, dtype=np.int64).tobytes())
    return h.hexdigest()


def thread_case_ranks() -> str:
    """The digest of `paired_recall`'s ranks on every `thread_cases` case."""
    return digest(ranks_both_ways(*case) for case in thread_cases())


class TestCanonicalRanks:
    """`paired_recall` ranks on canonical scores, the einsum dots of the
    unit rows: a product entry outside the band around a line's own score
    decides by the product, and a line with one inside it is scored
    again. No product rounding can then move a rank."""

    @pytest.mark.parametrize("d", [4, 64])
    def test_planted_ties_straddle_the_band(self, d):
        """Both directions hold exact ties, near-ties inside the band and
        scores just outside it, on each side of a block edge."""
        txt, img = near_tie_case(0, 600, d)
        sims = oracles.canonical_cosines(img, txt)
        band, own = 4 * gamma(d), sims.diagonal().copy()
        np.fill_diagonal(sims, np.inf)
        for off in (sims - own[:, None], sims - own):
            for lo, hi in ((0, 0), (1e-300, band), (band * 1.001, 2 * band)):
                where = (abs(off) >= lo) & (abs(off) <= hi)
                rows, cols = np.nonzero(where)
                assert np.any((rows < ROWS) & (cols >= ROWS))
                assert np.any((cols < ROWS) & (rows >= ROWS))

    @pytest.mark.parametrize("n", [31, 289, 320, 577, 1030])
    @pytest.mark.parametrize("ks", [(1,), (5,), (1, 5, 10)],
                             ids=["k1", "k5", "k1-5-10"])
    @pytest.mark.parametrize("d", [4, 64])
    def test_planted_near_ties_match_oracle(self, monkeypatch, n, ks, d):
        for seed in range(2):
            txt, img = near_tie_case(seed, n, d)
            assert streamed_recall(monkeypatch, txt, img, ks) == \
                oracles.paired_recall_whole(txt, img, ks)

    @pytest.mark.parametrize("extreme", [False, True], ids=["uniform", "edge"])
    @pytest.mark.parametrize("k_max", [1, 10])
    @pytest.mark.parametrize("case", ["near", "exact", "copies"])
    def test_product_noise_leaves_every_rank(self, monkeypatch, case,
                                             k_max, extreme):
        """Up to +-2 gamma_d on every entry of every block product, more
        than any BLAS kernel rounds by, leaves every rank as it was and as
        the oracle ranks it."""
        n, d = 577, {"near": 64, "exact": 16, "copies": 4}[case]
        if case == "near":
            txt, img = near_tie_case(1, n, d)
        elif case == "exact":
            txt, img = exact_case(1, n, d)
        else:
            *_, img, txt = paired_case(1, n, dup_txt=n // 3, dup_img=n // 3)
        want = ranks_both_ways(txt, img, k_max)
        assert np.array_equal(want, np.stack(
            oracles.paired_ranks_whole(txt, img, k_max)))
        noisy_products(monkeypatch, 2 * gamma(d), extreme)
        assert np.array_equal(ranks_both_ways(txt, img, k_max), want)

    def test_two_blas_threads_give_the_one_thread_ranks(self):
        """Two OpenBLAS threads round the block products apart from one
        thread's above 319 pairs; the ranks stay those of one thread and
        of the oracle."""
        want = digest(np.stack(oracles.paired_ranks_whole(*case))
                      for case in thread_cases())
        script = ("import test_metrics\n"
                  "print(test_metrics.thread_case_ranks())\n")
        assert [oracles.fresh_interpreter(script, threads=t)
                for t in (1, 2)] == [want, want]


def hand_matrix():
    m = M.EvalMatrix()
    vals = {0: [50.0], 1: [40.0, 60.0], 2: [35.0, 55.0, 70.0]}
    for j, row in vals.items():
        for i, v in enumerate(row):
            for d in M.DIRECTIONS:
                m.set(j, i, d, v)
    return m


class TestArF:
    def test_single_task(self):
        m = M.EvalMatrix()
        m.set(0, 0, "img2txt", 50.0)
        assert M.average_recall(m, 0, "img2txt") == 50.0

    def test_two_task_mean(self):
        m = hand_matrix()
        assert M.average_recall(m, 1, "img2txt") == 50.0

    def test_constant_matrix(self):
        m = M.EvalMatrix()
        for j in range(3):
            for i in range(j + 1):
                m.set(j, i, "txt2img", 42.0)
        assert M.average_recall(m, 2, "txt2img") == 42.0

    def test_forgetting_hand_case(self):
        m = hand_matrix()
        assert M.forgetting(m, 1, "img2txt") == 10.0

    def test_forgetting_three_task_brute_force(self):
        m = hand_matrix()
        # independent loop over the definition
        want = np.mean([max(m.get(k, i, "img2txt") for k in range(i, 2))
                        - m.get(2, i, "img2txt") for i in range(2)])
        assert M.forgetting(m, 2, "img2txt") == want

    def test_forgetting_can_be_negative(self):
        m = M.EvalMatrix()
        m.set(0, 0, "img2txt", 30.0)
        m.set(1, 0, "img2txt", 45.0)  # improved, no forgetting
        m.set(1, 1, "img2txt", 50.0)
        assert M.forgetting(m, 1, "img2txt") == -15.0

    def test_forgetting_undefined_for_first_task(self):
        m = hand_matrix()
        with pytest.raises(MetricError):
            M.forgetting(m, 0, "img2txt")

    def test_incomplete_row_rejected(self):
        m = M.EvalMatrix()
        m.set(1, 0, "img2txt", 10.0)
        with pytest.raises(MetricError):
            M.average_recall(m, 1, "img2txt")

    def test_random_matrices_match_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            T = int(rng.integers(2, 6))
            m = M.EvalMatrix()
            a = rng.uniform(0, 100, size=(T, T))
            for j in range(T):
                for i in range(j + 1):
                    m.set(j, i, "img2txt", float(a[j, i]))
            j = T - 1
            ar = sum(a[j, i] for i in range(j + 1)) / (j + 1)
            f = sum(max(a[k, i] for k in range(i, j)) - a[j, i]
                    for i in range(j)) / j
            assert np.isclose(M.average_recall(m, j, "img2txt"), ar)
            assert np.isclose(M.forgetting(m, j, "img2txt"), f)

    def test_csv_round_trip_preserves_metrics(self, tmp_path):
        m = hand_matrix()
        p = tmp_path / "eval.csv"
        m.save_csv(p)
        back = M.EvalMatrix.load_csv(p)
        assert back.entries == m.entries
        assert M.average_recall(back, 2, "txt2img") == M.average_recall(m, 2, "txt2img")
        assert M.forgetting(back, 2, "txt2img") == M.forgetting(m, 2, "txt2img")

    def test_matrix_validation(self):
        m = M.EvalMatrix()
        with pytest.raises(InvalidInputError):
            m.set(0, 1, "img2txt", 5.0)
        with pytest.raises(InvalidInputError):
            m.set(1, 0, "sideways", 5.0)
        with pytest.raises(InvalidInputError):
            m.set(0, 0, "img2txt", 105.0)


def sample_arrays(samples, table, anchor, params):
    """The array arguments of fisher_and_loss for a list
    of (image feature, English ids, foreign ids) samples."""
    def pooled(column, n_rows):
        texts = [s[column] for s in samples]
        return pooling([i for ids in texts for i in ids],
                       [len(ids) for ids in texts], n_rows, params)

    return (np.array([s[0] for s in samples]),
            encode_text(pooled(1, len(anchor)), anchor, params),
            pooled(2, len(table)), table, params)


def batch_loss(batch, matrix, anchor, params, cfg):
    """total_loss of a list of samples as one batch, each text encoded by
    the per-caption oracle; returns (loss, gradient w.r.t. its features)."""
    r_i = np.array([img for img, _, _ in batch])
    r_e = np.array([oracles.encode_text(eng, anchor, params)
                    for _, eng, _ in batch])
    r_f = np.array([oracles.encode_text(foreign, matrix, params)
                    for _, _, foreign in batch])
    return total_loss(FeatureBatch(r_i, r_e, r_f), cfg)


def per_sample_reference(samples, table, anchor, params, cfg, batch_size):
    """(Fisher trace, mean loss) over consecutive batches of `batch_size`
    samples, built sample by sample: each batch's loss from the per-caption
    oracle features, its row gradient the sum of the per-caption adjoints,
    squared; both averaged over the batches."""
    fisher, losses = [], []
    for s in range(0, len(samples), batch_size):
        batch = samples[s:s + batch_size]
        loss, grad = batch_loss(batch, table, anchor, params, cfg)
        rows = oracles.batch_grads([foreign for _, _, foreign in batch],
                                   table, params, grad)
        fisher.append(sum(float(g @ g) for g in rows.values()))
        losses.append(loss)
    return np.mean(fisher), np.mean(losses)


def tiny_model(seed=0, rows=12, d=6):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(rows, d)).astype(np.float32)
    anchor = snapshot_anchor(table)
    params = make_text_params(d, d, L_max=4, seed=seed)
    samples = []
    for _ in range(5):
        img = rng.normal(size=d)
        eng = rng.integers(0, rows, size=3).tolist()
        foreign = rng.integers(0, rows, size=3).tolist()
        samples.append((img, eng, foreign))
    return samples, table, anchor, params


class TestFisherTrace:
    """fisher_and_loss scores batches as training takes them: 5 samples
    in batches of 2 are the batches [0, 1], [2, 3] and [4]."""

    def test_zero_norm_image_row_names_R_I(self):
        samples, table, anchor, params = tiny_model()
        samples[3] = (np.zeros_like(samples[3][0]),) + samples[3][1:]
        with pytest.raises(DegenerateFeatureError, match="R_I: zero-norm row 1"):
            M.fisher_and_loss(*sample_arrays(samples, table, anchor, params),
                              LossConfig(), 2)

    def test_zero_weights_zero_trace(self):
        samples, table, anchor, params = tiny_model()
        cfg = LossConfig(tau=0.07, gamma_cm=0.0, gamma_cl=0.0)
        fisher, _ = M.fisher_and_loss(
            *sample_arrays(samples, table, anchor, params), cfg, 2)
        assert fisher == 0.0

    def test_single_sample_is_its_norm(self):
        """A single batch's trace is its own squared gradient norm, and
        that of several batches is the mean of theirs."""
        samples, table, anchor, params = tiny_model(1)
        cfg = LossConfig()

        def trace(s, batch_size=2):
            return M.fisher_and_loss(*sample_arrays(s, table, anchor, params),
                                     cfg, batch_size)[0]

        per = [trace(samples[s:s + 2]) for s in (0, 2, 4)]
        assert trace(samples[:2]) == per[0]
        assert trace(samples[:2], 5) == per[0]
        assert np.isclose(per[2], per_sample_reference(
            samples[4:], table, anchor, params, cfg, 1)[0], rtol=1e-12)
        assert np.isclose(trace(samples), np.mean(per))
        assert np.isclose(trace(samples, 5), per_sample_reference(
            samples, table, anchor, params, cfg, 5)[0], rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("gammas", [(1.0, 1.0), (0.01, 1.0), (1.0, 0.0)])
    def test_matches_per_sample_reference(self, seed, gammas):
        samples, table, anchor, params = tiny_model(seed)
        cfg = LossConfig(0.07, *gammas)
        args = sample_arrays(samples, table, anchor, params)
        fisher, loss = per_sample_reference(samples, table, anchor, params,
                                            cfg, 2)
        got_fisher, got_loss = M.fisher_and_loss(*args, cfg, 2)
        assert np.isclose(got_fisher, fisher, rtol=1e-12, atol=1e-15)
        assert np.isclose(got_loss, loss, rtol=1e-12, atol=1e-15)

    def test_contrastive_term_is_seen(self):
        """With the cross-lingual term off, the contrastive term alone
        gives a positive trace and loss: batches of 2 see other captions."""
        samples, table, anchor, params = tiny_model(3)
        cfg = LossConfig(tau=0.07, gamma_cm=1.0, gamma_cl=0.0)
        fisher, loss = M.fisher_and_loss(
            *sample_arrays(samples, table, anchor, params), cfg, 2)
        assert fisher > 0.0 and loss > 0.0

    def test_finite_difference_oracle(self):
        """The trace of one batch of 3 is the squared norm of the central
        differences of its loss over every entry of the rows it reads."""
        samples, table, anchor, params = tiny_model(2)
        cfg = LossConfig(tau=0.07, gamma_cm=1.0, gamma_cl=1.0)
        batch = samples[:3]
        base = table.astype(np.float64)
        step = 1e-4
        sq = 0.0
        for tid in {t for _, _, foreign in batch for t in foreign}:
            for c in range(base.shape[1]):
                plus, minus = base.copy(), base.copy()
                plus[tid, c] += step
                minus[tid, c] -= step
                diff = (batch_loss(batch, plus, anchor, params, cfg)[0]
                        - batch_loss(batch, minus, anchor, params, cfg)[0])
                sq += (diff / (2 * step)) ** 2
        got, _ = M.fisher_and_loss(
            *sample_arrays(batch, table, anchor, params), cfg, 3)
        assert abs(got - sq) / max(sq, 1e-12) < 1e-6

    def test_empty_dataset(self):
        _, table, anchor, params = tiny_model()
        with pytest.raises(InvalidInputError):
            M.fisher_and_loss(*sample_arrays([], table, anchor, params),
                              LossConfig(), 2)


class TestTedHistogram:
    def test_constant_table_single_bin(self):
        t = np.full((3, 4), 0.5, dtype=np.float32)
        edges, counts, below, above, stats = M.ted_histogram(t, bins=10)
        assert counts.sum() == 12 and len(counts) == 1
        assert below == 0 and above == 0

    def test_count_conservation(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(50, 8)).astype(np.float32)
        edges, counts, below, above, _ = M.ted_histogram(t, bins=16)
        assert counts.sum() + below + above == 50 * 8

    def test_gaussian_bin_mass(self):
        from scipy import stats as sps
        rng = np.random.default_rng(5)
        n_entries = 1_000_000
        t = rng.normal(0.0, 0.02, size=(n_entries // 100, 100)).astype(np.float32)
        edges, counts, below, above, stats = M.ted_histogram(t, bins=20)
        for i, c in enumerate(counts):
            p = (sps.norm.cdf(edges[i + 1], stats.mu, stats.sigma)
                 - sps.norm.cdf(edges[i], stats.mu, stats.sigma))
            se = np.sqrt(n_entries * p * (1 - p))
            assert abs(c - n_entries * p) <= 3 * se + 1

    def test_histogram_csv(self, tmp_path):
        t = np.random.default_rng(6).normal(size=(8, 8)).astype(np.float32)
        edges, counts, *_ = M.ted_histogram(t, bins=4)
        p = tmp_path / "ted.csv"
        M.save_histogram_csv(edges, counts, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 5

    def test_bins_validation(self):
        t = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(InvalidInputError):
            M.ted_histogram(t, bins=1)
