"""Metric tests: recall oracle, AR/F hand matrices and brute force, fusion,
Fisher trace finite differences, histograms, CSV fidelity."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lexcl import metrics as M
from lexcl.embeddings import snapshot_anchor
from lexcl.encoders import ROWS, encode_text, make_text_params, pooling, spans
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
        lines of the cosines that paired_recall ranks, its row blocks
        stacked: at this size a second product, txt @ img.T, can round
        entries apart from img @ txt.T, and so can the one-shot img @ txt.T
        under more than one BLAS thread (TestStreaming checks the blocks'
        bits against it under one)."""
        n = int(np.random.default_rng(seed).integers(1, 600))
        pooled, table, params, img, txt = paired_case(
            seed, n, dup_txt=n // 3, dup_img=n // 3)
        sims = np.concatenate([s.copy() for _, _, s in M._cosines(
            unit_rows(img, "img")[0], unit_rows(txt, "txt")[0], spans(n))])
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
        call with k = 1 alone takes each line's first maximum. Both give
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
        """Both directions read (b - a) x n products of img @ txt.T: one per
        aligned span at k = 1; at larger k a second pass forms every block
        but the last again. Up to 319 pairs are one product whatever the k."""
        products = []
        Counted = oracles.matmul_recorder(products)

        def counted(m, who):
            u, norms = unit_rows(m, who)
            return u.view(Counted), norms

        monkeypatch.setattr(M, "unit_rows", counted)
        case = paired_case(0, n)[:4]
        for ks, again in (((1,), []), ((1, 5, 10), blocks[:-1])):
            products.clear()
            res = M.paired_recall(*case, ks=ks)
            assert products == [(rows, n) for rows in blocks + again]
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


# (n, d) of the cosine products whose row blocks are checked bit for bit.
# Under the default kernel 256-row blocks change bits at 300, 513, 1030,
# 2017 and 2500 but not at 250 or 1000.
RECALL_BLOCK_SIZES = [(n, d) for n in (250, 300, 319, 320, 513, 577, 1000,
                                       1030, 2017, 2500)
                      for d in (16, 64, 128)]


def recall_block_mismatches() -> list[tuple[int, int]]:
    """The (n, d) of RECALL_BLOCK_SIZES at which a row block of
    `paired_recall`'s cosines differs in any bit from the same rows of the
    one-shot product, on random unit features."""
    rng = np.random.default_rng(0)
    bad = []
    for n, d in RECALL_BLOCK_SIZES:
        u = unit_rows(rng.normal(size=(n, d)), "u")[0]
        v = unit_rows(rng.normal(size=(n, d)), "v")[0]
        whole = u @ v.T
        if not all(np.array_equal(s, whole[a:b])
                   for a, b, s in M._cosines(u, v, spans(n))):
            bad.append((n, d))
    return bad


class TestStreaming:
    """`paired_recall` forms the cosines in aligned blocks of ROWS rows,
    keeps the one-shot product's bits and ranks as the whole-matrix
    oracle does."""

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

    # With more than one BLAS thread OpenBLAS splits a product by thread,
    # and even the one-shot product's bits change with the thread count,
    # so the bits are checked with one thread, as runs are benchmarked.
    @pytest.mark.parametrize("kernel", [None, "Haswell", "Sandybridge",
                                        "Nehalem"])
    def test_blocks_keep_the_one_shot_bits(self, kernel):
        if kernel and not oracles.dynamic_openblas():
            pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                        "OPENBLAS_CORETYPE cannot select another kernel")
        assert oracles.one_blas_thread(
            "import test_metrics\n"
            "print(test_metrics.recall_block_mismatches())\n", kernel) == "[]"

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
