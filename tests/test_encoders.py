"""Frozen text encoder and image provider tests, including the adjoint."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lexcl import encoders as enc
from lexcl.errors import InvalidInputError


def _params(dim=8, d_out=8, L_max=5, seed=3):
    return enc.make_text_params(dim, d_out, L_max, seed)


def _identity_params(d, L_max=4):
    W = np.eye(d)
    b = np.zeros(d)
    for a in (W, b):
        a.flags.writeable = False
    return dataclasses.replace(_params(d, d, L_max), W=W, b=b)


def flat(id_lists):
    """(ids, lengths) of a list of id lists, as `pooling` takes them."""
    return [i for ids in id_lists for i in ids], [len(ids) for ids in id_lists]


def pool(id_lists, matrix, params):
    return enc.pooling(*flat(id_lists), matrix.shape[0], params)


def encode_one(ids, table, params):
    """Batched encoder on a batch of one text."""
    return enc.encode_text(pool([ids], table, params), table,
                           params)[0]


def grad_one(ids, table, params, upstream):
    """Batched adjoint on a batch of one text, as {row: gradient}."""
    pooled = pool([ids], table, params)
    feats = enc.encode_text(pooled, table, params)
    rows, grads = enc.encode_text_grad(pooled, feats, params,
                                       np.asarray(upstream)[None])
    return dict(zip(rows.tolist(), grads))


def reference_encode(ids, matrix, params):
    """Straight-line re-implementation used as an oracle."""
    ids = list(ids)[: params.L_max]
    L = len(ids)
    h = np.zeros(params.W.shape[1])
    for i, tid in enumerate(ids):
        h += matrix[tid].astype(np.float64) + params.pos[i]
    h /= L
    return np.tanh(params.W @ h + params.b)


class TestEncodeText:
    def test_zero_embedding_identity_transform(self):
        d = 6
        p = _identity_params(d)
        table = np.zeros((4, d), dtype=np.float32)
        r = encode_one([0], table, p)
        assert np.allclose(r, np.tanh(p.pos[0]))

    def test_truncation_to_l_max(self):
        p = _params(L_max=3)
        table = np.random.default_rng(0).normal(size=(10, 8)).astype(np.float32)
        long = encode_one([1, 2, 3, 4, 5, 6], table, p)
        short = encode_one([1, 2, 3], table, p)
        assert np.array_equal(long, short)

    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        p = _params()
        table = rng.normal(size=(16, 8)).astype(np.float32)
        for _ in range(20):
            ids = rng.integers(0, 16, size=rng.integers(1, 6)).tolist()
            got = encode_one(ids, table, p)
            want = reference_encode(ids, table, p)
            assert np.allclose(got, want, atol=1e-6)

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(5)
        p = _params()
        table = rng.normal(scale=10.0, size=(8, 8)).astype(np.float32)
        r = encode_one([0, 1, 2], table, p)
        assert np.all(r > -1.0) and np.all(r < 1.0)

    def test_empty_ids_rejected(self):
        table = np.zeros((2, 8), dtype=np.float32)
        with pytest.raises(InvalidInputError):
            encode_one([], table, _params())

    def test_out_of_range_id(self):
        table = np.zeros((2, 8), dtype=np.float32)
        with pytest.raises(InvalidInputError,
                           match="id 7 out of range for table with 2 rows"):
            encode_one([7], table, _params())


class TestEncodeTextGrad:
    def test_zero_upstream(self):
        table = np.random.default_rng(1).normal(size=(6, 8)).astype(np.float32)
        grads = grad_one([0, 1], table, _params(), np.zeros(8))
        assert all(np.all(g == 0) for g in grads.values())

    def test_repeated_id_doubles(self):
        p = _params()
        table = np.random.default_rng(2).normal(size=(6, 8)).astype(np.float32)
        up = np.random.default_rng(3).normal(size=8)
        single = grad_one([0, 1], table, p, up)
        # same pooled input: token 0 at both positions of a same-h sequence
        t2 = table.copy()
        t2[1] = t2[0]
        double = grad_one([0, 0], t2, p, up)
        ref = grad_one([0, 1], t2, p, up)
        assert np.allclose(double[0], ref[0] + ref[1])

    def test_finite_differences(self):
        rng = np.random.default_rng(6)
        p = _params()
        table = rng.normal(size=(12, 8)).astype(np.float32)
        up = rng.normal(size=8)
        ids = [3, 7, 3, 1]
        grads = grad_one(ids, table, p, up)
        step = 1e-3
        for tid, g in grads.items():
            for c in range(8):
                plus = table.astype(np.float64).copy()
                minus = plus.copy()
                plus[tid, c] += step
                minus[tid, c] -= step
                f_plus = up @ reference_encode(ids, plus, p)
                f_minus = up @ reference_encode(ids, minus, p)
                num = (f_plus - f_minus) / (2 * step)
                rel = abs(num - g[c]) / max(abs(num), abs(g[c]), 1e-8)
                assert rel <= 1e-4


# Summation order differs between the batched and the per-text paths;
# float64 sums of at most L_max terms agree to well within this.
ATOL = 1e-12

CASES = {
    "repeated ids": [[3, 3, 3], [1, 3, 1, 3]],
    "length 1": [[0], [5], [5]],
    "longer than l_max": [[1, 2, 3, 4, 5, 6, 7, 8], [2, 2, 2, 2, 2, 2, 9]],
    "mixed": [[4], [0, 1, 2, 3, 4, 5, 6], [7, 7], [11, 0, 11, 0, 11]],
    # a tuple of parts is pooled part by part, then concatenated; the
    # parts are 2, 4 and 1 distinct ids wide
    "concat of different widths": ([[5], [5, 9, 5]], [[0, 1, 2, 3], [7]],
                                   [[4, 4, 4, 4, 4, 4, 4]]),
    # a lone part is its own concatenation
    "concat of one part": ([[3, 1], [2, 2, 8]],),
}


def check_against_oracle(id_lists, matrix, params, upstream, pooled=None):
    pooled = pool(id_lists, matrix, params) if pooled is None else pooled
    feats = enc.encode_text(pooled, matrix, params)
    want = np.stack([oracles.encode_text(ids, matrix, params)
                     for ids in id_lists])
    np.testing.assert_allclose(feats, want, rtol=0, atol=ATOL)
    rows, grads = enc.encode_text_grad(pooled, feats, params, upstream)
    ref = oracles.batch_grads(id_lists, matrix, params, upstream)
    assert rows.tolist() == sorted(ref)
    np.testing.assert_allclose(grads, np.stack([ref[j] for j in sorted(ref)]),
                               rtol=0, atol=ATOL)


class TestBatchedMatchesPerText:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases(self, case):
        rng = np.random.default_rng(7)
        p = _params(L_max=5)
        matrix = rng.normal(size=(12, 8)).astype(np.float32)
        id_lists, pooled = CASES[case], None
        if isinstance(id_lists, tuple):
            parts = [pool(part, matrix, p) for part in id_lists]
            pooled = enc.Pooling.concat(parts)
            assert (pooled is parts[0]) == (len(parts) == 1)
            id_lists = [ids for part in id_lists for ids in part]
            whole = pool(id_lists, matrix, p)
            for name in ("ids", "w", "n"):
                got, want = getattr(pooled, name), getattr(whole, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        up = rng.normal(size=(len(id_lists), 8))
        check_against_oracle(id_lists, matrix, p, up, pooled)

    @given(seed=st.integers(0, 100_000), n_texts=st.integers(1, 9),
           l_max=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_random_batches(self, seed, n_texts, l_max):
        rng = np.random.default_rng(seed)
        p = _params(L_max=l_max)
        matrix = rng.normal(size=(10, 8))
        id_lists = [rng.integers(0, 10, size=rng.integers(1, 2 * l_max + 2)).tolist()
                    for _ in range(n_texts)]
        check_against_oracle(id_lists, matrix, p,
                             rng.normal(size=(n_texts, 8)))

    def test_take_equals_pooling_the_subset(self):
        rng = np.random.default_rng(8)
        p = _params(L_max=4)
        matrix = rng.normal(size=(12, 8))
        id_lists = [rng.integers(0, 12, size=rng.integers(1, 7)).tolist()
                    for _ in range(10)]
        index = np.array([7, 2, 2, 9, 0])
        got = pool(id_lists, matrix, p).take(index)
        want = pool([id_lists[k] for k in index], matrix, p)
        # the taken rows keep the full width; past each text's ids, pads
        width = want.w.shape[1]
        assert not np.any(got.w[:, width:])
        assert np.array_equal(got.ids[:, :width], want.ids)
        assert np.array_equal(got.w[:, :width], want.w)
        assert np.array_equal(got.n, want.n)

    def test_empty_text_among_others_rejected(self):
        matrix = np.zeros((4, 8))
        with pytest.raises(InvalidInputError):
            pool([[1], [], [2]], matrix, _params())


BITWISE_CASES = {
    "repeated ids": ([[3, 3, 3], [1, 3, 1, 3]], None),
    "longer than l_max": ([[1, 2, 3, 4, 5, 6, 7, 8], [2, 2, 2, 2, 2, 2, 9]],
                          None),
    "single text": ([[6, 0, 6, 2]], None),
    "take, repeated and out of order": (
        [[4], [0, 1, 2, 3], [7, 7], [11, 0, 11], [5, 9], [2], [8, 8, 1],
         [10, 3, 10, 3, 6], [0], [9, 4, 9]], [7, 2, 2, 9, 0, 7]),
    "never reads row 0": ([[5], [3, 9, 3, 11, 7], [1, 1], [8, 2, 4]], None),
}


# The dense adjoint A @ g adds each row's terms w[k, m] g[k] in the BLAS
# kernel's order, not in the CSR kernel's text order, so a gradient
# value may differ from the oracle's by a few roundings of its terms:
# it must lie within GRAD_RTOL of the sum of their magnitudes. A dropped
# repeat or a pad weight let in moves it by a whole term.
GRAD_RTOL = 1e-13


def check_bitwise(id_lists, index, matrix, params, upstream):
    """The padded batch against the scipy CSR pooling: the same features
    and gradient rows bit for bit, and the gradient values to GRAD_RTOL."""
    pooled = pool(id_lists, matrix, params)
    ref = oracles.CsrPooling.of(*flat(id_lists), params)
    if index is not None:
        pooled, ref = pooled.take(index), ref.take(index)
    feats = enc.encode_text(pooled, matrix, params)
    assert np.array_equal(feats, ref.features(matrix, params))
    rows, grads = enc.encode_text_grad(pooled, feats, params, upstream)
    g = enc.pooled_grad(feats, params, upstream)
    want_rows, want = ref.grad(g)
    assert np.array_equal(rows, want_rows)
    _, magnitude = ref.grad(np.abs(g))
    assert np.all(np.abs(grads - want) <= GRAD_RTOL * magnitude)
    return rows


class TestBitwiseMatchesCsr:
    @pytest.mark.parametrize("case", sorted(BITWISE_CASES))
    def test_cases(self, case):
        id_lists, index = BITWISE_CASES[case]
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(12, 8)).astype(np.float32)
        up = rng.normal(size=(len(index or id_lists), 8))
        rows = check_bitwise(id_lists, index, matrix, _params(L_max=5), up)
        if case == "never reads row 0":
            # a pad must not pass its id 0 to the optimizer
            assert 0 not in rows.tolist()

    @given(seed=st.integers(0, 100_000), n_texts=st.integers(1, 9),
           l_max=st.integers(1, 6), low=st.integers(0, 1),
           take=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_random_batches(self, seed, n_texts, l_max, low, take, dtype):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(10, 8)).astype(dtype)
        id_lists = [rng.integers(low, 10, size=rng.integers(1, 2 * l_max + 2)
                                 ).tolist() for _ in range(n_texts)]
        index = (rng.integers(0, n_texts, size=rng.integers(1, 2 * n_texts + 1)
                              ).tolist() if take else None)
        up = rng.normal(size=(len(index or id_lists), 8))
        rows = check_bitwise(id_lists, index, matrix, _params(L_max=l_max), up)
        if low:
            assert 0 not in rows.tolist()


BLOCKING_SIZES = (1, 17, 255, 256, 257, 275, 287, 288, 289, 300, 319, 320,
                  513, 576, 577, 1000, 1030, 2000, 2017)


class TestBlocking:
    """`encode_text` gathers its texts a chunk at a time and makes one
    h @ W.T product over all of them: the bits of the one-shot oracle."""

    def test_matches_one_shot(self):
        """Random poolings at the default model size (64 dims, l_max 32)."""
        rng = np.random.default_rng(0)
        p = enc.make_text_params(64, 64, 32, 0)
        table = rng.normal(size=(500, 64)).astype(np.float32)
        for n in BLOCKING_SIZES:
            lengths = rng.integers(1, 40, size=n)
            pooled = enc.pooling(rng.integers(0, 500, size=lengths.sum()),
                                 lengths, len(table), p)
            assert np.array_equal(
                enc.encode_text(pooled, table, p),
                oracles.encode_text_one_shot(pooled, table, p)), n

    @pytest.mark.parametrize("n", [6, 319, 320, 577, 2000],
                             ids=["n6", "n319", "n320", "n577", "n2000"])
    def test_block_products(self, n):
        """One (n, d_out) h @ W.T product per call."""
        products = []
        p = enc.make_text_params(8, 8, 4, 0)
        lengths = np.full(n, 3)
        pooled = enc.pooling(np.arange(3 * n) % 20, lengths, 20, p)
        table = np.random.default_rng(0).normal(size=(20, 8))
        feats = enc.encode_text(
            pooled, table,
            dataclasses.replace(p, W=p.W.view(oracles.matmul_recorder(products))))
        assert products == [(n, 8)]
        assert np.array_equal(feats, enc.encode_text(pooled, table, p))

    @pytest.mark.parametrize("width", [1, 24])
    def test_matches_one_shot_beside_the_gather_chunks(self, width):
        """Texts `width` ids wide (1, or l_max) over 256 dims: a chunk of
        the embedding gather holds ENTRIES // (256 width) of them. At
        counts either side of the first three chunk edges, the bits are
        the one-shot's.
        An l_max of 24 makes the weights 1/24, so the slot order shows."""
        dim, V = 256, 500
        p = enc.make_text_params(dim, 64, 24, 2)
        rng = np.random.default_rng(width)
        table = rng.normal(size=(V, dim)).astype(np.float32)
        rows = enc.ENTRIES // (width * dim)
        for edge in (rows, 2 * rows, 3 * rows):
            for n in (edge - 1, edge, edge + 1):
                ids = (np.arange(width) + rng.integers(0, V, size=(n, 1))) % V
                pooled = enc.pooling(ids.ravel(), np.full(n, width), V, p)
                assert pooled.w.shape == (n, width)
                assert np.array_equal(
                    enc.encode_text(pooled, table, p),
                    oracles.encode_text_one_shot(pooled, table, p))

    def test_peak_memory_is_bounded(self):
        """2,000 texts 16 ids wide: one gather of them all is 8 MB of
        float32, their features 1 MB."""
        rng = np.random.default_rng(1)
        n, V = 2000, 5000
        p = enc.make_text_params(64, 64, 16, 1)
        table = rng.normal(size=(V, 64)).astype(np.float32)
        ids = (np.arange(16) + rng.integers(0, V, size=(n, 1))) % V
        pooled = enc.pooling(ids.ravel(), np.full(n, 16), V, p)
        assert pooled.w.shape == (n, 16)
        tracemalloc.start()
        try:
            enc.encode_text(pooled, table, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestFrozenness:
    def test_params_not_writeable(self):
        p = _params()
        with pytest.raises(ValueError):
            p.W[0, 0] = 1.0
        with pytest.raises(ValueError):
            p.pos[0, 0] = 1.0
        with pytest.raises(ValueError):
            p.mean_pos[0, 0] = 1.0

    def test_same_seed_same_params(self):
        a, b = _params(seed=9), _params(seed=9)
        assert np.array_equal(a.W, b.W)

