"""Metric tests: recall oracle, AR/F hand matrices and brute force, fusion,
Fisher trace finite differences, histograms, CSV fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lexcl import metrics as M
from lexcl.embeddings import EmbeddingTable, snapshot_anchor
from lexcl.encoders import make_text_params, pooling, text_features
from lexcl.losses import FeatureBatch, LossConfig, total_loss
from lexcl.vocab import TokenArrays
from lexcl.errors import (DegenerateFeatureError, InvalidInputError, MetricError)


def full_sort_recall(q, g, relevance, k):
    """Brute-force oracle: full stable sort of every similarity row."""
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    gn = g / np.linalg.norm(g, axis=1, keepdims=True)
    hits = 0
    for qi in range(q.shape[0]):
        sims = [(-float(qn[qi] @ gn[gi]), gi) for gi in range(g.shape[0])]
        sims.sort()
        top = [gi for _, gi in sims[:k]]
        hits += bool(relevance[qi] & set(top))
    return 100.0 * hits / q.shape[0]


class TestRecallAtK:
    def test_identity_gallery(self):
        q = np.random.default_rng(0).normal(size=(5, 4))
        rel = {i: {i} for i in range(5)}
        assert M.recall_at_k(q, q, rel, 1) == 100.0

    def test_orthogonal_miss(self):
        q = np.eye(2)
        g = np.eye(2)
        rel = {0: {1}, 1: {0}}
        assert M.recall_at_k(q, g, rel, 1) == 0.0

    def test_matches_full_sort_oracle_100_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            nq, ng = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            q = rng.normal(size=(nq, 5))
            g = rng.normal(size=(ng, 5))
            rel = {i: {int(rng.integers(0, ng))} for i in range(nq)}
            k = int(rng.integers(1, ng + 1))
            assert M.recall_at_k(q, g, rel, k) == full_sort_recall(q, g, rel, k)

    def test_tie_break_lower_index(self):
        q = np.array([[1.0, 0.0]])
        g = np.array([[2.0, 0.0], [1.0, 0.0]])  # identical cosine
        assert M.recall_at_k(q, g, {0: {0}}, 1) == 100.0
        assert M.recall_at_k(q, g, {0: {1}}, 1) == 0.0

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(4, 3))
        g = rng.normal(size=(6, 3))
        rel = {i: {i} for i in range(4)}
        base = M.recall_at_k(q, g, rel, 2)
        q2 = q * rng.uniform(0.1, 9.0, size=(4, 1))
        g2 = g * rng.uniform(0.1, 9.0, size=(6, 1))
        assert M.recall_at_k(q2, g2, rel, 2) == base

    def test_empty_relevance_rejected(self):
        q = np.ones((1, 2))
        with pytest.raises(InvalidInputError):
            M.recall_at_k(q, q, {0: set()}, 1)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            M.recall_at_k(np.zeros((1, 2)), np.ones((1, 2)), {0: {0}}, 1)

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            M.recall_at_k(np.ones((1, 2)), np.array([[1.0, np.nan]]),
                          {0: {0}}, 1)

    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("max_relevant", [1, 3])
    def test_matches_argsort_oracle_with_ties(self, k, max_relevant):
        """Small integer features repeat rows and directions, so many
        cosines tie exactly."""
        rng = np.random.default_rng(k * 10 + max_relevant)
        for _ in range(30):
            nq, ng = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            q = rng.integers(-1, 2, size=(nq, 3)).astype(float)
            g = rng.integers(-1, 2, size=(ng, 3)).astype(float)
            q[~q.any(axis=1), 0] = 1.0
            g[~g.any(axis=1), 0] = 1.0
            rel = {i: set(rng.choice(ng, size=min(ng, int(rng.integers(
                1, max_relevant + 1))), replace=False).tolist())
                for i in range(nq)}
            assert M.recall_at_k(q, g, rel, k) == \
                oracles.recall_at_k(q, g, rel, k)

    @given(seed=st.integers(0, 100_000), k=st.sampled_from([1, 5, 10]))
    @settings(max_examples=40, deadline=None)
    def test_matches_argsort_oracle_random(self, seed, k):
        rng = np.random.default_rng(seed)
        nq, ng = int(rng.integers(1, 40)), int(rng.integers(1, 600))
        q, g = rng.normal(size=(nq, 4)), rng.normal(size=(ng, 4))
        g[rng.integers(0, ng, size=ng // 3)] = g[0]  # duplicated items tie
        rel = {i: set(rng.integers(0, ng, size=int(rng.integers(1, 4))).tolist())
               for i in range(nq)}
        assert M.recall_at_k(q, g, rel, k) == oracles.recall_at_k(q, g, rel, k)

    @given(seed=st.integers(0, 100_000),
           ks=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_tuple_of_k_equals_one_call_per_k(self, seed, ks):
        """One rank pass for several k gives, bit for bit, what a call per
        k and the argsort oracle give; ties are frequent."""
        rng = np.random.default_rng(seed)
        nq, ng = int(rng.integers(1, 30)), int(rng.integers(1, 300))
        q = rng.integers(-1, 2, size=(nq, 3)).astype(float)
        g = rng.normal(size=(ng, 3))
        q[~q.any(axis=1), 0] = 1.0
        g[rng.integers(0, ng, size=ng // 3)] = g[0]
        rel = {i: set(rng.integers(0, ng, size=int(rng.integers(1, 3))).tolist())
               for i in range(nq)}
        together = M.recall_at_k(q, g, rel, tuple(ks))
        assert list(together) == ks
        for k in ks:
            assert together[k] == M.recall_at_k(q, g, rel, k)
            assert together[k] == oracles.recall_at_k(q, g, rel, k)

    def test_paired_recall_ranks_once_per_direction(self, monkeypatch):
        """Validation scores k = 1, 5, 10 in both directions: one rank
        pass per direction, not one per (direction, k)."""
        calls = []
        real = M.recall_at_k

        def counted(*args):
            calls.append(args[3])
            return real(*args)

        monkeypatch.setattr(M, "recall_at_k", counted)
        rng = np.random.default_rng(0)
        table = EmbeddingTable(rng.normal(size=(300, 8)))
        params = make_text_params(8, 8, 16, seed=1)
        tokens = TokenArrays(np.array([256, 257, 258, 259, 260, 261], dtype=np.int32),
                             np.array([0, 2, 4, 6]))
        res = M.paired_recall(tokens, table, params, rng.normal(size=(3, 8)),
                              ks=(1, 5, 10))
        assert calls == [(1, 5, 10), (1, 5, 10)]
        assert set(res) == {"img2txt", "txt2img"}
        assert all(list(res[d]) == [1, 5, 10] for d in res)


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
    """The array arguments of fisher_trace / mean_sample_loss for a list
    of (image feature, English ids, foreign ids) samples."""
    eng = TokenArrays.from_rows([s[1] for s in samples])
    foreign = TokenArrays.from_rows([s[2] for s in samples])
    return (np.array([s[0] for s in samples]),
            text_features(eng, anchor, params),
            pooling(foreign, table.row_count, params), table.matrix, params)


def per_sample_reference(samples, table, anchor, params, cfg):
    """(Fisher trace, mean loss) by one batch-size-1 loss per sample and
    the per-text adjoint."""
    fisher, losses = [], []
    for img, eng, foreign in samples:
        r_f = oracles.encode_text(foreign, table.matrix, params)[None, :]
        r_e = oracles.encode_text(eng, anchor.matrix, params)[None, :]
        loss, grad = total_loss(FeatureBatch(np.asarray(img)[None, :], r_e, r_f),
                                cfg)
        rows = oracles.encode_text_grad(foreign, table.matrix, params, grad[0])
        fisher.append(sum(float(g @ g) for g in rows.values()))
        losses.append(loss)
    return np.mean(fisher), np.mean(losses)


def tiny_model(seed=0, rows=12, d=6):
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(rng.normal(size=(rows, d)).astype(np.float32))
    anchor = snapshot_anchor(table.copy())
    params = make_text_params(d, d, L_max=4, seed=seed)
    samples = []
    for _ in range(5):
        img = rng.normal(size=d)
        eng = rng.integers(0, rows, size=3).tolist()
        foreign = rng.integers(0, rows, size=3).tolist()
        samples.append((img, eng, foreign))
    return samples, table, anchor, params


class TestFisherTrace:
    def test_zero_weights_zero_trace(self):
        samples, table, anchor, params = tiny_model()
        cfg = LossConfig(tau=0.07, gamma_cm=0.0, gamma_cl=0.0)
        assert M.fisher_trace(*sample_arrays(samples, table, anchor, params),
                              cfg) == 0.0

    def test_single_sample_is_its_norm(self):
        samples, table, anchor, params = tiny_model(1)
        cfg = LossConfig()

        def trace(s):
            return M.fisher_trace(*sample_arrays(s, table, anchor, params), cfg)

        one = trace(samples[:1])
        per = [trace([s]) for s in samples]
        assert one == per[0]
        assert np.isclose(trace(samples), np.mean(per))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("gammas", [(1.0, 1.0), (0.01, 1.0), (1.0, 0.0)])
    def test_matches_per_sample_reference(self, seed, gammas):
        samples, table, anchor, params = tiny_model(seed)
        cfg = LossConfig(0.07, *gammas)
        args = sample_arrays(samples, table, anchor, params)
        fisher, loss = per_sample_reference(samples, table, anchor, params, cfg)
        assert np.isclose(M.fisher_trace(*args, cfg), fisher, rtol=1e-12,
                          atol=1e-15)
        assert np.isclose(M.mean_sample_loss(*args, cfg), loss, rtol=1e-12,
                          atol=1e-15)

    def test_finite_difference_oracle(self):
        samples, table, anchor, params = tiny_model(2)
        cfg = LossConfig()
        img, eng, foreign = samples[0]

        def loss_of(matrix):
            r_i = np.asarray(img)[None, :]
            r_e = oracles.encode_text(eng, anchor.matrix, params)[None, :]
            r_f = oracles.encode_text(foreign, matrix.astype(np.float32),
                                      params)[None, :]
            return total_loss(FeatureBatch(r_i, r_e, r_f), cfg)[0]

        base = table.matrix.astype(np.float64)
        step = 1e-4
        sq = 0.0
        for tid in set(foreign):
            for c in range(base.shape[1]):
                plus, minus = base.copy(), base.copy()
                plus[tid, c] += step
                minus[tid, c] -= step
                sq += ((loss_of(plus) - loss_of(minus)) / (2 * step)) ** 2
        got = M.fisher_trace(*sample_arrays([samples[0]], table, anchor, params),
                             cfg)
        assert abs(got - sq) / max(sq, 1e-12) < 1e-3

    def test_empty_dataset(self):
        _, table, anchor, params = tiny_model()
        with pytest.raises(InvalidInputError):
            M.fisher_trace(*sample_arrays([], table, anchor, params),
                           LossConfig())


class TestTedHistogram:
    def test_constant_table_single_bin(self):
        t = EmbeddingTable(np.full((3, 4), 0.5, dtype=np.float32))
        edges, counts, below, above, stats = M.ted_histogram(t, bins=10)
        assert counts.sum() == 12 and len(counts) == 1
        assert below == 0 and above == 0

    def test_count_conservation(self):
        rng = np.random.default_rng(4)
        t = EmbeddingTable(rng.normal(size=(50, 8)).astype(np.float32))
        edges, counts, below, above, _ = M.ted_histogram(t, bins=16)
        assert counts.sum() + below + above == 50 * 8

    def test_gaussian_bin_mass(self):
        from scipy import stats as sps
        rng = np.random.default_rng(5)
        n_entries = 1_000_000
        t = EmbeddingTable(rng.normal(0.0, 0.02, size=(n_entries // 100, 100)))
        edges, counts, below, above, stats = M.ted_histogram(t, bins=20)
        for i, c in enumerate(counts):
            p = (sps.norm.cdf(edges[i + 1], stats.mu, stats.sigma)
                 - sps.norm.cdf(edges[i], stats.mu, stats.sigma))
            se = np.sqrt(n_entries * p * (1 - p))
            assert abs(c - n_entries * p) <= 3 * se + 1

    def test_histogram_csv(self, tmp_path):
        t = EmbeddingTable(np.random.default_rng(6).normal(size=(8, 8)))
        edges, counts, *_ = M.ted_histogram(t, bins=4)
        p = tmp_path / "ted.csv"
        M.save_histogram_csv(edges, counts, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 5

    def test_bins_validation(self):
        t = EmbeddingTable(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(InvalidInputError):
            M.ted_histogram(t, bins=1)
