"""Acceptance gate.

Each test prints one PASS/FAIL line. Criteria 5-8 share a module-scoped
fixture that trains five configurations (baseline, init-only, reg-only,
full, joint) on the default benchmark over three master seeds; expect a
few minutes of runtime for that block. Everything else is fast.
"""

import sys
import tempfile
import time

import numpy as np
import pytest
from scipy import stats as sps

from lexcl import bpe, optim, vocab
from lexcl.bench import BenchConfig, gen_benchmark, load_dataset
from lexcl.embeddings import (EmbeddingTable, dist_stats, expand, fixed_policy,
                              init_table, load_checkpoint, matched_policy,
                              save_checkpoint)
from lexcl.gradcheck import run_grad_check
from lexcl.harness import RunConfig, run_sequence
from lexcl.losses import FeatureBatch, cl_loss, cm_loss
from lexcl.metrics import EvalMatrix, average_recall, forgetting, recall_at_k

SEEDS = (0, 1, 2)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {criterion}" + (f" — {detail}" if detail else "")
    # write past pytest's capture so the verdict is always visible
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{criterion}: {detail}"


# --- 1. gradient exactness -------------------------------------------------

def test_criterion_1_gradient_exactness():
    t0 = time.time()
    res = run_grad_check(n_instances=5, seed=0)
    elapsed = time.time() - t0
    ok = res.passed(tol=1e-4) and elapsed < 10.0
    report("criterion 1: gradient exactness", ok,
           f"max rel err {res.max_rel_err:.3e}, {elapsed:.1f}s")


# --- 2. loss oracles ---------------------------------------------------------

def _brute_cm(R_I, R_F, tau):
    K = R_I.shape[0]
    cos = lambda u, v: float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
    s = [[cos(R_I[k], R_F[l]) / tau for l in range(K)] for k in range(K)]
    li = sum(-np.log(np.exp(s[k][k]) / sum(np.exp(s[k][l]) for l in range(K)))
             for k in range(K))
    lt = sum(-np.log(np.exp(s[k][k]) / sum(np.exp(s[j][k]) for j in range(K)))
             for k in range(K))
    return 0.5 * (li + lt) / K


def test_criterion_2_loss_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 5))
        b = FeatureBatch(R_I=rng.normal(size=(K, 6)),
                         R_E=rng.normal(size=(K, 6)),
                         R_F=rng.normal(size=(K, 6)))
        worst = max(worst, abs(cm_loss(b, 0.07)[0] - _brute_cm(b.R_I, b.R_F, 0.07)))
        brute_cl = sum(float(np.sum((b.R_E[k] - b.R_F[k]) ** 2))
                       for k in range(K)) / (2 * K)
        worst = max(worst, abs(cl_loss(b)[0] - brute_cl))
    R = np.eye(2)
    hand = abs(cm_loss(FeatureBatch(R, R, R), 1.0)[0] - np.log(1 + np.exp(-1.0)))
    ok = worst < 1e-6 and hand < 1e-6
    report("criterion 2: loss oracles", ok,
           f"worst brute-force gap {worst:.2e}, K=2 hand gap {hand:.2e}")


# --- 3. lambda semantics ----------------------------------------------------

def test_criterion_3_lambda_semantics():
    rng = np.random.default_rng(1)
    ok = True
    detail = ""
    for trial in range(20):
        words = [f"w{i}" for i in range(10)]
        state = vocab.new_state()
        counts = np.zeros(0, dtype=np.int64)
        kind = ("sgd", "adamw")[trial % 2]
        table = None
        for t in range(int(rng.integers(2, 5))):
            corpus = [" ".join(rng.choice(words, size=5, replace=False))] * 3
            tv = bpe.train_bpe(corpus, 270, t)
            state, part = vocab.merge_vocab(state, tv)
            padded = np.zeros(state.size, dtype=np.int64)
            padded[: len(counts)] = counts
            lam = vocab.lambda_for(part, padded)
            # overlap values exact
            for j in part.overlap:
                if lam[j] != 1.0 / (padded[j] + 1.0):
                    ok, detail = False, f"overlap lambda wrong at id {j}"
            if table is None or table.row_count < state.size:
                grow = state.size - (0 if table is None else table.row_count)
                table = (init_table(state.size, 4, fixed_policy(0, 0.5), t)
                         if table is None else
                         expand(table, grow, fixed_policy(0, 0.5), t))
            ref = table.copy()
            before = table.matrix.copy()
            cfg = optim.OptimConfig(kind=kind, lr_peak=0.2, weight_decay=0.01,
                                    warmup_fraction=0.1, total_steps=6)
            st1, st2 = optim.OptimState(), optim.OptimState()
            for _ in range(6):
                rows = rng.choice(state.size, size=8, replace=False)
                grads = rng.normal(size=(8, 4))
                optim.step(table, rows, lam, grads, cfg, st1)
                optim.step(ref, rows, np.ones(state.size), grads, cfg, st2)
            for j in range(state.size):
                if lam[j] == 0.0 and table.matrix[j].tobytes() != before[j].tobytes():
                    ok, detail = False, f"lambda=0 row {j} changed"
                if lam[j] == 1.0 and table.matrix[j].tobytes() != ref.matrix[j].tobytes():
                    ok, detail = False, f"lambda=1 row {j} differs from reference"
            counts = vocab.update_counts(counts, tv, state)
    report("criterion 3: lambda semantics (Eq. 5-6)", ok, detail)


# --- 4. initialization distribution -----------------------------------------

def test_criterion_4_init_distribution():
    ks_crit = 1.628  # one-sample KS critical value at alpha=0.01, / sqrt(n)
    rng = np.random.default_rng(2)
    trained = EmbeddingTable(rng.normal(0.01, 0.3, size=(500, 64)))
    src = dist_stats(trained)
    out = expand(trained, 200, matched_policy(src), rng_seed=3)
    new = out.matrix[500:].astype(np.float64).ravel()
    n = new.size
    ok = n >= 10_000
    ok &= abs(new.mean() - src.mu) < 4 * src.sigma / np.sqrt(n)
    ok &= abs(new.std() - src.sigma) < 4 * src.sigma / np.sqrt(2 * n)
    ks_m = sps.kstest(new, "norm", args=(src.mu, src.sigma)).statistic
    ok &= ks_m < ks_crit / np.sqrt(n)
    fixed = expand(trained, 200, fixed_policy(0.0, 0.02), rng_seed=4)
    newf = fixed.matrix[500:].astype(np.float64).ravel()
    ok &= abs(newf.mean()) < 4 * 0.02 / np.sqrt(n)
    ok &= abs(newf.std() - 0.02) < 4 * 0.02 / np.sqrt(2 * n)
    ks_f = sps.kstest(newf, "norm", args=(0.0, 0.02)).statistic
    ok &= ks_f < ks_crit / np.sqrt(n)
    report("criterion 4: initialization distribution", ok,
           f"KS matched {ks_m * np.sqrt(n):.3f}, fixed {ks_f * np.sqrt(n):.3f} "
           f"(critical {ks_crit})")


# --- 5-8. end-to-end directional criteria -----------------------------------

@pytest.fixture(scope="module")
def runs():
    """Mean-over-seeds metrics for each configuration on the default bench."""
    data = {}
    for seed in SEEDS:
        d = tempfile.mkdtemp(prefix=f"lexcl_bench{seed}_")
        gen_benchmark(BenchConfig(seed=seed), d)
        data[seed] = d
    settings = {
        "base": dict(teir_init=False, teir_reg=False),
        "init": dict(teir_init=True, teir_reg=False),
        "reg": dict(teir_init=False, teir_reg=True),
        "full": dict(teir_init=True, teir_reg=True),
        "joint": dict(teir_init=False, teir_reg=False, mode="joint"),
    }
    out = {}
    for name, kw in settings.items():
        rows = []
        for seed in SEEDS:
            art = run_sequence(RunConfig(
                data_dir=data[seed], out_dir=tempfile.mkdtemp(), seed=seed, **kw))
            rows.append([art.final_ar["img2txt"], art.final_ar["txt2img"],
                         art.final_f.get("img2txt", 0.0),
                         art.final_f.get("txt2img", 0.0),
                         art.diagnostics["mean_fisher"],
                         art.diagnostics["mean_final_loss"]])
        m = np.mean(rows, axis=0)
        out[name] = dict(ar=(m[0], m[1]), f=(m[2], m[3]), fisher=m[4], loss=m[5])
    return out


def test_criterion_5_forgetting_mitigation(runs):
    b, f = runs["base"], runs["full"]
    ok = (f["ar"][0] > b["ar"][0] and f["ar"][1] > b["ar"][1]
          and f["f"][0] < b["f"][0] and f["f"][1] < b["f"][1])
    report("criterion 5: forgetting mitigation (full vs baseline)", ok,
           f"AR full {f['ar']} vs base {b['ar']}; F full {f['f']} vs base {b['f']}")


def test_criterion_6_component_ablations(runs):
    b, i, g, f = runs["base"], runs["init"], runs["reg"], runs["full"]
    ok_f = (i["f"][0] <= b["f"][0] and i["f"][1] <= b["f"][1]
            and g["f"][0] <= b["f"][0] and g["f"][1] <= b["f"][1])
    ok_ar = all(f["ar"][d] >= i["ar"][d] and f["ar"][d] >= g["ar"][d]
                for d in (0, 1))
    report("criterion 6: component ablations", ok_f and ok_ar,
           f"F init {i['f']} / reg {g['f']} vs base {b['f']}; "
           f"AR full {f['ar']} vs init {i['ar']} / reg {g['ar']}")


def test_criterion_7_convergence_diagnostic(runs):
    b, f = runs["base"], runs["full"]
    ok = f["fisher"] <= b["fisher"] and f["loss"] <= b["loss"]
    report("criterion 7: convergence diagnostic", ok,
           f"fisher full {f['fisher']:.3f} vs base {b['fisher']:.3f}; "
           f"loss full {f['loss']:.3f} vs base {b['loss']:.3f}")


def test_criterion_8_joint_upper_bound(runs):
    b, j = runs["base"], runs["joint"]
    ok = j["ar"][0] >= b["ar"][0] and j["ar"][1] >= b["ar"][1]
    report("criterion 8: joint upper bound", ok,
           f"AR joint {j['ar']} vs continual baseline {b['ar']}")


# --- 9. metric oracles --------------------------------------------------------

def test_criterion_9_metric_oracles():
    ok = True
    m = EvalMatrix()
    vals = {0: [50.0], 1: [40.0, 60.0], 2: [35.0, 55.0, 70.0]}
    for j, row in vals.items():
        for i, v in enumerate(row):
            m.set(j, i, "img2txt", v)
    a = np.array([[50, 0, 0], [40, 60, 0], [35, 55, 70]], dtype=float)
    ar_brute = a[2, :3].sum() / 3
    f_brute = np.mean([max(a[k, i] for k in range(i, 2)) - a[2, i]
                       for i in range(2)])
    ok &= average_recall(m, 2, "img2txt") == ar_brute
    ok &= forgetting(m, 2, "img2txt") == f_brute

    rng = np.random.default_rng(3)
    for _ in range(100):
        nq, ng = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        q, g = rng.normal(size=(nq, 5)), rng.normal(size=(ng, 5))
        rel = {i: {int(rng.integers(0, ng))} for i in range(nq)}
        k = int(rng.integers(1, ng + 1))
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        gn = g / np.linalg.norm(g, axis=1, keepdims=True)
        hits = 0
        for qi in range(nq):
            order = sorted(range(ng), key=lambda gi: (-(qn[qi] @ gn[gi]), gi))
            hits += bool(rel[qi] & set(order[:k]))
        ok &= recall_at_k(q, g, rel, k) == 100.0 * hits / nq
    report("criterion 9: metric oracles", ok)


# --- 10. determinism & formats -------------------------------------------------

def test_criterion_10_determinism_and_formats(tmp_path):
    data = tmp_path / "data"
    gen_benchmark(BenchConfig(n_concepts=30, n_languages=3, n_train=48,
                              n_val=12, n_test=12, concepts_per_image=2,
                              d_out=16, seed=0), data)

    def run(out):
        return run_sequence(RunConfig(data_dir=str(data), out_dir=str(out),
                                      vocab_size_per_task=300, dim=16, d_out=16,
                                      l_max=16, epochs=2, batch_size=8, seed=0))

    a, b = run(tmp_path / "a"), run(tmp_path / "b")
    ok = a.eval_matrix.entries == b.eval_matrix.entries
    for pa, pb in zip(a.checkpoint_paths, b.checkpoint_paths):
        ok &= (load_checkpoint(pa).matrix.tobytes()
               == load_checkpoint(pb).matrix.tobytes())

    # checkpoint round-trip
    t = init_table(9, 7, fixed_policy(), rng_seed=1)
    p = tmp_path / "rt.bin"
    save_checkpoint(t, {}, p)
    ok &= np.array_equal(load_checkpoint(p).matrix, t.matrix)

    # dataset round-trip: regenerated tree is byte-identical
    data2 = tmp_path / "data2"
    gen_benchmark(BenchConfig(n_concepts=30, n_languages=3, n_train=48,
                              n_val=12, n_test=12, concepts_per_image=2,
                              d_out=16, seed=0), data2)
    ok &= ((data / "L1" / "train.tsv").read_bytes()
           == (data2 / "L1" / "train.tsv").read_bytes())
    ok &= ((data / "images.feat").read_bytes()
           == (data2 / "images.feat").read_bytes())
    triplets = load_dataset(str(data), "L1", "val")
    raw = (data / "L1" / "val.tsv").read_text(encoding="utf-8").splitlines()
    ok &= all(line.split("\t")[2] == tr.foreign_text
              for line, tr in zip(raw, triplets))

    # multi-byte BPE round-trip
    corpus = ["καλημέρα κόσμε κόσμε", "мир мир труд", "世界 héllo 世界"]
    tv = bpe.train_bpe(corpus, 300)
    ok &= all(bpe.decode(bpe.encode(s.encode(), tv), tv) == s.encode()
              for s in corpus + ["mixed καλη мир 世"])
    report("criterion 10: determinism & formats", ok)
