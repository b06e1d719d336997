"""End-to-end harness tests on a miniature benchmark: determinism,
λ invariants surfaced through a whole run, modes, artifact layout."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from scipy import stats as sps

import oracles
from lexcl import bench, bpe, cli, config, encoders, harness, report, vocab
from lexcl.bench import SPLITS
from lexcl.embeddings import load_checkpoint, write_matrix
from lexcl.errors import (CheckpointError, DatasetFormatError,
                          DegenerateFeatureError, InvalidInputError,
                          NumericError)
from lexcl.harness import RunConfig, Runner, run_sequence, sub_seed
from lexcl.metrics import EvalMatrix
from lexcl.optim import OptimConfig
from lexcl.report import recompute_eval_matrix


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    bench.gen_benchmark(bench.BenchConfig(
        n_concepts=30, n_languages=3, n_train=48, n_val=12, n_test=12,
        concepts_per_image=2, d_out=16, lexical_overlap=0.5, seed=0), d)
    return str(d)


def tiny_run_cfg(data_dir, out_dir, **kw):
    base = dict(data_dir=data_dir, out_dir=str(out_dir),
                vocab_size_per_task=300, dim=16, d_out=16, l_max=16,
                epochs=2, batch_size=8, seed=0)
    base.update(kw)
    return RunConfig(**base)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, tiny_data, tmp_path):
        a = run_sequence(tiny_run_cfg(tiny_data, tmp_path / "a"))
        b = run_sequence(tiny_run_cfg(tiny_data, tmp_path / "b"))
        assert a.eval_matrix.entries == b.eval_matrix.entries
        for pa, pb in zip(a.checkpoint_paths, b.checkpoint_paths):
            assert load_checkpoint(pa).tobytes() == \
                load_checkpoint(pb).tobytes()

    def test_different_seed_differs(self, tiny_data, tmp_path):
        a = run_sequence(tiny_run_cfg(tiny_data, tmp_path / "a"))
        b = run_sequence(tiny_run_cfg(tiny_data, tmp_path / "b", seed=1))
        assert a.eval_matrix.entries != b.eval_matrix.entries

    def test_sub_seed_distinct_names(self):
        assert sub_seed(0, "init", 1) != sub_seed(0, "init", 2)
        assert sub_seed(0, "init", 1) != sub_seed(1, "init", 1)
        assert sub_seed(3, "expand", 2) == sub_seed(3, "expand", 2)


class TestPretrain:
    def test_anchor_beats_random_baseline(self, tiny_data, tmp_path):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        r.run_task(0, [0])
        n_test = len(r.tasks[0].test.image)
        random_r1 = 100.0 / n_test
        # the 5x margin belongs to the full-size benchmark; the miniature
        # one (12 test images) only supports a coarser bound
        assert r.eval_matrix.get(0, 0, "img2txt") >= 2 * random_r1

    def test_anchor_frozen_through_later_tasks(self, tiny_data, tmp_path):
        """The anchor is the first step's saved table, taken once and
        read-only: a later step neither retakes nor changes it."""
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        r.run_task(0, [0])
        before = r.anchor.copy()
        r.run_task(1, [1])
        assert np.array_equal(r.anchor, before)
        saved = load_checkpoint(tmp_path / "run" / "ckpt_task0.bin")
        assert r.anchor.tobytes() == saved.tobytes()
        with pytest.raises(ValueError):
            r.anchor[0, 0] = 1.0

    def test_encoder_params_frozen(self, tiny_data, tmp_path):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        W = r.params.W.copy()
        img = r.images.copy()
        r.run_task(0, [0])
        r.run_task(1, [1])
        assert np.array_equal(r.params.W, W)
        assert np.array_equal(r.images, img)


class TestLambdaEndToEnd:
    def test_untouched_rows_bit_identical(self, tiny_data, tmp_path):
        """With regularization on, rows outside the task vocab survive
        the whole task bitwise."""
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run", teir_reg=True))
        r.run_task(0, [0])
        tv1 = r._task_vocab(1)
        task_tokens = set(tv1.tokens)
        frozen_rows = [i for i, tok in enumerate(r.state.tokens)
                       if tok not in task_tokens]
        before = r.table[frozen_rows].copy()
        r.run_task(1, [1])
        after = r.table[frozen_rows]
        assert after.tobytes() == before.tobytes()

    def test_baseline_rewrites_old_rows(self, tiny_data, tmp_path):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run", teir_reg=False,
                                teir_init=False))
        r.run_task(0, [0])
        before = r.table.copy()
        r.run_task(1, [1])
        changed = (r.table[: before.shape[0]] != before).any()
        assert changed


class TestModesAndArtifacts:
    def test_eval_matrix_shape_continual(self, tiny_data, tmp_path):
        art = run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run"))
        for j in range(3):
            for d in ("img2txt", "txt2img"):
                assert art.eval_matrix.row_complete(j, d)
        assert len(art.eval_matrix.row(2, "img2txt")) == 3

    def test_steps_per_mode(self):
        assert harness.steps("continual", 3) == [(0, [0]), (1, [1]), (2, [2])]
        assert harness.steps("joint", 3) == [(0, [0]), (2, [0, 1, 2])]
        assert harness.steps("joint", 1) == [(0, [0])]

    def test_vocab_growth_monotone(self, tiny_data, tmp_path):
        run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run"))
        with open(tmp_path / "run" / "registry_manifest.json") as f:
            records = json.load(f)
        sizes = [rec["vocab_after"] for rec in records]
        assert sizes == sorted(sizes)
        assert all(rec["vocab_after"] >= rec["vocab_before"] for rec in records)

    def test_registry_round_trip(self, tiny_data, tmp_path):
        """One record per step, in step order, whose old/overlap/new
        sizes split the vocab that the step's merge saw and grew."""
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        r.run()
        records = json.loads(
            (tmp_path / "run" / "registry_manifest.json").read_text())
        assert records == r.registry
        assert [rec["task_index"] for rec in records] == [0, 1, 2]
        for rec, prev in zip(records, [None] + records[:-1]):
            assert list(rec) == ["task_index", "vocab_before", "vocab_after",
                                 "n_old", "n_overlap", "n_new", "counts"]
            assert rec["vocab_before"] == (256 if prev is None
                                           else prev["vocab_after"])
            assert rec["n_old"] + rec["n_overlap"] == rec["vocab_before"]
            assert rec["n_new"] == rec["vocab_after"] - rec["vocab_before"]
            assert len(rec["counts"]) == rec["vocab_after"]
        assert records[-1]["counts"] == r.state.counts.tolist()

    def test_oracle_vocab_constant_size(self, tiny_data, tmp_path):
        run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run",
                                  oracle_vocab=True))
        with open(tmp_path / "run" / "registry_manifest.json") as f:
            records = json.load(f)
        sizes = {rec["vocab_after"] for rec in records}
        assert len(sizes) == 1

    def test_joint_mode_rows(self, tiny_data, tmp_path):
        art = run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run",
                                        mode="joint"))
        assert art.eval_matrix.row_complete(0, "img2txt")
        assert art.eval_matrix.row_complete(2, "img2txt")
        assert art.final_f == {}

    def test_artifact_files_present(self, tiny_data, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_run_cfg(tiny_data, out)
        run_sequence(cfg)
        for name in ("eval_matrix.csv", "registry_manifest.json", "config.json",
                     "ckpt_task0.bin", "ckpt_task2.bin", "vocab_task1.txt",
                     "merges_task1.txt", "run.log", "effective_config.txt"):
            assert (out / name).exists(), name
        for name in ("dist_stats.csv", "fisher.csv", "loss_curve.csv",
                     "final_loss.csv", "tokens.csv"):
            assert (out / "diagnostics" / name).exists(), name
        assert (config.load_config_file(out / "effective_config.txt")
                == config.settings(cfg))

    def test_run_log_grows_as_the_run_goes(self, tiny_data, tmp_path):
        """run.log holds each epoch's line once the epoch ends, before the
        run closes it."""
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        r.run_task(0, [0])
        lines = (tmp_path / "run" / "run.log").read_text().splitlines()
        assert [line.split(" loss ")[0] for line in lines] == [
            f"task 0 epoch {e}" for e in range(r.cfg.epochs)]
        r.log.close()

    def test_eval_matrix_csv_matches_artifacts(self, tiny_data, tmp_path):
        out = tmp_path / "run"
        art = run_sequence(tiny_run_cfg(tiny_data, out))
        on_disk = EvalMatrix.load_csv(out / "eval_matrix.csv")
        assert on_disk.entries == art.eval_matrix.entries

    def test_matched_init_records_ks(self, tiny_data, tmp_path):
        art = run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run",
                                        teir_init=True))
        ks_vals = [row["ks_stat"] for row in art.diagnostics["dist_stats"]
                   if row["task"] >= 1]
        assert any(np.isfinite(v) for v in ks_vals)

    def test_recorded_ks_matches_scipy(self, tiny_data, tmp_path, monkeypatch):
        """Each task's ks_stat is the KS statistic of its new rows against
        the pre-expansion fit, as scipy's kstest computes it."""
        expected = []
        real = harness.ks_statistic

        def checked(x, mu, sigma):
            expected.append(sps.kstest(np.asarray(x, dtype=np.float64).ravel(),
                                       "norm", args=(mu, sigma)).statistic)
            return real(x, mu, sigma)

        monkeypatch.setattr(harness, "ks_statistic", checked)
        art = run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run"))
        recorded = [r["ks_stat"] for r in art.diagnostics["dist_stats"][1:]]
        assert len(recorded) == len(expected) == 2
        assert np.allclose(recorded, expected, rtol=0, atol=1e-12)

    def test_recompute_checks_the_vocab_hash(self, tiny_data, tmp_path):
        """`lexcl eval` knows each row's vocab, so a sidecar that names
        another vocab is refused, not scored."""
        out = tmp_path / "run"
        run_sequence(tiny_run_cfg(tiny_data, out))
        recompute_eval_matrix(out, tiny_data)
        side = out / "ckpt_task1.bin.json"
        meta = json.loads(side.read_text())
        meta["vocab_hash"] = "0" * 64
        side.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="vocab hash"):
            recompute_eval_matrix(out, tiny_data)

    def test_config_validation(self, tiny_data, tmp_path):
        with pytest.raises(InvalidInputError):
            tiny_run_cfg(tiny_data, tmp_path, mode="sideways")
        with pytest.raises(InvalidInputError):
            tiny_run_cfg(tiny_data, tmp_path, epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("vocab_size_per_task", 256), ("dim", 0), ("d_out", 0), ("l_max", 0),
        ("lr_peak", float("nan")), ("weight_decay", float("inf")),
    ])
    def test_config_validation_ranges(self, tiny_data, tmp_path, field,
                                      value):
        with pytest.raises(InvalidInputError):
            if field in {f.name for f in fields(OptimConfig)}:
                tiny_run_cfg(tiny_data, tmp_path,
                             optim=OptimConfig(**{field: value}))
            else:
                tiny_run_cfg(tiny_data, tmp_path, **{field: value})

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_config_validation_tau_finite(self, tiny_data, tmp_path, tau):
        from lexcl.losses import LossConfig
        with pytest.raises(InvalidInputError, match="loss.tau"):
            tiny_run_cfg(tiny_data, tmp_path,
                         loss=LossConfig(tau=tau))

    def test_log_closed_when_a_task_fails(self, tiny_data, tmp_path,
                                          monkeypatch):
        runners = []

        def failing_task(self, row, train):
            runners.append(self)
            raise NumericError("injected failure")

        monkeypatch.setattr(Runner, "run_task", failing_task)
        with pytest.raises(NumericError, match="injected"):
            run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run"))
        assert runners and runners[0].log.closed


    def test_no_finite_validation_score_raises(self, tiny_data, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(Runner, "_val_score",
                            lambda self, t: float("nan"))
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        with pytest.raises(NumericError, match="finite validation score"):
            r.run_task(0, [0])
        r.log.close()


def _count_dataset_reads(monkeypatch) -> dict:
    """Count opens of the dataset's manifest and image features."""
    reads = {"manifest.json": 0, "images.feat": 0}
    real_open = open

    def counting_open(path, *args, **kwargs):
        name = os.path.basename(str(path))
        if name in reads:
            reads[name] += 1
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    return reads


class TestDatasetReads:
    def test_runner_reads_manifest_and_images_once(self, tiny_data, tmp_path,
                                                   monkeypatch):
        reads = _count_dataset_reads(monkeypatch)
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        r.log.close()
        assert reads == {"manifest.json": 1, "images.feat": 1}

    def test_recompute_reads_manifest_and_images_once(self, tiny_data,
                                                      tmp_path, monkeypatch):
        run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run"))
        reads = _count_dataset_reads(monkeypatch)
        recompute_eval_matrix(tmp_path / "run", tiny_data)
        assert reads == {"manifest.json": 1, "images.feat": 1}

    def test_zero_norm_image_row_names_R_I(self, tiny_data, tmp_path):
        """A train image whose feature row is all zeros stops the run at
        the loss, naming R_I, rather than training on a NaN cosine."""
        data = tmp_path / "data"
        shutil.copytree(tiny_data, data)
        images = bench.load_images(str(data)).copy()
        images[bench.load_dataset(str(data), "L0", "train").image[0]] = 0.0
        write_matrix(str(data / "images.feat"), bench.IMG_MAGIC, images)
        with pytest.raises(DegenerateFeatureError, match="R_I: zero-norm row"):
            Runner(tiny_run_cfg(str(data), tmp_path / "run")).run()


_MODES = {"continual": {}, "joint": {"mode": "joint"},
          "oracle": {"oracle_vocab": True}}


# sha256 of each checkpoint, eval_matrix.csv and registry_manifest.json
# of the tiny run at
# seed 0. Determinism tests compare two runs of the same code; these pin
# the outputs themselves, so a deterministic change to a step shows.
_GOLDEN = {
    "continual": {
        "ckpt_task0.bin": "da789370885c519a23a30e4b37a2fc39eaee20ae00348701a056ddb951c6d1a2",
        "ckpt_task1.bin": "5a1f662b11e3ff85fd705787286f1cd1fd288aaa025b260c7c3e97ca6a728377",
        "ckpt_task2.bin": "aeb14c9e3fd513233a5b5746b3d576ea3669784142d174df82b0bf6cbe22fd8e",
        "eval_matrix.csv": "d138fc0bc0d37b304b3397e04ff6921b92092517c4c4daea7af58890daa258ea",
        "registry_manifest.json": "f425ea35edc7b65acc6b005be0cf11106ae84ae98d6e8799d4f0468651d5b600",
    },
    "joint": {
        "ckpt_task0.bin": "c1d509d9fc580fe6daaac2eba8719d42036bd6af52a1fcba8f595266d54fef7a",
        "ckpt_task2.bin": "e0fbe45d782600a55001fd60b33d91cdee00b19e6fcc5da5e73d31343a0147c3",
        "eval_matrix.csv": "6c1deb49171fe0288215d677dc3cf1556fe46cc4b5a3704d4062f6901cc84486",
        "registry_manifest.json": "b9411ea3213e662edbb468ad511d1f8a18eb35d85e8d30c394f6042e7ad339a2",
    },
    "oracle": {
        "ckpt_task0.bin": "c1d509d9fc580fe6daaac2eba8719d42036bd6af52a1fcba8f595266d54fef7a",
        "ckpt_task1.bin": "431bb760a763049a9325e4312b031b6acc9e55917ee9daab4699e2b31bb76c42",
        "ckpt_task2.bin": "a3b20eaf8404f824dd35478b0bddedb9573eb752891c80164e61211befa5e884",
        "eval_matrix.csv": "e2ad1e75cc60a20fca4d0d6995baa232ae658348b2c39499983563488c98ea3b",
        "registry_manifest.json": "e871809126cb40c2a418552f326dc0f37e9ee0df995eeec3ae37fb4a1530799c",
    },
}


def _golden_digests(out):
    names = sorted(p.name for p in out.glob("ckpt_task*.bin"))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names + ["eval_matrix.csv", "registry_manifest.json"]}


class TestGoldenOutputs:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_outputs_match_golden_digest(self, tiny_data, tmp_path, mode):
        out = tmp_path / "run"
        run_sequence(tiny_run_cfg(tiny_data, out, **_MODES[mode]))
        assert _golden_digests(out) == _GOLDEN[mode]

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_run_frees_every_val_pooling(self, tiny_data, tmp_path, mode):
        """Each language's val pooling is freed after the last step that
        trains it; language 0's is read again in the joint step."""
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run", **_MODES[mode]))
        r.run()
        assert [sorted(td.pooled) for td in r.tasks] == (
            [["test", "train"]] * len(r.tasks))

    @pytest.mark.skipif(not oracles.dynamic_openblas(), reason=(
        "numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE "
        "cannot select another kernel"))
    @pytest.mark.parametrize("kernel", ["Sandybridge", "Nehalem"])
    def test_outputs_hold_under_another_blas_kernel(self, tiny_data,
                                                    tmp_path, kernel):
        """Checkpoints, the recall matrix and the registry are bitwise the
        same under an older OpenBLAS kernel (AVX, SSE4.2) as under the
        default."""
        out = tmp_path / "run"
        cfg = tiny_run_cfg(tiny_data, out)
        kwargs = {f.name: getattr(cfg, f.name) for f in fields(cfg)
                  if f.name not in ("loss", "optim")}
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
                   OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        script = ("import json, sys\n"
                  "from lexcl.harness import RunConfig, run_sequence\n"
                  "run_sequence(RunConfig(**json.loads(sys.argv[1])))\n")
        done = subprocess.run([sys.executable, "-c", script,
                               json.dumps(kwargs)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert f"Core: {kernel}" in done.stdout + done.stderr
        assert _golden_digests(out) == _GOLDEN["continual"]


def _reference_pooling(r, texts, v):
    """The pooling of `texts` under vocab v of Runner r, each text's ids
    from the reference encoder and the token strings."""
    tv = r.state.task_vocabs[v]
    rows = [[r.state.id_of[tv.tokens[i]]
             for i in oracles.encode_reference(text, tv)] for text in texts]
    return encoders.pooling([i for ids in rows for i in ids],
                            [len(ids) for ids in rows], r.state.size, r.params)


def _split(r, t, split):
    """Language t's split as the data directory of Runner r holds it: the
    runner itself drops the captions once it has pooled them."""
    return bench.load_dataset(r.cfg.data_dir, r.languages[t], split)


class TestTokenArrays:
    """Each split is pooled once, when its vocab is merged in, and every
    reader after that uses the held pooling."""

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_cached_rows_equal_global_ids(self, tiny_data, tmp_path, mode):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run", **_MODES[mode]))
        for row, train in harness.steps(r.cfg.mode, len(r.tasks)):
            r.run_task(row, train)
        held = [(td.pooled[split], _split(r, t, split).foreign,
                 0 if mode != "continual" else t)
                for t, td in enumerate(r.tasks) for split in SPLITS]
        held.append((r.english, _split(r, 0, "train").english, 0))
        for pooled, texts, v in held:
            want = _reference_pooling(r, texts, v)
            assert pooled.ids.dtype == np.int32
            for name in ("ids", "w", "n"):
                assert np.array_equal(getattr(pooled, name),
                                      getattr(want, name))
        r.log.close()

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_vocab_files_give_the_pooled_ids(self, tiny_data, tmp_path,
                                             monkeypatch, mode):
        """`lexcl eval` derives every id again from the saved vocab and
        merges files, whose piece caches start cold. For every val and
        test caption those global ids equal the ones that the run pooled
        with the vocabs it trained."""
        pooled = {}
        real = vocab.VocabState.tokenize

        def recording(state, texts, task_index):
            pooled[tuple(texts)] = real(state, texts, task_index)
            return pooled[tuple(texts)]

        monkeypatch.setattr(vocab.VocabState, "tokenize", recording)
        out = tmp_path / "run"
        r = Runner(tiny_run_cfg(tiny_data, out, **_MODES[mode]))
        r.run()
        monkeypatch.undo()
        last = report._vocab_state_through(out, report._task_rows(out))[-1]
        assert not any(tv.segment_ids for tv in last.task_vocabs)
        for t, td in enumerate(r.tasks):
            v = harness.vocab_index(r.cfg.mode, r.cfg.oracle_vocab, t)
            for split in ("val", "test"):
                texts = _split(r, t, split).foreign
                ids, lengths = last.tokenize(texts, v)
                assert np.array_equal(ids, pooled[tuple(texts)][0])
                assert np.array_equal(lengths, pooled[tuple(texts)][1])

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_each_split_pooled_once(self, tiny_data, tmp_path, monkeypatch,
                                    mode):
        calls = []
        real = encoders.pooling
        for module in (encoders, harness):
            monkeypatch.setattr(module, "pooling",
                                lambda *args: calls.append(1) or real(*args))
        run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run",
                                  **_MODES[mode]))
        # every language's three splits, and the run's one list of
        # English train captions
        assert len(calls) == 3 * len(SPLITS) + 1

    def test_other_english_captions_are_refused(self, tiny_data, tmp_path,
                                                capsys):
        """Every language pairs its train rows with language 0's English
        captions; a dataset whose L2 train split holds another English
        caption is refused naming that file, before anything is written."""
        data = tmp_path / "data"
        shutil.copytree(tiny_data, data)
        path = data / "L2" / "train.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        img, english, foreign = lines[0].split("\t")
        lines[0] = "\t".join([img, english + " x", foreign])
        path.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "run"
        with pytest.raises(DatasetFormatError, match=r"L2/train\.tsv"):
            Runner(tiny_run_cfg(str(data), out))
        assert not out.exists()
        (tmp_path / "run.cfg").write_text("model.d_out = 16\n")
        assert cli.main(["train", "--config", str(tmp_path / "run.cfg"),
                         "--data", str(data), "--out", str(out)]) == cli.EXIT_IO
        assert "L2/train.tsv" in capsys.readouterr().err
        assert not out.exists()

    def test_finalize_encodes_the_english_captions_once(self, tiny_data,
                                                        tmp_path,
                                                        monkeypatch):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        for row, train in harness.steps(r.cfg.mode, len(r.tasks)):
            r.run_task(row, train)
        encoded = []
        real = harness.encode_text
        monkeypatch.setattr(harness, "encode_text",
                            lambda p, *a: encoded.append(p) or real(p, *a))
        r.log.close()
        r.finalize()
        assert len(encoded) == 1 and encoded[0] is r.english

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_captions_dropped_once_pooled(self, tiny_data, tmp_path, mode):
        """A language's foreign captions go once its vocab has pooled
        them, every English caption once vocab 0 has; after run() no
        caption text is held."""
        def held(td, column):
            return [getattr(getattr(td, split), column) is not None
                    for split in SPLITS]

        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run", **_MODES[mode]))
        for td in r.tasks:
            assert held(td, "english") == held(td, "foreign") == [True] * 3
        r.run_task(0, [0])
        for t, td in enumerate(r.tasks):
            assert held(td, "english") == [False] * 3
            assert held(td, "foreign") == [mode == "continual" and t > 0] * 3
        r.log.close()
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run2", **_MODES[mode]))
        r.run()
        for td in r.tasks:
            assert held(td, "english") == held(td, "foreign") == [False] * 3

    def test_tokens_csv_counts_the_cut(self, tiny_data, tmp_path):
        """diagnostics/tokens.csv: per task and split, the captions, their
        mean token count and how many are longer than model.l_max."""
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run", l_max=4))
        r.run()
        lines = (tmp_path / "run" / "diagnostics" / "tokens.csv"
                 ).read_text().splitlines()
        assert lines[0] == "task,split,captions,mean_tokens,cut_at_l_max"
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(t), split) for t, split, *_ in rows] == \
            [(t, split) for t in range(3) for split in ("english", *SPLITS)]
        for t, split, captions, mean_tokens, cut in rows:
            texts = (_split(r, int(t), "train").english if split == "english"
                     else _split(r, int(t), split).foreign)
            v = 0 if split == "english" else int(t)
            _, lengths = r.state.tokenize(texts, v)
            assert int(captions) == len(texts)
            assert float(mean_tokens) == lengths.mean()
            assert int(cut) == np.count_nonzero(lengths > 4) > 0

    @pytest.mark.parametrize("mode", ["continual", "joint"])
    def test_no_encoding_in_training_or_diagnostics(self, tiny_data,
                                                    tmp_path, monkeypatch,
                                                    mode):
        inside = []
        encodes = {"outside": 0, "inside": 0}
        real_encode = bpe.encode

        def counting_encode(text, tv):
            encodes["inside" if inside else "outside"] += 1
            return real_encode(text, tv)

        def flagged(method):
            def wrapper(self, *args, **kwargs):
                inside.append(method.__name__)
                try:
                    return method(self, *args, **kwargs)
                finally:
                    inside.pop()
            return wrapper

        monkeypatch.setattr(bpe, "encode", counting_encode)
        monkeypatch.setattr(vocab, "encode", counting_encode)
        monkeypatch.setattr(Runner, "_train_epochs",
                            flagged(Runner._train_epochs))
        monkeypatch.setattr(Runner, "finalize", flagged(Runner.finalize))
        run_sequence(tiny_run_cfg(tiny_data, tmp_path / "run",
                                  **_MODES[mode]))
        assert encodes["outside"] > 0
        assert encodes["inside"] == 0
