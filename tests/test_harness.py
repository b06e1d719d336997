"""End-to-end harness tests on a miniature benchmark: determinism,
λ invariants surfaced through a whole run, modes, artifact layout."""

import hashlib
import json
import os

import numpy as np
import pytest

from scipy import stats as sps

from lexcl import bench, bpe, harness, vocab
from lexcl.bench import SPLITS
from lexcl.embeddings import load_checkpoint
from lexcl.errors import CheckpointError, InvalidInputError, NumericError
from lexcl.harness import RunConfig, Runner, run_sequence, sub_seed
from lexcl.metrics import EvalMatrix
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
            assert load_checkpoint(pa).matrix.tobytes() == \
                load_checkpoint(pb).matrix.tobytes()

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
        n_test = len(r.tasks[0].test)
        random_r1 = 100.0 / n_test
        # the 5x margin belongs to the full-size benchmark; the miniature
        # one (12 test images) only supports a coarser bound
        assert r.eval_matrix.get(0, 0, "img2txt") >= 2 * random_r1

    def test_anchor_frozen_through_later_tasks(self, tiny_data, tmp_path):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        r.run_task(0, [0])
        before = r.anchor.matrix.copy()
        r.run_task(1, [1])
        assert np.array_equal(r.anchor.matrix, before)

    def test_encoder_params_frozen(self, tiny_data, tmp_path):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run"))
        W = r.params.W.copy()
        img = r.provider.features.copy()
        r.run_task(0, [0])
        r.run_task(1, [1])
        assert np.array_equal(r.params.W, W)
        assert np.array_equal(r.provider.features, img)


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
        before = r.table.matrix[frozen_rows].copy()
        r.run_task(1, [1])
        after = r.table.matrix[frozen_rows]
        assert after.tobytes() == before.tobytes()

    def test_baseline_rewrites_old_rows(self, tiny_data, tmp_path):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run", teir_reg=False,
                                teir_init=False))
        r.run_task(0, [0])
        before = r.table.matrix.copy()
        r.run_task(1, [1])
        changed = (r.table.matrix[: before.shape[0]] != before).any()
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
        run_sequence(tiny_run_cfg(tiny_data, out))
        for name in ("eval_matrix.csv", "registry_manifest.json", "config.json",
                     "ckpt_task0.bin", "ckpt_task2.bin", "vocab_task1.txt",
                     "merges_task1.txt", "run.log"):
            assert (out / name).exists(), name
        for name in ("dist_stats.csv", "fisher.csv", "loss_curve.csv",
                     "final_loss.csv"):
            assert (out / "diagnostics" / name).exists(), name

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
            tiny_run_cfg(tiny_data, tmp_path, mode="sideways").validate()
        with pytest.raises(InvalidInputError):
            tiny_run_cfg(tiny_data, tmp_path, epochs=0).validate()

    @pytest.mark.parametrize("field, value", [
        ("vocab_size_per_task", 256), ("dim", 0), ("d_out", 0), ("l_max", 0),
        ("lr_peak", float("nan")), ("weight_decay", float("inf")),
    ])
    def test_config_validation_ranges(self, tiny_data, tmp_path, field,
                                      value):
        with pytest.raises(InvalidInputError):
            tiny_run_cfg(tiny_data, tmp_path, **{field: value}).validate()

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_config_validation_tau_finite(self, tiny_data, tmp_path, tau):
        from lexcl.losses import LossConfig
        with pytest.raises(InvalidInputError, match="loss.tau"):
            tiny_run_cfg(tiny_data, tmp_path,
                         loss=LossConfig(tau=tau)).validate()

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


_MODES = {"continual": {}, "joint": {"mode": "joint"},
          "oracle": {"oracle_vocab": True}}


# sha256 of each checkpoint and of eval_matrix.csv of the tiny run at
# seed 0. Determinism tests compare two runs of the same code; these pin
# the outputs themselves, so a deterministic change to a step shows.
_GOLDEN = {
    "continual": {
        "ckpt_task0.bin": "da789370885c519a23a30e4b37a2fc39eaee20ae00348701a056ddb951c6d1a2",
        "ckpt_task1.bin": "5a1f662b11e3ff85fd705787286f1cd1fd288aaa025b260c7c3e97ca6a728377",
        "ckpt_task2.bin": "aeb14c9e3fd513233a5b5746b3d576ea3669784142d174df82b0bf6cbe22fd8e",
        "eval_matrix.csv": "d138fc0bc0d37b304b3397e04ff6921b92092517c4c4daea7af58890daa258ea",
    },
    "joint": {
        "ckpt_task0.bin": "c1d509d9fc580fe6daaac2eba8719d42036bd6af52a1fcba8f595266d54fef7a",
        "ckpt_task2.bin": "e0fbe45d782600a55001fd60b33d91cdee00b19e6fcc5da5e73d31343a0147c3",
        "eval_matrix.csv": "6c1deb49171fe0288215d677dc3cf1556fe46cc4b5a3704d4062f6901cc84486",
    },
    "oracle": {
        "ckpt_task0.bin": "c1d509d9fc580fe6daaac2eba8719d42036bd6af52a1fcba8f595266d54fef7a",
        "ckpt_task1.bin": "431bb760a763049a9325e4312b031b6acc9e55917ee9daab4699e2b31bb76c42",
        "ckpt_task2.bin": "a3b20eaf8404f824dd35478b0bddedb9573eb752891c80164e61211befa5e884",
        "eval_matrix.csv": "e2ad1e75cc60a20fca4d0d6995baa232ae658348b2c39499983563488c98ea3b",
    },
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_outputs_match_golden_digest(self, tiny_data, tmp_path, mode):
        out = tmp_path / "run"
        run_sequence(tiny_run_cfg(tiny_data, out, **_MODES[mode]))
        names = sorted(p.name for p in out.glob("ckpt_task*.bin"))
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in names + ["eval_matrix.csv"]}
        assert digests == _GOLDEN[mode]


class TestTokenArrays:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_cached_rows_equal_global_ids(self, tiny_data, tmp_path, mode):
        r = Runner(tiny_run_cfg(tiny_data, tmp_path / "run", **_MODES[mode]))
        for row, train in harness.steps(r.cfg.mode, len(r.tasks)):
            r.run_task(row, train)
        for t, td in enumerate(r.tasks):
            v = 0 if mode != "continual" else t
            for split in SPLITS:
                triplets = getattr(td, split)
                assert len(td.tokens[split]) == len(triplets)
                for k, tr in enumerate(triplets):
                    assert td.tokens[split].row(k) == \
                        r.state.global_ids(tr.foreign_text, v)
            assert len(td.english) == len(td.train)
            for k, tr in enumerate(td.train):
                assert td.english.row(k) == \
                    r.state.global_ids(tr.english_text, 0)

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
