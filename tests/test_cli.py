"""CLI tests: subcommand wiring, exit codes, reports, grad-check gate."""

import os
import shutil
import subprocess
import sys
import time

import pytest

from lexcl.cli import EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from lexcl.gradcheck import run_grad_check
from lexcl.metrics import EvalMatrix


TINY_BENCH = """
bench.n_concepts = 30
bench.n_languages = 3
bench.n_train = 48
bench.n_val = 12
bench.n_test = 12
bench.concepts_per_image = 2
bench.d_out = 16
bench.lexical_overlap = 0.5
bench.seed = 0
"""

TINY_RUN = """
vocab.size_per_task = 300
model.dim = 16
model.d_out = 16
model.l_max = 16
train.epochs = 2
train.batch_size = 8
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    bench_cfg = root / "bench.cfg"
    bench_cfg.write_text(TINY_BENCH)
    run_cfg = root / "run.cfg"
    run_cfg.write_text(TINY_RUN)
    data = root / "data"
    assert main(["gen-data", "--config", str(bench_cfg),
                 "--out", str(data)]) == EXIT_OK
    run = root / "run"
    assert main(["train", "--config", str(run_cfg), "--data", str(data),
                 "--out", str(run), "--seed", "0"]) == EXIT_OK
    return root


class TestGenData:
    def test_effective_config_written(self, workdir):
        assert (workdir / "data" / "effective_config.txt").exists()

    def test_invalid_overlap_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bench.lexical_overlap = 1.5\n")
        code = main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "d")])
        assert code == EXIT_USAGE
        assert "lexical_overlap" in capsys.readouterr().err

    def test_rerun_byte_identical(self, workdir, tmp_path):
        import filecmp
        d2 = tmp_path / "data2"
        assert main(["gen-data", "--config", str(workdir / "bench.cfg"),
                     "--out", str(d2)]) == EXIT_OK
        names = []
        for dirpath, _, files in os.walk(workdir / "data"):
            rel = os.path.relpath(dirpath, workdir / "data")
            names += [os.path.join(rel, f) for f in files
                      if f != "effective_config.txt" or rel != "."]
        match, mismatch, errors = filecmp.cmpfiles(
            workdir / "data", d2, names, shallow=False)
        assert not mismatch and not errors

    def test_missing_out_flag(self):
        assert main(["gen-data"]) == EXIT_USAGE


class TestTrain:
    def test_artifacts_and_effective_config(self, workdir):
        run = workdir / "run"
        assert (run / "eval_matrix.csv").exists()
        assert (run / "effective_config.txt").exists()

    def test_flag_overrides_recorded(self, workdir, tmp_path):
        out = tmp_path / "base"
        assert main(["train", "--config", str(workdir / "run.cfg"),
                     "--data", str(workdir / "data"), "--out", str(out),
                     "--teir-init", "off", "--teir-reg", "off"]) == EXIT_OK
        eff = (out / "effective_config.txt").read_text()
        assert "run.teir_init = off" in eff
        assert "run.teir_reg = off" in eff

    def test_missing_data_dir(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == EXIT_IO

    @pytest.mark.parametrize("line", [
        "optim.lr = nan",
        "loss.tau = inf",
        "optim.weight_decay = -inf",
        "vocab.size_per_task = 256",
        "model.dim = 0",
        "model.d_out = 0",
        "model.l_max = 0",
        "optim.kind = adam",
        "optim.lr = -1",
        "optim.warmup_fraction = 1.5",
        "optim.weight_decay = -0.1",
    ])
    def test_bad_config_fails_fast(self, workdir, tmp_path, line, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_RUN + line + "\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg),
                     "--data", str(workdir / "data"),
                     "--out", str(out)]) == EXIT_USAGE
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()


class TestImports:
    def test_no_scipy_stats_in_a_cli_process(self, tmp_path):
        """Importing scipy.stats costs about a second per command; lexcl
        needs only scipy.sparse, so gen-data and train must not load it."""
        (tmp_path / "bench.cfg").write_text(TINY_BENCH)
        (tmp_path / "run.cfg").write_text(TINY_RUN)
        script = (
            "import sys\n"
            "from lexcl.cli import main\n"
            "assert main(['gen-data', '--config', 'bench.cfg', '--out', 'd']) == 0\n"
            "assert main(['train', '--config', 'run.cfg', '--data', 'd',"
            " '--out', 'r']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, LEXCL_LOG="quiet", PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestEvalAndReport:
    def test_eval_recomputation_matches(self, workdir):
        run = workdir / "run"
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_OK
        recomputed = EvalMatrix.load_csv(run / "eval_matrix_recomputed_test.csv")
        stored = EvalMatrix.load_csv(run / "eval_matrix.csv")
        assert recomputed.entries == stored.entries

    @pytest.mark.parametrize("flag", ["--oracle-vocab", "--mode=joint"])
    def test_eval_matches_in_shared_vocab_modes(self, workdir, tmp_path, flag):
        run = tmp_path / "run"
        assert main(["train", "--config", str(workdir / "run.cfg"),
                     "--data", str(workdir / "data"), "--out", str(run),
                     flag]) == EXIT_OK
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_OK
        recomputed = EvalMatrix.load_csv(run / "eval_matrix_recomputed_test.csv")
        stored = EvalMatrix.load_csv(run / "eval_matrix.csv")
        assert recomputed.entries == stored.entries

    def test_eval_fails_when_the_stored_matrix_differs(self, workdir,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        stored = EvalMatrix.load_csv(run / "eval_matrix.csv")
        key = min(stored.entries)
        stored.entries[key] = (stored.entries[key] + 50.0) % 100.0
        stored.save_csv(run / "eval_matrix.csv")
        monkeypatch.setenv("LEXCL_LOG", "quiet")
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_RUNTIME
        assert "differs" in capsys.readouterr().err

    def test_report_outputs(self, workdir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--run", str(workdir / "run"),
                     "--out", str(out)]) == EXIT_OK
        for name in ("ar_f.csv", "eval_matrix.csv", "fisher.csv",
                     "loss_curve.csv", "ted_task0.csv"):
            assert (out / name).exists(), name
        svg = [p for p in os.listdir(out) if p.endswith(".svg")]
        assert svg

    def test_report_on_empty_dir(self, tmp_path):
        code = main(["report", "--run", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "o")])
        assert code != EXIT_OK


class TestGradCheck:
    def test_passes_under_ten_seconds(self, capsys):
        t0 = time.time()
        assert main(["grad-check"]) == EXIT_OK
        assert time.time() - t0 < 10.0
        assert "passed" in capsys.readouterr().out

    def test_corruption_detected(self, capsys):
        assert main(["grad-check", "--corrupt", "0.5"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "row" in err and "col" in err

    def test_library_level_result(self):
        res = run_grad_check()
        assert res.passed(tol=1e-4)


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE
