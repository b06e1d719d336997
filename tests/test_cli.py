"""CLI tests: subcommand wiring, exit codes, reports, grad-check gate."""

import ast
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from lexcl import bpe, cli, gradcheck, harness, report
from lexcl.cli import EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from lexcl.config import load_config_file
from lexcl.embeddings import (EMB_MAGIC, load_checkpoint, read_matrix,
                              write_matrix)
from lexcl.errors import (CheckpointError, DatasetError,
                          DegenerateFeatureError, InvalidInputError,
                          LexclError, NumericError)
from lexcl.gradcheck import run_grad_check
from lexcl.losses import batch_grad
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

# Every key of each config, with its default where the configs above
# leave it unset.
BENCH_KEYS = {
    "bench.n_concepts": 30, "bench.n_languages": 3, "bench.n_train": 48,
    "bench.n_val": 12, "bench.n_test": 12, "bench.concepts_per_image": 2,
    "bench.d_out": 16, "bench.lexical_overlap": 0.5, "bench.alphabet_size": 12,
    "bench.function_words": 6, "bench.sigma_img": 0.05, "bench.seed": 0,
}
RUN_KEYS = {
    "loss.tau": 0.07, "loss.gamma_cm": 0.01, "loss.gamma_cl": 1.0,
    "optim.kind": "sgd", "optim.lr": 1.0, "optim.weight_decay": 0.005,
    "optim.warmup_fraction": 0.1, "vocab.size_per_task": 300,
    "model.dim": 16, "model.d_out": 16, "model.l_max": 16,
    "model.encoder_seed": 7, "train.epochs": 2, "train.batch_size": 8,
    "run.teir_init": True, "run.teir_reg": True, "run.oracle_vocab": False,
    "run.mode": "continual", "run.seed": 0,
}


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
    # every step of an oracle-vocab run has the same vocab tokens
    assert main(["train", "--config", str(run_cfg), "--data", str(data),
                 "--out", str(root / "oracle"), "--oracle-vocab"]) == EXIT_OK
    return root


class TestGenData:
    def test_effective_config_written(self, workdir):
        assert (workdir / "data" / "effective_config.txt").exists()

    def test_effective_config_lists_every_key(self, workdir):
        assert load_config_file(
            workdir / "data" / "effective_config.txt") == BENCH_KEYS

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

    @pytest.mark.parametrize("line", [
        "bench.n_concepts = 1",  # fewer than concepts_per_image
        "bench.n_languages = 0",
        "bench.n_languages = 9",
        "bench.n_train = 0",
        "bench.n_val = on",
        "bench.n_test = -3",
        "bench.concepts_per_image = 0",
        "bench.d_out = 0",
        "bench.lexical_overlap = high",
        "bench.alphabet_size = 0",
        "bench.alphabet_size = 128",
        "bench.function_words = 0",
        "bench.sigma_img = -1",
        "bench.seed = -1",
        "bench.seed = 1e3",
        "bench.seed = 18446744073709551616",
    ])
    def test_bad_config_fails_fast(self, tmp_path, line, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_BENCH + line + "\n")
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_USAGE
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()

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

    def test_effective_config_reproduces_the_run(self, workdir, tmp_path):
        """effective_config.txt holds every key with its effective value,
        so as --config it runs the same configuration again."""
        run = workdir / "run"
        assert load_config_file(run / "effective_config.txt") == RUN_KEYS
        rerun = tmp_path / "rerun"
        assert main(["train", "--config", str(run / "effective_config.txt"),
                     "--data", str(workdir / "data"),
                     "--out", str(rerun)]) == EXIT_OK
        configs = [json.loads((d / "config.json").read_text())
                   for d in (run, rerun)]
        for c in configs:
            c.pop("out_dir")
        assert configs[0] == configs[1]
        assert ((run / "ckpt_task2.bin").read_bytes()
                == (rerun / "ckpt_task2.bin").read_bytes())

    def test_key_set_twice_fails_naming_the_line(self, workdir, tmp_path,
                                                 capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("train.epochs = 1\ntrain.epochs = 2\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg),
                     "--data", str(workdir / "data"),
                     "--out", str(out)]) == EXIT_USAGE
        assert (f"{cfg}:2: 'train.epochs' is set twice"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_out_dir_holding_a_run_is_refused(self, workdir, tmp_path,
                                              capsys):
        """A joint run into a continual run's directory would leave the
        continual run's later checkpoints beside its own: it stops with
        exit 1 naming the directory, and changes no file there."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        held = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        assert main(["train", "--config", str(workdir / "run.cfg"),
                     "--data", str(workdir / "data"), "--out", str(run),
                     "--mode", "joint"]) == EXIT_USAGE
        assert f"{run}: already holds a run" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in run.rglob("*")
                if p.is_file()} == held

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
        "model.d_out = 32",  # the images are 16 wide
        "model.l_max = 0",
        "optim.kind = adam",
        "optim.lr = -1",
        "optim.warmup_fraction = 1.5",
        "optim.weight_decay = -0.1",
        "optim.lr = high",
        "loss.tau = high",
        "loss.gamma_cm = on",
        "train.epochs = 0",
        "train.epochs = 1.5",
        "train.batch_size = 1",
        "run.seed = 0.5",
        "model.dim = 8.0",
        "model.encoder_seed = 1e3",
        "model.encoder_seed = -1",
        "run.teir_init = 3",
        "run.oracle_vocab = 0",
        "optim.lr = 0",
        "optim.warmup_fraction = 1",
        "optim.kind = rmsprop",
        "loss.tau = 0",
        "loss.gamma_cm = -5",
        "loss.gamma_cl = -5",
        "loss.gamma_cm = 0",
        pytest.param("optim.lr = 1" + "0" * 400, id="optim.lr = 10**400"),
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


    @pytest.mark.parametrize("line", ["optim.weight_decay = 3",
                                      "optim.lr = 10000"])
    def test_diverging_decay_fails_at_validation(self, workdir, tmp_path,
                                                 line, capsys):
        """lr * weight_decay >= 1 makes the decay factor <= 0, which zeroes
        or flips the rows a step reads: exit 1 naming both keys, before
        the run starts."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_RUN + line + "\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg),
                     "--data", str(workdir / "data"),
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "optim.lr" in err and "optim.weight_decay" in err
        assert not out.exists()

    def test_step_past_float32_fails_naming_the_task(self, workdir, tmp_path,
                                                     monkeypatch, capsys):
        """A step that would leave float32's range stops the run with exit
        2 and names the task, the step and the row. The gradients of
        every SGD step, the tasks after pretraining, are made huge."""
        real = harness.optim_step

        def huge(matrix, rows, lam, grads, cfg, state):
            scale = 1e300 if cfg.kind == "sgd" else 1.0
            return real(matrix, rows, lam, grads * scale, cfg, state)

        monkeypatch.setattr(harness, "optim_step", huge)
        assert main(["train", "--config", str(workdir / "run.cfg"),
                     "--data", str(workdir / "data"),
                     "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert re.search(r"task 1: step \d+: row \d+ leaves float32's range",
                         capsys.readouterr().err)

    def test_zero_feature_fails_naming_the_task_and_step(self, workdir,
                                                         tmp_path, monkeypatch,
                                                         capsys):
        """At model.dim = 1 and model.l_max = 1 a caption's pooled input is
        one embedding row, with no positional term. Every SGD step, the
        tasks after pretraining, is made to zero the rows its batch reads:
        a later batch has a zero text feature. The run stops with exit 2
        naming the task and the last step taken."""
        real = harness.optim_step

        def zeroing(matrix, rows, lam, grads, cfg, state):
            real(matrix, rows, lam, grads, cfg, state)
            if cfg.kind == "sgd":
                matrix[rows] = 0.0

        monkeypatch.setattr(harness, "optim_step", zeroing)
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(TINY_RUN.replace("model.dim = 16", "model.dim = 1")
                       .replace("model.l_max = 16", "model.l_max = 1"))
        assert main(["train", "--config", str(cfg),
                     "--data", str(workdir / "data"),
                     "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert re.search(r"task 1: after step \d+: R_F: zero-norm row \d+",
                         capsys.readouterr().err)


# The largest value drawn for each size key, so that a run stays short.
SIZE_CAPS = {"vocab.size_per_task": 400, "model.dim": 32, "model.l_max": 32,
             "train.epochs": 2, "train.batch_size": 200}


def _declared(cls):
    """Every key field of config dataclass `cls` and of its sections."""
    for f in fields(cls):
        if "key" in f.metadata:
            yield f
        elif is_dataclass(f.default_factory):
            yield from _declared(f.default_factory)


def _drawn(f):
    """Values within the declaration of key field `f`: an int up to its
    size cap, a float log-uniform over its range (and the bound itself
    where the range holds it)."""
    name, bounds = f.metadata["key"], f.metadata["bounds"]
    if f.metadata["choices"]:
        return st.sampled_from(f.metadata["choices"])
    if f.type == "bool":
        return st.booleans()
    if f.type == "int":
        # a width other than the images' is refused at validation, as
        # test_bad_config_fails_fast checks
        if name == "model.d_out":
            return st.just(16)
        low = bounds["gt"] + 1 if "gt" in bounds else bounds.get("ge", -2**128)
        return st.integers(low, SIZE_CAPS.get(name, 2**128))
    low = bounds.get("ge", bounds.get("gt", 0.0))
    high = bounds.get("le", bounds.get("lt", sys.float_info.max))
    floats = (st.floats(math.log10(low) if low else -307.0,
                        min(math.log10(high), 308.0))
              .map(lambda e: min(max(10.0 ** e, low), high))
              .filter(lambda x: x != bounds.get("gt") and x != bounds.get("lt")))
    ends = [bounds[b] for b in ("le", "ge") if b in bounds]
    return st.one_of(floats, st.sampled_from(ends)) if ends else floats


def _value(v) -> str:
    if isinstance(v, bool):
        return "on" if v else "off"
    return v if isinstance(v, str) else repr(v)


def _finite_outputs(out) -> bool:
    """Every checkpoint, recall and diagnostic number of run `out` is
    finite, but the KS statistic, which is NaN where it is undefined."""
    values = [load_checkpoint(p)[0] for p in out.glob("ckpt_task*.bin")]
    values.append(list(EvalMatrix.load_csv(out / "eval_matrix.csv")
                       .entries.values()))
    for name in harness.DIAGNOSTICS:
        lines = (out / "diagnostics" / name).read_text().splitlines()
        header = lines[0].split(",")
        values += [[float(v) for h, v in zip(header, line.split(","))
                    if h not in ("task", "split", "ks_stat")]
                   for line in lines[1:]]
    return all(np.all(np.isfinite(v)) for v in values)


class TestFuzzedConfigs:
    """Every config within the declared bounds either trains to finite
    outputs, or is refused at validation before the run directory exists,
    or stops with exit 2 naming the task and the step; no numpy warning
    is raised on the way."""

    @settings(max_examples=25, derandomize=True, deadline=None,
              database=None, phases=[Phase.generate],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=st.fixed_dictionaries({f.metadata["key"]: _drawn(f)
                                      for f in _declared(harness.RunConfig)}))
    def test_train_finishes_or_fails_cleanly(self, workdir, tmp_path_factory,
                                             cfg):
        root = tmp_path_factory.mktemp("fuzz")
        (root / "run.cfg").write_text(
            "".join(f"{k} = {_value(v)}\n" for k, v in cfg.items()))
        out, err = root / "run", io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--config", str(root / "run.cfg"),
                         "--data", str(workdir / "data"), "--out", str(out)])
        if code == EXIT_USAGE:
            assert not out.exists()
        elif code == EXIT_RUNTIME:
            assert re.search(r"^error: task \w+: (after )?step \d+: ",
                             err.getvalue()), err.getvalue()
        else:
            assert code == EXIT_OK, err.getvalue()
            assert _finite_outputs(out)
        shutil.rmtree(root)


class TestImports:
    def test_no_scipy_in_a_cli_process(self, tmp_path):
        """lexcl needs only numpy at run time: importing scipy costs more
        than numpy itself, so no command may load any part of it."""
        (tmp_path / "bench.cfg").write_text(TINY_BENCH)
        (tmp_path / "run.cfg").write_text(TINY_RUN)
        script = (
            "import sys\n"
            "from lexcl.cli import main\n"
            "assert main(['gen-data', '--config', 'bench.cfg', '--out', 'd']) == 0\n"
            "assert main(['train', '--config', 'run.cfg', '--data', 'd',"
            " '--out', 'r']) == 0\n"
            "assert main(['eval', '--run', 'r', '--data', 'd']) == 0\n"
            "assert main(['report', '--run', 'r', '--out', 'rep']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, LEXCL_LOG="quiet", PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


def _count_vocab_parses(monkeypatch) -> list:
    """The vocab files `lexcl eval` parses from now on, one entry a call."""
    calls = []
    real = bpe.vocab_from_files

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(bpe, "vocab_from_files", counting)
    return calls


def _tree(root) -> dict[str, bytes]:
    """The bytes of every file under directory `root`, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


class TestEvalAndReport:
    def test_eval_recomputation_matches(self, workdir):
        run = workdir / "run"
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_OK
        recomputed = EvalMatrix.load_csv(run / "eval_matrix_recomputed_test.csv")
        stored = EvalMatrix.load_csv(run / "eval_matrix.csv")
        assert recomputed.entries == stored.entries

    @pytest.mark.parametrize("flag", ["--oracle-vocab", "--mode=joint"])
    def test_eval_matches_in_shared_vocab_modes(self, workdir, tmp_path, flag,
                                                monkeypatch):
        """The rows' vocab and merges files are byte-identical, so eval
        parses them once."""
        run = tmp_path / "run"
        assert main(["train", "--config", str(workdir / "run.cfg"),
                     "--data", str(workdir / "data"), "--out", str(run),
                     flag]) == EXIT_OK
        parsed = _count_vocab_parses(monkeypatch)
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_OK
        assert len(parsed) == 1
        recomputed = EvalMatrix.load_csv(run / "eval_matrix_recomputed_test.csv")
        stored = EvalMatrix.load_csv(run / "eval_matrix.csv")
        assert recomputed.entries == stored.entries

    @pytest.mark.parametrize("name", ["vocab_task1.txt", "merges_task1.txt"])
    def test_shared_vocab_with_a_damaged_second_file_fails(
            self, workdir, tmp_path, capsys, monkeypatch, name):
        """A second row whose files differ from the first row's is parsed
        on its own, so its damage still stops eval."""
        run = tmp_path / "run"
        assert main(["train", "--config", str(workdir / "run.cfg"),
                     "--data", str(workdir / "data"), "--out", str(run),
                     "--oracle-vocab"]) == EXIT_OK
        path = run / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ['"ab\\"']) + "\n")
        capsys.readouterr()
        parsed = _count_vocab_parses(monkeypatch)
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_USAGE
        assert len(parsed) == 2
        assert f"{path}:{len(lines) + 1}" in capsys.readouterr().err

    def test_eval_reads_the_run_once(self, workdir, tmp_path, monkeypatch):
        """One `lexcl eval` builds one reader: config.json is read and the
        frozen text parameters are drawn once."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        drawn = []
        real = report.make_text_params
        monkeypatch.setattr(report, "make_text_params",
                            lambda *a: drawn.append(a) or real(*a))
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_OK
        assert len(drawn) == 1

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

    @pytest.mark.parametrize("key, value, named", [
        ("bench.d_out", 32, "model.d_out: 16 is not the width 32"),
        ("bench.n_languages", 2, "2 languages, but the run has a checkpoint "
                                 "for task 2"),
    ], ids=["wider-images", "fewer-languages"])
    def test_eval_against_other_data_fails_naming_the_mismatch(
            self, workdir, tmp_path, capsys, key, value, named):
        """Data that does not fit the run ends eval before any scoring."""
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(TINY_BENCH.replace(f"{key} = {BENCH_KEYS[key]}",
                                          f"{key} = {value}"))
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) \
            == EXIT_OK
        shutil.copytree(workdir / "run", run, ignore=shutil.ignore_patterns(
            "eval_matrix_recomputed_*"))
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", str(data)]) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (run / "eval_matrix_recomputed_test.csv").exists()

    def test_run_with_flat_optim_fields_still_loads(self, workdir, tmp_path):
        """config.json nests the optim section. A run directory whose
        config.json holds the optim fields flat, as older runs wrote
        them, still evaluates exactly and reports."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run, ignore=shutil.ignore_patterns(
            "eval_matrix_recomputed_*"))
        path = run / "config.json"
        cfg = json.loads(path.read_text())
        optim = cfg.pop("optim")
        assert optim == {"kind": "sgd", "lr_peak": 1.0, "weight_decay": 0.005,
                         "warmup_fraction": 0.1}
        cfg.update(optim_kind=optim["kind"], lr_peak=optim["lr_peak"],
                   weight_decay=optim["weight_decay"],
                   warmup_fraction=optim["warmup_fraction"])
        path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_OK
        recomputed = EvalMatrix.load_csv(run / "eval_matrix_recomputed_test.csv")
        stored = EvalMatrix.load_csv(run / "eval_matrix.csv")
        assert recomputed.entries == stored.entries
        assert main(["report", "--run", str(run),
                     "--out", str(tmp_path / "report")]) == EXIT_OK

    def test_report_outputs(self, workdir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--run", str(workdir / "run"),
                     "--out", str(out)]) == EXIT_OK
        for name in ("ar_f.csv", "eval_matrix.csv", "fisher.csv",
                     "loss_curve.csv", "tokens.csv", "ted_task0.csv"):
            assert (out / name).exists(), name
        assert (out / "tokens.csv").read_bytes() == \
            (workdir / "run" / "diagnostics" / "tokens.csv").read_bytes()
        svg = [p for p in os.listdir(out) if p.endswith(".svg")]
        assert svg

    @pytest.mark.parametrize("flag", [None, "--mode=joint", "--oracle-vocab"],
                             ids=["continual", "joint", "oracle-vocab"])
    def test_train_prints_the_last_row_of_ar_f(self, workdir, tmp_path,
                                               capsys, monkeypatch, flag):
        """The AR and F that `lexcl train` prints are the last row of the
        ar_f.csv that `lexcl report` writes, and a joint run has no F."""
        monkeypatch.delenv("LEXCL_LOG", raising=False)
        run, rep = tmp_path / "run", tmp_path / "rep"
        assert main(["train", "--config", str(workdir / "run.cfg"),
                     "--data", str(workdir / "data"), "--out", str(run),
                     *([flag] if flag else [])]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()[-1]
        ar, f = printed.split(": AR ")[1].split(", F ")
        assert main(["report", "--run", str(run), "--out", str(rep)]) == EXIT_OK
        rows = [line.split(",")
                for line in (rep / "ar_f.csv").read_text().splitlines()[1:]]
        last = [row for row in rows if row[0] == rows[-1][0]]
        assert len(last) == 2
        assert ast.literal_eval(ar) == {d: float(a) for _, d, a, _ in last}
        assert ast.literal_eval(f) == {d: float(v) for _, d, _, v in last
                                       if v != ""}
        assert (f == "{}") == (flag == "--mode=joint")

    def test_joint_registry_naming_a_far_task_is_refused(self, workdir,
                                                         tmp_path):
        """Joint rows 0 and 10**12 would be the plan of 10**12 + 1 tasks,
        which is refused before that plan is built."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        cfg = json.loads((run / "config.json").read_text())
        (run / "config.json").write_text(json.dumps(dict(cfg, mode="joint")))
        (run / "registry_manifest.json").write_text(
            json.dumps([{"task_index": 0}, {"task_index": 10**12}]))
        with pytest.raises(InvalidInputError, match="not the steps of a joint"):
            report.FinishedRun(run).merges

    @pytest.mark.parametrize("command", ["eval", "report"])
    def test_missing_sidecar_fails_naming_it(self, workdir, tmp_path, capsys,
                                             command):
        """Every checkpoint load reads its sidecar: a run without one is
        an I/O error naming it."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        path = run / "ckpt_task1.bin.json"
        path.unlink()
        args = (["eval", "--run", str(run), "--data", str(workdir / "data")]
                if command == "eval" else
                ["report", "--run", str(run), "--out", str(tmp_path / "rep")])
        assert main(args) == EXIT_IO
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(harness.DIAGNOSTICS))
    def test_report_without_a_diagnostics_file_fails_naming_it(
            self, workdir, tmp_path, capsys, name):
        """`lexcl report` needs every file the run writes."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        path = run / "diagnostics" / name
        path.unlink()
        assert main(["report", "--run", str(run),
                     "--out", str(tmp_path / "rep")]) == EXIT_IO
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_stray_checkpoint_is_not_read(self, workdir, tmp_path):
        """Only the steps the registry lists are read: a checkpoint file
        of no step changes neither eval's matrix nor report's files."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run, ignore=shutil.ignore_patterns(
            "eval_matrix_recomputed_*"))
        assert main(["report", "--run", str(run),
                     "--out", str(tmp_path / "clean")]) == EXIT_OK
        for suffix in (".bin", ".bin.json"):
            shutil.copy(run / f"ckpt_task0{suffix}", run / f"ckpt_task7{suffix}")
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_OK
        assert (EvalMatrix.load_csv(run / "eval_matrix_recomputed_test.csv")
                .entries == EvalMatrix.load_csv(run / "eval_matrix.csv").entries)
        assert main(["report", "--run", str(run),
                     "--out", str(tmp_path / "rep")]) == EXIT_OK
        assert _tree(tmp_path / "rep") == _tree(tmp_path / "clean")

    def test_eval_scores_the_test_split_only(self, workdir, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        assert main(["eval", "--run", str(run), "--data", str(workdir / "data"),
                     "--split", "val"]) == EXIT_USAGE
        assert not (run / "eval_matrix_recomputed_val.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("row, bad", [
        ("0,0,img2txt", "a short row"),
        ("0,0,img2txt,high", "a non-numeric recall"),
        ("zero,0,img2txt,50.0", "a non-numeric row index"),
        ("0,0,img2txt,50.0", "a second row for the entry of line 2"),
    ])
    def test_damaged_eval_matrix_fails_naming_the_line(
            self, workdir, tmp_path, capsys, command, row, bad):
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        path = run / "eval_matrix.csv"
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        args = (["eval", "--run", str(run), "--data", str(workdir / "data")]
                if command == "eval" else
                ["report", "--run", str(run), "--out", str(tmp_path / "rep")])
        assert main(args) == EXIT_USAGE, bad
        assert f"{path}:3" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("row", ["0,x,1.5,3.0", "0,1", "0,1,high,3.0"])
    def test_damaged_loss_curve_fails_naming_the_line(self, workdir, tmp_path,
                                                      capsys, row):
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        path = run / "diagnostics" / "loss_curve.csv"
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--run", str(run),
                     "--out", str(tmp_path / "rep")]) == EXIT_USAGE
        assert f"{path}:3" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("damage, named", [
        ("truncated", "config.json"),
        ("no mode", "'mode'"),
    ])
    def test_damaged_run_config_fails_naming_the_file(
            self, workdir, tmp_path, capsys, command, damage, named):
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        path = run / "config.json"
        if damage == "truncated":
            path.write_text('{"dim": ')
        else:
            cfg = json.loads(path.read_text())
            del cfg["mode"]
            path.write_text(json.dumps(cfg))
        args = (["eval", "--run", str(run), "--data", str(workdir / "data")]
                if command == "eval" else
                ["report", "--run", str(run), "--out", str(tmp_path / "rep")])
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and named in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command, field, value, named", [
        ("eval", "dim", "x", "model.dim"),
        ("report", "mode", "sideways", "run.mode"),
    ])
    def test_mistyped_run_config_fails_naming_the_key(
            self, workdir, tmp_path, capsys, command, field, value, named):
        """A config.json field is checked against its RunConfig key."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        path = run / "config.json"
        cfg = json.loads(path.read_text())
        cfg[field] = value
        path.write_text(json.dumps(cfg))
        args = (["eval", "--run", str(run), "--data", str(workdir / "data")]
                if command == "eval" else
                ["report", "--run", str(run), "--out", str(tmp_path / "rep")])
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and named in err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("damaged", ["ckpt_task0.bin.json",
                                         "data/manifest.json"])
    def test_truncated_json_fails_naming_the_file(self, workdir, tmp_path,
                                                  capsys, damaged):
        """A truncated checkpoint sidecar or dataset manifest is an I/O
        error naming the file."""
        run, data = tmp_path / "run", tmp_path / "data"
        shutil.copytree(workdir / "run", run)
        shutil.copytree(workdir / "data", data)
        path = tmp_path / damaged if damaged.startswith("data/") else run / damaged
        path.write_text(path.read_text()[:10])
        assert main(["eval", "--run", str(run), "--data", str(data)]) == EXIT_IO
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("damaged, text", [
        ("ckpt_task0.bin.json", "[1]"),
        ("data/manifest.json", "[]"),
        ("data/manifest.json", '{"languages": "L0", "splits": {}}'),
        ("data/manifest.json", '{"languages": ["L0"], "splits": {"train": 1}}'),
    ])
    def test_json_of_the_wrong_shape_fails_naming_the_file(
            self, workdir, tmp_path, capsys, damaged, text):
        """A sidecar that is not a JSON object, or a manifest without its
        list of languages and a count for each split, is an I/O error
        naming the file."""
        run, data = tmp_path / "run", tmp_path / "data"
        shutil.copytree(workdir / "run", run)
        shutil.copytree(workdir / "data", data)
        path = tmp_path / damaged if damaged.startswith("data/") else run / damaged
        path.write_text(text)
        assert main(["eval", "--run", str(run), "--data", str(data)]) == EXIT_IO
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("name, line", [
        ("merges_task1.txt", "1 2 x"),
        ("vocab_task1.txt", '"ab\\"'),
        ("vocab_task1.txt", '"\u00e9"'),
    ])
    def test_damaged_vocab_files_fail_naming_the_line(self, workdir, tmp_path,
                                                      capsys, name, line):
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run)
        path = run / name
        lines = path.read_text().splitlines() + [line]
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_USAGE
        assert f"{path}:{len(lines)}" in capsys.readouterr().err

    def test_report_on_empty_dir(self, tmp_path):
        code = main(["report", "--run", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "o")])
        assert code != EXIT_OK


def _bad_byte(path):
    """Put a byte that is not UTF-8 at the start of line 3."""
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))


def _line3(text):
    """Damage that replaces line 3 of a file with `text`."""
    def damage(path):
        lines = path.read_bytes().split(b"\n")
        lines[2] = text.encode()
        path.write_bytes(b"\n".join(lines))
    return damage


def _empty_caption(path):
    """Blank the foreign caption of line 3."""
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].rsplit(b"\t", 1)[0] + b"\t"
    path.write_bytes(b"\n".join(lines))


def _emptied(path):
    path.write_bytes(b"")


def _header_only(path):
    path.write_bytes(path.read_bytes().split(b"\n")[0] + b"\n")


def _no_val_split(path):
    """Declare no val records in the manifest, and empty every val.tsv."""
    manifest = json.loads(path.read_text())
    manifest["splits"]["val"] = 0
    path.write_text(json.dumps(manifest))
    for tsv in path.parent.glob("*/val.tsv"):
        _emptied(tsv)


def _no_languages(path):
    path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                    languages=[])))


def _half_width(path, sidecar_too=False):
    """Keep the first half of the checkpoint's columns, and declare the
    new width in its sidecar if `sidecar_too`."""
    m = read_matrix(path, EMB_MAGIC)
    write_matrix(path, EMB_MAGIC, m[:, : m.shape[1] // 2])
    if sidecar_too:
        side = path.with_name(path.name + ".json")
        side.write_text(json.dumps(dict(json.loads(side.read_text()),
                                        dim=m.shape[1] // 2)))


def _deleted(path):
    path.unlink()


def _swapped_with_task2(path):
    """Swap the checkpoint with ckpt_task2.bin, each with its sidecar."""
    other = path.with_name("ckpt_task2.bin")
    for a, b in ((path, other), (path.with_name(path.name + ".json"),
                                 other.with_name(other.name + ".json"))):
        data = a.read_bytes()
        a.write_bytes(b.read_bytes())
        b.write_bytes(data)


def _no_row_2(path):
    """Drop every row of the recall matrix's row 2."""
    lines = path.read_bytes().split(b"\r\n")
    kept = [line for line in lines if not line.startswith(b"2,")]
    assert len(kept) == len(lines) - 6
    path.write_bytes(b"\r\n".join(kept))


def _n_overlap_off_by_one(path):
    """Count one more overlap token in the registry record of step 1."""
    records = json.loads(path.read_text())
    records[1]["n_overlap"] += 1
    path.write_text(json.dumps(records))


def _no_step_1(path):
    """Drop the registry record of step 1, leaving rows 0 and 2."""
    records = json.loads(path.read_text())
    path.write_text(json.dumps([r for r in records if r["task_index"] != 1]))


def _names_task_10_to_the_12(path):
    """Make the last registry record name task 10**12."""
    records = json.loads(path.read_text())
    records[-1]["task_index"] = 10**12
    path.write_text(json.dumps(records))


def _no_entry_1_0_img2txt(path):
    """Drop the recall matrix's row for entry (1, 0, img2txt), which the
    forgetting of row 2 reads."""
    lines = path.read_bytes().split(b"\r\n")
    kept = [line for line in lines if not line.startswith(b"1,0,img2txt,")]
    assert len(kept) == len(lines) - 1
    path.write_bytes(b"\r\n".join(kept))


def _no_shape(path):
    """Delete rows and dim from a checkpoint sidecar."""
    side = json.loads(path.read_text())
    del side["rows"], side["dim"]
    path.write_text(json.dumps(side))


def _huge_header(path):
    """Declare 0xFFFFFFFF x 0xFFFFFFFF entries in a matrix file's header:
    more bytes than the file holds, and than a read can ask for."""
    raw = bytearray(path.read_bytes())
    raw[12:20] = b"\xff" * 8
    path.write_bytes(bytes(raw))


class TestDamagedFiles:
    """A damaged dataset, config or run file ends the command with an exit
    code and the file's name (and line), not a traceback, before the
    command writes its output directory."""

    @pytest.mark.parametrize("command, damaged, damage, code, line", [
        pytest.param("train", "data/L1/train.tsv", _bad_byte, EXIT_IO, 3,
                     id="corpus-bad-byte"),
        pytest.param("train", "data/L1/val.tsv", _empty_caption, EXIT_IO, 3,
                     id="empty-caption"),
        pytest.param("eval", "data/L0/test.tsv", _bad_byte, EXIT_IO, 3,
                     id="tsv-bad-byte"),
        pytest.param("train", "run.cfg", _bad_byte, EXIT_USAGE, 3,
                     id="config-bad-byte"),
        pytest.param("train", "data/images.feat", _huge_header, EXIT_IO,
                     None, id="images-header-past-the-file"),
        pytest.param("train", "data/manifest.json", _no_val_split, EXIT_IO,
                     None, id="manifest-empty-val-split"),
        pytest.param("train", "data/manifest.json", _no_languages, EXIT_IO,
                     None, id="manifest-no-languages"),
        pytest.param("eval", "run/eval_matrix.csv", _emptied, EXIT_USAGE, 1,
                     id="eval-empty-eval-matrix"),
        pytest.param("report", "run/eval_matrix.csv", _emptied, EXIT_USAGE, 1,
                     id="report-empty-eval-matrix"),
        pytest.param("eval", "run/eval_matrix.csv", _bad_byte, EXIT_USAGE, 3,
                     id="eval-matrix-bad-byte"),
        pytest.param("report", "run/eval_matrix.csv", _no_entry_1_0_img2txt,
                     EXIT_USAGE, None, id="report-matrix-missing-an-entry"),
        pytest.param("eval", "run/eval_matrix.csv", _no_entry_1_0_img2txt,
                     EXIT_USAGE, None, id="eval-matrix-missing-an-entry"),
        pytest.param("report", "run/eval_matrix.csv", _no_row_2,
                     EXIT_USAGE, None, id="report-matrix-missing-a-row"),
        pytest.param("eval", "run/eval_matrix.csv", _no_row_2,
                     EXIT_USAGE, None, id="eval-matrix-missing-a-row"),
        pytest.param("report", "run/diagnostics/loss_curve.csv", _bad_byte,
                     EXIT_USAGE, 3, id="loss-curve-bad-byte"),
        pytest.param("report", "run/diagnostics/loss_curve.csv",
                     _header_only, EXIT_USAGE, None,
                     id="loss-curve-header-only"),
        pytest.param("eval", "run/merges_task1.txt", _line3("1 2 99999 1 300"),
                     EXIT_USAGE, 3, id="merges-id-past-the-vocab"),
        pytest.param("eval", "run/merges_task1.txt", _line3("1 2 -1 5 258"),
                     EXIT_USAGE, 3, id="merges-negative-id"),
        pytest.param("eval", "run/merges_task1.txt", _line3("1 2 97 98 97"),
                     EXIT_USAGE, 3, id="merges-result-not-left-then-right"),
        pytest.param("eval", "run/ckpt_task2.bin", _half_width, EXIT_IO, None,
                     id="checkpoint-half-width"),
        pytest.param("eval", "run/ckpt_task2.bin",
                     lambda p: _half_width(p, sidecar_too=True), EXIT_IO, None,
                     id="checkpoint-and-sidecar-half-width"),
        pytest.param("eval", "run/ckpt_task1.bin", _deleted, EXIT_IO, None,
                     id="eval-no-middle-checkpoint"),
        pytest.param("report", "run/ckpt_task1.bin", _deleted, EXIT_IO, None,
                     id="report-no-middle-checkpoint"),
        pytest.param("report", "run/ckpt_task1.bin", _swapped_with_task2,
                     EXIT_IO, None, id="report-swapped-checkpoints"),
        pytest.param("eval", "oracle/ckpt_task1.bin", _swapped_with_task2,
                     EXIT_IO, None, id="eval-oracle-vocab-swapped-checkpoints"),
        pytest.param("report", "oracle/ckpt_task1.bin", _swapped_with_task2,
                     EXIT_IO, None,
                     id="report-oracle-vocab-swapped-checkpoints"),
        pytest.param("eval", "run/ckpt_task1.bin.json", _no_shape, EXIT_IO,
                     None, id="eval-sidecar-without-shape"),
        pytest.param("report", "run/ckpt_task1.bin.json", _no_shape, EXIT_IO,
                     None, id="report-sidecar-without-shape"),
        pytest.param("eval", "run/registry_manifest.json", _emptied,
                     EXIT_USAGE, None, id="eval-empty-registry"),
        pytest.param("report", "run/registry_manifest.json", _line3("}"),
                     EXIT_USAGE, None, id="report-registry-not-json"),
        pytest.param("eval", "run/registry_manifest.json", _no_step_1,
                     EXIT_USAGE, None, id="eval-registry-missing-a-step"),
        pytest.param("report", "run/registry_manifest.json", _no_step_1,
                     EXIT_USAGE, None, id="report-registry-missing-a-step"),
        pytest.param("eval", "run/registry_manifest.json",
                     _n_overlap_off_by_one, EXIT_USAGE, None,
                     id="eval-registry-record-off-by-one"),
        pytest.param("report", "run/registry_manifest.json",
                     _n_overlap_off_by_one, EXIT_USAGE, None,
                     id="report-registry-record-off-by-one"),
        pytest.param("eval", "run/registry_manifest.json",
                     _names_task_10_to_the_12, EXIT_USAGE, None,
                     id="eval-registry-names-task-10**12"),
        pytest.param("report", "run/registry_manifest.json",
                     _names_task_10_to_the_12, EXIT_USAGE, None,
                     id="report-registry-names-task-10**12"),
        pytest.param("eval", "run/registry_manifest.json", _deleted, EXIT_IO,
                     None, id="eval-no-registry"),
        pytest.param("report", "run/registry_manifest.json", _deleted,
                     EXIT_IO, None, id="report-no-registry"),
    ])
    def test_fails_cleanly_naming_the_file(self, workdir, tmp_path, capsys,
                                           command, damaged, damage, code,
                                           line):
        run = tmp_path / ("oracle" if damaged.startswith("oracle/") else "run")
        shutil.copytree(workdir / "data", tmp_path / "data")
        shutil.copytree(workdir / run.name, run)
        shutil.copy(workdir / "run.cfg", tmp_path / "run.cfg")
        path = tmp_path / damaged
        damage(path)
        out = tmp_path / "out"
        args = {"train": ["train", "--config", str(tmp_path / "run.cfg"),
                          "--data", str(tmp_path / "data"), "--out", str(out)],
                "eval": ["eval", "--run", str(run),
                         "--data", str(tmp_path / "data")],
                "report": ["report", "--run", str(run),
                           "--out", str(out)]}[command]
        assert main(args) == code
        err = capsys.readouterr().err
        assert (f"{path}:{line}:" if line else str(path)) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("damage, named", [
        (_no_row_2, "row 2 lacks its img2txt entry of task 0"),
        (_no_entry_1_0_img2txt, "row 1 lacks its img2txt entry of task 0"),
    ], ids=["missing-a-row", "missing-an-entry"])
    def test_incomplete_stored_matrix_fails_naming_the_row(
            self, workdir, tmp_path, capsys, monkeypatch, command, damage,
            named):
        """eval and report hold the stored matrix to one rule, every entry
        of the steps' rows and no other: eval names the row before it
        recomputes anything."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "run", run, ignore=shutil.ignore_patterns(
            "eval_matrix_recomputed_*"))
        damage(run / "eval_matrix.csv")
        recomputed = []
        monkeypatch.setattr(cli, "recompute_eval_matrix",
                            lambda *a: recomputed.append(a))
        args = (["eval", "--run", str(run), "--data", str(workdir / "data")]
                if command == "eval" else
                ["report", "--run", str(run), "--out", str(tmp_path / "rep")])
        assert main(args) == EXIT_USAGE
        assert f"{run / 'eval_matrix.csv'}: {named}" in capsys.readouterr().err
        assert recomputed == []
        assert not (run / "eval_matrix_recomputed_test.csv").exists()


def _benchmark_checks():
    """perfbench/checks.py, the benchmark's own output checks, loaded
    from its file."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkChecks:
    @pytest.mark.parametrize("flag", [None, "--mode=joint", "--oracle-vocab"],
                             ids=["continual", "joint", "oracle-vocab"])
    def test_evaluated_run_passes_the_benchmark_checks(self, workdir,
                                                       tmp_path, flag):
        """The benchmark reads config.json fields and run files by name,
        with its own readers: a run that `lexcl eval` accepts passes every
        one of its checks."""
        run = tmp_path / "run"
        if flag is None:
            shutil.copytree(workdir / "run", run, ignore=shutil.ignore_patterns(
                "eval_matrix_recomputed_*"))
        else:
            assert main(["train", "--config", str(workdir / "run.cfg"),
                         "--data", str(workdir / "data"), "--out", str(run),
                         flag]) == EXIT_OK
        assert main(["eval", "--run", str(run),
                     "--data", str(workdir / "data")]) == EXIT_OK
        failures, _ = _benchmark_checks().check_run(
            str(workdir / "data"), str(run), seed=0)
        assert failures == []


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestBenchFiles:
    def test_every_bench_file_holds_every_metric(self):
        """Each committed BENCH_*.json holds, for every workload of
        BENCHMARK.json, perfbench/run.py's final line, passing its checks,
        with every end-to-end metric in its unit; and the commit measured
        and the tier-1 wall time and passed count."""
        with open(os.path.join(_ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = sorted(n for n in os.listdir(_ROOT)
                       if re.fullmatch(r"BENCH_.+\.json", n))
        assert names
        for name in names:
            with open(os.path.join(_ROOT, name)) as f:
                bench = json.load(f)
            assert re.fullmatch(r"[0-9a-f]{40}", bench["commit"]), name
            assert bench["tier1"]["passed"] > 0 and bench["tier1"]["wall_s"] > 0
            for w in spec["workloads"]:
                result = bench["workloads"][w["name"]]["result"]
                assert result["correct"] is True, (name, w["name"])
                for m in spec["end_to_end"]:
                    got = result["metrics"][m["name"]]
                    assert got["unit"] == m["unit"], (name, w["name"], m)
                    assert math.isfinite(got["value"]) and got["value"] > 0


class TestGradCheck:
    def test_passes_under_ten_seconds(self, capsys):
        t0 = time.time()
        assert main(["grad-check"]) == EXIT_OK
        assert time.time() - t0 < 10.0
        assert "passed" in capsys.readouterr().out

    def test_corruption_detected(self, capsys, monkeypatch):
        """An analytic gradient with one value off fails the check."""
        def perturbed(*args):
            loss, rows, grads = batch_grad(*args)
            grads[0, 0] += 0.5
            return loss, rows, grads

        monkeypatch.setattr(gradcheck, "batch_grad", perturbed)
        assert main(["grad-check"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "row" in err and "col" in err

    def test_library_level_result(self):
        res = run_grad_check()
        assert res.passed()


# Each exception class the CLI can meet, with its documented exit code.
_EXIT_CODES = [
    (InvalidInputError, EXIT_USAGE), (NumericError, EXIT_RUNTIME),
    (DegenerateFeatureError, EXIT_RUNTIME), (LexclError, EXIT_RUNTIME),
    (CheckpointError, EXIT_IO), (DatasetError, EXIT_IO), (OSError, EXIT_IO),
]
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "lexcl")


def _parse(name):
    with open(os.path.join(_SRC, name), encoding="utf-8") as f:
        return ast.parse(f.read())


def _error_classes() -> list[str]:
    """The names of the classes that errors.py defines."""
    return [node.name for node in _parse("errors.py").body
            if isinstance(node, ast.ClassDef)]


class TestErrorClasses:
    """One exception class per way a failure is handled: every class is
    caught apart somewhere, and each maps to its exit code."""

    def test_every_class_has_an_exit_code(self):
        assert set(_error_classes()) == {
            e.__name__ for e, _ in _EXIT_CODES if e is not OSError}

    def test_every_class_is_caught_in_the_package(self):
        caught = set()
        for name in os.listdir(_SRC):
            if not name.endswith(".py"):
                continue
            for node in ast.walk(_parse(name)):
                if isinstance(node, ast.ExceptHandler) and node.type:
                    types = (node.type.elts if isinstance(node.type, ast.Tuple)
                             else [node.type])
                    caught |= {ast.unparse(t).rsplit(".", 1)[-1] for t in types}
        assert [c for c in _error_classes() if c not in caught] == []

    @pytest.mark.parametrize("error, code", _EXIT_CODES,
                             ids=[e.__name__ for e, _ in _EXIT_CODES])
    def test_command_failure_exits_with_the_class_code(self, monkeypatch,
                                                       capsys, error, code):
        def failing(seed):
            raise error("injected failure")

        monkeypatch.setattr("lexcl.cli.run_grad_check", failing)
        assert main(["grad-check"]) == code
        assert capsys.readouterr().err == "error: injected failure\n"


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE
