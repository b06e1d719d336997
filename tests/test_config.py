"""Config file parsing and mapping onto benchmark/run configurations."""

import importlib
import pkgutil
from dataclasses import fields, is_dataclass

import pytest

import lexcl
from lexcl import config as C
from lexcl.bench import BenchConfig
from lexcl.errors import InvalidInputError
from lexcl.harness import RunConfig


def write(tmp_path, text):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return p


class TestParsing:
    def test_values_and_comments(self, tmp_path):
        p = write(tmp_path, """
# a comment
bench.n_concepts = 40
bench.lexical_overlap = 0.25   # trailing comment
run.teir_init = off
run.mode = joint
""")
        cfg = C.load_config_file(p)
        assert cfg["bench.n_concepts"] == 40
        assert cfg["bench.lexical_overlap"] == 0.25
        assert cfg["run.teir_init"] is False
        assert cfg["run.mode"] == "joint"

    def test_bool_spellings(self):
        assert C.parse_value("on") is True
        assert C.parse_value("FALSE") is False
        assert C.parse_value("yes") is True

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_numbers_rejected(self, raw):
        with pytest.raises(InvalidInputError, match="non-finite"):
            C.parse_value(raw)

    def test_non_finite_error_names_line_and_key(self, tmp_path):
        p = write(tmp_path, "optim.lr = 0.5\noptim.lr = nan\n")
        with pytest.raises(InvalidInputError, match=r":2: optim\.lr:"):
            C.load_config_file(p)

    def test_malformed_line(self, tmp_path):
        p = write(tmp_path, "this has no equals sign\n")
        with pytest.raises(InvalidInputError, match=":1:"):
            C.load_config_file(p)

    def test_dump_round_trip(self, tmp_path):
        cfg = {"run.teir_init": True, "optim.lr": 0.5, "run.mode": "continual"}
        rc = C.build(RunConfig, cfg, data_dir="d", out_dir="o")
        p = tmp_path / "out.txt"
        C.dump_config(rc, p)
        loaded = C.load_config_file(p)
        assert {k: loaded[k] for k in cfg} == cfg
        assert C.build(RunConfig, loaded, data_dir="d", out_dir="o") == rc


class TestMapping:
    def test_bench_config(self):
        bc = C.build(BenchConfig, {"bench.n_concepts": 50, "bench.seed": 3})
        assert bc.n_concepts == 50 and bc.seed == 3

    def test_unknown_bench_key(self):
        with pytest.raises(InvalidInputError, match="bench.n_conceps"):
            C.build(BenchConfig, {"bench.n_conceps": 50})

    def test_run_config(self):
        rc = C.build(RunConfig, {"optim.lr": 0.5, "loss.tau": 0.1,
                                 "run.teir_reg": False},
                     data_dir="data", out_dir="out")
        assert rc.optim.lr_peak == 0.5
        assert rc.loss.tau == 0.1
        assert rc.teir_reg is False
        assert rc.data_dir == "data" and rc.out_dir == "out"

    def test_unknown_run_key(self):
        with pytest.raises(InvalidInputError, match="optim.momentum"):
            C.build(RunConfig, {"optim.momentum": 0.9}, data_dir="d",
                    out_dir="o")

    def test_invalid_value_propagates(self):
        with pytest.raises(InvalidInputError):
            C.build(RunConfig, {"run.mode": "sideways"}, data_dir="d",
                    out_dir="o")


def _config_classes():
    """Every dataclass named *Config defined in a module of lexcl."""
    found = set()
    for info in pkgutil.iter_modules(lexcl.__path__):
        module = importlib.import_module(f"lexcl.{info.name}")
        found |= {obj for name, obj in vars(module).items()
                  if name.endswith("Config") and is_dataclass(obj)
                  and obj.__module__ == module.__name__}
    return found


def test_every_setting_is_a_key():
    """Each field of each config dataclass declares a config key or is a
    nested config whose keys all lie in the section of its name, except
    the run's data and output directories, which the CLI flags set."""
    classes = _config_classes()
    assert {c.__name__ for c in classes} >= {
        "BenchConfig", "LossConfig", "OptimConfig", "RunConfig"}
    unkeyed = {(RunConfig, "data_dir"), (RunConfig, "out_dir")}
    for cls in classes:
        for f in fields(cls):
            if "key" in f.metadata or (cls, f.name) in unkeyed:
                continue
            section = f.default_factory
            assert section in classes, f"{cls.__name__}.{f.name} has no key"
            assert all(k.startswith(f"{f.name}.")
                       for k in C.settings(section())), f.name
