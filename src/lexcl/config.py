"""Flat dotted-key configuration files.

Format: one ``section.key = value`` per line, ``#`` comments. Values are
parsed as bool/int/float/string. Flags override file values, and every
run persists the effective merged config."""

from __future__ import annotations

import math

from .bench import BenchConfig
from .embeddings import write_atomic
from .errors import InvalidInputError
from .harness import RunConfig
from .losses import LossConfig

_BOOL = {"true": True, "on": True, "yes": True,
         "false": False, "off": False, "no": False}


def parse_value(raw: str):
    s = raw.strip()
    if s.lower() in _BOOL:
        return _BOOL[s.lower()]
    try:
        return int(s)
    except ValueError:
        pass
    try:
        value = float(s)
    except ValueError:
        return s
    if not math.isfinite(value):
        raise InvalidInputError(f"non-finite number {s!r}")
    return value


def load_config_file(path) -> dict:
    out: dict[str, object] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            try:
                out[key] = parse_value(raw)
            except InvalidInputError as e:
                raise InvalidInputError(f"{path}:{lineno}: {key}: {e}") from None
    return out


def dump_config(cfg: dict, path) -> None:
    text = ""
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, bool):
            v = "on" if v else "off"
        text += f"{key} = {v}\n"
    write_atomic(path, text.encode())


_BENCH_KEYS = {
    "bench.n_concepts": "n_concepts",
    "bench.n_languages": "n_languages",
    "bench.n_train": "n_train",
    "bench.n_val": "n_val",
    "bench.n_test": "n_test",
    "bench.concepts_per_image": "concepts_per_image",
    "bench.d_out": "d_out",
    "bench.lexical_overlap": "lexical_overlap",
    "bench.alphabet_size": "alphabet_size",
    "bench.function_words": "function_words",
    "bench.sigma_img": "sigma_img",
    "bench.seed": "seed",
}

_RUN_KEYS = {
    "loss.tau": "loss.tau",
    "loss.gamma_cm": "loss.gamma_cm",
    "loss.gamma_cl": "loss.gamma_cl",
    "optim.kind": "optim_kind",
    "optim.lr": "lr_peak",
    "optim.weight_decay": "weight_decay",
    "optim.warmup_fraction": "warmup_fraction",
    "vocab.size_per_task": "vocab_size_per_task",
    "model.dim": "dim",
    "model.d_out": "d_out",
    "model.l_max": "l_max",
    "model.encoder_seed": "encoder_seed",
    "train.epochs": "epochs",
    "train.batch_size": "batch_size",
    "run.teir_init": "teir_init",
    "run.teir_reg": "teir_reg",
    "run.oracle_vocab": "oracle_vocab",
    "run.mode": "mode",
    "run.seed": "seed",
}


def _check_known(cfg: dict, known: dict, prefixes: tuple[str, ...]) -> None:
    for key in cfg:
        if key.startswith(prefixes) and key not in known:
            raise InvalidInputError(f"config: unknown key {key!r}")


def bench_config(cfg: dict) -> BenchConfig:
    _check_known(cfg, _BENCH_KEYS, ("bench.",))
    kwargs = {attr: cfg[key] for key, attr in _BENCH_KEYS.items() if key in cfg}
    bc = BenchConfig(**kwargs)
    bc.validate()
    return bc


def run_config(cfg: dict, data_dir: str, out_dir: str) -> RunConfig:
    _check_known(cfg, _RUN_KEYS,
                 ("loss.", "optim.", "vocab.", "model.", "train.", "run."))
    loss_kwargs = {}
    run_kwargs = {}
    for key, attr in _RUN_KEYS.items():
        if key not in cfg:
            continue
        if attr.startswith("loss."):
            loss_kwargs[attr.split(".", 1)[1]] = cfg[key]
        else:
            run_kwargs[attr] = cfg[key]
    rc = RunConfig(data_dir=data_dir, out_dir=out_dir,
                   loss=LossConfig(**loss_kwargs), **run_kwargs)
    rc.validate()
    return rc
