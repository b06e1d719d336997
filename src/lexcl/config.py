"""Flat dotted-key configuration files.

Format: one ``section.key = value`` per line, ``#`` comments. Values are
parsed as bool/int/float/string. Flags override file values, and every
run persists the effective merged config."""

from __future__ import annotations

import math
from dataclasses import fields

from .bench import BenchConfig
from .embeddings import write_atomic
from .errors import InvalidInputError
from .harness import RUN_KEYS, RunConfig
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


def _check_known(cfg: dict, known: dict, prefixes: tuple[str, ...]) -> None:
    for key in cfg:
        if key.startswith(prefixes) and key not in known:
            raise InvalidInputError(f"config: unknown key {key!r}")


def bench_config(cfg: dict) -> BenchConfig:
    known = {f"bench.{f.name}": f.name for f in fields(BenchConfig)}
    _check_known(cfg, known, ("bench.",))
    bc = BenchConfig(**{attr: cfg[key] for key, attr in known.items()
                        if key in cfg})
    bc.validate()
    return bc


def run_config(cfg: dict, data_dir: str, out_dir: str) -> RunConfig:
    _check_known(cfg, RUN_KEYS,
                 ("loss.", "optim.", "vocab.", "model.", "train.", "run."))
    loss_kwargs = {}
    run_kwargs = {}
    for key, attr in RUN_KEYS.items():
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
