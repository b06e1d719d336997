"""Flat dotted-key configuration files.

Format: one ``section.key = value`` per line, ``#`` comments. Values are
parsed as bool/int/float/string. Each key is declared on the config
dataclass field it fills (`errors.key`). Flags override file values, and
every run persists the effective config, defaults included."""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

from .embeddings import read_lines, write_atomic
from .errors import InvalidInputError

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


def _setting(line: str, out: dict) -> None:
    """Set the key of a `key = value` line in `out`, which must not hold
    it yet; a comment line sets nothing."""
    line = line.split("#", 1)[0].strip()
    if not line:
        return
    if "=" not in line:
        raise ValueError("expected 'key = value'")
    key, _, raw = line.partition("=")
    key = key.strip()
    try:
        value = parse_value(raw)
    except InvalidInputError as e:
        raise InvalidInputError(f"{key}: {e}") from None
    if key in out:
        raise ValueError(f"{key!r} is set twice")
    out[key] = value


def load_config_file(path) -> dict:
    """The settings of a UTF-8 config file, as dump_config writes them;
    a key set twice fails naming its second line."""
    out: dict = {}
    read_lines(path, lambda line: _setting(line, out), InvalidInputError)
    return out


def settings(cfg) -> dict:
    """Config key -> value of every key declared on config dataclass
    instance `cfg` and on the configs nested in it."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "key" in f.metadata:
            out[f.metadata["key"]] = value
        elif is_dataclass(value):
            out.update(settings(value))
    return out


def build(cls, cfg: dict, **fixed):
    """Config dataclass `cls` from the keys of `cfg`, nested configs
    included, with the unkeyed fields `fixed`. A key in one of the
    sections of `cls` (the part before the dot) that it lacks is an error."""
    known = settings(cls(**fixed))
    sections = tuple({k.split(".")[0] + "." for k in known})
    for k in cfg:
        if k.startswith(sections) and k not in known:
            raise InvalidInputError(f"config: unknown key {k!r}")
    kwargs = dict(fixed)
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            kwargs[f.name] = build(f.default_factory, cfg)
        elif f.metadata.get("key") in cfg:
            kwargs[f.name] = cfg[f.metadata["key"]]
    return cls(**kwargs)


def dump_config(cfg, path) -> None:
    """Write every key of config dataclass `cfg` with its value, in the
    format `load_config_file` reads."""
    text = ""
    for k, v in sorted(settings(cfg).items()):
        if isinstance(v, bool):
            v = "on" if v else "off"
        text += f"{k} = {v}\n"
    write_atomic(path, text.encode())
