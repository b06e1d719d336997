"""Exception hierarchy shared across the package, and the declaration
and check of config keys, whose errors name the key."""

import math
import operator
from dataclasses import field, fields


class LexclError(Exception):
    """Base class for all package errors; the CLI exits 2 on one that no
    subclass below covers."""


class InvalidInputError(LexclError):
    """A caller-supplied argument, config or run file violates a
    precondition (exit 1)."""


class NumericError(LexclError):
    """NaN/Inf or another numeric fault detected mid-computation (exit 2)."""


class DegenerateFeatureError(LexclError):
    """A feature vector has zero norm, so cosine similarity is undefined
    (exit 2)."""


class CheckpointError(LexclError):
    """A checkpoint or matrix file, or its sidecar, is damaged or does
    not match what the caller expects (exit 3)."""


class DatasetError(LexclError):
    """A dataset file is malformed or refers to a missing image (exit 3)."""


# type annotation -> (accepted types, what a value must be)
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a finite number"),
          "bool": (bool, "on or off"), "str": (str, "a string")}
_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def key(default, name: str, *, choices: tuple = (), **bounds):
    """A config dataclass field that config key `name` fills, with the
    allowed `choices` if any and any of the bounds gt, ge, lt and le.
    Its type is the field's annotation; `check_keys` enforces all three."""
    return field(default=default,
                 metadata={"key": name, "choices": choices, "bounds": bounds})


def check_keys(cfg) -> None:
    """Raise InvalidInputError naming the key of the first field of config
    dataclass `cfg` that breaks its declaration. Type comes first (a bool
    is only a bool, a float must be finite), then choices, then bounds."""
    for f in fields(cfg):
        if "key" not in f.metadata:
            continue
        name, value = f.metadata["key"], getattr(cfg, f.name)
        types, what = _TYPES[f.type]
        if (not isinstance(value, types)
                or isinstance(value, bool) != (f.type == "bool")
                or f.type == "float" and not _finite(value)):
            raise InvalidInputError(f"{name}: {value!r} is not {what}")
        choices = f.metadata["choices"]
        if choices and value not in choices:
            raise InvalidInputError(
                f"{name}: {value!r} is not one of {', '.join(choices)}")
        for op, bound in f.metadata["bounds"].items():
            holds, symbol = _BOUNDS[op]
            if not holds(value, bound):
                raise InvalidInputError(
                    f"{name}: must be {symbol} {bound}, not {value!r}")
