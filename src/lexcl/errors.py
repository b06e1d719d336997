"""Exception hierarchy shared across the package, and the type check of
config dataclasses whose errors name the config key."""

import math
from dataclasses import fields


class LexclError(Exception):
    """Base class for all package errors."""


class InvalidInputError(LexclError):
    """A caller-supplied argument violates a precondition."""


class InvalidIdError(LexclError):
    """A token id is outside the vocabulary of the given scope."""


class StateError(LexclError):
    """An operation was called in a state that forbids it."""


class NumericError(LexclError):
    """NaN/Inf or another numeric fault detected mid-computation."""


class DegenerateFeatureError(LexclError):
    """A feature vector has zero norm, so cosine similarity is undefined."""


class MetricError(LexclError):
    """A metric is undefined for the requested arguments."""


class CheckpointError(LexclError):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """Bad magic bytes or unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before the declared payload."""


class DimensionMismatchError(CheckpointError):
    """Checkpoint shape disagrees with the sidecar vocabulary."""


class VocabMismatchError(CheckpointError):
    """Checkpoint sidecar names another vocabulary than the caller's."""


class DatasetError(LexclError):
    """Base class for dataset load failures."""


class DatasetFormatError(DatasetError):
    """Malformed dataset line; carries the file and line number."""


class DanglingReferenceError(DatasetError):
    """A dataset record points at a nonexistent image."""


_TYPE_NAMES = {"int": "an integer", "float": "a finite number",
               "bool": "on or off"}


def check_field_types(cfg, key_of: dict[str, str]) -> None:
    """Raise InvalidInputError naming the config key of the first field of
    dataclass `cfg` in `key_of` (name -> key) not of its declared type. A
    bool is neither an int nor a float, and a float must be finite."""
    for f in fields(cfg):
        if f.name not in key_of or f.type not in _TYPE_NAMES:
            continue
        value = getattr(cfg, f.name)
        if f.type == "bool":
            ok = isinstance(value, bool)
        elif f.type == "int":
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value))
        if not ok:
            raise InvalidInputError(
                f"{key_of[f.name]}: {value!r} is not {_TYPE_NAMES[f.type]}")
