"""Exception hierarchy shared across the package."""


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
