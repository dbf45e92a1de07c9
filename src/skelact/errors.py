"""Exception types shared across the package."""


class SkelactError(Exception):
    """Base class for every error raised by this package."""


class KeypointParseError(SkelactError):
    """A keypoint file is malformed.

    ``offset`` is the byte offset of the failure where one is known (bad
    UTF-8 or JSON syntax), else None; the message names it only when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        suffix = "" if offset is None else f" (byte offset {offset})"
        super().__init__(message + suffix)
        self.message = message
        self.offset = offset


class LayoutMismatchError(SkelactError):
    """Data does not match the declared skeleton layout."""


class EmptySequenceError(SkelactError):
    """A sample directory contains no keypoint frame files."""


class InsufficientDataError(SkelactError):
    """A protocol asks for more samples or classes than the manifest holds."""


class ConnectivityError(SkelactError):
    """A skeleton graph is not connected."""


class ConfigurationError(SkelactError):
    """A configuration value is invalid. The message names the field."""


class WindowError(ConfigurationError):
    """A frame window cannot be cut from the sequence as requested."""


class CheckpointError(SkelactError):
    """A checkpoint file is unreadable or incompatible with the network."""


class StateError(SkelactError):
    """A call does not fit its object, e.g. an unseeded backward on a vector."""


class NonFiniteError(SkelactError):
    """A NaN or infinite loss, gradient or logit in training or evaluation."""


class UndefinedCorrelationError(SkelactError):
    """A correlation is undefined because one input has zero variance."""


class CoverageError(SkelactError):
    """Prediction records do not cover the requested evaluation split."""
