"""Exception hierarchy shared across the package.

``OtrankError`` marks failures caused by invalid inputs (malformed files,
missing keys, bad configuration). The CLI maps these to exit code 1;
anything else is treated as an internal failure (exit code 2).
"""


class OtrankError(Exception):
    """Base class for input-validation failures."""


class CorpusFormatError(OtrankError):
    """A corpus file violates the JSONL schema (message names the line)."""


class EmbeddingStoreError(OtrankError):
    """An embedding-store file is malformed, truncated, or inconsistent."""


class EmbeddingKeyError(OtrankError):
    """A requested (instance, window, role) key is absent from the store."""


class CheckpointError(OtrankError):
    """A checkpoint file is malformed or fails its integrity check."""


class EpsScaleError(OtrankError, ValueError):
    """The Sinkhorn ``eps_scale`` puts a regularization strength or a plan out of range."""


class EmptyInputError(OtrankError, ValueError):
    """The input holds nothing to train on, count, or evaluate."""
