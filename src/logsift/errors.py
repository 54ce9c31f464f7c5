"""Exception hierarchy shared across the pipeline."""


class LogsiftError(Exception):
    """Base class for all package errors."""


class ConfigError(LogsiftError):
    """Invalid or missing configuration."""


class ProviderError(LogsiftError):
    """Embedding/completion call failed after its retries, or replied unusably."""


class DimensionMismatchError(LogsiftError):
    """Provider returned a vector of unexpected dimension (fatal config)."""


class DegenerateEmbeddingError(LogsiftError):
    """Encoder output norm below the rejection threshold."""


class ClusterNotFoundError(LogsiftError):
    """Referenced cluster id is not present in the index."""


class SnapshotFormatError(LogsiftError):
    """Snapshot file is corrupted or has an unsupported version."""


class MalformedResponseError(LogsiftError):
    """Completion response contains no extractable template."""


class SchemaError(LogsiftError):
    """Dataset file does not match the expected column schema."""
