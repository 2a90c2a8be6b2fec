"""Exception types shared across the pipeline."""


class KeyclustError(Exception):
    """Base class for every error raised by this package."""


class MissingPath(KeyclustError):
    """A corpus directory does not exist, or a cleaning config or a file it names cannot be read."""


class InvalidBatchSize(KeyclustError):
    """Batch size must be a positive integer."""


class StageIoError(KeyclustError):
    """A stage file is missing, unreadable, or unwritable."""


class SchemaMismatch(KeyclustError):
    """A stage file was written for a different record type or format version."""


class InvalidPattern(KeyclustError):
    """The cleaning config or a file it names is malformed, or a removal pattern does not compile."""


class EmptyCorpus(KeyclustError):
    """No chunks were supplied where at least one is required."""


class DimensionTooLarge(KeyclustError):
    """Requested projection dimension exceeds what the data supports."""


class LengthMismatch(KeyclustError):
    """Vector length does not match the fitted model's input dimension."""


class QueryNotInVocabulary(KeyclustError):
    """The search query matches no vocabulary term; the search would be vacuous."""


class TooFewDistinctPoints(KeyclustError):
    """Fewer distinct points than requested centroids."""


class NonFiniteInput(KeyclustError):
    """A coordinate or weight is NaN or infinite."""


class InvalidClusterIndex(KeyclustError):
    """Cluster index outside the fitted model's range."""
