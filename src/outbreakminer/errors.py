"""Exception types shared across the package.

Everything user-facing derives from OutbreakError so the CLI can map any
domain failure to exit code 1 in one place. A domain error is its message:
no class carries anything else, and the message names the file, line, row,
revision or evaluation it is about.
"""


class OutbreakError(Exception):
    """Base class for all domain errors raised by this package."""


class TransportError(OutbreakError):
    """Network failure that survived the retry budget; names the last continuation token."""


class ArticleNotFoundError(OutbreakError):
    """The wiki API reported the requested article as missing."""


class PayloadError(OutbreakError):
    """The wiki API returned a response we could not interpret."""


class CacheError(OutbreakError):
    """A cache file that is not a readable revision, index or JSON; names the file."""


class CorpusFormatError(OutbreakError):
    """Bad token/label file; names the 1-based offending line."""


class ModelFormatError(OutbreakError):
    """Unreadable or inconsistent serialized model file; names the file."""


class TrainingError(OutbreakError):
    """Optimization failed; names the objective-evaluation count."""


class GroundTruthError(OutbreakError):
    """Bad ground-truth CSV; names the 1-based offending row."""


class AlignmentError(OutbreakError):
    """Two series share no dates, so they cannot be compared."""
