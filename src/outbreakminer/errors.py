"""Exception types shared across the package.

Everything user-facing derives from OutbreakError so the CLI can map any
domain failure to exit code 1 in one place.
"""


class OutbreakError(Exception):
    """Base class for all domain errors raised by this package."""


class TransportError(OutbreakError):
    """Network failure that survived the retry budget."""

    def __init__(self, message, continuation=None):
        super().__init__(message)
        self.continuation = continuation


class ArticleNotFoundError(OutbreakError):
    """The wiki API reported the requested article as missing."""


class PayloadError(OutbreakError):
    """The wiki API returned a response we could not interpret."""

    def __init__(self, message, fragment=None):
        super().__init__(message)
        self.fragment = fragment


class CacheError(OutbreakError):
    """A cache file that is not readable JSON; the message names the file."""


class CorpusFormatError(OutbreakError):
    """Bad token/label file; carries the 1-based offending line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class IobStructureError(OutbreakError):
    """An I-X label with no open X span, in strict mode."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ModelFormatError(OutbreakError):
    """Unreadable or inconsistent serialized model file."""


class TrainingError(OutbreakError):
    """Optimization failed; carries the objective-evaluation count."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration

    def __reduce__(self):
        # Pickling rebuilds from args alone by default, which would drop
        # the count when a fold fails in a worker process.
        return type(self), (str(self), self.iteration)


class GroundTruthError(OutbreakError):
    """Bad ground-truth CSV; carries the 1-based offending row number."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class AlignmentError(OutbreakError):
    """Two series share no dates, so they cannot be compared."""
