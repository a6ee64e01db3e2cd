"""Exception hierarchy.

``DataError`` subclasses flag problems with input data (bad files, malformed
series, a file whose start month conflicts with the one given or is named
nowhere, windows outside the data span).  ``ComputationError`` and its
subclasses flag inputs that are structurally valid but cannot support the
requested computation (series too short, no usable model order, sums of
squares that overflow, empty overlaps).  Plain ``ValueError`` /
``ZeroDivisionError`` are raised for contract misuse such as out-of-range
smoothing parameters or division by a zero observation.
"""


class IndexcastError(Exception):
    """Base class for all library-specific errors."""


class DataError(IndexcastError):
    """Input data is unusable."""


class EmptyInputError(DataError):
    """No observations supplied."""


class GapInSeriesError(DataError):
    """A calendar month inside the span has no observations."""


class OutOfRangeError(DataError):
    """Requested window or month lies outside the series span."""


class MissingStartError(DataError):
    """A values file names no start month and none was given."""


class ParseError(DataError):
    """A data file could not be parsed."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


class ComputationError(IndexcastError):
    """Requested computation is not possible on this input."""


class SeriesTooShortError(ComputationError):
    """Series has too few observations for the operation."""


class InsufficientDataError(ComputationError):
    """Too few values to summarize."""


class SelectionFailedError(ComputationError):
    """No candidate model order produced a usable fit."""


class NoOverlapError(ComputationError):
    """The two analysis windows share no months with defined trend."""
