"""Exception hierarchy shared across the toolkit.

Parse errors carry enough location context (row, column) to point at the
first offending cell of an input file; analysis errors describe the
violated precondition.
"""

from __future__ import annotations


class ToolError(Exception):
    """Base class for all errors raised by this package."""


# --- ingest ----------------------------------------------------------------

class IngestError(ToolError):
    """Base for file-format errors; optionally locates the failing cell."""

    def __init__(self, message: str, *, row: int | None = None,
                 col: int | None = None) -> None:
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {col})" if col is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.col = col


class MissingFile(IngestError):
    pass


class BadEncoding(IngestError):
    """File bytes are not valid UTF-8."""


class BadHeader(IngestError):
    pass


class MalformedRow(IngestError):
    pass


class MalformedNumber(IngestError):
    pass


class NonMonotonicTime(IngestError):
    pass


class ChannelCountMismatch(IngestError):
    pass


class NonUniformRate(IngestError):
    pass


class MarkerOrder(IngestError):
    pass


class MalformedMeta(IngestError):
    pass


# --- spectral --------------------------------------------------------------

class ConfigError(ToolError):
    """Analysis configuration violates its invariants."""


class BandOutOfRange(ToolError):
    """Requested band lies outside [0, Fs/2]."""


class ZeroPower(ToolError):
    """Total spectral power of a window is zero, or past the float range
    (e.g. samples of amplitude 1e160, whose squares overflow); ratios are
    undefined."""


# --- metrics ---------------------------------------------------------------

class NonPositiveDuration(ToolError):
    """A duration that must be positive is zero or negative."""


class EmptyTranscription(ToolError):
    """Per-character metrics are undefined for an empty transcription, and
    session means for a session without a sentence."""


class NonFiniteMetric(ToolError):
    """A rate or a duration overflows the float range, e.g. WPM over a
    subnormal duration, or a sentence from -1e308 s to 1e308 s."""


# --- stats -----------------------------------------------------------------

class StatsError(ToolError):
    pass


class EmptyInput(StatsError):
    pass


class DegenerateInput(StatsError):
    """Too few groups or values for the requested test."""


class ZeroVariance(StatsError):
    """Both samples are constant and equal; the statistic is undefined."""


class DomainError(StatsError):
    """Special-function argument outside its domain."""


# --- simgen ----------------------------------------------------------------

class SpecInvalid(ToolError):
    """Synthetic-session specification violates its invariants."""


class ScriptInvalid(SpecInvalid):
    """Event script of a synthetic session is inconsistent."""


class BoundaryFrequency(SpecInvalid):
    """A component frequency sits exactly on a band boundary."""
