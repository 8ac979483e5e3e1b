"""Offline analysis of gaze-typing sessions: EEG beta-band cognitive
load, text-entry metrics and the statistics to compare keyboard designs.
"""

from .model import (
    EPOC14_CHANNELS,
    EegRecording,
    Event,
    EventKind,
    EventLog,
    KeyClass,
    SessionMeta,
    SessionRecord,
    ValidationReport,
    validate_session,
)
from .spectral import (
    AnalysisConfig,
    Band,
    LoadSeries,
    WindowFn,
    band_ratios,
    cognitive_load_series,
    default_bands,
    dft,
    make_windows,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "Band",
    "EPOC14_CHANNELS",
    "EegRecording",
    "Event",
    "EventKind",
    "EventLog",
    "KeyClass",
    "LoadSeries",
    "SessionMeta",
    "SessionRecord",
    "ValidationReport",
    "WindowFn",
    "band_ratios",
    "cognitive_load_series",
    "default_bands",
    "dft",
    "make_windows",
    "validate_session",
    "__version__",
]
