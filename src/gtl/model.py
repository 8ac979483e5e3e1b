"""Core domain model: session metadata, EEG recording, event log.

All types are immutable after construction and every operation is a pure
function, so records can be processed concurrently without locking.
Timestamps are seconds (float64) relative to one shared epoch for all
streams of a session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import MissingSentence

#: Electrode labels of the 14-channel consumer headset assumed by default.
EPOC14_CHANNELS: tuple[str, ...] = (
    "AF3", "F7", "F3", "FC5", "T7", "P7", "O1",
    "O2", "P8", "T8", "FC6", "F4", "F8", "AF4",
)

KEYBOARDS = ("A", "B", "C")


class EventKind(str, Enum):
    SESSION_START = "SESSION_START"
    SENTENCE_SHOWN = "SENTENCE_SHOWN"
    KEY = "KEY"
    SENTENCE_SUBMIT = "SENTENCE_SUBMIT"
    SESSION_END = "SESSION_END"


class KeyClass(str, Enum):
    INSERT = "INSERT"
    BKSP = "BKSP"
    SUGG = "SUGG"


@dataclass(frozen=True)
class Event:
    """One experiment event.

    ``text`` carries the SHOWN prompt or SUBMIT transcription; ``produced``
    carries the characters appended by a keystroke (empty for BKSP).
    """

    t: float
    kind: EventKind
    text: str = ""
    key_class: Optional[KeyClass] = None
    produced: str = ""

    @staticmethod
    def session_start(t: float) -> "Event":
        return Event(t, EventKind.SESSION_START)

    @staticmethod
    def shown(t: float, text: str) -> "Event":
        return Event(t, EventKind.SENTENCE_SHOWN, text=text)

    @staticmethod
    def key(t: float, key_class: KeyClass, produced: str = "") -> "Event":
        return Event(t, EventKind.KEY, key_class=key_class, produced=produced)

    @staticmethod
    def submit(t: float, text: str) -> "Event":
        return Event(t, EventKind.SENTENCE_SUBMIT, text=text)

    @staticmethod
    def session_end(t: float) -> "Event":
        return Event(t, EventKind.SESSION_END)


@dataclass(frozen=True)
class Sentence:
    """One SHOWN..SUBMIT span with the keystrokes in between."""

    index: int
    shown: Event
    submit: Event
    keys: tuple[Event, ...]


@dataclass(frozen=True)
class EventLog:
    """Ordered experiment events.

    The type itself is permissive: structurally broken sequences can be
    represented so that :func:`validate_session` can report on them.
    Sentence accessors only see well-delimited SHOWN..SUBMIT spans.
    """

    events: tuple[Event, ...]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def sentences(self) -> list[Sentence]:
        """SHOWN..SUBMIT spans in order; unterminated spans are skipped."""
        return list(self._sentences)

    def sentence(self, index: int) -> Sentence:
        """The sentence at ``index``; MissingSentence when there is none."""
        if not 0 <= index < len(self._sentences):
            raise MissingSentence(
                f"sentence index {index} out of range (log has "
                f"{len(self._sentences)} sentences)")
        return self._sentences[index]

    @cached_property
    def _sentences(self) -> tuple[Sentence, ...]:
        # built on first use and kept; sentences() hands out copies
        out: list[Sentence] = []
        shown: Optional[Event] = None
        keys: list[Event] = []
        for ev in self.events:
            if ev.kind is EventKind.SENTENCE_SHOWN:
                shown = ev
                keys = []
            elif ev.kind is EventKind.KEY and shown is not None:
                keys.append(ev)
            elif ev.kind is EventKind.SENTENCE_SUBMIT and shown is not None:
                out.append(Sentence(len(out), shown, ev, tuple(keys)))
                shown = None
                keys = []
        return tuple(out)

    @property
    def start_time(self) -> float:
        return self.events[0].t if self.events else 0.0

    @property
    def end_time(self) -> float:
        return self.events[-1].t if self.events else 0.0


@dataclass(frozen=True)
class SessionMeta:
    """Identity and recording parameters of one participant-session."""

    participant_id: str
    keyboard: str
    session_index: int
    fs_eeg: float = 128.0
    channel_names: tuple[str, ...] = EPOC14_CHANNELS

    def __post_init__(self) -> None:
        if self.keyboard not in KEYBOARDS:
            raise ValueError(f"keyboard must be one of {KEYBOARDS}, got {self.keyboard!r}")
        if self.session_index < 0:
            raise ValueError("session_index must be >= 0")
        if not 0 < self.fs_eeg < np.inf:
            raise ValueError("fs_eeg must be positive and finite")
        if not self.channel_names:
            raise ValueError("channel_names must be non-empty")
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValueError("channel_names must be distinct")

    @property
    def is_training(self) -> bool:
        return self.session_index == 0


class EegRecording:
    """Uniformly sampled multi-channel EEG block.

    Sample ``i`` of every channel has the implicit timestamp ``t0 + i/fs``.
    The sample matrix is frozen on construction.
    """

    __slots__ = ("t0", "fs", "samples")

    def __init__(self, t0: float, fs: float, samples: np.ndarray) -> None:
        if not fs > 0:
            raise ValueError("fs must be positive")
        arr = np.ascontiguousarray(samples, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("samples must be a [n_channels, n_samples] matrix")
        arr.setflags(write=False)
        self.t0 = float(t0)
        self.fs = float(fs)
        self.samples = arr

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def end_t(self) -> float:
        """Timestamp just past the last sample."""
        return self.t0 + self.n_samples / self.fs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EegRecording):
            return NotImplemented
        return (self.t0 == other.t0 and self.fs == other.fs
                and self.samples.shape == other.samples.shape
                and bool(np.array_equal(self.samples, other.samples)))

    def __repr__(self) -> str:
        return (f"EegRecording(t0={self.t0}, fs={self.fs}, "
                f"shape={self.samples.shape})")


@dataclass(frozen=True)
class GazeSample:
    t: float
    x: float
    y: float
    valid: bool


@dataclass
class SessionRecord:
    """One participant-session bundle: metadata, EEG, events, optional gaze."""

    meta: SessionMeta
    eeg: EegRecording
    events: EventLog
    gaze: Optional[tuple[GazeSample, ...]] = None
    validation: Optional["ValidationReport"] = field(default=None, compare=False)


# --- transcription reconstruction -------------------------------------------

def replay_keystrokes(keys: Sequence[Event]) -> tuple[str, int]:
    """Apply keystrokes to an empty buffer.

    INSERT and SUGG append their produced string; BKSP removes exactly one
    trailing character (a single character even after a multi-character
    suggestion). Returns the final buffer and the number of BKSP events
    that hit an already-empty buffer.
    """
    buf: list[str] = []
    empty_bksp = 0
    for ev in keys:
        if ev.kind is not EventKind.KEY:
            continue
        if ev.key_class is KeyClass.BKSP:
            if buf:
                buf.pop()
            else:
                empty_bksp += 1
        else:
            buf.extend(ev.produced)
    return "".join(buf), empty_bksp


def reconstruct_transcription(events: EventLog, sentence_index: int) -> str:
    """Final text buffer of one sentence, rebuilt from its keystrokes."""
    text, _ = replay_keystrokes(events.sentence(sentence_index).keys)
    return text


# --- timeline validation -----------------------------------------------------

class ViolationCode(str, Enum):
    NON_MONOTONIC_TIME = "NonMonotonicTime"
    MARKER_ORDER = "MarkerOrder"
    TRANSCRIPTION_MISMATCH = "TranscriptionMismatch"
    EVENT_OUTSIDE_EEG = "EventOutsideEeg"
    # raised by report assembly, not by validate_session
    DUPLICATE_SESSION = "DuplicateSession"
    ANALYSIS_ERROR = "AnalysisError"


@dataclass(frozen=True)
class Violation:
    code: ViolationCode
    message: str
    event_index: Optional[int] = None


@dataclass
class ValidationReport:
    """Violations make a record non-analyzable; warnings do not."""

    violations: list[Violation]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def event_log_violations(events: Sequence[Event]) -> Iterator[Violation]:
    """Order violations of an event log, in event order, in one pass.

    Timestamps must not decrease (NonMonotonicTime). Markers
    (MarkerOrder): SESSION_START exactly first, SESSION_END exactly last,
    SHOWN and SUBMIT strictly alternating from SHOWN, every KEY inside a
    SHOWN..SUBMIT span. An empty log is one violation without an index.
    """
    def bad(i: int, msg: str) -> Violation:
        return Violation(ViolationCode.MARKER_ORDER, msg, i)

    if not events:
        yield Violation(ViolationCode.MARKER_ORDER, "event log is empty")
        return
    last = len(events) - 1
    prev_t = -np.inf
    in_sentence = False
    for i, ev in enumerate(events):
        kind = ev.kind
        if ev.t < prev_t:
            yield Violation(ViolationCode.NON_MONOTONIC_TIME,
                            f"timestamp {ev.t} before previous {prev_t}", i)
        prev_t = ev.t
        if kind is EventKind.SESSION_START:
            if i != 0:
                yield bad(i, "SESSION_START is not the first event")
        elif i == 0:
            yield bad(i, f"first event is {kind.value}, "
                         "expected SESSION_START")
        if kind is EventKind.SESSION_END:
            if i != last:
                yield bad(i, "SESSION_END is not the last event")
        elif i == last:
            yield bad(i, f"last event is {kind.value}, expected SESSION_END")
        if kind is EventKind.SENTENCE_SHOWN:
            if in_sentence:
                yield bad(i, "SENTENCE_SHOWN while previous sentence "
                             "is still open")
            in_sentence = True
        elif kind is EventKind.SENTENCE_SUBMIT:
            if not in_sentence:
                yield bad(i, "SENTENCE_SUBMIT without a preceding "
                             "SENTENCE_SHOWN")
            in_sentence = False
        elif kind is EventKind.KEY and not in_sentence:
            yield bad(i, "KEY outside any SHOWN..SUBMIT span")
    if in_sentence:
        yield bad(last, "last SENTENCE_SHOWN was never submitted")


def validate_session(rec: SessionRecord, slack: float = 1.0) -> ValidationReport:
    """Check a record for analyzability; violations are data, not failures.

    An empty violation list means the record satisfies every event-log and
    timeline invariant. ``slack`` widens the EEG span that events must fall
    into, in seconds.
    """
    events = rec.events.events
    violations = list(event_log_violations(events))
    warnings: list[str] = []

    for s in rec.events.sentences():
        text, empty_bksp = replay_keystrokes(s.keys)
        if empty_bksp:
            warnings.append(
                f"sentence {s.index}: {empty_bksp} BKSP on empty buffer")
        if text != s.submit.text:
            violations.append(Violation(
                ViolationCode.TRANSCRIPTION_MISMATCH,
                f"sentence {s.index}: reconstruction {text!r} != submitted "
                f"{s.submit.text!r}"))

    lo = rec.eeg.t0 - slack
    hi = rec.eeg.end_t + slack
    for i, ev in enumerate(events):
        if not lo <= ev.t <= hi:
            violations.append(Violation(
                ViolationCode.EVENT_OUTSIDE_EEG,
                f"event at t={ev.t} outside EEG span [{lo}, {hi}]", i))

    return ValidationReport(violations, warnings)
