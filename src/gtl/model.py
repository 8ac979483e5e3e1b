"""Core domain model: session metadata, EEG recording, event log.

A session is its metadata, EEG and event log. Metadata, events and the
event log are frozen dataclasses, and an EEG recording freezes its sample
matrix. A SessionRecord and its ValidationReport are mutable:
``load_session`` sets ``rec.validation`` and appends its own warnings to
that report. Timestamps are seconds (float64) relative to one shared
epoch for the EEG and the events of a session.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum, EnumMeta
from functools import cache, cached_property
from typing import (Iterator, Literal, Optional, Sequence, Union, get_args,
                    get_origin, get_type_hints)

import numpy as np

#: Electrode labels of the 14-channel consumer headset assumed by default.
EPOC14_CHANNELS: tuple[str, ...] = (
    "AF3", "F7", "F3", "FC5", "T7", "P7", "O1",
    "O2", "P8", "T8", "FC6", "F4", "F8", "AF4",
)

KEYBOARDS = ("A", "B", "C")

#: Seconds an event may lie before or after the EEG span.
EVENT_SLACK_S = 1.0


# --- field rules -------------------------------------------------------------

#: What a field of each annotated type takes; a bool is no number.
_KINDS = {int: numbers.Integral, float: numbers.Real, bool: (bool, np.bool_),
          str: str, tuple: (tuple, list), Literal: object}
_hints = cache(lambda cls: [(f.name, get_type_hints(cls)[f.name])
                            for f in fields(cls)])


def _fit(hint: object, value: object) -> object:
    """``value`` as a field annotated ``hint`` stores it."""
    if type(value) is hint and (hint is not float or math.isfinite(value)):
        return value  # the common case, without the look-ups below
    kind, args = get_origin(hint) or hint, get_args(hint)
    if kind is Union:  # Optional[T]
        return None if value is None else _fit(args[0], value)
    if isinstance(kind, EnumMeta):
        return kind(value)
    if (not isinstance(value, _KINDS[kind])
            or isinstance(value, (bool, np.bool_)) != (kind is bool)
            or kind is tuple and not all(isinstance(v, args[0]) for v in value)
            or kind is Literal and value not in args
            or kind is float and not math.isfinite(value)):
        name = hint.__name__ if isinstance(hint, type) else hint
        raise TypeError(f"expected {name}, got {value!r:.60}")
    return kind(value) if kind in (int, float, bool, tuple) else value


def check_fields(obj: object, error: type[Exception]) -> None:
    """Check each field of the dataclass ``obj`` by its annotation and store
    it as that type, or raise ``error``. ``int`` takes an integer (numpy's
    too), ``float`` a finite integer or float, ``bool`` a bool, ``str`` a
    str, an Enum a member or its value, ``Literal[...]`` one of its values,
    ``tuple[T, ...]`` a tuple or list of T and ``Optional[T]`` also None.
    Ranges are the type's own to check."""
    for name, hint in _hints(type(obj)):
        try:
            object.__setattr__(obj, name, _fit(hint, getattr(obj, name)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{name}: {exc}") from None


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


#: The fields each kind of event carries besides ``t``, in the order of
#: the ``events.csv`` argument columns; every other field stays empty.
EVENT_FIELDS: dict[EventKind, tuple[str, ...]] = {
    EventKind.SESSION_START: (),
    EventKind.SENTENCE_SHOWN: ("text",),
    EventKind.KEY: ("key_class", "produced"),
    EventKind.SENTENCE_SUBMIT: ("text",),
    EventKind.SESSION_END: (),
}


@dataclass(frozen=True)
class Event:
    """One experiment event.

    ``text`` carries the SHOWN prompt or SUBMIT transcription; ``produced``
    carries the characters appended by a keystroke (empty for BKSP). The
    time is finite, a KEY has a key class, and a field its kind does not
    carry (:data:`EVENT_FIELDS`) stays empty; ValueError otherwise.
    """

    t: float
    kind: EventKind
    text: str = ""
    key_class: Optional[KeyClass] = None
    produced: str = ""

    def __post_init__(self) -> None:
        check_fields(self, ValueError)
        if self.kind is EventKind.KEY and self.key_class is None:
            raise ValueError("a KEY event needs a key_class")
        for name in ("text", "key_class", "produced"):
            if getattr(self, name) and name not in EVENT_FIELDS[self.kind]:
                raise ValueError(f"a {self.kind.value} event carries no {name}")

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
    """One SHOWN..SUBMIT span with the keystrokes in between, and what
    :func:`replay_keystrokes` makes of them: the transcription ``text`` and
    ``empty_bksp``, the BKSP presses that hit an empty buffer."""

    index: int
    shown: Event
    submit: Event
    keys: tuple[Event, ...]
    text: str
    empty_bksp: int


@dataclass(frozen=True)
class EventLog:
    """Ordered experiment events.

    The type itself is permissive: structurally broken sequences can be
    represented so that :func:`validate_session` can report on them.
    :meth:`sentences` only sees well-delimited SHOWN..SUBMIT spans.
    """

    events: tuple[Event, ...]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def sentences(self) -> list[Sentence]:
        """SHOWN..SUBMIT spans in order; unterminated spans are skipped."""
        return list(self._sentences)

    @cached_property
    def _sentences(self) -> tuple[Sentence, ...]:
        # built and replayed on first use and kept; sentences() hands out
        # copies
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
                out.append(Sentence(len(out), shown, ev, tuple(keys),
                                    *replay_keystrokes(keys)))
                shown = None
                keys = []
        return tuple(out)


@dataclass(frozen=True)
class SessionMeta:
    """Identity and recording parameters of one participant-session."""

    participant_id: str
    keyboard: Literal[KEYBOARDS]
    session_index: int
    fs_eeg: float = 128.0
    channel_names: tuple[str, ...] = EPOC14_CHANNELS

    def __post_init__(self) -> None:
        check_fields(self, ValueError)
        if self.session_index < 0:
            raise ValueError("session_index must be >= 0")
        if not self.fs_eeg > 0:
            raise ValueError("fs_eeg must be positive")
        if not 0 < len(set(self.channel_names)) == len(self.channel_names):
            raise ValueError("channel_names must be non-empty and distinct")
        if any(c in name for name in self.channel_names for c in ",\n\r"):
            # eeg.csv's header row could not hold such a name
            raise ValueError("channel_names may not contain ',', '\\n' "
                             "or '\\r'")

    @property
    def is_training(self) -> bool:
        return self.session_index == 0


class EegRecording:
    """Uniformly sampled multi-channel EEG block.

    Sample ``i`` of every channel has the implicit timestamp ``t0 + i/fs``.
    ``t0`` and every sample are finite, or ValueError. The sample matrix is
    frozen on construction.
    """

    __slots__ = ("t0", "fs", "samples")

    def __init__(self, t0: float, fs: float, samples: np.ndarray) -> None:
        if not fs > 0:
            raise ValueError("fs must be positive")
        arr = np.ascontiguousarray(samples, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("samples must be a [n_channels, n_samples] "
                             "matrix with at least one channel")
        if not (math.isfinite(t0) and np.isfinite(arr).all()):
            raise ValueError("t0 and samples must be finite")
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


@dataclass
class SessionRecord:
    """One participant-session bundle: metadata, EEG and events.
    The EEG's rate and channel count are the meta's; ValueError otherwise."""

    meta: SessionMeta
    eeg: EegRecording
    events: EventLog
    validation: Optional["ValidationReport"] = field(default=None,
                                                     compare=False, init=False)

    def __post_init__(self) -> None:
        # a bundle stores both; one that disagrees would not reload
        if self.eeg.fs != self.meta.fs_eeg:
            raise ValueError(f"eeg is sampled at {self.eeg.fs} Hz, "
                             f"meta says {self.meta.fs_eeg} Hz")
        if self.eeg.n_channels != len(self.meta.channel_names):
            raise ValueError(f"eeg has {self.eeg.n_channels} channels, "
                             f"meta names {len(self.meta.channel_names)}")


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
    """What validation found in one record.

    Neither list stops the analysis: a record with violations is still
    analyzed, its windows join the load groups, and its violations are
    listed in the report (exit 2). Only an AnalysisError, which the report
    adds when the analysis itself fails, keeps a session's windows out of
    the load groups.
    """

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


def validate_session(rec: SessionRecord) -> ValidationReport:
    """Check a record for analyzability; violations are data, not failures.

    An empty violation list means the record satisfies every event-log and
    timeline invariant. Events must fall into the EEG span widened by
    :data:`EVENT_SLACK_S` on both sides.
    """
    events = rec.events.events
    violations = list(event_log_violations(events))
    warnings: list[str] = []

    for s in rec.events.sentences():
        if s.empty_bksp:
            warnings.append(
                f"sentence {s.index}: {s.empty_bksp} BKSP on empty buffer")
        if s.text != s.submit.text:
            violations.append(Violation(
                ViolationCode.TRANSCRIPTION_MISMATCH,
                f"sentence {s.index}: reconstruction {s.text!r} != submitted "
                f"{s.submit.text!r}"))

    lo = rec.eeg.t0 - EVENT_SLACK_S
    hi = rec.eeg.end_t + EVENT_SLACK_S
    for i, ev in enumerate(events):
        if not lo <= ev.t <= hi:
            violations.append(Violation(
                ViolationCode.EVENT_OUTSIDE_EEG,
                f"event at t={ev.t} outside EEG span [{lo}, {hi}]", i))

    return ValidationReport(violations, warnings)
