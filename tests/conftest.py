"""Shared builders for the test suite."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import settings

from gtl.model import (
    EegRecording,
    Event,
    EventLog,
    KeyClass,
    SessionMeta,
    SessionRecord,
    replay_keystrokes,
)

# derandomized: a property that fails once fails again on the next run
settings.register_profile("gtl", deadline=None, derandomize=True)
settings.load_profile("gtl")

_WORD_CHARS = "abcdefghijklmnopqrstuvwxyz ,\"'\näé→"


def make_event_log(sentences: list[list[tuple[str, str]]],
                   start: float = 0.0, pre: float = 5.0,
                   key_dt: float = 1.0, gap: float = 2.0) -> EventLog:
    """Build a well-formed log; sentences are lists of (key_class, produced)."""
    events = [Event.session_start(start)]
    t = start + pre
    for keys in sentences:
        shown_t = t
        key_events = []
        for cls, produced in keys:
            t += key_dt
            key_events.append(Event.key(t, KeyClass(cls), produced))
        text, _ = replay_keystrokes(key_events)
        events.append(Event.shown(shown_t, text))
        events.extend(key_events)
        events.append(Event.submit(t, text))
        t += gap
    events.append(Event.session_end(t))
    return EventLog(tuple(events))


def random_event_log(rng: random.Random, max_sentences: int = 4) -> EventLog:
    """Well-formed random log; key text may contain commas, quotes, newlines."""
    sentences = []
    for _ in range(rng.randint(1, max_sentences)):
        keys: list[tuple[str, str]] = []
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if roll < 0.6:
                keys.append(("INSERT", rng.choice(_WORD_CHARS)))
            elif roll < 0.85:
                produced = "".join(rng.choice(_WORD_CHARS)
                                   for _ in range(rng.randint(2, 6)))
                keys.append(("SUGG", produced))
            else:
                keys.append(("BKSP", ""))
        sentences.append(keys)
    return make_event_log(sentences, key_dt=rng.choice([0.25, 0.5, 1.0]))


def make_record(log: EventLog, fs: float = 128.0, n_channels: int = 2,
                keyboard: str = "A", participant: str = "p01",
                session_index: int = 1, pad_s: float = 0.5) -> SessionRecord:
    """Record whose EEG span covers the whole event log."""
    start, end = ((log.events[0].t, log.events[-1].t) if log.events
                  else (0.0, 0.0))
    duration = end - start + pad_s
    n = max(1, int(np.ceil(duration * fs)))
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((n_channels, n))
    meta = SessionMeta(participant_id=participant, keyboard=keyboard,
                       session_index=session_index, fs_eeg=fs,
                       channel_names=tuple(f"ch{i + 1}" for i in range(n_channels)))
    eeg = EegRecording(t0=start, fs=fs, samples=samples)
    return SessionRecord(meta=meta, eeg=eeg, events=log)


@pytest.fixture
def simple_log() -> EventLog:
    return make_event_log([
        [("INSERT", "h"), ("INSERT", "i")],
        [("INSERT", "y"), ("SUGG", "es "), ("INSERT", "x"), ("BKSP", "")],
    ])


#: JSON texts of values that a typed field may not take, or only just: a
#: bool, a fraction, a numeric string, null, an array, an integer past the
#: float range and NaN.
ODD_JSON_VALUES = ("true", "0.5", '"128"', "null", "[]", "1" + "0" * 400,
                   "NaN")


def strict_json(text: str) -> object:
    """``text`` decoded as JSON proper: ``NaN`` and ``Infinity``, which
    ``json.loads`` takes by default, are a ValueError."""
    def reject(name: str):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def loads_as_itself(got: object, value: object) -> bool:
    """A field read from ``value`` holds ``value`` with its type, so that
    neither ``True`` for ``1`` nor ``0`` for ``0.5`` passes."""
    return got == value and type(got) is type(value)
