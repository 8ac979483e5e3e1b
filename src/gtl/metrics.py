"""Conventional text-entry performance metrics computed from the event log.

A word is normalized to 5 characters for the words-per-minute rate, and a
suggestion selection counts as a single keystroke, so savings express how
much typing the suggestions absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import EmptyTranscription, NonFiniteMetric, NonPositiveDuration
from .model import (Event, EventLog, KeyClass, Sentence, SessionRecord,
                    replay_keystrokes)

TIMING_ANCHORS = ("shown", "first-key")


@dataclass(frozen=True)
class SentenceMetrics:
    index: int
    transcribed_len: int
    duration_s: float
    wpm: float
    keystrokes: int
    keystrokes_saved_pct: float
    kspc: float
    backspace_count: int


@dataclass(frozen=True)
class TypingMetrics:
    """Per-sentence metrics plus their unweighted session means."""

    sentences: tuple[SentenceMetrics, ...]
    mean_wpm: float
    mean_keystrokes_saved_pct: float
    mean_kspc: float
    mean_backspace_count: float
    total_backspace_count: int


def wpm(transcribed_len: int, duration_s: float) -> float:
    """((|T|-1) * 60) / (5 * s); 0 when fewer than two characters.

    A rate past the float range (a subnormal duration) is NonFiniteMetric.
    """
    if duration_s <= 0:
        raise NonPositiveDuration(f"duration {duration_s} s must be positive")
    if transcribed_len <= 1:
        return 0.0
    rate = ((transcribed_len - 1) * 60.0) / (5.0 * duration_s)
    if not math.isfinite(rate):
        raise NonFiniteMetric(
            f"wpm of {transcribed_len} characters in {duration_s} s "
            "overflows the float range")
    return rate


def keystrokes_saved_pct(n_keystrokes: int, transcribed_len: int) -> float:
    """100 * (|T| - K) / |T|: percent of typing absorbed by suggestions."""
    if transcribed_len <= 0:
        raise EmptyTranscription("savings undefined for empty transcription")
    return 100.0 * (transcribed_len - n_keystrokes) / transcribed_len


def kspc(n_keystrokes: int, transcribed_len: int) -> float:
    """Keystrokes per produced character, K / |T|."""
    if transcribed_len <= 0:
        raise EmptyTranscription("KSPC undefined for empty transcription")
    return n_keystrokes / transcribed_len


def _bksp(events: Iterable[Event]) -> int:
    return sum(1 for ev in events if ev.key_class is KeyClass.BKSP)


def backspace_count(events: EventLog, sentence_index: Optional[int] = None) -> int:
    """BKSP keystrokes in one sentence, or in the whole log when no index given."""
    if sentence_index is None:
        return _bksp(events)
    return _bksp(events.sentence(sentence_index).keys)


def _sentence_duration(s: Sentence, timing_anchor: str) -> float:
    if timing_anchor == "shown":
        return s.submit.t - s.shown.t
    if timing_anchor == "first-key":
        if not s.keys:
            raise NonPositiveDuration(
                f"sentence {s.index} has no keystrokes; first-key anchor undefined")
        return s.submit.t - s.keys[0].t
    raise ValueError(f"timing_anchor must be one of {TIMING_ANCHORS}")


def sentence_metrics(events: EventLog, sentence_index: int,
                     timing_anchor: str = "shown") -> SentenceMetrics:
    return _metrics_of(events.sentence(sentence_index), timing_anchor)


def _metrics_of(s: Sentence, timing_anchor: str) -> SentenceMetrics:
    text, _ = replay_keystrokes(s.keys)
    t_len = len(text)
    n_keys = len(s.keys)
    duration = _sentence_duration(s, timing_anchor)
    n_bksp = _bksp(s.keys)
    return SentenceMetrics(
        index=s.index,
        transcribed_len=t_len,
        duration_s=duration,
        wpm=wpm(t_len, duration),
        keystrokes=n_keys,
        keystrokes_saved_pct=keystrokes_saved_pct(n_keys, t_len),
        kspc=kspc(n_keys, t_len),
        backspace_count=n_bksp,
    )


def session_metrics(rec: SessionRecord,
                    timing_anchor: str = "shown") -> TypingMetrics:
    """Metrics for every sentence plus unweighted means across sentences.

    A session without a sentence has no means: EmptyTranscription.
    """
    per_sentence = tuple(_metrics_of(s, timing_anchor)
                         for s in rec.events.sentences())
    if not per_sentence:
        raise EmptyTranscription("session has no sentence")
    n = len(per_sentence)
    mean_wpm = sum(m.wpm for m in per_sentence) / n
    if not math.isfinite(mean_wpm):
        raise NonFiniteMetric("mean wpm overflows the float range")
    return TypingMetrics(
        sentences=per_sentence,
        mean_wpm=mean_wpm,
        mean_keystrokes_saved_pct=sum(
            m.keystrokes_saved_pct for m in per_sentence) / n,
        mean_kspc=sum(m.kspc for m in per_sentence) / n,
        mean_backspace_count=sum(m.backspace_count for m in per_sentence) / n,
        total_backspace_count=sum(m.backspace_count for m in per_sentence),
    )
