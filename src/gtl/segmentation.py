"""Labeling of load windows by typing mode and session phase.

Intervals are (start, end, label) triples. Mode intervals carry the class
of the keystroke that ends them: the time leading up to a keystroke is the
search/decide time for that keystroke. Phase intervals carry the 1-based
sentence number, 0 for the Pre phase before the first sentence.
A window takes the label whose intervals cover most of it, provided the
covered fraction reaches the threshold; windows straddling too much
unlabeled time stay unlabeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import EventKind, EventLog, SessionMeta
from .spectral import LoadSeries

PRE_PHASE = "Pre"


@dataclass(frozen=True)
class LabeledLoadSample:
    """One load window with whatever labels cleared the overlap threshold."""

    window_start: float
    window_end: float
    load: float
    mode: Optional[str]
    phase: Optional[str]
    sentence: Optional[int]
    participant: str
    keyboard: str
    session_index: int


def mode_intervals(events: EventLog) -> list[tuple[float, float, str]]:
    """Per sentence: contiguous intervals, each ending at a keystroke.

    The first interval starts at the sentence's SHOWN time; time between
    SUBMIT and the next SHOWN stays unlabeled. Zero-length intervals
    (coincident timestamps) are dropped.
    """
    out = []
    for s in events.sentences():
        t_prev = s.shown.t
        for key in s.keys:
            if key.t > t_prev and key.key_class is not None:
                out.append((t_prev, key.t, key.key_class.value))
            t_prev = key.t
    return out


def phase_intervals(events: EventLog) -> list[tuple[float, float, int]]:
    """Pre = [session start, first SHOWN); sentence i = [SHOWN_i, SUBMIT_i].

    Inter-sentence gaps are unlabeled; a zero-length Pre is omitted.
    """
    out = []
    sentences = events.sentences()
    start = next((ev.t for ev in events if ev.kind is EventKind.SESSION_START),
                 None)
    if start is not None and sentences and sentences[0].shown.t > start:
        out.append((start, sentences[0].shown.t, 0))
    for i, s in enumerate(sentences, start=1):
        if s.submit.t > s.shown.t:
            out.append((s.shown.t, s.submit.t, i))
    return out


def assign_windows(series: LoadSeries,
                   intervals: Sequence[tuple[float, float, object]],
                   threshold: float = 0.5) -> list[Optional[object]]:
    """Majority-overlap label per window, or None below the threshold.

    ``intervals`` are (start, end, label) triples in any order; they may
    overlap, and zero-length or reversed ones cover nothing. A window
    takes the label with the largest summed overlap; ties go to the label
    whose earliest overlapping interval starts first, then to the label
    of the first overlapping interval in ``intervals`` order. The label
    is kept only if its overlap reaches ``threshold`` times the window
    length.

    The work grows with windows + intervals + overlapping pairs: each
    interval finds the windows it overlaps by binary search.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    n_windows = len(series.starts)
    out: list[Optional[object]] = [None] * n_windows
    if not n_windows or not intervals:
        return out
    order = np.argsort(series.starts, kind="stable")
    w_start = np.asarray(series.starts, dtype=np.float64)[order]
    w_end = w_start + series.window_s
    ids: dict[object, int] = {}
    iv_label = np.array([ids.setdefault(lab, len(ids))
                         for _, _, lab in intervals], dtype=np.int64)
    labels = list(ids)
    iv_start = np.array([iv[0] for iv in intervals], dtype=np.float64)
    iv_end = np.array([iv[1] for iv in intervals], dtype=np.float64)

    # windows [lo, hi) end after the interval starts and start before it
    # ends; every window with a positive overlap lies in that range
    lo = np.searchsorted(w_end, iv_start, side="right")
    hi = np.searchsorted(w_start, iv_end, side="left")
    counts = np.maximum(hi - lo, 0)
    # (window, interval) pairs in interval order
    iv = np.repeat(np.arange(len(intervals)), counts)
    first_pair = np.cumsum(counts) - counts
    win = np.arange(len(iv)) + np.repeat(lo - first_pair, counts)
    overlap = (np.minimum(w_end[win], iv_end[iv])
               - np.maximum(w_start[win], iv_start[iv]))
    hit = overlap > 0
    iv, win, overlap = iv[hit], win[hit], overlap[hit]
    if not len(iv):
        return out

    # one accumulator per (window, label) that occurs; np.add.at adds in
    # pair order, i.e. interval order from 0.0, as a per-window loop would
    keys, first, key_of = np.unique(win * len(labels) + iv_label[iv],
                                    return_index=True, return_inverse=True)
    total = np.zeros(len(keys))
    np.add.at(total, key_of, overlap)
    earliest = np.full(len(keys), np.inf)
    np.minimum.at(earliest, key_of, iv_start[iv])
    key_win, key_label = np.divmod(keys, len(labels))

    # per window: largest overlap, then earliest start, then first pair
    ranked = np.lexsort((first, earliest, -total, key_win))
    leader = np.ones(len(ranked), dtype=bool)
    leader[1:] = key_win[ranked[1:]] != key_win[ranked[:-1]]
    best = ranked[leader]
    bw = key_win[best]
    keep = total[best] >= threshold * (w_end[bw] - w_start[bw])
    for w, lab in zip(order[bw[keep]].tolist(), key_label[best[keep]].tolist()):
        out[w] = labels[lab]
    return out


def label_load_windows(series: LoadSeries, events: EventLog,
                       meta: SessionMeta,
                       threshold: float = 0.5) -> list[LabeledLoadSample]:
    """Attach mode and phase labels to every window of one session."""
    mode_labels = assign_windows(series, mode_intervals(events), threshold)
    phase_labels = assign_windows(series, phase_intervals(events), threshold)
    out: list[LabeledLoadSample] = []
    for i, (t, load) in enumerate(zip(series.starts, series.loads)):
        sentence = phase_labels[i]
        out.append(LabeledLoadSample(
            window_start=float(t),
            window_end=float(t) + series.window_s,
            load=float(load),
            mode=mode_labels[i],
            phase=(None if sentence is None
                   else f"S{sentence}" if sentence else PRE_PHASE),
            sentence=sentence or None,
            participant=meta.participant_id,
            keyboard=meta.keyboard,
            session_index=meta.session_index,
        ))
    return out


#: The unit of each aggregation level: every unit contributes the mean of
#: its windows. A session's identity includes the keyboard, since the same
#: participant may hold session index i on several keyboards; a window
#: outside every sentence has no sentence unit.
LOAD_UNITS = {
    "window": lambda s: (s.participant, s.keyboard, s.session_index,
                         s.window_start),
    "sentence": lambda s: (s.participant, s.keyboard, s.session_index,
                           s.sentence),
    "session": lambda s: (s.participant, s.keyboard, s.session_index),
    "participant": lambda s: (s.participant,),
}
AGGREGATION_LEVELS = tuple(LOAD_UNITS)


def aggregate(rows: Iterable[tuple[tuple, tuple, float]],
              ) -> dict[tuple, list[float]]:
    """The mean value of each unit, listed per group.

    ``rows`` are (group key, unit key, value) triples; a row whose group
    or unit key holds None is left out. Each unit's values are summed in
    row order from 0.0. Groups and the unit means inside them come out
    sorted by key, so output order is deterministic.
    """
    sums: dict[tuple, dict[tuple, tuple[float, int]]] = {}
    for gkey, ukey, value in rows:
        if None in gkey or None in ukey:
            continue
        per_group = sums.setdefault(gkey, {})
        total, count = per_group.get(ukey, (0.0, 0))
        per_group[ukey] = (total + value, count + 1)
    return {gkey: [total / count for _, (total, count)
                   in sorted(sums[gkey].items())]
            for gkey in sorted(sums)}
