"""Labeling of load windows by typing mode and session phase.

Mode intervals carry the class of the keystroke that ends them: the time
leading up to a keystroke is the search/decide time for that keystroke.
A window takes the label whose intervals cover most of it, provided the
covered fraction reaches the threshold; windows straddling too much
unlabeled time stay unlabeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .model import EventKind, EventLog, SessionMeta
from .spectral import LoadSeries

AGGREGATION_LEVELS = ("window", "sentence", "session", "participant")

PRE_PHASE = "Pre"


@dataclass(frozen=True)
class ModeInterval:
    start: float
    end: float
    mode: str  # KeyClass value


@dataclass(frozen=True)
class PhaseInterval:
    start: float
    end: float
    sentence: Optional[int]  # None = Pre, else 1-based sentence number

    @property
    def label(self) -> str:
        return PRE_PHASE if self.sentence is None else f"S{self.sentence}"


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


def mode_intervals(events: EventLog) -> list[ModeInterval]:
    """Per sentence: contiguous intervals, each ending at a keystroke.

    The first interval starts at the sentence's SHOWN time; time between
    SUBMIT and the next SHOWN stays unlabeled. Zero-length intervals
    (coincident timestamps) are dropped.
    """
    out: list[ModeInterval] = []
    for s in events.sentences():
        t_prev = s.shown.t
        for key in s.keys:
            if key.t > t_prev and key.key_class is not None:
                out.append(ModeInterval(t_prev, key.t, key.key_class.value))
            t_prev = key.t
    return out


def phase_intervals(events: EventLog) -> list[PhaseInterval]:
    """Pre = [session start, first SHOWN); sentence i = [SHOWN_i, SUBMIT_i].

    Inter-sentence gaps are unlabeled; a zero-length Pre is omitted.
    """
    out: list[PhaseInterval] = []
    sentences = events.sentences()
    start = next((ev.t for ev in events if ev.kind is EventKind.SESSION_START),
                 None)
    if start is not None and sentences and sentences[0].shown.t > start:
        out.append(PhaseInterval(start, sentences[0].shown.t, None))
    for i, s in enumerate(sentences, start=1):
        if s.submit.t > s.shown.t:
            out.append(PhaseInterval(s.shown.t, s.submit.t, i))
    return out


def _label_one(w_start: float, w_end: float,
               intervals: Sequence[tuple[float, float, object]],
               threshold: float) -> Optional[object]:
    overlap: dict[object, float] = {}
    earliest: dict[object, float] = {}
    for start, end, label in intervals:
        ov = min(w_end, end) - max(w_start, start)
        if ov <= 0:
            continue
        overlap[label] = overlap.get(label, 0.0) + ov
        if label not in earliest or start < earliest[label]:
            earliest[label] = start
    if not overlap:
        return None
    best = max(overlap.values())
    if best < threshold * (w_end - w_start):
        return None
    winners = [lab for lab, ov in overlap.items() if ov == best]
    return min(winners, key=lambda lab: earliest[lab])


def assign_windows(series: LoadSeries,
                   intervals: Sequence[tuple[float, float, object]],
                   threshold: float = 0.5) -> list[Optional[object]]:
    """Majority-overlap label per window, or None below the threshold.

    ``intervals`` are (start, end, label) triples; overlap ties go to the
    label whose earliest overlapping interval starts first.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    return [_label_one(t, t + series.window_s, intervals, threshold)
            for t in series.starts]


def label_load_windows(series: LoadSeries, events: EventLog,
                       meta: SessionMeta,
                       threshold: float = 0.5) -> list[LabeledLoadSample]:
    """Attach mode and phase labels to every window of one session."""
    modes = [(iv.start, iv.end, iv.mode) for iv in mode_intervals(events)]
    phases = [(iv.start, iv.end, iv) for iv in phase_intervals(events)]
    mode_labels = assign_windows(series, modes, threshold)
    phase_labels = assign_windows(series, phases, threshold)
    out: list[LabeledLoadSample] = []
    for i, (t, load) in enumerate(zip(series.starts, series.loads)):
        phase = phase_labels[i]
        out.append(LabeledLoadSample(
            window_start=float(t),
            window_end=float(t) + series.window_s,
            load=float(load),
            mode=mode_labels[i],
            phase=phase.label if phase is not None else None,
            sentence=phase.sentence if phase is not None else None,
            participant=meta.participant_id,
            keyboard=meta.keyboard,
            session_index=meta.session_index,
        ))
    return out


_GROUP_FIELDS = {
    "keyboard": lambda s: s.keyboard,
    "mode": lambda s: s.mode,
    "phase": lambda s: s.phase,
    "participant": lambda s: s.participant,
    "session": lambda s: s.session_index,
}

# a session's identity includes the keyboard: the same participant may
# hold session index i on several keyboards
_UNIT_FIELDS = {
    "window": lambda s: (s.participant, s.keyboard, s.session_index,
                         s.window_start),
    "sentence": lambda s: (s.participant, s.keyboard, s.session_index,
                           s.sentence),
    "session": lambda s: (s.participant, s.keyboard, s.session_index),
    "participant": lambda s: (s.participant,),
}


def aggregate(samples: Sequence[LabeledLoadSample], level: str = "window",
              group_by: Sequence[str] = ("keyboard",),
              ) -> dict[tuple, list[float]]:
    """Group window loads and reduce them to one value per unit.

    ``level`` fixes the unit, and every unit contributes the arithmetic
    mean of its windows: a window unit holds one window unless the same
    session was passed in twice.
    ``group_by`` names the partition keys (keyboard / mode / phase /
    participant / session). Samples missing a requested label or, at
    sentence level, a sentence phase are excluded. Groups and the values
    inside them come out sorted, so output order is deterministic.
    """
    if level not in AGGREGATION_LEVELS:
        raise ValueError(f"level must be one of {AGGREGATION_LEVELS}")
    for key in group_by:
        if key not in _GROUP_FIELDS:
            raise ValueError(f"unknown group_by key {key!r}")
    unit_of = _UNIT_FIELDS[level]

    sums: dict[tuple, dict[tuple, tuple[float, int]]] = {}
    for s in samples:
        gkey = tuple(_GROUP_FIELDS[k](s) for k in group_by)
        if any(v is None for v in gkey):
            continue
        if level == "sentence" and s.sentence is None:
            continue
        ukey = unit_of(s)
        per_group = sums.setdefault(gkey, {})
        total, count = per_group.get(ukey, (0.0, 0))
        per_group[ukey] = (total + s.load, count + 1)

    out: dict[tuple, list[float]] = {}
    for gkey in sorted(sums):
        per_group = sums[gkey]
        out[gkey] = [per_group[u][0] / per_group[u][1]
                     for u in sorted(per_group)]
    return out
