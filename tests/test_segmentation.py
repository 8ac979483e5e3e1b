import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gtl.model import Event, EventLog, KeyClass
from gtl.segmentation import (
    LOAD_UNITS,
    PRE_PHASE,
    LabeledLoadSample,
    aggregate,
    assign_windows,
    label_load_windows,
    mode_intervals,
    phase_intervals,
)
from gtl.spectral import LoadSeries

from conftest import make_event_log, random_event_log


def _label_one(w_start, w_end, intervals, threshold):
    """Reference rule: one pass over every interval for one window."""
    overlap = {}
    earliest = {}
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


def _oracle(series, intervals, threshold):
    return [_label_one(t, t + series.window_s, intervals, threshold)
            for t in series.starts]


# small integers make equal overlaps and equal starts common
_times = st.one_of(st.integers(-4, 24).map(float),
                   st.floats(-50.0, 50.0),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _labeling_cases(draw):
    starts = draw(st.lists(_times, max_size=12))
    window_s = draw(st.one_of(st.sampled_from([1.0, 2.0, 4.0, 8.0]),
                              st.floats(1e-3, 100.0)))
    alphabet = draw(st.sampled_from(["AB", "ABC"]))
    intervals = draw(st.lists(
        st.tuples(_times, _times, st.sampled_from(alphabet)), max_size=16))
    threshold = draw(st.one_of(st.sampled_from([0.5, 1.0]),
                               st.floats(0.0, 1.0, exclude_min=True)))
    return _series(starts, window_s=window_s), intervals, threshold


def _log(events):
    return EventLog(tuple(events))


def _series(starts, loads=None, window_s=8.0):
    starts = np.asarray(starts, float)
    if loads is None:
        loads = np.full(len(starts), 0.5)
    return LoadSeries(starts, np.asarray(loads, float), window_s)


def _sample(load, *, mode=None, phase=None, sentence=None,
            participant="p01", keyboard="A", session_index=1, start=0.0):
    return LabeledLoadSample(start, load, mode, phase, sentence,
                             participant, keyboard, session_index)


class TestModeIntervals:
    def test_two_keys(self):
        log = _log([
            Event.session_start(0.0),
            Event.shown(0.0, "x"),
            Event.key(2.0, KeyClass.INSERT, "x"),
            Event.key(5.0, KeyClass.SUGG, ""),
            Event.submit(5.0, "x"),
            Event.session_end(6.0),
        ])
        assert mode_intervals(log) == [
            (0.0, 2.0, "INSERT"), (2.0, 5.0, "SUGG")]

    def test_single_backspace(self):
        log = _log([
            Event.session_start(0.0),
            Event.shown(1.0, ""),
            Event.key(3.0, KeyClass.BKSP, ""),
            Event.submit(3.0, ""),
            Event.session_end(4.0),
        ])
        assert mode_intervals(log) == [(1.0, 3.0, "BKSP")]

    def test_durations_sum_to_shown_to_last_key(self):
        rng = random.Random(41)
        for _ in range(50):
            log = random_event_log(rng)
            intervals = mode_intervals(log)
            for s in log.sentences():
                mine = [(start, end) for start, end, _ in intervals
                        if s.shown.t <= start and end <= s.keys[-1].t]
                total = sum(end - start for start, end in mine)
                span = s.keys[-1].t - s.shown.t
                assert total == pytest.approx(span, rel=1e-12, abs=1e-12)

    def test_partition_has_no_gaps_or_overlaps(self):
        rng = random.Random(43)
        for _ in range(30):
            log = random_event_log(rng)
            intervals = sorted((start, end) for start, end, _
                               in mode_intervals(log))
            for a, b in zip(intervals, intervals[1:]):
                assert b[0] >= a[1]
            # within one sentence the intervals chain exactly
            for s in log.sentences():
                inside = [(start, end) for start, end in intervals
                          if s.shown.t <= start and end <= s.keys[-1].t]
                assert inside[0][0] == s.shown.t
                assert inside[-1][1] == s.keys[-1].t
                for a, b in zip(inside, inside[1:]):
                    assert a[1] == b[0]


class TestPhaseIntervals:
    def test_pre_phase(self):
        log = make_event_log([[("INSERT", "a")]], pre=10.0)
        # sentence 0 is the Pre phase
        assert phase_intervals(log)[0] == (0.0, 10.0, 0)

    def test_five_sentences(self):
        log = make_event_log([[("INSERT", "a")] for _ in range(5)])
        sentences = [s for _, _, s in phase_intervals(log)]
        assert sentences == [0, 1, 2, 3, 4, 5]

    def test_zero_length_pre_omitted(self):
        log = _log([
            Event.session_start(0.0),
            Event.shown(0.0, "a"),
            Event.key(1.0, KeyClass.INSERT, "a"),
            Event.submit(1.0, "a"),
            Event.session_end(2.0),
        ])
        assert [s for _, _, s in phase_intervals(log)] == [1]


class TestAssignWindows:
    def test_window_inside_one_interval(self):
        series = _series([2.0])
        labels = assign_windows(series, [(0.0, 20.0, "INSERT")])
        assert labels == ["INSERT"]

    def test_majority_overlap_wins(self):
        # window [0, 8): INSERT covers 3 s, SUGG covers 5 s
        series = _series([0.0])
        labels = assign_windows(series, [(0.0, 3.0, "INSERT"),
                                         (3.0, 8.0, "SUGG")])
        assert labels == ["SUGG"]

    def test_below_threshold_unlabeled(self):
        series = _series([0.0])
        labels = assign_windows(series, [(0.0, 3.0, "INSERT")])
        assert labels == [None]

    def test_threshold_is_configurable(self):
        series = _series([0.0])
        labels = assign_windows(series, [(0.0, 3.0, "INSERT")], threshold=0.25)
        assert labels == ["INSERT"]
        with pytest.raises(ValueError):
            assign_windows(series, [], threshold=0.0)

    def test_tie_breaks_toward_earlier_label(self):
        series = _series([0.0])
        labels = assign_windows(series, [(0.0, 4.0, "B"), (4.0, 8.0, "A")])
        assert labels == ["B"]

    def test_full_tie_goes_to_first_overlapping_interval(self):
        # window [0, 8): A and B both cover 4 s from t=0. A's first
        # interval comes first in the list but misses the window, so B's
        # interval is the first one overlapping it.
        series = _series([0.0])
        intervals = [(20.0, 30.0, "A"), (0.0, 4.0, "B"), (0.0, 4.0, "A")]
        assert assign_windows(series, intervals) == ["B"]
        assert assign_windows(series, intervals[::-1]) == ["A"]
        assert _oracle(series, intervals, 0.5) == ["B"]

    @given(_labeling_cases())
    def test_matches_per_window_scan(self, case):
        series, intervals, threshold = case
        assert (assign_windows(series, intervals, threshold)
                == _oracle(series, intervals, threshold))

    def test_labeled_overlap_meets_threshold(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            starts = np.sort(rng.uniform(0, 40, 5))
            series = _series(starts)
            cut = np.sort(rng.uniform(0, 48, 6))
            intervals = [(float(a), float(b), lab)
                         for a, b, lab in zip(cut, cut[1:], "ABCDE")
                         if b > a]
            labels = assign_windows(series, intervals, threshold=0.5)
            for w0, lab in zip(series.starts, labels):
                w1 = w0 + series.window_s
                if lab is None:
                    continue
                covered = sum(min(w1, e) - max(w0, s)
                              for s, e, il in intervals
                              if il == lab and min(w1, e) > max(w0, s))
                assert covered >= 0.5 * (w1 - w0) - 1e-12


def _rows(samples, level, *keys):
    """(group, unit, load) rows of ``samples`` as the report groups them."""
    return ((tuple(getattr(s, k) for k in keys), LOAD_UNITS[level](s), s.load)
            for s in samples)


class TestAggregate:
    def test_sentence_level_mean(self):
        samples = [
            _sample(v, phase="S1", sentence=1)
            for v in (0.1, 0.1, 0.3, 0.3)
        ]
        groups = aggregate(_rows(samples, "sentence", "keyboard"))
        assert groups == {("A",): [pytest.approx(0.2)]}

    def test_session_level_counts(self):
        samples = []
        for kb in ("A", "B", "C"):
            for p in range(5):
                for s in range(1, 6):
                    for w in range(3):
                        samples.append(_sample(
                            0.1 * p, participant=f"p{p}", keyboard=kb,
                            session_index=s, start=4.0 * w))
        groups = aggregate(_rows(samples, "session", "keyboard"))
        assert {k[0]: len(v) for k, v in groups.items()} == \
            {"A": 25, "B": 25, "C": 25}

    def test_sentence_level_n150(self):
        samples = []
        for p in range(5):
            for s in range(6):
                for sent in range(1, 6):
                    samples.append(_sample(
                        0.5, phase=f"S{sent}", sentence=sent,
                        participant=f"p{p}", session_index=s,
                        start=100.0 * sent))
        groups = aggregate(_rows(samples, "sentence", "keyboard"))
        assert len(groups[("A",)]) == 150

    def test_constant_load_aggregates_exactly(self):
        samples = [_sample(0.25, mode="INSERT", phase="S1", sentence=1,
                           start=4.0 * i) for i in range(7)]
        for level in ("window", "sentence", "session", "participant"):
            groups = aggregate(_rows(samples, level, "keyboard"))
            for values in groups.values():
                assert all(v == 0.25 for v in values)

    def test_group_by_mode_excludes_unlabeled(self):
        samples = [_sample(0.5, mode="INSERT", start=0.0),
                   _sample(0.9, mode=None, start=4.0)]
        groups = aggregate(_rows(samples, "window", "keyboard", "mode"))
        assert list(groups) == [("A", "INSERT")]
        assert groups[("A", "INSERT")] == [0.5]

    def test_window_outside_sentences_has_no_sentence_unit(self):
        samples = [_sample(0.4, phase="S1", sentence=1),
                   _sample(0.9, phase=PRE_PHASE, start=4.0)]
        assert aggregate(_rows(samples, "sentence", "keyboard")) == {
            ("A",): [0.4]}
        assert aggregate(_rows(samples, "session", "keyboard")) == {
            ("A",): [pytest.approx(0.65)]}

    def test_window_level_passthrough_ordering(self):
        samples = [_sample(v, start=s) for v, s in ((0.3, 8.0), (0.1, 0.0),
                                                    (0.2, 4.0))]
        groups = aggregate(_rows(samples, "window", "keyboard"))
        assert groups[("A",)] == [0.1, 0.2, 0.3]

    def test_same_session_index_on_two_keyboards_stays_separate(self):
        # p01 holds session index 1 on both keyboards; grouping by mode
        # only must still treat them as two sessions
        samples = [
            _sample(0.2, mode="INSERT", keyboard="A", session_index=1),
            _sample(0.2, mode="INSERT", keyboard="A", session_index=1,
                    start=4.0),
            _sample(0.8, mode="INSERT", keyboard="C", session_index=1),
        ]
        groups = aggregate(_rows(samples, "session", "mode"))
        assert groups[("INSERT",)] == [pytest.approx(0.2), pytest.approx(0.8)]


class TestLabelLoadWindows:
    def test_full_labeling_roundtrip(self):
        log = make_event_log(
            [[("INSERT", c) for c in "hello world this is long"]],
            pre=8.0, key_dt=1.0)
        starts = np.arange(0.0, 24.0, 4.0)
        series = _series(starts)
        from gtl.model import SessionMeta
        meta = SessionMeta("p01", "B", 2)
        samples = label_load_windows(series, log, meta)
        assert len(samples) == len(starts)
        assert {s.keyboard for s in samples} == {"B"}
        # first window [0,8) sits fully inside Pre
        assert samples[0].phase == "Pre"
        assert samples[0].sentence is None
        # any window fully inside the typing span is INSERT/S1
        inner = [s for s in samples if s.window_start >= 8.0
                 and s.window_start + series.window_s <= 8.0 + 1.0 + 25.0]
        assert inner
        assert all(s.mode == "INSERT" for s in inner)
        assert all((s.phase, s.sentence) == ("S1", 1) for s in inner)
