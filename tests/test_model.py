import json
import math
import random
from collections import Counter
from dataclasses import fields
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtl.errors import ConfigError, MarkerOrder, SpecInvalid
from gtl.ingest import events_to_csv, parse_events_csv
from gtl.model import (
    EegRecording,
    Event,
    EventKind,
    EventLog,
    KeyClass,
    SessionMeta,
    SessionRecord,
    Violation,
    ViolationCode,
    event_log_violations,
    replay_keystrokes,
    validate_session,
)
from gtl.report import ReportConfig, build_report, render_json
from gtl.simgen import (BandComponent, ScriptKey, ScriptSentence, SimSpec,
                        StudyDesign)
from gtl.spectral import AnalysisConfig

from conftest import (ODD_JSON_VALUES, loads_as_itself, make_event_log,
                      make_record, random_event_log)


def _key(t, cls, produced=""):
    return Event.key(t, KeyClass(cls), produced)


class TestReconstruction:
    def test_append_only(self):
        log = make_event_log([[("INSERT", "h"), ("INSERT", "i")]])
        assert log.sentences()[0].text == "hi"

    def test_suggestion_then_backspace(self):
        log = make_event_log(
            [[("INSERT", "h"), ("SUGG", "ello "), ("BKSP", "")]])
        assert log.sentences()[0].text == "hello"

    def test_backspace_on_empty_buffer_warns(self):
        keys = [_key(1.0, "BKSP")]
        text, empty_bksp = replay_keystrokes(keys)
        assert text == ""
        assert empty_bksp == 1

    def test_backspace_removes_one_char_after_suggestion(self):
        text, _ = replay_keystrokes(
            [_key(1.0, "SUGG", "word "), _key(2.0, "BKSP")])
        assert text == "word"

    def test_deterministic_and_matches_submit_payload(self):
        rng = random.Random(7)
        for _ in range(50):
            log = random_event_log(rng)
            for i, sentence in enumerate(log.sentences()):
                assert sentence.text == sentence.submit.text
                assert sentence.text == \
                    EventLog(log.events).sentences()[i].text


class TestValidation:
    def test_well_formed_session_is_clean(self, simple_log):
        rec = make_record(simple_log)
        report = validate_session(rec)
        assert report.ok
        assert report.violations == []

    def test_submit_before_shown_is_marker_order(self):
        events = (
            Event.session_start(0.0),
            Event.submit(1.0, "abc"),
            Event.shown(2.0, "abc"),
            Event.session_end(3.0),
        )
        rec = make_record(EventLog(events))
        report = validate_session(rec)
        assert any(v.code is ViolationCode.MARKER_ORDER
                   for v in report.violations)

    def test_transcription_mismatch_against_reconstruction(self):
        # oracle: replaying the keys yields "ab", so a submitted "abc" must
        # be flagged
        events = (
            Event.session_start(0.0),
            Event.shown(1.0, "abc"),
            _key(2.0, "INSERT", "a"),
            _key(3.0, "INSERT", "b"),
            Event.submit(4.0, "abc"),
            Event.session_end(5.0),
        )
        rec = make_record(EventLog(events))
        report = validate_session(rec)
        codes = [v.code for v in report.violations]
        assert codes == [ViolationCode.TRANSCRIPTION_MISMATCH]

    def test_non_monotonic_timestamps_reported(self):
        events = (
            Event.session_start(0.0),
            Event.shown(5.0, "a"),
            _key(4.0, "INSERT", "a"),
            Event.submit(6.0, "a"),
            Event.session_end(7.0),
        )
        rec = make_record(EventLog(events))
        report = validate_session(rec)
        assert any(v.code is ViolationCode.NON_MONOTONIC_TIME
                   for v in report.violations)

    def test_event_outside_eeg_span(self, simple_log):
        rec = make_record(simple_log)
        short = EegRecording(t0=rec.eeg.t0, fs=rec.eeg.fs,
                             samples=rec.eeg.samples[:, :16])
        clipped = SessionRecord(meta=rec.meta, eeg=short, events=rec.events)
        report = validate_session(clipped)
        assert any(v.code is ViolationCode.EVENT_OUTSIDE_EEG
                   for v in report.violations)

    def test_one_second_slack_after_the_eeg(self, simple_log):
        rec = make_record(simple_log)
        for past_end, codes in ((0.5, []),
                                (1.5, [ViolationCode.EVENT_OUTSIDE_EEG])):
            # the EEG ends past_end seconds before the last event
            n = round((simple_log.events[-1].t - past_end) * rec.eeg.fs)
            short = EegRecording(t0=rec.eeg.t0, fs=rec.eeg.fs,
                                 samples=rec.eeg.samples[:, :n])
            clipped = SessionRecord(meta=rec.meta, eeg=short,
                                    events=rec.events)
            assert [v.code for v in validate_session(clipped).violations] == (
                codes)

    def test_empty_bksp_is_warning_not_violation(self):
        log = make_event_log([[("BKSP", ""), ("INSERT", "a")]])
        rec = make_record(log)
        report = validate_session(rec)
        assert report.ok
        assert any("BKSP on empty buffer" in w for w in report.warnings)

    def test_removing_any_key_never_crashes(self):
        rng = random.Random(42)
        for _ in range(30):
            log = random_event_log(rng)
            key_positions = [i for i, ev in enumerate(log.events)
                             if ev.kind is EventKind.KEY]
            for pos in key_positions:
                mutated = EventLog(log.events[:pos] + log.events[pos + 1:])
                report = validate_session(make_record(mutated))
                # either still consistent (removed key produced nothing) or
                # flagged; never an exception
                if not report.ok:
                    assert report.violations

    def test_shown_submit_counts_match_on_valid_logs(self):
        rng = random.Random(3)
        for _ in range(50):
            log = random_event_log(rng)
            shown = sum(1 for e in log if e.kind is EventKind.SENTENCE_SHOWN)
            submit = sum(1 for e in log if e.kind is EventKind.SENTENCE_SUBMIT)
            assert shown == submit


def _oracle_violations(events) -> list[Violation]:
    """The former time loop and marker check of validate_session: one
    pass per rule, violations grouped by rule."""
    out: list[Violation] = []
    prev_t = -np.inf
    for i, ev in enumerate(events):
        if ev.t < prev_t:
            out.append(Violation(
                ViolationCode.NON_MONOTONIC_TIME,
                f"timestamp {ev.t} before previous {prev_t}", i))
        prev_t = ev.t

    def bad(i: Optional[int], msg: str) -> None:
        out.append(Violation(ViolationCode.MARKER_ORDER, msg, i))

    if not events:
        bad(None, "event log is empty")
        return out

    for i, ev in enumerate(events):
        if ev.kind is EventKind.SESSION_START and i != 0:
            bad(i, "SESSION_START is not the first event")
        if ev.kind is EventKind.SESSION_END and i != len(events) - 1:
            bad(i, "SESSION_END is not the last event")
    if events[0].kind is not EventKind.SESSION_START:
        bad(0, f"first event is {events[0].kind.value}, expected SESSION_START")
    if events[-1].kind is not EventKind.SESSION_END:
        bad(len(events) - 1,
            f"last event is {events[-1].kind.value}, expected SESSION_END")

    in_sentence = False
    for i, ev in enumerate(events):
        if ev.kind is EventKind.SENTENCE_SHOWN:
            if in_sentence:
                bad(i, "SENTENCE_SHOWN while previous sentence is still open")
            in_sentence = True
        elif ev.kind is EventKind.SENTENCE_SUBMIT:
            if not in_sentence:
                bad(i, "SENTENCE_SUBMIT without a preceding SENTENCE_SHOWN")
            in_sentence = False
        elif ev.kind is EventKind.KEY and not in_sentence:
            bad(i, "KEY outside any SHOWN..SUBMIT span")
    if in_sentence:
        bad(len(events) - 1, "last SENTENCE_SHOWN was never submitted")
    return out


_TIMES = st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.0])


def _event(t: float, kind: EventKind) -> Event:
    if kind is EventKind.KEY:
        return Event.key(t, KeyClass.INSERT, "a")
    if kind in (EventKind.SENTENCE_SHOWN, EventKind.SENTENCE_SUBMIT):
        return Event(t, kind, text="a")
    return Event(t, kind)


@st.composite
def _event_sequences(draw) -> list[Event]:
    """Arbitrary kinds and times, or a well-formed log with up to three
    edits (drop, insert or retime one event)."""
    if draw(st.booleans()):
        return [_event(t, k) for t, k in draw(st.lists(
            st.tuples(_TIMES, st.sampled_from(list(EventKind))),
            max_size=8))]
    kinds = [EventKind.SESSION_START]
    for _ in range(draw(st.integers(0, 3))):
        kinds += ([EventKind.SENTENCE_SHOWN]
                  + [EventKind.KEY] * draw(st.integers(0, 2))
                  + [EventKind.SENTENCE_SUBMIT])
    kinds.append(EventKind.SESSION_END)
    events = [_event(float(i), k) for i, k in enumerate(kinds)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(events)))
        edit = draw(st.sampled_from(["drop", "insert", "retime"]))
        if edit == "insert":
            events.insert(i, _event(draw(_TIMES),
                                    draw(st.sampled_from(list(EventKind)))))
        elif i < len(events) and edit == "drop":
            del events[i]
        elif i < len(events):
            events[i] = _event(draw(_TIMES), events[i].kind)
    return events


class TestEventLogOrder:
    @settings(max_examples=300)
    @given(_event_sequences())
    def test_checker_matches_oracle_and_ingest(self, events):
        got = [(v.code, v.message, v.event_index)
               for v in event_log_violations(events)]
        want = [(v.code, v.message, v.event_index)
                for v in _oracle_violations(events)]
        assert Counter(got) == Counter(want)
        located = [i for _, _, i in got if i is not None]
        assert located == sorted(located)

        log = EventLog(tuple(events))
        text = events_to_csv(log)
        if want:
            with pytest.raises(MarkerOrder) as err:
                parse_events_csv(text.encode())
            # one event per line, so event i sits on row i + 1
            first = got[0][2]
            assert err.value.row == (None if first is None else first + 1)
        else:
            assert parse_events_csv(text.encode()) == log


class TestRecordingInvariants:
    def test_samples_frozen(self, simple_log):
        rec = make_record(simple_log)
        with pytest.raises(ValueError):
            rec.eeg.samples[0, 0] = 1.0

    def test_channel_count_and_span(self, simple_log):
        rec = make_record(simple_log, n_channels=3)
        assert rec.eeg.n_channels == 3
        assert rec.eeg.end_t == pytest.approx(
            rec.eeg.t0 + rec.eeg.n_samples / rec.eeg.fs)

    def test_zero_channel_eeg_rejected(self):
        with pytest.raises(ValueError, match="at least one channel"):
            EegRecording(0.0, 128.0, np.zeros((0, 256)))

    @pytest.mark.parametrize("fs,n_channels,match", [
        (256.0, 2, "Hz"),
        (128.0, 3, "channels"),
    ], ids=["rate", "channel-count"])
    def test_record_must_agree_with_its_meta(self, simple_log, fs, n_channels,
                                             match):
        rec = make_record(simple_log)
        meta = SessionMeta("p01", "A", 1, fs_eeg=fs, channel_names=tuple(
            f"ch{i + 1}" for i in range(n_channels)))
        with pytest.raises(ValueError, match=match):
            SessionRecord(meta=meta, eeg=rec.eeg, events=rec.events)

    @pytest.mark.parametrize("t0,sample", [
        (math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, -math.inf),
    ], ids=["t0-nan", "t0-inf", "sample-nan", "sample-inf"])
    def test_non_finite_eeg_rejected(self, t0, sample):
        # such a recording used to write a bundle that did not reload
        samples = np.zeros((2, 8))
        samples[1, 3] = sample
        with pytest.raises(ValueError, match="finite"):
            EegRecording(t0, 128.0, samples)

    def test_bad_meta_rejected(self):
        from gtl.model import SessionMeta
        with pytest.raises(ValueError):
            SessionMeta("p", "D", 0)
        with pytest.raises(ValueError):
            SessionMeta("p", "A", -1)
        with pytest.raises(ValueError):
            SessionMeta("p", "A", 0, fs_eeg=0.0)
        with pytest.raises(ValueError):
            SessionMeta("p", "A", 0, channel_names=("x", "x"))
        for kwargs in ({"session_index": 1.0}, {"fs_eeg": math.inf},
                       {"participant_id": 1}, {"channel_names": ("a", 1)}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                SessionMeta(**{"participant_id": "p", "keyboard": "A",
                               "session_index": 0, **kwargs})


class TestEventRules:
    @pytest.mark.parametrize("kwargs", [
        {"kind": EventKind.KEY, "produced": "h"},
        {"kind": EventKind.SESSION_START, "text": "x"},
        {"kind": EventKind.SENTENCE_SUBMIT, "text": "a",
         "key_class": KeyClass.INSERT},
        {"kind": EventKind.SESSION_START, "t": math.nan},
    ], ids=["key-without-class", "start-with-text", "submit-with-class",
            "nan-time"])
    def test_event_a_bundle_cannot_hold_is_rejected(self, kwargs):
        # each used to construct, then fail in write_session, be dropped
        # from the written row, or write a bundle that did not reload
        with pytest.raises(ValueError):
            Event(**{"t": 1.5, **kwargs})

    def test_kind_and_key_class_by_value_give_the_same_report(
            self, simple_log):
        # a kind given as its value used to end in an AttributeError
        by_value = EventLog(tuple(
            Event(ev.t, ev.kind.value, ev.text,
                  ev.key_class and ev.key_class.value, ev.produced)
            for ev in simple_log))
        assert all(isinstance(ev.kind, EventKind) for ev in by_value)
        reports = [render_json(build_report([make_record(log)],
                                            ReportConfig()))
                   for log in (simple_log, by_value)]
        assert reports[0] == reports[1]


_CHECKED_TYPES = [
    (SessionMeta, ValueError, {"participant_id": "p", "keyboard": "A",
                               "session_index": 0}),
    (SimSpec, SpecInvalid, {"duration_s": 10.0}),
    (BandComponent, SpecInvalid, {"freq": 1.0, "amplitude": 1.0}),
    (ScriptSentence, SpecInvalid, {"shown_t": 0.0}),
    (ScriptKey, SpecInvalid, {"dt": 0.5, "key_class": KeyClass.INSERT}),
    (StudyDesign, SpecInvalid, {}),
    (Event, ValueError, {"t": 0.0, "kind": "KEY", "key_class": "INSERT"}),
    (AnalysisConfig, ConfigError, {}),
    (ReportConfig, ConfigError, {}),
]


class TestFieldRules:
    @pytest.mark.parametrize("cls,error,base", _CHECKED_TYPES,
                             ids=[c.__name__ for c, _, _ in _CHECKED_TYPES])
    def test_each_field_holds_its_value_or_raises_the_types_error(
            self, cls, error, base):
        # 10**5000 is past the digits Python will print
        odd = [json.loads(text) for text in ODD_JSON_VALUES] + [10 ** 5000]
        for f in fields(cls):
            for value in odd:
                try:
                    obj = cls(**{**base, f.name: value})
                except error:
                    continue
                # a JSON array is stored as a tuple
                expected = tuple(value) if isinstance(value, list) else value
                assert loads_as_itself(getattr(obj, f.name), expected), (
                    f.name, value)

    def test_numpy_scalars_are_stored_as_python_scalars(self):
        config = ReportConfig(window_len=np.int64(256), hop=np.int32(128),
                              label_threshold=np.float32(0.25),
                              detrend=np.bool_(False))
        assert [type(getattr(config, name)) for name in (
            "window_len", "hop", "label_threshold", "detrend")] == [
            int, int, float, bool]
        assert config == ReportConfig(window_len=256, hop=128,
                                      label_threshold=0.25, detrend=False)
