import random

import pytest

from gtl.errors import EmptyTranscription, NonFiniteMetric, NonPositiveDuration
from gtl.metrics import (
    keystrokes_saved_pct,
    kspc,
    sentence_metrics,
    session_metrics,
    wpm,
)
from gtl.model import Event, EventLog, KeyClass

from conftest import make_event_log, random_event_log


class TestWpm:
    def test_direct_substitution(self):
        assert wpm(26, 30.0) == pytest.approx(10.0)

    def test_guard_for_short_transcriptions(self):
        assert wpm(1, 10.0) == 0.0
        assert wpm(0, 10.0) == 0.0

    def test_non_positive_duration(self):
        with pytest.raises(NonPositiveDuration):
            wpm(10, 0.0)
        with pytest.raises(NonPositiveDuration):
            wpm(10, -1.0)

    def test_overflow_is_non_finite_metric(self):
        with pytest.raises(NonFiniteMetric):
            wpm(5, 1e-310)
        assert wpm(2, 1e-300) == pytest.approx(1.2e301)

    def test_overflowing_session_mean_is_non_finite_metric(self):
        # two sentences of 1.2e-307 s type at ~1e308 wpm each; their sum
        # overflows
        d = 1.2e-307
        log = EventLog((
            Event.session_start(0.0),
            Event.shown(0.0, "ab"), Event.key(0.0, KeyClass.INSERT, "ab"),
            Event.submit(d, "ab"),
            Event.shown(d, "ab"), Event.key(d, KeyClass.INSERT, "ab"),
            Event.submit(2 * d, "ab"),
            Event.session_end(1.0)))
        with pytest.raises(NonFiniteMetric):
            session_metrics(log)

    def test_overflowing_duration_is_non_finite_metric(self):
        # 1e308 - (-1e308) is inf, where it used to become duration_s
        log = EventLog((
            Event.session_start(-1e308), Event.shown(-1e308, "ab"),
            Event.key(0.0, KeyClass.INSERT, "a"),
            Event.key(0.5, KeyClass.INSERT, "b"),
            Event.submit(1e308, "ab"), Event.session_end(1e308)))
        (sentence,) = log.sentences()
        with pytest.raises(NonFiniteMetric, match="duration of sentence 0"):
            sentence_metrics(sentence)
        # from the first key the span is finite
        assert sentence_metrics(sentence, "first-key").duration_s == 1e308

    def test_monotonicity(self):
        for t_len in range(2, 60):
            assert wpm(t_len + 1, 20.0) > wpm(t_len, 20.0)
        for s in (5.0, 10.0, 20.0):
            assert wpm(30, s + 1.0) < wpm(30, s)


class TestKeystrokeMetrics:
    def test_no_savings_without_suggestions(self):
        assert keystrokes_saved_pct(20, 20) == 0.0
        assert kspc(20, 20) == 1.0

    def test_savings_with_suggestions(self):
        assert keystrokes_saved_pct(12, 20) == pytest.approx(40.0)
        assert kspc(12, 20) == pytest.approx(0.6)

    def test_empty_transcription(self):
        with pytest.raises(EmptyTranscription):
            keystrokes_saved_pct(3, 0)
        with pytest.raises(EmptyTranscription):
            kspc(3, 0)

    def test_savings_kspc_identity(self):
        # saved + 100*kspc == 100 holds algebraically; in binary floating
        # point it can miss by ~1e-14 (e.g. K=5, |T|=6), so the check is
        # near-exact rather than bitwise
        for t_len in range(1, 200):
            for k in range(0, 2 * t_len, 7):
                saved = keystrokes_saved_pct(k, t_len)
                ratio = kspc(k, t_len)
                assert saved + 100.0 * ratio == pytest.approx(100.0, abs=1e-9)


class TestEventLogMetrics:
    def test_backspace_counts(self, simple_log):
        tm = session_metrics(simple_log)
        assert tm.total_backspace_count == 1
        assert tm.sentences[0].backspace_count == 0
        assert tm.sentences[1].backspace_count == 1

    def test_sentence_metrics_hand_computed(self):
        # SHOWN at 5.0; keys at 6,7,8 (INSERT a, SUGG "bc ", BKSP);
        # SUBMIT at 8.0 -> replay "a" + "bc " minus one char = "abc"
        log = make_event_log([[("INSERT", "a"), ("SUGG", "bc "), ("BKSP", "")]])
        m = sentence_metrics(log.sentences()[0])
        assert m.transcribed_len == 3
        assert m.duration_s == pytest.approx(3.0)
        assert m.keystrokes == 3
        assert m.backspace_count == 1
        assert m.wpm == pytest.approx(((3 - 1) * 60) / (5 * 3.0))
        assert m.keystrokes_saved_pct == pytest.approx(100 * (3 - 3) / 3)

    def test_first_key_anchor(self):
        log = make_event_log([[("INSERT", "a"), ("INSERT", "b")]], pre=5.0)
        shown = sentence_metrics(log.sentences()[0], "shown")
        first = sentence_metrics(log.sentences()[0], "first-key")
        assert shown.duration_s == pytest.approx(2.0)  # SHOWN..SUBMIT
        assert first.duration_s == pytest.approx(1.0)  # first key..SUBMIT
        assert first.wpm > shown.wpm

    def test_first_key_anchor_of_a_keyless_sentence(self):
        (sentence,) = make_event_log([[]]).sentences()
        with pytest.raises(NonPositiveDuration, match="no keystrokes"):
            sentence_metrics(sentence, "first-key")

    def test_unknown_timing_anchor(self):
        (sentence,) = make_event_log([[("INSERT", "a")]]).sentences()
        with pytest.raises(ValueError, match="timing_anchor must be one of"):
            sentence_metrics(sentence, "last-key")

    def test_session_means_are_unweighted(self):
        log = make_event_log([
            [("INSERT", "a"), ("INSERT", "b"), ("INSERT", "c")],
            [("INSERT", "x"), ("SUGG", "yz ")],
        ])
        tm = session_metrics(log)
        assert len(tm.sentences) == 2
        assert tm.mean_wpm == pytest.approx(
            (tm.sentences[0].wpm + tm.sentences[1].wpm) / 2)
        assert tm.total_backspace_count == 0

    def test_session_metrics_scans_the_log_once(self):
        class CountingEvents(tuple):
            scans = 0

            def __iter__(self):
                self.scans += 1
                return super().__iter__()

        log = make_event_log([[("INSERT", "a"), ("SUGG", "bc ")]] * 200)
        counted = EventLog(CountingEvents(log.events))
        tm = session_metrics(counted)
        assert len(tm.sentences) == 200
        assert counted.events.scans == 1
        assert tm.sentences[137] == sentence_metrics(log.sentences()[137])

    def test_sentence_list_is_a_fresh_copy(self, simple_log):
        expected = simple_log.sentences()
        handed_out = simple_log.sentences()
        handed_out.clear()
        assert simple_log.sentences() == expected
        assert session_metrics(simple_log).sentences[1].index == 1

    def test_time_translation_invariance(self):
        rng = random.Random(31)

        def outcome(lg, i):
            try:
                return sentence_metrics(lg.sentences()[i])
            except EmptyTranscription:
                return "empty"  # all-backspace sentences have no metrics

        for _ in range(20):
            log = random_event_log(rng)
            shifted = EventLog(tuple(
                Event(ev.t + 1000.0, ev.kind, ev.text, ev.key_class, ev.produced)
                for ev in log))
            for i in range(len(log.sentences())):
                assert outcome(log, i) == outcome(shifted, i)

    def test_savings_zero_for_insert_only_logs(self):
        log = make_event_log([[("INSERT", c) for c in "hello world"]])
        m = sentence_metrics(log.sentences()[0])
        assert m.keystrokes_saved_pct == 0.0
        assert m.kspc == 1.0
