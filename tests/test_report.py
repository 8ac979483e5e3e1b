import csv
import io
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from gtl.errors import ConfigError
from gtl.ingest import fields_dict, load_session, write_session
from gtl.model import EegRecording, Event, EventLog, KeyClass, SessionMeta
from gtl.report import (ReportConfig, _flatten, build_report, render_csv,
                        render_json)
from gtl.segmentation import AGGREGATION_LEVELS
from gtl.simgen import (BandComponent, SimSpec, StudyDesign,
                        simulate_session, study_sessions)
from gtl.spectral import AnalysisConfig, WindowFn, cognitive_load_series
from gtl.stats import StatResult, anova_oneway

from conftest import make_event_log, make_record, strict_json, unbind_sidecar


class TestReportConfig:
    def test_default_hash_is_pinned(self):
        assert ReportConfig().hash() == (
            "82eb5c198a36a56bab4e963b20e575afaabfa1f94e3c367fbe007a68776d6e16")

    def test_windowing_defaults_are_the_analysis_defaults(self):
        assert issubclass(ReportConfig, AnalysisConfig)
        report, analysis = ReportConfig(), AnalysisConfig()
        for f in fields(AnalysisConfig):
            assert getattr(report, f.name) == getattr(analysis, f.name)

    def test_fields_are_the_inherited_four_then_the_report_five(self):
        assert [f.name for f in fields(AnalysisConfig)] == [
            "window_len", "hop", "window_fn", "detrend"]
        assert [f.name for f in fields(ReportConfig)] == [
            "window_len", "hop", "window_fn", "detrend", "label_threshold",
            "timing_anchor", "level", "include_training", "ttest_variant"]
        assert list(ReportConfig().to_dict()) == [
            f.name for f in fields(ReportConfig)]

    def test_report_config_drives_the_same_loads(self):
        eeg = make_record(make_event_log([[("INSERT", "a")]] * 4)).eeg
        args = dict(window_len=256, hop=128, window_fn=WindowFn.HANN,
                    detrend=True)
        a = cognitive_load_series(eeg, ReportConfig(**args))
        b = cognitive_load_series(eeg, AnalysisConfig(**args))
        assert len(a) > 0
        assert np.array_equal(a.starts, b.starts)
        assert np.array_equal(a.loads, b.loads)
        assert a.dropped == b.dropped

    def test_report_config_echo_replays_to_the_same_hash(self):
        config = ReportConfig(window_len=256, hop=128, window_fn="hann",
                              level="window")
        rep = build_report([make_record(make_event_log([[("INSERT", "a")]]))],
                           config)
        echoed = json.loads(render_json(rep))["config"]
        assert echoed["window_fn"] == "hann"
        assert ReportConfig(**echoed) == config
        assert ReportConfig(**echoed).hash() == rep["config_hash"]

    @pytest.mark.parametrize("kwargs", [
        {"window_len": 0},
        {"hop": 0},
        {"hop": 2048},
        {"label_threshold": 0.0},
        {"label_threshold": 1.5},
        {"label_threshold": math.nan},
        {"level": "x"},
        {"timing_anchor": "x"},
        {"ttest_variant": "x"},
        {"window_fn": "bogus"},
        {"window_len": 1000},
        {"window_len": 256.0, "hop": 128},
        {"detrend": "off"},
        {"include_training": "no"},
        {"hop": 10 ** 400},
    ], ids=["window-0", "hop-0", "hop-over-window", "threshold-0",
            "threshold-1.5", "threshold-nan", "level-x", "anchor-x",
            "variant-x", "window-fn-bogus", "window-not-power-of-two",
            "window-float", "detrend-str", "training-str", "hop-1e400"])
    def test_invalid_values_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            ReportConfig(**kwargs)

    def test_equal_configs_hash_equal(self):
        # an int threshold hashed apart from its float, and a numpy
        # integer could not be serialized at all
        assert (ReportConfig(label_threshold=1).hash()
                == ReportConfig(label_threshold=1.0).hash())
        assert ReportConfig(hop=np.int64(512)).hash() == ReportConfig().hash()
        assert ReportConfig(window_len=np.int64(1024)).to_dict() == (
            ReportConfig().to_dict())


def test_subnormal_sentence_keeps_the_report_json():
    # (2 - 1) * 60 / (5 * 1e-310) overflows: metrics drop out with a
    # warning, the load stays
    log = EventLog((
        Event.session_start(0.0), Event.shown(0.0, "ab"),
        Event.key(0.0, KeyClass.INSERT, "a"),
        Event.key(0.0, KeyClass.INSERT, "b"),
        Event.submit(1e-310, "ab"), Event.session_end(20.0)))
    text = render_json(build_report([make_record(log)], ReportConfig()))
    report = strict_json(text)
    (entry,) = report["sessions"]
    assert entry["violations"] == []
    assert entry["load"] is not None and entry["load"]["n_windows"] > 0
    assert entry["metrics"] is None
    assert any(w.startswith("metrics unavailable:") and "wpm" in w
               for w in entry["warnings"])


def test_a_loaded_record_with_other_events_is_validated_afresh(tmp_path,
                                                              simple_log):
    write_session(make_record(simple_log), tmp_path)
    loaded = load_session(tmp_path)
    assert loaded.validation.ok
    # no SESSION_START: the verdict on the loaded log must not carry over
    broken = replace(loaded, events=EventLog(simple_log.events[1:]))
    (entry,) = build_report([broken], ReportConfig())["sessions"]
    assert "MarkerOrder" in {v["code"] for v in entry["violations"]}
    # the note of a stale sidecar is the record's: the replaced record
    # keeps it, after the fresh verdict's own findings
    unbind_sidecar(tmp_path)
    stale = replace(load_session(tmp_path), events=broken.events)
    (entry,) = build_report([stale], ReportConfig())["sessions"]
    assert "MarkerOrder" in {v["code"] for v in entry["violations"]}
    assert entry["warnings"] == [
        "eeg.sidecar ignored, eeg.csv parsed: digest does not match eeg.csv"]


def _typed(key_dt: float, **where):
    """A record of one sentence, "hello", typed one key per ``key_dt`` s."""
    log = make_event_log([[("INSERT", c) for c in "hello"]], key_dt=key_dt)
    return make_record(log, **where)


#: no sentence at all: the session has windows but no typing metrics
_SENTENCELESS = EventLog((Event.session_start(0.0), Event.session_end(20.0)))

#: one sentence too short for a finite wpm: its metrics are null
_SUBNORMAL = EventLog((
    Event.session_start(0.0), Event.shown(0.0, "ab"),
    Event.key(0.0, KeyClass.INSERT, "a"), Event.key(0.0, KeyClass.INSERT, "b"),
    Event.submit(1e-310, "ab"), Event.session_end(20.0)))


def _anova_corpus() -> list:
    return [
        _typed(0.5, participant="p01", keyboard="A", session_index=1),
        _typed(1.0, participant="p01", keyboard="A", session_index=2),
        _typed(0.8, participant="p02", keyboard="A"),
        _typed(0.6, participant="p01", keyboard="B"),
        _typed(0.9, participant="p02", keyboard="B"),
        make_record(_SUBNORMAL, participant="p03", keyboard="A"),
    ]


def _anovas(report: dict) -> list[dict]:
    return [t for t in report["tests"] if t["test"] == "anova"]


def test_metric_anova_averages_each_participant_per_keyboard():
    report = build_report(_anova_corpus(), ReportConfig())
    wpm = {}
    for entry in report["sessions"]:
        if entry["metrics"] is not None:
            key = (entry["keyboard"], entry["participant"])
            wpm.setdefault(key, []).append(entry["metrics"]["mean_wpm"])
    assert len(wpm[("A", "p01")]) == 2
    assert wpm[("A", "p01")][0] != wpm[("A", "p01")][1]
    # p01's two A sessions enter once, as their mean; p03 has no metrics
    expected = anova_oneway([
        [sum(wpm[("A", "p01")]) / 2, *wpm[("A", "p02")]],
        [*wpm[("B", "p01")], *wpm[("B", "p02")]]])
    (result,) = [t for t in _anovas(report) if t["metric"] == "mean_wpm"]
    assert result == {"metric": "mean_wpm", "groups": ["A", "B"],
                      **fields_dict(expected)}
    assert result["n_per_group"] == (2, 2)


def test_sentenceless_session_has_no_metrics():
    corpus = _anova_corpus()
    empty = make_record(_SENTENCELESS, participant="p04", keyboard="A")
    report = build_report([*corpus, empty], ReportConfig())
    (entry,) = [e for e in report["sessions"] if e["participant"] == "p04"]
    assert entry["violations"] == []
    assert entry["load"] is not None and entry["load"]["n_windows"] > 0
    assert entry["metrics"] is None
    assert "metrics unavailable: session has no sentence" in entry["warnings"]
    # no invented 0 wpm joins keyboard A's metric means
    assert _anovas(report) == _anovas(build_report(corpus, ReportConfig()))
    assert [t["metric"] for t in _anovas(report)] == ["mean_wpm"]


def test_constant_groups_with_different_means_keep_the_report_json():
    # one script per keyboard: every metric and, at session level, every
    # load is constant within a keyboard and differs between keyboards
    records = [_typed(dt, participant=p, keyboard=kb)
               for kb, dt in (("A", 0.5), ("B", 1.0))
               for p in ("p01", "p02")]
    report = strict_json(
        render_json(build_report(records, ReportConfig(level="session"))))
    assert report["tests"] == []
    assert "anova on mean_wpm failed: every group constant: F undefined" \
        in report["warnings"]
    assert "t-test A vs B skipped: both samples constant: t undefined" \
        in report["warnings"]


@pytest.fixture(scope="module")
def small_study() -> list:
    """Two participants x three keyboards x sessions 0 (training) to 2,
    one sentence each."""
    design = StudyDesign(participants=2, sessions_per_keyboard=3,
                         sentences_per_session=1)
    return [simulate_session(spec, meta)
            for meta, spec in study_sessions(design)]


def test_every_test_entry_is_its_groups_and_the_result_fields(small_study):
    tests = build_report(small_study, ReportConfig(level="session"))["tests"]
    assert [t["test"] for t in tests] == ["anova"] * 3 + ["ttest-student"] * 3
    keys = ["metric", "groups", *(f.name for f in fields(StatResult))]
    assert [list(t) for t in tests] == [keys] * len(tests)


@pytest.mark.parametrize("level", AGGREGATION_LEVELS)
def test_training_sessions_leave_every_load_group(small_study, level):
    """Without training, each session of index 0 is still analysed and
    listed, but its windows join no load group and no t-test, and a
    warning names it."""
    config = ReportConfig(level=level)
    off = build_report(small_study, replace(config, include_training=False))
    trained = build_report(
        [rec for rec in small_study if rec.meta.session_index > 0], config)
    assert off["load_groups"] != build_report(small_study,
                                              config)["load_groups"]
    assert off["load_groups"] == trained["load_groups"]
    assert ([t for t in off["tests"] if t["metric"] == f"load_{level}"]
            == [t for t in trained["tests"] if t["metric"] == f"load_{level}"])
    assert len(off["sessions"]) == len(small_study)
    assert off["warnings"] == [
        f"training session {p}/{kb} excluded from load groups"
        for p in ("p01", "p02") for kb in "ABC"]


def test_overflowing_band_power_drops_windows_and_keeps_the_report_json():
    # at 1e160 every |C_k|^2 overflows: the windows have no ratios and
    # drop out, where they used to give a NaN load without a violation
    spec = SimSpec(duration_s=40.0, components=(BandComponent(20.0, 1.0),),
                   noise_sigma=0.5, seed=3)
    rec = simulate_session(spec, SessionMeta("p01", "A", 1))
    loud = replace(rec, eeg=EegRecording(rec.eeg.t0, rec.eeg.fs,
                                         rec.eeg.samples * 1e160))
    n_windows = len(cognitive_load_series(rec.eeg, ReportConfig()))
    (entry,) = strict_json(render_json(
        build_report([loud], ReportConfig())))["sessions"]
    assert entry["violations"] == []
    assert entry["load"] == {"n_windows": 0, "dropped_windows": n_windows,
                             "mean": None, "min": None, "max": None}


def test_csv_reads_back_as_the_flattened_pairs():
    # an unquoted \r in a value would read back as a line end
    rec = make_record(make_event_log([[("INSERT", "a"), ("INSERT", "b")]]),
                      participant="p\r1")
    report = build_report([rec], ReportConfig())
    pairs: list[tuple[str, str]] = []
    _flatten("", report, pairs)
    assert ("sessions[0].participant", "p\r1") in pairs
    read = csv.reader(io.StringIO(render_csv(report)))
    assert [tuple(row) for row in read] == [("path", "value"), *pairs]
