import json
import math
from dataclasses import fields

import numpy as np
import pytest

from gtl.errors import ConfigError
from gtl.model import Event, EventLog, KeyClass
from gtl.report import ReportConfig, build_report, render_json
from gtl.spectral import AnalysisConfig, WindowFn, cognitive_load_series

from conftest import make_event_log, make_record


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
    ], ids=["window-0", "hop-0", "hop-over-window", "threshold-0",
            "threshold-1.5", "threshold-nan", "level-x", "anchor-x",
            "variant-x", "window-fn-bogus"])
    def test_invalid_values_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            ReportConfig(**kwargs)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_subnormal_sentence_keeps_the_report_json():
    # (2 - 1) * 60 / (5 * 1e-310) overflows: metrics drop out with a
    # warning, the load stays
    log = EventLog((
        Event.session_start(0.0), Event.shown(0.0, "ab"),
        Event.key(0.0, KeyClass.INSERT, "a"),
        Event.key(0.0, KeyClass.INSERT, "b"),
        Event.submit(1e-310, "ab"), Event.session_end(20.0)))
    text = render_json(build_report([make_record(log)], ReportConfig()))
    report = json.loads(text, parse_constant=_reject_constant)
    (entry,) = report["sessions"]
    assert entry["violations"] == []
    assert entry["load"] is not None and entry["load"]["n_windows"] > 0
    assert entry["metrics"] is None
    assert any(w.startswith("metrics unavailable:") and "wpm" in w
               for w in entry["warnings"])
