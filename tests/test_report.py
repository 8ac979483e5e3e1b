import math

import pytest

from gtl.errors import ConfigError
from gtl.report import ReportConfig
from gtl.spectral import AnalysisConfig


class TestReportConfig:
    def test_default_hash_is_pinned(self):
        assert ReportConfig().hash() == (
            "82eb5c198a36a56bab4e963b20e575afaabfa1f94e3c367fbe007a68776d6e16")

    def test_windowing_defaults_are_the_analysis_defaults(self):
        assert ReportConfig().analysis_config() == AnalysisConfig()

    @pytest.mark.parametrize("kwargs", [
        {"window_len": 0},
        {"hop": 0},
        {"hop": 2048},
        {"label_threshold": 0.0},
        {"label_threshold": 1.5},
        {"label_threshold": math.nan},
    ], ids=["window-0", "hop-0", "hop-over-window", "threshold-0",
            "threshold-1.5", "threshold-nan"])
    def test_invalid_values_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            ReportConfig(**kwargs)
