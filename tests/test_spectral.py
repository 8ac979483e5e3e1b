import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtl import spectral
from gtl.errors import BandOutOfRange, ConfigError, ZeroPower
from gtl.model import EegRecording
from gtl.spectral import (
    AnalysisConfig,
    Band,
    WindowFn,
    apply_window_fn,
    band_powers,
    band_ratios,
    cognitive_load_series,
    default_bands,
    dft,
    make_windows,
    window_count,
)


@st.composite
def load_cases(draw) -> tuple[np.ndarray, AnalysisConfig]:
    """Recordings under any power-of-two window configuration; a constant
    first channel (dropped windows when detrended) is drawn too. At most
    three channels: below eight values numpy's 1-D mean adds them in
    order, as the pipeline's per-window channel mean does. Each channel is
    scaled by 2**k, from subnormal samples to ones whose powers overflow;
    every sample stays finite."""
    n = 2 ** draw(st.integers(1, 8))
    hop = draw(st.integers(1, n))
    cfg = AnalysisConfig(window_len=n, hop=hop,
                         window_fn=draw(st.sampled_from(list(WindowFn))),
                         detrend=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    samples = rng.standard_normal((draw(st.integers(1, 3)),
                                   draw(st.integers(0, n + 5 * hop))))
    if draw(st.booleans()):
        samples[0] = 7.0
    for row in samples:
        row *= 2.0 ** draw(st.integers(-1070, 1020))
    return samples, cfg


def direct_dft_oracle(x: np.ndarray) -> np.ndarray:
    """Independent direct evaluation: full exponential matrix product."""
    n = len(x)
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) @ np.asarray(x, complex)


def one_sided_power_oracle(coeffs: np.ndarray) -> float:
    n = len(coeffs)
    return float(np.sum(np.abs(coeffs[:n // 2 + 1]) ** 2) / n)


class TestWindowing:
    @pytest.mark.parametrize("length,expected", [
        (1024, 1),
        (1536, 2),
        (7680, 14),
        (1023, 0),
        (0, 0),
    ])
    def test_window_count_examples(self, length, expected):
        cfg = AnalysisConfig()
        starts, frames = make_windows(np.zeros(length), cfg, 128.0)
        assert len(frames) == expected
        assert (starts * 128.0).tolist() == [512 * i for i in range(expected)]

    def test_window_count_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 64))
            hop = int(rng.integers(1, n + 1))
            length = int(rng.integers(0, 400))
            # oracle: walk the starts one hop at a time
            count = 0
            start = 0
            while start + n <= length:
                count += 1
                start += hop
            assert window_count(length, n, hop) == count

    @pytest.mark.parametrize("shape", [(2, 4096), (2000, 4), ()])
    def test_input_that_is_not_one_channel_is_rejected(self, shape):
        # a (2, 4096) matrix used to give no windows, a (2000, 4) one
        # numpy's own error
        with pytest.raises(ValueError, match="1-D"):
            make_windows(np.zeros(shape), AnalysisConfig(), 128.0)

    def test_window_start_times(self):
        cfg = AnalysisConfig(window_len=4, hop=2)
        starts, frames = make_windows(np.arange(8.0), cfg, 2.0, t0=10.0)
        assert starts.tolist() == [10.0, 11.0, 12.0]
        assert np.array_equal(frames[1], np.arange(2.0, 6.0))

    def test_rect_is_identity(self):
        w = make_windows(np.arange(4.0), AnalysisConfig(window_len=4, hop=4),
                         4.0)[1][0]
        out = apply_window_fn(w, WindowFn.RECT)
        assert np.array_equal(out, w)

    def test_half_cosine_on_ones(self):
        w = make_windows(np.ones(4), AnalysisConfig(window_len=4, hop=4),
                         4.0)[1][0]
        out = apply_window_fn(w, WindowFn.HALF_COSINE, detrend=False)
        expected = np.sin(np.pi * (np.arange(4) + 0.5) / 4)
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_detrend_zeroes_constant_signal(self):
        w = make_windows(np.full(8, 3.5), AnalysisConfig(window_len=8, hop=8),
                         8.0)[1][0]
        out = apply_window_fn(w, WindowFn.HALF_COSINE, detrend=True)
        assert np.all(out == 0.0)

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(window_len=0)
        with pytest.raises(ConfigError):
            AnalysisConfig(window_len=8, hop=0)
        with pytest.raises(ConfigError):
            AnalysisConfig(window_len=8, hop=9)
        with pytest.raises(ConfigError):
            AnalysisConfig(window_fn="bogus")

    def test_window_fn_value_is_stored_as_the_enum(self):
        assert AnalysisConfig(window_fn="hann").window_fn is WindowFn.HANN
        assert AnalysisConfig(window_fn=WindowFn.RECT).window_fn is WindowFn.RECT

    def test_string_and_enum_window_fn_each_get_their_own_window(self):
        # "hann" and WindowFn.HANN share one curve-cache key: a string
        # call first must neither compute nor cache a wrong curve
        eeg = EegRecording(0.0, 128.0,
                           np.random.default_rng(12).standard_normal((2, 512)))
        spectral._window_curve.cache_clear()
        by_value = cognitive_load_series(
            eeg, AnalysisConfig(window_len=64, hop=32, window_fn="hann"))
        by_enum = cognitive_load_series(
            eeg, AnalysisConfig(window_len=64, hop=32, window_fn=WindowFn.HANN))
        rect = cognitive_load_series(
            eeg, AnalysisConfig(window_len=64, hop=32, window_fn=WindowFn.RECT))
        spectral._window_curve.cache_clear()
        fresh = cognitive_load_series(
            eeg, AnalysisConfig(window_len=64, hop=32, window_fn=WindowFn.HANN))
        assert np.array_equal(by_enum.loads, fresh.loads)
        assert np.array_equal(by_value.loads, fresh.loads)
        assert not np.array_equal(fresh.loads, rect.loads)

    def test_single_window_api_takes_the_value_too(self):
        w = make_windows(np.arange(8.0), AnalysisConfig(window_len=8, hop=8),
                         8.0)[1][0]
        spectral._window_curve.cache_clear()
        by_value = apply_window_fn(w, "hann")
        by_enum = apply_window_fn(w, WindowFn.HANN)
        j = np.arange(8.0)
        want = j * (0.5 * (1.0 - np.cos(2.0 * np.pi * j / 7)))
        assert np.array_equal(by_value, want)
        assert np.array_equal(by_enum, want)


class TestDft:
    def test_all_ones(self):
        c = dft(np.array([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(c, [4, 0, 0, 0], atol=1e-12)

    def test_impulse(self):
        c = dft(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(c, [1, 1, 1, 1], atol=1e-12)

    def test_sign_convention(self):
        # hand evaluation at N=4 with the positive exponent
        c = dft(np.array([0.0, 1.0, 0.0, -1.0]))
        assert np.allclose(c, [0, 2j, 0, -2j], atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_fast_matches_direct_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = rng.standard_normal(n)
            got = dft(x)
            ref = direct_dft_oracle(x)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) / scale <= 1e-9

    def test_complex_input_is_rejected(self):
        with pytest.raises(ValueError):
            dft(np.ones(16, dtype=complex))

    def test_non_power_of_two_fallback(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(12)
        got = dft(x)
        ref = direct_dft_oracle(x)
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_parseval_per_window(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(256)
            coeffs = dft(x)
            lhs = np.sum(np.abs(coeffs) ** 2) / 256
            rhs = np.sum(x ** 2)
            assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64)
        c = dft(x)
        sym = np.conj(c[1:][::-1])
        assert np.allclose(c[1:], sym, rtol=0, atol=1e-9 * np.max(np.abs(c)))


class TestBandPowers:
    def test_dc_band_power(self):
        c = np.array([4.0 + 0j, 0, 0, 0])
        assert band_powers(c, 4.0, (Band("dc", 0.0, 1.0),)) == \
            {"dc": pytest.approx(4.0)}

    def test_parseval_instance_impulse(self):
        # full two-sided spectrum of the impulse: (1/4)(1+1+1+1) = sum c_j^2
        c = dft(np.array([1.0, 0.0, 0.0, 0.0]))
        full = float(np.sum(np.abs(c) ** 2) / len(c))
        assert full == pytest.approx(1.0)
        assert full == pytest.approx(float(np.sum(np.array([1.0, 0, 0, 0]) ** 2)))

    def test_band_out_of_range(self):
        c = dft(np.ones(8))
        with pytest.raises(BandOutOfRange):
            band_powers(c, 8.0, (Band("bad", 1.0, 5.0),))

    def test_repeated_band_name_is_rejected(self):
        # a dict keyed by name would keep one of the two powers
        c = dft(np.random.default_rng(6).standard_normal(64))
        bands = (Band("a", 0.0, 4.0), Band("a", 4.0, 64.0))
        with pytest.raises(ConfigError):
            band_ratios(c, 128.0, bands)

    def test_default_bands_sum_to_one_sided_total(self):
        rng = np.random.default_rng(5)
        bands = default_bands(128.0)
        for _ in range(20):
            c = dft(rng.standard_normal(1024))
            total = sum(band_powers(c, 128.0, bands).values())
            oracle = one_sided_power_oracle(c)
            assert abs(total - oracle) <= 1e-12 * oracle

    def test_single_band_ratio_is_one(self):
        c = dft(np.random.default_rng(6).standard_normal(64))
        ratios = band_ratios(c, 128.0, (Band("all", 0.0, 64.0),))
        assert ratios == {"all": 1.0}

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(7)
        bands = default_bands(128.0)
        for _ in range(200):
            c = dft(rng.standard_normal(256))
            ratios = band_ratios(c, 128.0, bands)
            assert abs(sum(ratios.values()) - 1.0) <= 1e-12

    def test_zero_power_raises(self):
        c = dft(np.zeros(16))
        with pytest.raises(ZeroPower):
            band_ratios(c, 128.0, default_bands(128.0))

    def test_equal_power_four_tone_mix(self):
        # derived oracle: direct matrix transform + direct bin sums
        fs, n = 128.0, 1024
        t = np.arange(n) / fs
        rng = np.random.default_rng(8)
        phases = rng.uniform(0, 2 * np.pi, 4)
        x = sum(np.sin(2 * np.pi * f * t + p)
                for f, p in zip((2.0, 6.0, 10.0, 20.0), phases))
        x = (x - x.mean()) * np.sin(np.pi * (np.arange(n) + 0.5) / n)
        ratios = band_ratios(dft(x), fs, default_bands(fs))

        ref = direct_dft_oracle(x)
        p = np.abs(ref) ** 2 / n
        edges = [0, 32, 64, 112, 513]
        ref_powers = [p[a:b].sum() for a, b in zip(edges, edges[1:])]
        ref_ratios = np.array(ref_powers) / sum(ref_powers)
        for got, want in zip(ratios.values(), ref_ratios):
            assert got == pytest.approx(want, abs=1e-9)
        for r in ratios.values():
            assert abs(r - 0.25) <= 0.02


class TestLoadSeries:
    def _recording(self, freq: float, n_channels: int = 14,
                   seconds: float = 60.0) -> EegRecording:
        fs = 128.0
        t = np.arange(int(seconds * fs)) / fs
        rng = np.random.default_rng(9)
        samples = np.stack([
            np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
            for _ in range(n_channels)
        ])
        return EegRecording(0.0, fs, samples)

    def test_beta_tone_dominates(self):
        series = cognitive_load_series(self._recording(20.0), AnalysisConfig())
        assert len(series) == 14
        assert series.loads.min() >= 0.99

    def test_theta_tone_stays_out_of_beta(self):
        series = cognitive_load_series(self._recording(6.0), AnalysisConfig())
        assert series.loads.max() <= 0.01

    def test_power_of_two_scaling_is_bitwise_invariant(self):
        eeg = self._recording(20.0, n_channels=3, seconds=20.0)
        scaled = EegRecording(0.0, eeg.fs, 4.0 * eeg.samples)
        a = cognitive_load_series(eeg, AnalysisConfig())
        b = cognitive_load_series(scaled, AnalysisConfig())
        assert np.array_equal(a.loads, b.loads)

    def test_arbitrary_scaling_leaves_ratios_unchanged_to_rounding(self):
        # a 3.7x scale cannot be bitwise neutral in binary floating point
        # (each product rounds on its own); it must be neutral to ~1 ulp
        eeg = self._recording(20.0, n_channels=3, seconds=20.0)
        scaled = EegRecording(0.0, eeg.fs, 3.7 * eeg.samples)
        a = cognitive_load_series(eeg, AnalysisConfig())
        b = cognitive_load_series(scaled, AnalysisConfig())
        assert np.max(np.abs(a.loads - b.loads) / a.loads) <= 1e-12

    def test_loads_lie_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            eeg = EegRecording(0.0, 128.0, rng.standard_normal((4, 4096)))
            series = cognitive_load_series(eeg, AnalysisConfig())
            assert np.all(series.loads >= 0.0)
            assert np.all(series.loads <= 1.0)

    def test_zero_windows_dropped_and_counted(self):
        # constant signal detrends to zero: every window position dies
        eeg = EegRecording(0.0, 128.0, np.full((2, 2048), 7.0))
        series = cognitive_load_series(eeg, AnalysisConfig())
        assert len(series) == 0
        assert series.dropped == 3

    def test_batch_path_matches_composed_ops_bitwise(self):
        rng = np.random.default_rng(11)
        fs = 128.0
        samples = rng.standard_normal((3, 4096))
        eeg = EegRecording(0.0, fs, samples)
        cfg = AnalysisConfig()
        series = cognitive_load_series(eeg, cfg)
        bands = default_bands(fs)
        for wi in range(len(series)):
            per_channel = []
            for ch in range(3):
                w = make_windows(samples[ch], cfg, fs)[1][wi]
                w = apply_window_fn(w, cfg.window_fn, cfg.detrend)
                per_channel.append(band_ratios(dft(w), fs, bands)["Beta"])
            assert np.mean(np.array(per_channel)) == series.loads[wi]

    @settings(max_examples=100, deadline=None)
    @given(load_cases())
    def test_any_config_matches_composed_ops_bitwise(self, case):
        samples, cfg = case
        fs = 128.0
        series = cognitive_load_series(EegRecording(0.0, fs, samples), cfg)
        bands = default_bands(fs)
        starts, loads = [], []
        per_channel = [make_windows(row, cfg, fs) for row in samples]
        for t, *windows in zip(per_channel[0][0],
                               *(frames for _, frames in per_channel)):
            try:
                beta = [band_ratios(dft(apply_window_fn(
                    w, cfg.window_fn, cfg.detrend)), fs, bands)["Beta"]
                    for w in windows]
            except ZeroPower:
                continue
            starts.append(float(t))
            loads.append(np.mean(np.array(beta)))
        assert series.starts.tolist() == starts
        assert series.loads.tolist() == loads
        assert series.dropped == len(per_channel[0][1]) - len(loads)
        assert np.all((series.loads >= 0.0) & (series.loads <= 1.0))

    def test_spans_overlap_by_window_minus_hop(self):
        eeg = self._recording(20.0, n_channels=1, seconds=24.0)
        series = cognitive_load_series(eeg, AnalysisConfig())
        ends = series.starts + series.window_s
        for a1, b0 in zip(ends, series.starts[1:]):
            assert a1 - b0 == pytest.approx(4.0)  # 8 s windows, 4 s hop

    def test_short_recording_has_empty_series(self):
        eeg = EegRecording(0.0, 128.0, np.zeros((1, 100)))
        series = cognitive_load_series(eeg, AnalysisConfig())
        assert len(series) == 0
        assert series.dropped == 0
