"""Sliding-window spectral analysis of EEG: from raw channels to a
beta-band cognitive-load time series.

The transform convention is the positive-exponent DFT

    C_k = sum_j c_j * exp(+2*pi*i*j*k / N),   k = 0..N-1

evaluated with numpy's FFT for any N. For real windows C_k is the
complex conjugate of ``numpy.fft.rfft``'s bin k, so the load pipeline
takes |C_k|^2 straight from ``rfft``. Band powers are one-sided (bins
0..N/2, no factor-2 doubling): P = (1/N) * sum |C_k|^2 over the band's
bins. Bin ranges are half-open on the right so that adjacent bands never
share a bin; the band reaching Nyquist additionally includes bin N/2.
Power ratios are therefore unaffected by the one-sided convention and
sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import BandOutOfRange, ConfigError, ZeroPower
from .model import EegRecording, check_fields


class WindowFn(str, Enum):
    #: half a cosine cycle over the window: sin(pi*(j+0.5)/N)
    HALF_COSINE = "sine"
    HANN = "hann"
    RECT = "rect"


@dataclass(frozen=True)
class Band:
    """Half-open frequency band [f1, f2) in Hz."""

    name: str
    f1: float
    f2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.f1 < self.f2):
            raise ConfigError(f"band {self.name}: need 0 <= f1 < f2, "
                              f"got [{self.f1}, {self.f2})")


def default_bands(fs: float) -> tuple[Band, ...]:
    """Delta/Theta/Alpha/Beta split; Beta runs up to Nyquist."""
    if fs / 2 <= 14.0:
        raise ConfigError(f"fs={fs} too low for the default band split")
    return (
        Band("Delta", 0.0, 4.0),
        Band("Theta", 4.0, 8.0),
        Band("Alpha", 8.0, 14.0),
        Band("Beta", 14.0, fs / 2),
    )


@dataclass(frozen=True)
class AnalysisConfig:
    """Windowing parameters of the load pipeline.

    Defaults: 1024-sample windows (8 s at 128 Hz) sliding by 512 samples
    (50% overlap), half-cosine window function, per-window mean removal.
    The bands are always the Delta/Theta/Alpha/Beta split that
    :func:`default_bands` derives from the recording rate. ``window_len``
    is a power of two. ``window_fn`` takes a :class:`WindowFn` or its
    value (``"hann"``), stored as the enum. A bad field raises ConfigError.
    """

    window_len: int = 1024
    hop: int = 512
    window_fn: WindowFn = WindowFn.HALF_COSINE
    detrend: bool = True

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        if self.window_len < 2 or self.window_len & (self.window_len - 1):
            raise ConfigError("window_len must be a power of two >= 2")
        if not 0 < self.hop <= self.window_len:
            raise ConfigError("need 0 < hop <= window_len")


@dataclass(frozen=True)
class Window:
    """One window of one channel; ``samples`` has length window_len."""

    channel: int
    start_sample: int
    start_t: float
    samples: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """DFT coefficients C_k, k = 0..N-1, plus the sampling rate."""

    coeffs: np.ndarray
    fs: float

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]


@dataclass(frozen=True)
class BandPowers:
    """Per-band spectral power and their total (summed in band order)."""

    powers: tuple[tuple[str, float], ...]
    total: float


@dataclass(frozen=True)
class LoadSeries:
    """Per-window cognitive-load values with their time spans.

    ``starts[i]`` is the window start time; every window spans
    ``window_s`` seconds. Windows where any channel had zero total power
    are dropped; ``dropped`` counts them.
    """

    starts: np.ndarray
    loads: np.ndarray
    window_s: float
    hop_s: float
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.loads)

    def spans(self) -> list[tuple[float, float]]:
        return [(float(t), float(t) + self.window_s) for t in self.starts]


# --- windowing ---------------------------------------------------------------

def window_count(n_samples: int, window_len: int, hop: int) -> int:
    """Number of full windows; trailing samples that cannot fill one drop."""
    if n_samples < window_len:
        return 0
    return (n_samples - window_len) // hop + 1


def _frames(x: np.ndarray, n: int, hop: int) -> np.ndarray:
    """Every full window of one channel, one per row (a read-only view)."""
    if x.shape[0] < n:
        return np.empty((0, n))
    return np.lib.stride_tricks.sliding_window_view(x, n)[::hop]


def make_windows(samples: np.ndarray, cfg: AnalysisConfig, fs: float,
                 t0: float = 0.0, channel: int = 0) -> list[Window]:
    """Slice one channel into equal-length windows starting at 0, hop, 2*hop, ..."""
    frames = _frames(np.asarray(samples, dtype=np.float64), cfg.window_len,
                     cfg.hop)
    return [Window(channel, i * cfg.hop, t0 + (i * cfg.hop) / fs, row)
            for i, row in enumerate(frames)]


@lru_cache(maxsize=32)
def _window_curve(kind: WindowFn, n: int) -> np.ndarray:
    j = np.arange(n, dtype=np.float64)
    if kind is WindowFn.HALF_COSINE:
        curve = np.sin(np.pi * (j + 0.5) / n)
    elif kind is WindowFn.HANN:
        curve = (0.5 * (1.0 - np.cos(2.0 * np.pi * j / (n - 1)))
                 if n > 1 else np.ones(1))
    else:
        curve = np.ones(n)
    curve.setflags(write=False)
    return curve


def _taper(x: np.ndarray, kind: WindowFn, detrend: bool) -> np.ndarray:
    """Per-row mean removal (optional), then the window function along the
    last axis; returns ``x`` itself when neither applies. ``kind`` may be
    the enum's value; the curve cache is only ever filled for the enum."""
    kind = WindowFn(kind)
    if detrend:
        x = x - x.mean(axis=-1, keepdims=True)
    if kind is not WindowFn.RECT:
        x = x * _window_curve(kind, x.shape[-1])
    return x


def apply_window_fn(w: Window, kind: WindowFn, detrend: bool = False) -> Window:
    """Taper a window; optionally subtract its mean first."""
    x = _taper(w.samples, kind, detrend)
    if x is w.samples:
        x = x.copy()
    return Window(w.channel, w.start_sample, w.start_t, x)


# --- transform ---------------------------------------------------------------

def dft(samples: np.ndarray, fs: float) -> Spectrum:
    """Transform one window of real samples."""
    x = np.asarray(samples)
    if x.ndim != 1 or x.shape[0] < 1 or np.iscomplexobj(x):
        raise ValueError("dft expects a non-empty real 1-D sample vector")
    # bins 0..N/2 from rfft, the rest by C_{N-k} = conj(C_k)
    half = np.conj(np.fft.rfft(x))
    upper = np.conj(half[1:(x.shape[0] + 1) // 2][::-1])
    return Spectrum(np.concatenate((half, upper)), float(fs))


# --- band powers -------------------------------------------------------------

def _band_bins(band: Band, n: int, fs: float) -> tuple[int, int]:
    """Half-open bin range [lo, hi) of a band; Nyquist bin joins the top band."""
    nyquist = fs / 2
    if band.f1 < 0 or band.f2 > nyquist:
        raise BandOutOfRange(f"band [{band.f1}, {band.f2}) outside [0, {nyquist}]")
    lo = int(np.floor(band.f1 * n / fs))
    hi = int(np.floor(band.f2 * n / fs))
    if band.f2 == nyquist:
        hi = n // 2 + 1
    return lo, hi


def _band_powers(power_bins: np.ndarray, bands: Sequence[Band], n: int,
                 fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Band powers (1/N) * sum |C_k|^2 over the last axis of ``power_bins``
    (|C_k|^2 for k = 0..N/2), one row per band, and their total summed in
    band order."""
    per_band = np.stack([power_bins[..., lo:hi].sum(axis=-1) / n
                         for lo, hi in (_band_bins(b, n, fs) for b in bands)])
    total = np.zeros(per_band.shape[1:])
    for row in per_band:
        total = total + row
    return per_band, total


def _spectrum_bands(s: Spectrum, bands: Sequence[Band],
                    ) -> tuple[np.ndarray, np.ndarray]:
    return _band_powers(np.abs(s.coeffs[:s.n // 2 + 1]) ** 2, bands, s.n, s.fs)


def spectral_power(s: Spectrum, band: Band) -> float:
    """(1/N) * sum |C_k|^2 over the band's bins."""
    return float(_spectrum_bands(s, (band,))[0][0])


def band_powers(s: Spectrum, bands: Sequence[Band]) -> BandPowers:
    per_band, total = _spectrum_bands(s, bands)
    return BandPowers(tuple((b.name, float(p)) for b, p in zip(bands, per_band)),
                      float(total))


def band_ratios(s: Spectrum, bands: Sequence[Band]) -> dict[str, float]:
    """Per-band share of the total power across ``bands``; sums to 1."""
    bp = band_powers(s, bands)
    if bp.total == 0.0:
        raise ZeroPower("all-zero window: band ratios undefined")
    return {name: p / bp.total for name, p in bp.powers}


# --- load series -------------------------------------------------------------

def cognitive_load_series(eeg: EegRecording, cfg: AnalysisConfig,
                          load_band: str = "Beta") -> LoadSeries:
    """Per-window load: the named band's power ratio averaged over channels,
    over the :func:`default_bands` split of the recording rate.

    Channels are processed with identical windowing; a window position is
    dropped (and counted) when any channel's total power there is zero,
    e.g. a detrended constant stretch.
    """
    bands = default_bands(eeg.fs)
    band_names = [b.name for b in bands]
    if load_band not in band_names:
        raise ConfigError(f"load band {load_band!r} not among {band_names}")

    n = cfg.window_len
    n_win = window_count(eeg.n_samples, n, cfg.hop)
    starts = eeg.t0 + (np.arange(n_win) * cfg.hop) / eeg.fs
    if n_win == 0:
        return LoadSeries(starts, np.zeros(0), n / eeg.fs, cfg.hop / eeg.fs)

    ratios = np.empty((eeg.n_channels, n_win), dtype=np.float64)
    alive = np.ones(n_win, dtype=bool)
    load_row = band_names.index(load_band)
    # one channel per transform: batching all channels raises peak memory
    for ch in range(eeg.n_channels):
        x = _taper(_frames(eeg.samples[ch], n, cfg.hop), cfg.window_fn,
                   cfg.detrend)
        per_band, total = _band_powers(np.abs(np.fft.rfft(x)) ** 2, bands,
                                       n, eeg.fs)
        dead = total == 0.0
        alive &= ~dead
        total[dead] = 1.0  # placeholder; dropped below
        ratios[ch] = per_band[load_row] / total

    loads = ratios.mean(axis=0)
    dropped = int(n_win - alive.sum())
    return LoadSeries(starts[alive], loads[alive], n / eeg.fs,
                      cfg.hop / eeg.fs, dropped)
