"""Sliding-window spectral analysis of EEG: from raw channels to a
beta-band cognitive-load time series.

The transform convention is the positive-exponent DFT

    C_k = sum_j c_j * exp(+2*pi*i*j*k / N),   k = 0..N-1

evaluated with numpy's FFT for any N. For real windows C_k is the
complex conjugate of ``numpy.fft.rfft``'s bin k, so the load pipeline
takes |C_k|^2 straight from ``rfft``, as Re(C_k)^2 + Im(C_k)^2 (two
squares and an add, the same bits for C_k and its conjugate). Band
powers are one-sided (bins 0..N/2, no factor-2 doubling):
P = (1/N) * sum |C_k|^2 over the band's bins. Bin ranges are half-open
on the right so that adjacent bands never share a bin; the band
reaching Nyquist additionally includes bin N/2. Power ratios are
therefore unaffected by the one-sided convention and sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Optional, Sequence

import numpy as np

from .errors import BandOutOfRange, ConfigError, ZeroPower
from .model import EegRecording, check_fields, row_blocks

#: What an overflowing window computes in silence: inf or nan powers,
#: which drop the window, instead of a RuntimeWarning.
_OVERFLOW_QUIET = partial(np.errstate, over="ignore", invalid="ignore")


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
        check_fields(self, ConfigError)
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
class LoadSeries:
    """Per-window cognitive-load values with their time spans.

    ``starts[i]`` is the window start time; every window spans
    ``window_s`` seconds. Windows where any channel's total power has no
    ratios are dropped; ``dropped`` counts them.
    """

    starts: np.ndarray
    loads: np.ndarray
    window_s: float
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.loads)


# --- windowing ---------------------------------------------------------------

def window_count(n_samples: int, window_len: int, hop: int) -> int:
    """Number of full windows; trailing samples that cannot fill one drop."""
    if n_samples < window_len:
        return 0
    return (n_samples - window_len) // hop + 1


def make_windows(samples: np.ndarray, cfg: AnalysisConfig, fs: float,
                 t0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Slice the last (sample) axis into its full windows: their start
    times (t0 + i*hop/fs) and the windows themselves, in a read-only view
    of shape ``samples.shape[:-1] + (n_windows, window_len)``. One
    channel gives one window per row; a (channels, samples) matrix frames
    each channel as the 1-D call would."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("make_windows expects samples along a last axis, "
                         "not a 0-d value")
    n_win = window_count(x.shape[-1], cfg.window_len, cfg.hop)
    step = x.strides[-1]
    frames = np.lib.stride_tricks.as_strided(
        x, shape=x.shape[:-1] + (n_win, cfg.window_len),
        strides=x.strides[:-1] + (cfg.hop * step, step), writeable=False)
    return t0 + (np.arange(n_win) * cfg.hop) / fs, frames


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


def apply_window_fn(x: np.ndarray, kind: WindowFn, detrend: bool = False,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-row mean removal (optional), then the window function along the
    last axis; returns ``x`` itself when neither applies. ``kind`` may be
    the enum's value; the curve cache is only ever filled for the enum.

    ``out``, as in numpy's ufuncs, is an array of ``x``'s shape that
    receives the result, which is then ``out`` itself; it may be ``x``.
    Its values are the same as without it."""
    kind = WindowFn(kind)
    with _OVERFLOW_QUIET():
        if detrend:
            x = np.subtract(x, x.mean(axis=-1, keepdims=True), out=out)
        if kind is not WindowFn.RECT:
            x = np.multiply(x, _window_curve(kind, x.shape[-1]), out=out)
    return x


# --- transform ---------------------------------------------------------------

def dft(samples: np.ndarray) -> np.ndarray:
    """The N coefficients C_k of one window of real samples."""
    x = np.asarray(samples)
    if x.ndim != 1 or x.shape[0] < 1 or np.iscomplexobj(x):
        raise ValueError("dft expects a non-empty real 1-D sample vector")
    # bins 0..N/2 from rfft, the rest by C_{N-k} = conj(C_k)
    with _OVERFLOW_QUIET():
        half = np.conj(np.fft.rfft(x))
    upper = np.conj(half[1:(x.shape[0] + 1) // 2][::-1])
    return np.concatenate((half, upper))


# --- band powers -------------------------------------------------------------

@lru_cache(maxsize=64)
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


def _band_powers(half: np.ndarray, bands: Sequence[Band], n: int,
                 fs: float, bins: Optional[np.ndarray] = None,
                 scratch: Optional[np.ndarray] = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Band powers (1/N) * sum |C_k|^2 over the last axis of ``half``
    (C_k or its conjugate for k = 0..N/2), one row per band, and their
    total summed in band order. |C_k|^2 is Re(C_k)^2 + Im(C_k)^2, not
    ``np.abs`` squared (a libm ``hypot`` per bin). A power past the float
    range is inf. ``bins`` and ``scratch``, float arrays of ``half``'s
    shape, receive the |C_k|^2 and the Im(C_k)^2."""
    with _OVERFLOW_QUIET():
        power_bins = np.square(half.real, out=bins)
        power_bins += np.square(half.imag, out=scratch)
        per_band = np.empty((len(bands),) + half.shape[:-1])
        for i, band in enumerate(bands):
            lo, hi = _band_bins(band, n, fs)
            np.add.reduce(power_bins[..., lo:hi], axis=-1,
                          out=per_band[i, ...])
        per_band /= n
        total = np.zeros(half.shape[:-1])
        for row in per_band:
            total += row
    return per_band, total


def _has_ratios(total: np.ndarray) -> np.ndarray:
    """Where a total band power has ratios: positive and finite."""
    return (total > 0.0) & (total < np.inf)


def band_powers(coeffs: np.ndarray, fs: float,
                bands: Sequence[Band]) -> dict[str, float]:
    """(1/N) * sum |C_k|^2 over each band's bins of one window's N
    coefficients. Band names must be distinct (ConfigError)."""
    n = coeffs.shape[-1]
    per_band, _ = _band_powers(coeffs[:n // 2 + 1], bands, n, fs)
    powers = {b.name: float(p) for b, p in zip(bands, per_band)}
    if len(powers) != len(bands):
        raise ConfigError("band names must be distinct")
    return powers


def band_ratios(coeffs: np.ndarray, fs: float,
                bands: Sequence[Band]) -> dict[str, float]:
    """Per-band share of the total power across ``bands``; sums to 1.
    The total is summed in band order, as the pipeline sums it. A zero
    total, or one past the float range, is ZeroPower."""
    powers = band_powers(coeffs, fs, bands)
    total = sum(powers.values())
    if not _has_ratios(total):
        raise ZeroPower(f"total power {total}: band ratios undefined")
    return {name: p / total for name, p in powers.items()}


# --- load series -------------------------------------------------------------

def cognitive_load_series(eeg: EegRecording, cfg: AnalysisConfig
                          ) -> LoadSeries:
    """Per-window load: the Beta band's power ratio averaged over channels,
    over the :func:`default_bands` split of the recording rate.

    Channels are processed with identical windowing; a window position is
    dropped (and counted) when any channel's total power there has no
    ratios (:func:`band_ratios`'s ZeroPower): it is zero, e.g. a detrended
    constant stretch, or past the float range, e.g. samples of amplitude
    1e160.

    The recording is framed once, and its (channel, window) rows are
    tapered, transformed and reduced in blocks of :data:`gtl.model.BLOCK_BYTES`
    that may span channels. The work arrays (one block of tapered windows,
    which then holds the Im(C_k)^2, and one of |C_k|^2 bins) are allocated
    once per call, so a call's memory does not grow with the recording's
    length beyond one value per row; they live only for the call, so calls
    on different threads share nothing.
    """
    bands = default_bands(eeg.fs)
    n = cfg.window_len
    starts, frames = make_windows(eeg.samples, cfg, eeg.fs, eeg.t0)
    n_ch, n_win = frames.shape[:2]
    if n_win == 0:
        return LoadSeries(np.zeros(0), np.zeros(0), n / eeg.fs)

    n_rows = n_ch * n_win
    # fixed-size blocks: the whole recording at once raises peak memory,
    # one channel at a time pays numpy's call costs per channel
    blocks = row_blocks(n_rows, 8 * n)  # rows of n float64
    tapered = np.empty((blocks[0].stop, n))  # the first block is the longest
    bins = np.empty((len(tapered), n // 2 + 1))
    # the Im(C_k)^2 go to the tapered block, which rfft has read by then
    imag_sq = tapered.reshape(-1)[:bins.size].reshape(bins.shape)
    ratios = np.empty(n_rows)
    live = np.empty(n_rows, dtype=bool)
    for b in blocks:
        x = tapered[:b.stop - b.start]
        i = 0
        while i < len(x):  # one piece per channel the block touches
            ch, w = divmod(b.start + i, n_win)
            take = min(n_win - w, len(x) - i)
            x[i:i + take] = frames[ch, w:w + take]
            i += take
        apply_window_fn(x, cfg.window_fn, cfg.detrend, out=x)  # in place
        with _OVERFLOW_QUIET():
            per_band, total = _band_powers(np.fft.rfft(x), bands, n, eeg.fs,
                                           bins[:len(x)], imag_sq[:len(x)])
        ok = _has_ratios(total)
        live[b] = ok
        total[~ok] = 1.0  # placeholder; dropped below
        np.divide(per_band[-1], total, out=ratios[b])  # Beta, the last band

    alive = live.reshape(n_ch, n_win).all(axis=0)
    loads = ratios.reshape(n_ch, n_win).mean(axis=0)
    dropped = int(n_win - alive.sum())
    return LoadSeries(starts[alive], loads[alive], n / eeg.fs, dropped)
