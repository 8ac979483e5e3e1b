"""Deterministic synthetic sessions: ground-truth EEG with a prescribed
band-power mix plus scripted keystroke logs.

Everything derives from SplitMix64, so equal seeds give equal output.
The SplitMix64 integer stream is the same on every platform; the float
samples also depend on numpy's ``sin``, ``cos`` and ``log``, and are
bit-identical wherever those are. The generator definition, for
reimplementation elsewhere:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z XOR (z >> 31)

Uniform doubles take the top 53 bits (output >> 11) / 2^53. Gaussians are
Box-Muller pairs over consecutive uniforms u1, u2 (u1 clamped away from
zero): g0 = sqrt(-2 ln u1) cos(2 pi u2), g1 = sqrt(-2 ln u1) sin(2 pi u2).

EEG: the spec seed's stream gives one seed per channel, in channel order.
Each channel's own stream first gives one uniform u per component, in
component order, as the phase phi = 2 pi u; with noise it then gives the
channel's n Gaussians. On the grid t = k / fs (k < n), component by
component, a channel adds (A cos phi) sin(wt) and then (A sin phi) cos(wt),
with wt = 2 pi f t and the weights in double precision; the noise, times
noise_sigma, is added last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import BoundaryFrequency, ScriptInvalid, SpecInvalid
from .model import (
    KEYBOARDS,
    EegRecording,
    Event,
    EventLog,
    KeyClass,
    SessionMeta,
    SessionRecord,
    check_fields,
    replay_keystrokes,
)
from .spectral import Band

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_U53 = 2.0 ** -53


class SplitMix64:
    """Counter-based SplitMix64; ``take`` methods advance the stream."""

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        z = (self.seed + self._count * _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def take_u64(self, count: int) -> np.ndarray:
        """Vectorized batch; identical to ``count`` calls of next_u64."""
        idx = np.arange(self._count + 1, self._count + count + 1,
                        dtype=np.uint64)
        self._count += count
        z = np.uint64(self.seed) + idx * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * _U53

    def take_floats(self, count: int) -> np.ndarray:
        return (self.take_u64(count) >> np.uint64(11)).astype(np.float64) * _U53

    def take_gaussians(self, count: int) -> np.ndarray:
        pairs = (count + 1) // 2
        u = self.take_floats(2 * pairs)
        u1 = np.maximum(u[0::2], _U53)
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        g = np.empty(2 * pairs)
        g[0::2] = r * np.cos(theta)
        g[1::2] = r * np.sin(theta)
        return g[:count]


@dataclass(frozen=True)
class BandComponent:
    freq: float
    amplitude: float

    def __post_init__(self) -> None:
        check_fields(self, SpecInvalid)
        if self.amplitude < 0:
            raise SpecInvalid("component amplitude must be >= 0")


@dataclass(frozen=True)
class ScriptKey:
    dt: float  # seconds after the previous keystroke (or SHOWN)
    key_class: KeyClass
    produced: str = ""

    def __post_init__(self) -> None:
        check_fields(self, SpecInvalid)
        if self.dt < 0:
            raise ScriptInvalid(f"negative keystroke gap {self.dt}")


@dataclass(frozen=True)
class ScriptSentence:
    shown_t: float
    keys: tuple[ScriptKey, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self, SpecInvalid)


#: Most memory a spec may ask ``gtl simulate`` for (a 14-channel 850 s
#: session at 128 Hz asks for 116 MiB), counted per cell of
#: (channels + 3) x (samples + 3). A bound: with the block writer of
#: :func:`gtl.ingest.eeg_to_csv`, the peak RSS measured at the budget is
#: 10-59 B per cell (CPython 3.11, numpy 2.4, Linux x86-64); the
#: interpreter adds 33 MiB.
MAX_SIMULATE_BYTES = 800 * 2**20
EEG_CELL_BYTES = 66


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic session; a bad field or size raises SpecInvalid."""

    duration_s: float
    fs: float = 128.0
    n_channels: int = 14
    components: tuple[BandComponent, ...] = ()
    noise_sigma: float = 0.0
    script: tuple[ScriptSentence, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, SpecInvalid)
        for name in ("duration_s", "fs", "n_channels"):
            if getattr(self, name) <= 0:
                raise SpecInvalid(f"{name} must be positive")
        if not 0 <= self.seed <= _MASK:
            raise SpecInvalid("seed must lie in [0, 2^64)")
        if self.noise_sigma < 0:
            raise SpecInvalid("noise_sigma must be >= 0")
        # in integers, as n_channels may pass the float range; samples
        # first, as round() overflows past it
        samples = self.duration_s * self.fs
        if samples > MAX_SIMULATE_BYTES or (
                EEG_CELL_BYTES * (self.n_channels + 3) * (round(samples) + 3)
                > MAX_SIMULATE_BYTES):
            raise SpecInvalid(f"spec asks for more than "
                              f"{MAX_SIMULATE_BYTES >> 20} MiB to simulate")
        if round(samples) < 1:
            # eeg.csv would hold a header only, which no reader accepts
            raise SpecInvalid(f"duration_s x fs is {samples:.6g}, which "
                              f"rounds to no EEG sample")
        for c in self.components:
            if not 0 < c.freq < self.fs / 2:
                raise SpecInvalid(
                    f"component at {c.freq} Hz outside (0, {self.fs / 2})")
        prev_end = 0.0
        for i, s in enumerate(self.script):
            if not s.shown_t >= prev_end:
                raise ScriptInvalid(
                    f"sentence {i} shown at {s.shown_t} overlaps the previous one")
            prev_end = s.shown_t + sum(k.dt for k in s.keys)
            if prev_end > self.duration_s:
                raise ScriptInvalid(
                    f"sentence {i} runs past the session end ({prev_end} s "
                    f"> {self.duration_s} s)")


@dataclass(frozen=True)
class ExpectedComposition:
    """Noiseless per-band power fractions implied by the components."""

    fractions: tuple[tuple[str, float], ...]

    def fraction(self, band_name: str) -> float:
        for name, frac in self.fractions:
            if name == band_name:
                return frac
        raise KeyError(band_name)


def _channel_rngs(spec: SimSpec) -> list[SplitMix64]:
    root = SplitMix64(spec.seed)
    return [SplitMix64(root.next_u64()) for _ in range(spec.n_channels)]


def synth_eeg(spec: SimSpec) -> EegRecording:
    """Sum of fixed sinusoids plus white noise, per channel.

    Each channel draws one phase per component from its own stream, then
    its noise from the same stream. A component's ``sin(wt)`` and
    ``cos(wt)`` are computed once and weighted per channel, as
    ``A sin(wt + phi) = (A cos phi) sin(wt) + (A sin phi) cos(wt)``.
    """
    n = int(round(spec.duration_s * spec.fs))
    t = np.arange(n, dtype=np.float64) / spec.fs
    samples = np.zeros((spec.n_channels, n), dtype=np.float64)
    rngs = _channel_rngs(spec)
    # one component's pair at a time, and a scratch row for the products
    sin_wt, cos_wt, scratch = np.empty((3, n), dtype=np.float64)
    for comp in spec.components:
        np.multiply(t, 2.0 * np.pi * comp.freq, out=cos_wt)
        np.sin(cos_wt, out=sin_wt)
        np.cos(cos_wt, out=cos_wt)
        for row, rng in zip(samples, rngs):
            phase = 2.0 * math.pi * rng.next_float()
            row += np.multiply(sin_wt, comp.amplitude * math.cos(phase),
                               out=scratch)
            row += np.multiply(cos_wt, comp.amplitude * math.sin(phase),
                               out=scratch)
    del t, sin_wt, cos_wt, scratch  # the noise needs none of them
    if spec.noise_sigma > 0:
        for row, rng in zip(samples, rngs):
            noise = rng.take_gaussians(n)
            row += np.multiply(noise, spec.noise_sigma, out=noise)
    return EegRecording(t0=0.0, fs=spec.fs, samples=samples)


def synth_events(spec: SimSpec) -> EventLog:
    """Well-formed event log for the scripted sentences.

    The SHOWN prompt and the SUBMIT payload both equal the keystroke
    replay, so the log passes transcription validation by construction.
    """
    events: list[Event] = [Event.session_start(0.0)]
    for s in spec.script:
        keys: list[Event] = []
        t = s.shown_t
        for k in s.keys:
            t += k.dt
            keys.append(Event.key(t, k.key_class, k.produced))
        text, _ = replay_keystrokes(keys)
        events.append(Event.shown(s.shown_t, text))
        events.extend(keys)
        events.append(Event.submit(t, text))
    events.append(Event.session_end(spec.duration_s))
    return EventLog(tuple(events))


def simulate_session(spec: SimSpec, meta: SessionMeta) -> SessionRecord:
    if len(meta.channel_names) != spec.n_channels:
        raise SpecInvalid(
            f"spec has {spec.n_channels} channels but meta names "
            f"{len(meta.channel_names)}")
    if meta.fs_eeg != spec.fs:
        raise SpecInvalid(f"spec fs {spec.fs} != meta fs {meta.fs_eeg}")
    return SessionRecord(meta=meta, eeg=synth_eeg(spec),
                         events=synth_events(spec))


def expected_composition(spec: SimSpec,
                         bands: Sequence[Band]) -> ExpectedComposition:
    """Closed-form band fractions: each sinusoid contributes amplitude^2 / 2.

    Requires a noiseless spec; component frequencies must not sit on a
    band boundary, where the half-open binning would make the assignment
    ambiguous.
    """
    if spec.noise_sigma != 0.0:
        raise SpecInvalid("expected composition is defined for noiseless specs")
    edges = {b.f1 for b in bands} | {b.f2 for b in bands}
    power = {b.name: 0.0 for b in bands}
    total = 0.0
    for c in spec.components:
        if c.amplitude == 0.0:
            continue
        if c.freq in edges:
            raise BoundaryFrequency(
                f"component at {c.freq} Hz sits on a band boundary")
        p = c.amplitude ** 2 / 2.0
        for b in bands:
            if b.f1 < c.freq < b.f2:
                power[b.name] += p
                break
        total += p
    if total == 0.0:
        raise SpecInvalid("no nonzero components; composition undefined")
    return ExpectedComposition(
        tuple((b.name, power[b.name] / total) for b in bands))


# --- serialization of SimSpec ------------------------------------------------

#: Per type, the keys of its spec object and the field each sets, if any.
_SPEC_KEYS = {
    SimSpec: {**{f.name: f.name for f in fields(SimSpec)}, "meta": None},
    BandComponent: {f.name: f.name for f in fields(BandComponent)},
    ScriptSentence: {"shown_t": "shown_t", "keystrokes": "keys"},
    ScriptKey: {"dt": "dt", "class": "key_class", "produced": "produced"},
}
#: Fields whose spec value is an array of objects of a type.
_ITEMS = {"components": BandComponent, "script": ScriptSentence,
          "keys": ScriptKey}


def _from_json(cls: type, obj: object) -> object:
    if not isinstance(obj, dict):
        raise SpecInvalid(f"{cls.__name__} spec must be a JSON object")
    keys = _SPEC_KEYS[cls]
    try:
        args = {keys[k]: v for k, v in obj.items() if keys[k]}
        for name in args.keys() & _ITEMS.keys():
            if isinstance(args[name], list):
                args[name] = [_from_json(_ITEMS[name], v) for v in args[name]]
        return cls(**args)
    except KeyError as exc:
        raise SpecInvalid(
            f"unknown {cls.__name__} key {exc.args[0]!r}") from None
    except TypeError as exc:  # a required key is missing
        raise SpecInvalid(f"malformed simulation spec: {exc}") from None


def simspec_from_dict(d: object) -> SimSpec:
    """The spec of a decoded JSON object, by :data:`_SPEC_KEYS`, with the
    types' own defaults and rules; a top-level ``meta`` is the caller's.
    A missing, unknown or wrong-typed key is SpecInvalid."""
    return _from_json(SimSpec, d)


# --- study-shaped corpus ------------------------------------------------------

#: Imposed per-keyboard mean beta fractions for the study-shaped corpus.
STUDY_TARGET_BETA = {"A": 0.0865, "B": 0.0860, "C": 0.0824}
#: Spread of session beta fractions around their keyboard's target.
STUDY_BETA_JITTER = 0.004
#: Seconds before the first sentence, and per sentence, of a study session.
STUDY_PRE_S = 10.0
STUDY_SENTENCE_SLOT_S = 14.0

_PHRASES = (
    "my watch fell in the water",
    "the sun rises in the east",
    "have a good weekend",
    "prevailing wind from the east",
    "time to go shopping",
)


@dataclass(frozen=True)
class StudyDesign:
    """Shape of the study-sized synthetic corpus; SpecInvalid if bad."""

    participants: int = 5
    sessions_per_keyboard: int = 6  # index 0 is the training session
    sentences_per_session: int = 5
    seed: int = 2024

    def __post_init__(self) -> None:
        check_fields(self, SpecInvalid)
        for name, low in (("participants", 1), ("sessions_per_keyboard", 1),
                          ("sentences_per_session", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise SpecInvalid(f"{name} must be >= {low}")
        if self.seed > _MASK:
            raise SpecInvalid("seed must lie in [0, 2^64)")


def _sentence_script(text: str, shown_t: float,
                     rng: SplitMix64) -> ScriptSentence:
    """Typing script with per-sentence speed, typos and suggestion use.

    All variation is drawn from ``rng``, so scripts (and the metrics they
    imply) differ across sessions but stay fully deterministic.
    """
    words = text.split(" ")
    dt = 0.25 + 0.08 * rng.next_float()
    n_typos = rng.next_u64() % 3
    use_sugg = rng.next_float() < 0.7 and len(words) > 1

    keys: list[ScriptKey] = []
    first = True

    def push(key_class: KeyClass, produced: str) -> None:
        nonlocal first
        keys.append(ScriptKey(0.5 if first else dt, key_class, produced))
        first = False

    for wi, word in enumerate(words):
        lead = word if wi == len(words) - 1 else word + " "
        if use_sugg and wi == 1 and len(lead) > 2:
            # take the first letter, then accept a suggestion for the rest
            push(KeyClass.INSERT, lead[0])
            push(KeyClass.SUGG, lead[1:])
            continue
        for ci, letter in enumerate(lead):
            if ci == 1 and wi < n_typos:
                # typo: wrong letter, backspace, then the intended one
                push(KeyClass.INSERT, "x")
                push(KeyClass.BKSP, "")
            push(KeyClass.INSERT, letter)
    return ScriptSentence(shown_t=shown_t, keys=tuple(keys))


def _beta_components(beta_fraction: float) -> tuple[BandComponent, ...]:
    """Four on-bin tones realizing the requested beta power share."""
    rest = (1.0 - beta_fraction) / 3.0
    return (
        BandComponent(2.0, math.sqrt(2.0 * rest)),
        BandComponent(6.0, math.sqrt(2.0 * rest)),
        BandComponent(10.0, math.sqrt(2.0 * rest)),
        BandComponent(20.0, math.sqrt(2.0 * beta_fraction)),
    )


def study_sessions(design: StudyDesign = StudyDesign(),
                   ) -> list[tuple[SessionMeta, SimSpec]]:
    """Session specs for the full synthetic study.

    Per keyboard, session beta fractions are the keyboard target plus a
    zero-mean jitter (uniform, centered exactly within each keyboard
    group), so group means match the targets while the sessions still
    spread enough for inference to have something to detect. Typing
    scripts vary deterministically per session, so the text-entry metrics
    spread as well.
    """
    master = SplitMix64(design.seed)
    jitter_rng = SplitMix64(master.next_u64())
    spec_seed_rng = SplitMix64(master.next_u64())
    script_rng = SplitMix64(master.next_u64())
    duration = (STUDY_PRE_S
                + design.sentences_per_session * STUDY_SENTENCE_SLOT_S)

    out: list[tuple[SessionMeta, SimSpec]] = []
    for keyboard in KEYBOARDS:
        cells = [(p, s) for p in range(design.participants)
                 for s in range(design.sessions_per_keyboard)]
        jitter = [2.0 * jitter_rng.next_float() - 1.0 for _ in cells]
        center = sum(jitter) / len(jitter)
        target = STUDY_TARGET_BETA[keyboard]
        for (p, s), j in zip(cells, jitter):
            beta = target + STUDY_BETA_JITTER * (j - center)
            script = tuple(
                _sentence_script(
                    _PHRASES[i % len(_PHRASES)],
                    STUDY_PRE_S + i * STUDY_SENTENCE_SLOT_S,
                    script_rng)
                for i in range(design.sentences_per_session))
            spec = SimSpec(
                duration_s=duration,
                components=_beta_components(beta),
                script=script,
                seed=spec_seed_rng.next_u64(),
            )
            meta = SessionMeta(
                participant_id=f"p{p + 1:02d}",
                keyboard=keyboard,
                session_index=s,
            )
            out.append((meta, spec))
    return out
