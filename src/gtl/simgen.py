"""Deterministic synthetic sessions: ground-truth EEG with a prescribed
band-power mix plus scripted keystroke logs.

Everything derives from SplitMix64 so equal seeds give bit-identical
output on any platform. The generator definition, for reimplementation
elsewhere:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z XOR (z >> 31)

Uniform doubles take the top 53 bits (output >> 11) / 2^53. Gaussians are
Box-Muller pairs over consecutive uniforms u1, u2 (u1 clamped away from
zero): g0 = sqrt(-2 ln u1) cos(2 pi u2), g1 = sqrt(-2 ln u1) sin(2 pi u2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BoundaryFrequency, ScriptInvalid, SpecInvalid
from .model import (
    EPOC14_CHANNELS,
    EegRecording,
    Event,
    EventLog,
    GazeSample,
    KeyClass,
    SessionMeta,
    SessionRecord,
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


@dataclass(frozen=True)
class ScriptKey:
    dt: float  # seconds after the previous keystroke (or SHOWN)
    key_class: KeyClass
    produced: str = ""


@dataclass(frozen=True)
class ScriptSentence:
    shown_t: float
    keys: tuple[ScriptKey, ...]

    def submit_t(self) -> float:
        return self.shown_t + sum(k.dt for k in self.keys)


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic session."""

    duration_s: float
    fs: float = 128.0
    n_channels: int = 14
    components: tuple[BandComponent, ...] = ()
    noise_sigma: float = 0.0
    script: tuple[ScriptSentence, ...] = ()
    seed: int = 0
    gaze_rate: Optional[float] = None

    def validate(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise SpecInvalid("duration_s must be positive and finite")
        if not 0 < self.fs < math.inf:
            raise SpecInvalid("fs must be positive and finite")
        if self.n_channels < 1:
            raise SpecInvalid("n_channels must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise SpecInvalid("noise_sigma must be finite and >= 0")
        if self.gaze_rate is not None and not 0 < self.gaze_rate < math.inf:
            raise SpecInvalid("gaze_rate must be positive and finite")
        for c in self.components:
            if not 0 < c.freq < self.fs / 2:
                raise SpecInvalid(
                    f"component at {c.freq} Hz outside (0, {self.fs / 2})")
            if not 0 <= c.amplitude < math.inf:
                raise SpecInvalid("component amplitude must be finite and >= 0")
        prev_end = 0.0
        for i, s in enumerate(self.script):
            if not s.shown_t >= prev_end:
                raise ScriptInvalid(
                    f"sentence {i} shown at {s.shown_t} overlaps the previous one")
            if not all(k.dt >= 0 for k in s.keys):
                raise ScriptInvalid(
                    f"sentence {i} has a negative or NaN keystroke gap")
            prev_end = s.submit_t()
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


def _channel_seeds(spec: SimSpec) -> list[int]:
    root = SplitMix64(spec.seed)
    return [root.next_u64() for _ in range(spec.n_channels)]


def synth_eeg(spec: SimSpec) -> EegRecording:
    """Sum of fixed sinusoids plus white noise, per channel.

    Each channel gets its own phase per component and its own noise
    stream, all derived from the spec seed.
    """
    spec.validate()
    n = int(round(spec.duration_s * spec.fs))
    t = np.arange(n, dtype=np.float64) / spec.fs
    samples = np.zeros((spec.n_channels, n), dtype=np.float64)
    for ch, ch_seed in enumerate(_channel_seeds(spec)):
        rng = SplitMix64(ch_seed)
        acc = np.zeros(n, dtype=np.float64)
        for comp in spec.components:
            phase = 2.0 * np.pi * rng.next_float()
            acc += comp.amplitude * np.sin(2.0 * np.pi * comp.freq * t + phase)
        if spec.noise_sigma > 0:
            acc += spec.noise_sigma * rng.take_gaussians(n)
        samples[ch] = acc
    return EegRecording(t0=0.0, fs=spec.fs, samples=samples)


def synth_events(spec: SimSpec) -> EventLog:
    """Well-formed event log for the scripted sentences.

    The SHOWN prompt and the SUBMIT payload both equal the keystroke
    replay, so the log passes transcription validation by construction.
    """
    spec.validate()
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


def synth_gaze(spec: SimSpec) -> Optional[tuple[GazeSample, ...]]:
    """Constant-rate dummy gaze at screen center, all samples valid."""
    if spec.gaze_rate is None:
        return None
    n = int(round(spec.duration_s * spec.gaze_rate))
    return tuple(GazeSample(i / spec.gaze_rate, 640.0, 360.0, True)
                 for i in range(n))


def simulate_session(spec: SimSpec, meta: SessionMeta) -> SessionRecord:
    if len(meta.channel_names) != spec.n_channels:
        raise SpecInvalid(
            f"spec has {spec.n_channels} channels but meta names "
            f"{len(meta.channel_names)}")
    if meta.fs_eeg != spec.fs:
        raise SpecInvalid(f"spec fs {spec.fs} != meta fs {meta.fs_eeg}")
    return SessionRecord(meta=meta, eeg=synth_eeg(spec),
                         events=synth_events(spec), gaze=synth_gaze(spec))


def expected_composition(spec: SimSpec,
                         bands: Sequence[Band]) -> ExpectedComposition:
    """Closed-form band fractions: each sinusoid contributes amplitude^2 / 2.

    Requires a noiseless spec; component frequencies must not sit on a
    band boundary, where the half-open binning would make the assignment
    ambiguous.
    """
    spec.validate()
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

def simspec_to_dict(spec: SimSpec) -> dict:
    d: dict = {
        "duration_s": spec.duration_s,
        "fs": spec.fs,
        "n_channels": spec.n_channels,
        "components": [{"freq": c.freq, "amplitude": c.amplitude}
                       for c in spec.components],
        "noise_sigma": spec.noise_sigma,
        "script": [
            {
                "shown_t": s.shown_t,
                "keystrokes": [
                    {"dt": k.dt, "class": k.key_class.value,
                     "produced": k.produced}
                    for k in s.keys
                ],
            }
            for s in spec.script
        ],
        "seed": spec.seed,
    }
    if spec.gaze_rate is not None:
        d["gaze_rate"] = spec.gaze_rate
    return d


def simspec_from_dict(d: object) -> SimSpec:
    if not isinstance(d, dict):
        raise SpecInvalid("simulation spec must be a JSON object")
    try:
        script = tuple(
            ScriptSentence(
                shown_t=float(s["shown_t"]),
                keys=tuple(
                    ScriptKey(dt=float(k["dt"]),
                              key_class=KeyClass(k["class"]),
                              produced=str(k.get("produced", "")))
                    for k in s.get("keystrokes", ())),
            )
            for s in d.get("script", ()))
        spec = SimSpec(
            duration_s=float(d["duration_s"]),
            fs=float(d.get("fs", 128.0)),
            n_channels=int(d.get("n_channels", 14)),
            components=tuple(
                BandComponent(float(c["freq"]), float(c["amplitude"]))
                for c in d.get("components", ())),
            noise_sigma=float(d.get("noise_sigma", 0.0)),
            script=script,
            seed=int(d.get("seed", 0)),
            gaze_rate=(float(d["gaze_rate"]) if "gaze_rate" in d else None),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise SpecInvalid(f"malformed simulation spec: {exc}") from exc
    spec.validate()
    return spec


# --- study-shaped corpus ------------------------------------------------------

#: Imposed per-keyboard mean beta fractions for the study-shaped corpus.
STUDY_TARGET_BETA = {"A": 0.0865, "B": 0.0860, "C": 0.0824}

_PHRASES = (
    "my watch fell in the water",
    "the sun rises in the east",
    "have a good weekend",
    "prevailing wind from the east",
    "time to go shopping",
)


@dataclass(frozen=True)
class StudyDesign:
    """Shape of the study-sized synthetic corpus."""

    participants: int = 5
    sessions_per_keyboard: int = 6  # index 0 is the training session
    sentences_per_session: int = 5
    keyboards: tuple[str, ...] = ("A", "B", "C")
    target_beta: dict = field(default_factory=lambda: dict(STUDY_TARGET_BETA))
    beta_jitter: float = 0.004
    pre_s: float = 10.0
    sentence_slot_s: float = 14.0
    seed: int = 2024


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
    duration = design.pre_s + design.sentences_per_session * design.sentence_slot_s

    out: list[tuple[SessionMeta, SimSpec]] = []
    for keyboard in design.keyboards:
        cells = [(p, s) for p in range(design.participants)
                 for s in range(design.sessions_per_keyboard)]
        jitter = [2.0 * jitter_rng.next_float() - 1.0 for _ in cells]
        center = sum(jitter) / len(jitter)
        target = design.target_beta[keyboard]
        for (p, s), j in zip(cells, jitter):
            beta = target + design.beta_jitter * (j - center)
            script = tuple(
                _sentence_script(
                    _PHRASES[i % len(_PHRASES)],
                    design.pre_s + i * design.sentence_slot_s,
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
