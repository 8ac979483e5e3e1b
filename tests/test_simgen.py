import json

import numpy as np
import pytest

from gtl.errors import BoundaryFrequency, ScriptInvalid, SpecInvalid
from gtl.metrics import session_metrics
from gtl.model import SessionMeta, validate_session
from gtl.segmentation import phase_intervals
from gtl.simgen import (
    EEG_CELL_BYTES,
    GAZE_SAMPLE_BYTES,
    MAX_SIMULATE_BYTES,
    BandComponent,
    ScriptKey,
    ScriptSentence,
    SimSpec,
    SplitMix64,
    expected_composition,
    simspec_from_dict,
    simspec_to_dict,
    simulate_session,
    study_sessions,
    synth_eeg,
    synth_events,
)
from gtl.spectral import AnalysisConfig, cognitive_load_series, default_bands
from gtl.model import KeyClass

from conftest import ODD_JSON_VALUES, loads_as_itself


def _meta(n_channels=14):
    if n_channels == 14:
        return SessionMeta("p01", "A", 1)
    return SessionMeta("p01", "A", 1,
                       channel_names=tuple(f"ch{i}" for i in range(n_channels)))


def _script():
    return (
        ScriptSentence(10.0, (
            ScriptKey(0.5, KeyClass.INSERT, "h"),
            ScriptKey(0.5, KeyClass.INSERT, "i"),
        )),
        ScriptSentence(20.0, (
            ScriptKey(0.5, KeyClass.INSERT, "n"),
            ScriptKey(0.5, KeyClass.SUGG, "o way "),
            ScriptKey(0.5, KeyClass.BKSP, ""),
        )),
    )


class TestSplitMix64:
    def test_published_reference_vector(self):
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_vectorized_equals_sequential(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        seq = [a.next_u64() for _ in range(100)]
        assert b.take_u64(100).tolist() == seq

    def test_floats_in_unit_interval(self):
        u = SplitMix64(5).take_floats(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02

    def test_gaussian_moments(self):
        g = SplitMix64(6).take_gaussians(50_001)
        assert abs(g.mean()) < 0.02
        assert abs(g.std() - 1.0) < 0.02


_MOST_SAMPLES = MAX_SIMULATE_BYTES // (4 * EEG_CELL_BYTES) - 3
_MOST_CHANNELS = MAX_SIMULATE_BYTES // (3 * EEG_CELL_BYTES) - 3
_MOST_GAZE = (MAX_SIMULATE_BYTES - 12 * EEG_CELL_BYTES) // GAZE_SAMPLE_BYTES


class TestSynthEeg:
    def test_deterministic_bitwise(self):
        spec = SimSpec(duration_s=10.0, components=(BandComponent(20.0, 2.0),),
                       noise_sigma=0.5, seed=44)
        a = synth_eeg(spec)
        b = synth_eeg(spec)
        assert np.array_equal(a.samples, b.samples)
        assert a.fs == 128.0 and a.t0 == 0.0

    def test_different_seeds_differ(self):
        base = dict(duration_s=10.0, components=(BandComponent(20.0, 2.0),),
                    noise_sigma=0.5)
        a = synth_eeg(SimSpec(seed=1, **base))
        b = synth_eeg(SimSpec(seed=2, **base))
        assert not np.array_equal(a.samples, b.samples)

    def test_beta_tone_through_pipeline(self):
        spec = SimSpec(duration_s=60.0,
                       components=(BandComponent(20.0, 5.0),), seed=9)
        series = cognitive_load_series(synth_eeg(spec), AnalysisConfig())
        assert series.loads.min() >= 0.99

    def test_silent_spec_propagates_zero_power(self):
        spec = SimSpec(duration_s=16.0, seed=1)
        series = cognitive_load_series(synth_eeg(spec), AnalysisConfig())
        assert len(series) == 0
        assert series.dropped > 0

    def test_spec_validation(self):
        with pytest.raises(SpecInvalid):
            SimSpec(duration_s=0.0)
        with pytest.raises(SpecInvalid):
            SimSpec(duration_s=1.0,
                    components=(BandComponent(70.0, 1.0),))
        with pytest.raises(ScriptInvalid):
            SimSpec(duration_s=5.0, script=(
                ScriptSentence(4.0, (ScriptKey(2.0, KeyClass.INSERT, "a"),)),
            ))

    # one channel is 4 x (samples + 3) cells; no sample leaves 3 a channel
    @pytest.mark.parametrize("fields,ok", [
        ({"duration_s": _MOST_SAMPLES}, True),
        ({"duration_s": _MOST_SAMPLES + 1}, False),
        ({"duration_s": 0.1, "n_channels": _MOST_CHANNELS}, True),
        ({"duration_s": 0.1, "n_channels": _MOST_CHANNELS + 1}, False),
        ({"duration_s": 0.1, "n_channels": 10 ** 400}, False),
        ({"duration_s": 1e308, "fs": 1e308}, False),
        ({"duration_s": _MOST_GAZE, "fs": 1e-300, "gaze_rate": 1.0}, True),
        ({"duration_s": _MOST_GAZE + 1, "fs": 1e-300, "gaze_rate": 1.0},
         False),
        ({"duration_s": 1.0, "gaze_rate": 1e308}, False),
    ])
    def test_memory_budget(self, fields, ok):
        """A spec asks for at most MAX_SIMULATE_BYTES, counted as
        EEG_CELL_BYTES per cell and GAZE_SAMPLE_BYTES per gaze sample;
        construction allocates nothing."""
        spec = {"fs": 1.0, "n_channels": 1, **fields}
        if ok:
            SimSpec(**spec)
        else:
            with pytest.raises(SpecInvalid, match="more than 800 MiB"):
                SimSpec(**spec)

class TestSynthEvents:
    def test_log_passes_validation(self):
        spec = SimSpec(duration_s=30.0,
                       components=(BandComponent(20.0, 1.0),),
                       script=_script(), seed=3)
        rec = simulate_session(spec, _meta())
        report = validate_session(rec)
        assert report.ok, report.violations

    def test_submit_payload_matches_replay(self):
        log = synth_events(SimSpec(duration_s=30.0, script=_script()))
        sentences = log.sentences()
        assert sentences[0].submit.text == "hi"
        assert sentences[1].submit.text == "no way"

    def test_phases_for_five_sentences(self):
        script = tuple(
            ScriptSentence(10.0 + 5.0 * i,
                           (ScriptKey(1.0, KeyClass.INSERT, "a"),))
            for i in range(5))
        log = synth_events(SimSpec(duration_s=60.0, script=script))
        assert [s for _, _, s in phase_intervals(log)] == [0, 1, 2, 3, 4, 5]

    def test_insert_only_script_saves_nothing(self):
        script = (ScriptSentence(5.0, tuple(
            ScriptKey(0.5, KeyClass.INSERT, c) for c in "abcd")),)
        spec = SimSpec(duration_s=20.0,
                       components=(BandComponent(20.0, 1.0),), script=script)
        rec = simulate_session(spec, _meta())
        tm = session_metrics(rec)
        assert tm.sentences[0].keystrokes_saved_pct == 0.0

    def test_mixed_script_metrics_hand_computed(self):
        # sentence 2 of _script: keys n, SUGG "o way ", BKSP -> "no way"
        # K = 3, |T| = 6, saved = 50%, kspc = 0.5, duration 1.5 s
        spec = SimSpec(duration_s=30.0,
                       components=(BandComponent(20.0, 1.0),),
                       script=_script())
        rec = simulate_session(spec, _meta())
        m = session_metrics(rec).sentences[1]
        assert m.transcribed_len == 6
        assert m.keystrokes == 3
        assert m.keystrokes_saved_pct == pytest.approx(50.0)
        assert m.kspc == pytest.approx(0.5)
        assert m.duration_s == pytest.approx(1.5)
        assert m.backspace_count == 1
        assert m.wpm == pytest.approx((5 * 60) / (5 * 1.5))

    def test_gaze_dummies(self):
        spec = SimSpec(duration_s=2.0, components=(BandComponent(20.0, 1.0),),
                       gaze_rate=60.0)
        rec = simulate_session(spec, _meta())
        assert rec.gaze is not None
        assert len(rec.gaze) == 120
        assert all(g.valid for g in rec.gaze)


class TestExpectedComposition:
    def test_equal_mixture(self):
        spec = SimSpec(duration_s=8.0, components=tuple(
            BandComponent(f, 3.0) for f in (2.0, 6.0, 10.0, 20.0)))
        comp = expected_composition(spec, default_bands(128.0))
        assert comp.fractions == (("Delta", 0.25), ("Theta", 0.25),
                                  ("Alpha", 0.25), ("Beta", 0.25))

    def test_amplitude_squared_weighting(self):
        spec = SimSpec(duration_s=8.0, components=(
            BandComponent(6.0, 1.0), BandComponent(20.0, 3.0)))
        comp = expected_composition(spec, default_bands(128.0))
        assert comp.fraction("Beta") == pytest.approx(9.0 / 10.0)
        assert comp.fraction("Theta") == pytest.approx(1.0 / 10.0)

    def test_boundary_frequency_rejected(self):
        spec = SimSpec(duration_s=8.0, components=(BandComponent(14.0, 1.0),))
        with pytest.raises(BoundaryFrequency):
            expected_composition(spec, default_bands(128.0))

    def test_noisy_spec_rejected(self):
        spec = SimSpec(duration_s=8.0, components=(BandComponent(20.0, 1.0),),
                       noise_sigma=0.1)
        with pytest.raises(SpecInvalid):
            expected_composition(spec, default_bands(128.0))

    def test_pipeline_recovers_composition(self):
        spec = SimSpec(duration_s=60.0, components=(
            BandComponent(6.0, 2.0), BandComponent(20.0, 2.0)), seed=12)
        comp = expected_composition(spec, default_bands(128.0))
        series = cognitive_load_series(synth_eeg(spec), AnalysisConfig())
        assert abs(series.loads.mean() - comp.fraction("Beta")) <= 0.02


class TestSimSpecSerialization:
    def test_round_trip(self):
        spec = SimSpec(duration_s=30.0, components=(BandComponent(20.0, 2.5),),
                       noise_sigma=0.25, script=_script(), seed=77,
                       gaze_rate=60.0)
        assert simspec_from_dict(simspec_to_dict(spec)) == spec

    def test_malformed_dict(self):
        with pytest.raises(SpecInvalid):
            simspec_from_dict({"fs": 128.0})

    def test_defaults_are_the_types_own(self):
        spec = simspec_from_dict({"duration_s": 10, "script": [
            {"shown_t": 1, "keystrokes": [{"dt": 1, "class": "INSERT"}]},
            {"shown_t": 3}]})
        assert spec == SimSpec(10.0, script=(
            ScriptSentence(1.0, (ScriptKey(1.0, KeyClass.INSERT),)),
            ScriptSentence(3.0)))
        assert isinstance(spec.duration_s, float)

    @pytest.mark.parametrize("path", [
        (), ("components", 0), ("script", 0), ("script", 0, "keystrokes", 0),
    ], ids=["spec", "component", "sentence", "keystroke"])
    def test_unknown_key_is_spec_invalid(self, path):
        # a misspelled key used to be ignored: noise_sgima gave no noise
        d = simspec_to_dict(SimSpec(
            30.0, components=(BandComponent(20.0, 1.0),), script=_script()))
        obj = d
        for step in path:
            obj = obj[step]
        obj["noise_sgima"] = 0.5
        with pytest.raises(SpecInvalid, match="noise_sgima"):
            simspec_from_dict(d)

    @pytest.mark.parametrize("path", [
        ("duration_s",), ("fs",), ("n_channels",), ("components",),
        ("noise_sigma",), ("script",), ("seed",), ("gaze_rate",),
        ("components", 0, "freq"), ("components", 0, "amplitude"),
        ("script", 0, "shown_t"), ("script", 0, "keystrokes"),
        ("script", 0, "keystrokes", 0, "dt"),
        ("script", 0, "keystrokes", 0, "class"),
        ("script", 0, "keystrokes", 0, "produced"),
    ], ids=lambda p: ".".join(map(str, p)))
    def test_each_field_loads_as_itself_or_is_spec_invalid(self, path):
        # n_channels 2.9 and seed 1.5 used to load as 2 and 1, and a
        # keystroke "produced": 0.5 as "0.5"
        for text in ODD_JSON_VALUES:
            d = simspec_to_dict(SimSpec(
                30.0, components=(BandComponent(20.0, 1.0),), script=_script(),
                gaze_rate=60.0))
            *parent, key = path
            obj = d
            for step in parent:
                obj = obj[step]
            obj[key] = value = json.loads(text)
            try:
                spec = simspec_from_dict(d)
            except SpecInvalid:
                continue
            got = simspec_to_dict(spec)
            for step in path:
                got = got.get(step) if isinstance(got, dict) else got[step]
            assert loads_as_itself(got, value), text


class TestStudySessions:
    def test_shape(self):
        sessions = study_sessions()
        assert len(sessions) == 90  # 5 participants x 3 keyboards x 6 sessions
        keyboards = {m.keyboard for m, _ in sessions}
        assert keyboards == {"A", "B", "C"}
        per_kb = sum(1 for m, _ in sessions if m.keyboard == "A")
        assert per_kb == 30
        training = [m for m, _ in sessions if m.session_index == 0]
        assert len(training) == 15

    def test_deterministic(self):
        a = study_sessions()
        b = study_sessions()
        assert [(m, s) for m, s in a] == [(m, s) for m, s in b]

    def test_imposed_means_match_targets(self):
        from gtl.simgen import STUDY_TARGET_BETA
        sessions = study_sessions()
        for kb, target in STUDY_TARGET_BETA.items():
            specs = [spec for meta, spec in sessions if meta.keyboard == kb]
            betas = [expected_composition(s, default_bands(128.0)).fraction("Beta")
                     for s in specs]
            assert np.mean(betas) == pytest.approx(target, abs=1e-6)

    def test_sessions_validate(self):
        meta, spec = study_sessions()[7]
        rec = simulate_session(spec, meta)
        assert validate_session(rec).ok
