"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same tests one line each with -v.
"""

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from gtl import ingest
from gtl.cli import main
from gtl.ingest import EEG_SIDECAR, load_session, write_session
from gtl.metrics import sentence_metrics
from gtl.model import SessionMeta
from gtl.report import ReportConfig, build_report, render_csv, render_json
from gtl.segmentation import (AGGREGATION_LEVELS, LOAD_UNITS, aggregate,
                              label_load_windows)
from gtl.simgen import (
    BandComponent,
    ScriptKey,
    ScriptSentence,
    SimSpec,
    STUDY_TARGET_BETA,
    simulate_session,
    study_sessions,
    expected_composition,
)
from gtl.spectral import (AnalysisConfig, apply_window_fn, band_ratios,
                          cognitive_load_series, default_bands, dft,
                          make_windows)
from gtl.stats import anova_oneway, ttest_two_sample
from gtl.model import KeyClass

from test_stats import ibeta_quadrature


def _ok(line: str) -> None:
    print(f"[ACCEPTANCE] PASS  {line}")


def test_c1_dft_fast_vs_direct_oracle():
    """C1: fast transform equals direct evaluation, 100 inputs per size."""
    t0 = time.time()
    worst = 0.0
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        rng = np.random.default_rng(1000 + n)
        j = np.arange(n)
        matrix = np.exp(2j * np.pi * np.outer(j, j) / n)
        for _ in range(100):
            x = rng.standard_normal(n)
            got = dft(x)
            ref = matrix @ x
            rel = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    _ok(f"C1 dft oracle: max rel err {worst:.2e}, {elapsed:.2f} s")


def test_c2_parseval_and_ratio_normalization():
    """C2: Parseval at 1e-9 relative; ratios sum to 1 within 1e-12."""
    rng = np.random.default_rng(2)
    bands = default_bands(128.0)
    worst_parseval = 0.0
    worst_ratio = 0.0
    for _ in range(1000):
        x = rng.standard_normal(256) * rng.uniform(0.1, 50.0)
        c = dft(x)
        energy = float(np.sum(x ** 2))
        parseval = abs(float(np.sum(np.abs(c) ** 2) / 256) - energy)
        worst_parseval = max(worst_parseval, parseval / energy)
        from gtl.spectral import band_ratios
        ratios = band_ratios(c, 128.0, bands)
        worst_ratio = max(worst_ratio, abs(sum(ratios.values()) - 1.0))
    assert worst_parseval <= 1e-9
    assert worst_ratio <= 1e-12
    _ok(f"C2 parseval {worst_parseval:.2e}, ratio sum drift {worst_ratio:.2e}")


def test_c3_end_to_end_spectral_recovery(tmp_path):
    """C3: ingest -> spectral -> report recovers noiseless compositions."""
    cases = [
        ("beta tone", (BandComponent(20.0, 4.0),), "Beta", 0.99, "min"),
        ("theta tone", (BandComponent(6.0, 4.0),), "Beta", 0.01, "max"),
    ]
    script = (ScriptSentence(10.0, (ScriptKey(0.5, KeyClass.INSERT, "o"),
                                    ScriptKey(0.5, KeyClass.INSERT, "k"))),)
    for name, components, band, bound, side in cases:
        spec = SimSpec(duration_s=60.0, components=components, script=script,
                       seed=33)
        bundle = tmp_path / name.replace(" ", "_")
        write_session(simulate_session(spec, SessionMeta("p01", "A", 1)), bundle)
        out = tmp_path / f"{name.replace(' ', '_')}.json"
        assert main(["analyze", "--session", str(bundle),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        load = report["sessions"][0]["load"]
        if side == "min":
            assert load["min"] >= bound
        else:
            assert load["max"] <= bound

    mix = SimSpec(duration_s=60.0, components=tuple(
        BandComponent(f, 2.0) for f in (2.0, 6.0, 10.0, 20.0)),
        script=script, seed=34)
    comp = expected_composition(mix, default_bands(128.0))
    bundle = tmp_path / "mix"
    write_session(simulate_session(mix, SessionMeta("p01", "A", 1)), bundle)
    rec = load_session(bundle)
    assert rec.validation is not None and rec.validation.ok
    # each band's share, averaged over the windows the load series frames;
    # the load is the Beta share
    cfg, bands = AnalysisConfig(), default_bands(128.0)
    _, frames = make_windows(rec.eeg.samples, cfg, 128.0)
    shares = [band_ratios(dft(apply_window_fn(w, cfg.window_fn, cfg.detrend)),
                          128.0, bands)
              for w in frames.reshape(-1, cfg.window_len)]
    for band_obj in bands:
        got = np.mean([share[band_obj.name] for share in shares])
        assert abs(got - comp.fraction(band_obj.name)) <= 0.02
    load = cognitive_load_series(rec.eeg, cfg).loads.mean()
    assert math.isclose(load, np.mean([s["Beta"] for s in shares]),
                        rel_tol=1e-12)
    out = tmp_path / "mix.json"
    assert main(["analyze", "--session", str(bundle), "--out", str(out)]) == 0
    reported = json.loads(out.read_text())["sessions"][0]["load"]["mean"]
    assert abs(reported - 0.25) <= 0.02
    _ok("C3 end-to-end recovery: 20 Hz>=0.99, 6 Hz<=0.01, mix 0.25 +/- 0.02")


def test_c4_study_shaped_reproduction():
    """C4: imposed keyboard means recovered; A-C and B-C significant."""
    t0 = time.time()
    samples = []
    for meta, spec in study_sessions():
        rec = simulate_session(spec, meta)
        series = cognitive_load_series(rec.eeg, AnalysisConfig())
        samples.extend(label_load_windows(series, rec.events, meta))
    groups = aggregate(((s.keyboard,), LOAD_UNITS["sentence"](s), s.load)
                       for s in samples)
    means = {}
    for kb in ("A", "B", "C"):
        values = groups[(kb,)]
        assert len(values) == 150  # 5 participants x 6 sessions x 5 sentences
        means[kb] = sum(values) / len(values)
    for kb, target in STUDY_TARGET_BETA.items():
        assert abs(means[kb] - target) <= 0.005
    assert means["C"] < means["B"] <= means["A"]
    ac = ttest_two_sample(groups[("A",)], groups[("C",)])
    bc = ttest_two_sample(groups[("B",)], groups[("C",)])
    assert ac.df == (298.0,)
    assert ac.p < 0.05
    assert bc.p < 0.05
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(f"C4 study reproduction: means {means['A']:.4f}/{means['B']:.4f}/"
        f"{means['C']:.4f}, p(A,C)={ac.p:.2e}, p(B,C)={bc.p:.2e}, "
        f"{elapsed:.1f} s")


def test_c5_metrics_exactness_and_df_structure():
    """C5: metrics on 20 hand-scripted logs match hand-computed values."""
    # (keys, expected |T|, K, bksp); duration = len(keys) * 1 s (key_dt=1)
    from conftest import make_event_log

    cases = []
    for n_ins in (1, 2, 5, 10, 20):
        keys = [("INSERT", "a")] * n_ins
        cases.append((keys, n_ins, n_ins, 0))
    for chunk in (2, 3, 5, 8, 13):
        keys = [("INSERT", "x"), ("SUGG", "y" * chunk)]
        cases.append((keys, 1 + chunk, 2, 0))
    for n_bksp in (1, 2, 3, 4, 5):
        keys = ([("INSERT", "a")] * 6 + [("BKSP", "")] * n_bksp)
        cases.append((keys, 6 - n_bksp, 6 + n_bksp, n_bksp))
    for extra in (0, 1, 2, 3, 4):
        keys = ([("SUGG", "hello")] + [("INSERT", "!")] * extra)
        cases.append((keys, 5 + extra, 1 + extra, 0))
    assert len(cases) == 20

    for keys, t_len, n_keys, n_bksp in cases:
        log = make_event_log([list(keys)], pre=5.0, key_dt=1.0)
        m = sentence_metrics(log.sentences()[0])
        duration = float(len(keys))  # SHOWN to SUBMIT, one key per second
        assert m.transcribed_len == t_len
        assert m.keystrokes == n_keys
        assert m.backspace_count == n_bksp
        assert m.duration_s == duration
        expected_wpm = (0.0 if t_len <= 1
                        else ((t_len - 1) * 60.0) / (5.0 * duration))
        assert m.wpm == expected_wpm
        assert m.keystrokes_saved_pct == 100.0 * (t_len - n_keys) / t_len
        assert m.kspc == n_keys / t_len

    rng = np.random.default_rng(55)
    f = anova_oneway([rng.standard_normal(5).tolist() for _ in range(3)])
    assert f.df == (2.0, 12.0)
    t = ttest_two_sample(rng.standard_normal(150).tolist(),
                         rng.standard_normal(150).tolist())
    assert t.df == (298.0,)
    _ok("C5 metrics exact on 20 scripted logs; df structures (2,12) and 298")


def test_c6_statistics_oracle():
    """C6: F/t vs brute-force sums of squares; p vs quadrature oracle."""
    rng = np.random.default_rng(66)
    worst_stat = 0.0
    worst_p = 0.0
    for _ in range(30):
        groups = [
            (rng.standard_normal(int(rng.integers(3, 12)))
             * rng.uniform(0.5, 3) + rng.uniform(-2, 2)).tolist()
            for _ in range(int(rng.integers(2, 5)))]
        r = anova_oneway(groups)
        all_v = np.concatenate(groups)
        grand = all_v.mean()
        ssb = sum(len(g) * (np.mean(g) - grand) ** 2 for g in groups)
        ssw = sum(float(np.sum((np.asarray(g) - np.mean(g)) ** 2))
                  for g in groups)
        f_ref = (ssb / (len(groups) - 1)) / (ssw / (len(all_v) - len(groups)))
        worst_stat = max(worst_stat, abs(r.statistic - f_ref) / f_ref)
        d1, d2 = r.df
        p_ref = 1.0 - ibeta_quadrature(d1 * r.statistic / (d1 * r.statistic + d2),
                                       d1 / 2.0, d2 / 2.0)
        worst_p = max(worst_p, abs(r.p - p_ref))

        a = (rng.standard_normal(int(rng.integers(3, 30)))).tolist()
        b = (rng.standard_normal(int(rng.integers(3, 30)))
             + rng.uniform(-1, 1)).tolist()
        t = ttest_two_sample(a, b)
        na, nb = len(a), len(b)
        pooled = ((na - 1) * np.var(a, ddof=1) + (nb - 1) * np.var(b, ddof=1)) \
            / (na + nb - 2)
        t_ref = (np.mean(a) - np.mean(b)) / math.sqrt(pooled * (1 / na + 1 / nb))
        worst_stat = max(worst_stat, abs(t.statistic - t_ref) / abs(t_ref))
        df = t.df[0]
        p_ref = ibeta_quadrature(df / (df + t.statistic ** 2), df / 2.0, 0.5)
        worst_p = max(worst_p, abs(t.p - p_ref))
    assert worst_stat <= 1e-9
    assert worst_p <= 1e-6
    _ok(f"C6 stats oracle: stat rel err {worst_stat:.2e}, p abs err {worst_p:.2e}")


def test_c7_determinism_of_simulate_and_analyze(tmp_path):
    """C7: equal seeds give byte-identical bundles and reports."""
    spec = {
        "duration_s": 45.0,
        "components": [{"freq": 10.0, "amplitude": 2.0},
                       {"freq": 20.0, "amplitude": 1.0}],
        "noise_sigma": 0.5,
        "seed": 1234,
        "script": [{"shown_t": 8.0, "keystrokes": [
            {"dt": 0.5, "class": "INSERT", "produced": "o"},
            {"dt": 0.5, "class": "INSERT", "produced": "k"}]}],
        "meta": {"participant_id": "p03", "keyboard": "B", "session_index": 2},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    digests = []
    for run in ("one", "two"):
        bundle = tmp_path / f"bundle_{run}"
        report = tmp_path / f"report_{run}.json"
        assert main(["simulate", "--spec", str(spec_path),
                     "--out", str(bundle)]) == 0
        assert main(["analyze", "--session", str(bundle),
                     "--out", str(report)]) == 0
        blob = b"".join((bundle / n).read_bytes() for n in (
            "meta.json", "eeg.csv", "events.csv", EEG_SIDECAR))
        digests.append((blob, report.read_bytes()))
    assert digests[0] == digests[1]
    _ok("C7 determinism: bundles (sidecar included) and reports "
        "byte-identical across runs")


def test_c8_performance(tmp_path, monkeypatch):
    """C8: 15 three-minute 14-channel sessions analyzed in < 5 s on one
    thread."""
    script = tuple(
        ScriptSentence(10.0 + 30.0 * i, tuple(
            ScriptKey(0.5, KeyClass.INSERT, c) for c in "hello world"))
        for i in range(5))
    bundles = []
    for i in range(15):
        spec = SimSpec(duration_s=180.0, components=(
            BandComponent(6.0, 2.0), BandComponent(10.0, 2.0),
            BandComponent(20.0, 1.5)), noise_sigma=0.25,
            script=script, seed=9000 + i)
        meta = SessionMeta(f"p{i % 5 + 1:02d}", "ABC"[i % 3], i // 5)
        bundle = tmp_path / f"perf{i:02d}"
        write_session(simulate_session(spec, meta), bundle)
        bundles.append(str(bundle))
    total_samples = 15 * 180 * 128
    assert total_samples == 345_600  # per channel; x14 channels on disk
    # the gate times the eeg.csv parser, not the binary sidecar
    for bundle in bundles:
        (Path(bundle) / EEG_SIDECAR).unlink()

    # gtl analyze would run one worker per usable CPU
    monkeypatch.setattr(ingest, "_usable_cpus", lambda: 1)
    out = tmp_path / "report.json"
    t0 = time.time()
    rc = main(["analyze", "--session", *bundles, "--out", str(out)])
    elapsed = time.time() - t0
    assert rc == 0
    assert elapsed < 5.0
    _ok(f"C8 performance: 15 sessions analyzed from eeg.csv in "
        f"{elapsed:.2f} s single-threaded")


def test_sidecar_and_csv_give_identical_reports(tmp_path):
    """Reports from bundles with sidecars equal those from eeg.csv alone,
    byte for byte, in both formats at every aggregation level."""
    sessions = [(meta, spec) for meta, spec in study_sessions()
                if meta.participant_id in ("p01", "p02")
                and meta.session_index in (0, 1)]
    with_sidecar, bare = [], []
    for i, (meta, spec) in enumerate(sessions):
        bundle = tmp_path / f"s{i:02d}"
        write_session(simulate_session(spec, meta), bundle)
        shutil.copytree(bundle, tmp_path / f"bare{i:02d}",
                        ignore=shutil.ignore_patterns(EEG_SIDECAR))
        with_sidecar.append(load_session(bundle))
        bare.append(load_session(tmp_path / f"bare{i:02d}"))
    for level in AGGREGATION_LEVELS:
        config = ReportConfig(level=level)
        fast, slow = (build_report(records, config)
                      for records in (with_sidecar, bare))
        assert render_json(fast) == render_json(slow)
        assert render_csv(fast) == render_csv(slow)
    _ok(f"sidecar: {len(sessions)} sessions give byte-identical json and "
        f"csv reports with and without sidecars at "
        f"{len(AGGREGATION_LEVELS)} levels")
