import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gtl.cli
from gtl.cli import _build_parser, main
from gtl.ingest import EEG_SIDECAR, load_session, write_session
from gtl.model import Event, EventLog, KeyClass, SessionMeta
from gtl.report import (ReportConfig, analyze_session, build_report,
                        render_csv, render_json)
from gtl.segmentation import AGGREGATION_LEVELS
from gtl.simgen import simspec_from_dict, study_sessions, simulate_session

from conftest import ODD_JSON_VALUES, make_event_log, make_record, strict_json


#: A well-formed gaze.csv: checked on load, kept nowhere.
GAZE_CSV = (b"t,x,y,valid\n0.0,640.0,360.0,1\n0.5,641.5,359.25,0\n"
            b"0.5,-3.0,1e3,1\n")


@pytest.fixture
def spec_file(tmp_path) -> Path:
    keystrokes = ([{"dt": 0.5, "class": "INSERT", "produced": "h"},
                   {"dt": 1.0, "class": "SUGG", "produced": "ello "},
                   {"dt": 1.0, "class": "BKSP", "produced": ""}]
                  + [{"dt": 1.0, "class": "INSERT", "produced": c}
                     for c in " there"])
    spec = {
        "duration_s": 60.0,
        "components": [{"freq": 20.0, "amplitude": 8.0}],
        "seed": 21,
        # three ~8.5 s sentences, long enough for windows to earn labels
        "script": [{"shown_t": 10.0 + 15.0 * i, "keystrokes": keystrokes}
                   for i in range(3)],
        "meta": {"participant_id": "p01", "keyboard": "A", "session_index": 1},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def _numbers_from_json(obj, out):
    if isinstance(obj, dict):
        for v in obj.values():
            _numbers_from_json(v, out)
    elif isinstance(obj, list):
        for v in obj:
            _numbers_from_json(v, out)
    elif isinstance(obj, float):
        out.append(obj)


class TestSimulateAnalyze:
    def test_simulate_then_analyze_matches_oracle(self, tmp_path, spec_file,
                                                  capsys):
        bundle = tmp_path / "bundle"
        assert main(["simulate", "--spec", str(spec_file),
                     "--out", str(bundle)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["analyze", "--session", str(bundle),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        # a pure 20 Hz component must put essentially all power in Beta
        assert report["sessions"][0]["load"]["mean"] >= 0.99
        assert report["sessions"][0]["violations"] == []
        # a bare analyze command runs the default configuration
        assert report["config"] == ReportConfig().to_dict()
        assert report["config_hash"] == ReportConfig().hash()
        # published reference values ride along as context, never as output
        ref = report["not_reproduced"]
        assert ref["beta_ratio_means"] == {"A": 0.0865, "B": 0.0860, "C": 0.0824}
        assert ref["wpm_grand_means"] == {"A": 9.20, "B": 8.60, "C": 9.05}
        assert ref["keystrokes_saved_pct_means"]["A"] == 39.0018
        assert ref["backspace_usage_means"]["B"] == 6.32

    def test_simulate_writes_the_bound_sidecar(self, tmp_path, spec_file):
        bundle = tmp_path / "bundle"
        assert main(["simulate", "--spec", str(spec_file),
                     "--out", str(bundle)]) == 0
        sidecar = (bundle / EEG_SIDECAR).read_bytes()
        assert sidecar[:32] == hashlib.sha256(
            (bundle / "eeg.csv").read_bytes()).digest()
        assert load_session(bundle).validation.warnings == []

    def test_bundle_without_sidecar_gives_the_same_report(self, tmp_path,
                                                          spec_file):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        bare = tmp_path / "bare"
        shutil.copytree(bundle, bare, ignore=shutil.ignore_patterns(
            EEG_SIDECAR))
        assert not (bare / EEG_SIDECAR).exists()
        reports = []
        for source in (bundle, bare):
            out = tmp_path / f"{source.name}.json"
            assert main(["analyze", "--session", str(source),
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        # analyze reads bundles and writes only its report
        assert not (bare / EEG_SIDECAR).exists()

    def test_well_formed_gaze_csv_changes_nothing(self, tmp_path, spec_file):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        assert not (bundle / "gaze.csv").exists()
        with_gaze = tmp_path / "with_gaze"
        shutil.copytree(bundle, with_gaze)
        (with_gaze / "gaze.csv").write_bytes(GAZE_CSV)
        assert load_session(with_gaze) == load_session(bundle)
        reports = []
        for source in (bundle, with_gaze):
            out = tmp_path / f"{source.name}.json"
            assert main(["analyze", "--session", str(source),
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("text,row", [
        (b"t,x,y\n0.0,1,2\n", 1),
        (b"t,x,y,valid\n0.0,1,2,1\n0.5,nan,2,1\n", 3),
        (b"t,x,y,valid\n0.0,1,2,2\n", 2),
        (b"t,x,y,valid\n0.5,1,2,1\n0.0,1,2,1\n", 3),
    ], ids=["header", "non-finite", "flag-2", "decreasing-time"])
    def test_malformed_gaze_csv_is_located_io_error(self, tmp_path, spec_file,
                                                   capsys, text, row):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        (bundle / "gaze.csv").write_bytes(text)
        capsys.readouterr()
        rc = main(["analyze", "--session", str(bundle),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 74
        err = capsys.readouterr().err
        assert err.startswith(f"gtl: {bundle}: ")
        assert f"(row {row}" in err

    def test_readme_spec_simulates_and_analyzes(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("The spec file is JSON:\n\n```json\n", 1)[1]
        spec = tmp_path / "spec.json"
        spec.write_text(block.split("```", 1)[0])
        bundle = tmp_path / "bundle"
        assert main(["simulate", "--spec", str(spec),
                     "--out", str(bundle)]) == 0
        assert main(["analyze", "--session", str(bundle),
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_seed_override_changes_bundle(self, tmp_path, spec_file):
        b1, b2, b3 = (tmp_path / n for n in ("b1", "b2", "b3"))
        main(["simulate", "--spec", str(spec_file), "--out", str(b1)])
        main(["simulate", "--spec", str(spec_file), "--out", str(b2)])
        main(["simulate", "--spec", str(spec_file), "--seed", "99",
              "--out", str(b3)])
        assert (b1 / "eeg.csv").read_bytes() == (b2 / "eeg.csv").read_bytes()
        assert (b1 / "eeg.csv").read_bytes() != (b3 / "eeg.csv").read_bytes()

    def test_analyze_is_byte_deterministic(self, tmp_path, spec_file):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", "--session", str(bundle), "--out", str(r1)]) == 0
        assert main(["analyze", "--session", str(bundle), "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_csv_and_json_carry_identical_numbers(self, tmp_path, spec_file):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        rj, rc = tmp_path / "r.json", tmp_path / "r.csv"
        main(["analyze", "--session", str(bundle), "--out", str(rj)])
        main(["analyze", "--session", str(bundle), "--out", str(rc),
              "--format", "csv"])
        report = json.loads(rj.read_text())
        json_numbers = []
        _numbers_from_json(report, json_numbers)
        assert json_numbers
        import csv as csvmod
        import io
        rows = list(csvmod.reader(io.StringIO(rc.read_text())))[1:]
        csv_floats = set()
        for _path, value in rows:
            try:
                csv_floats.add(float(value))
            except ValueError:
                pass
        # every json float reappears verbatim (shortest round-trip repr)
        for x in json_numbers:
            assert x in csv_floats


class TestExitCodes:
    def test_non_power_of_two_window_is_usage_error(self, tmp_path, capsys):
        rc = main(["analyze", "--session", "x", "--out",
                   str(tmp_path / "r.json"), "--window", "1023"])
        assert rc == 64
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--hop", "0"], ["--hop", "2048"],
        ["--label-threshold", "0"], ["--label-threshold", "nan"],
    ], ids=["hop-0", "hop-over-window", "threshold-0", "threshold-nan"])
    def test_bad_analysis_option_is_usage_error(self, tmp_path, flags):
        rc = main(["analyze", "--session", "x", "--out",
                   str(tmp_path / "r.json"), *flags])
        assert rc == 64

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["analyze", "--session", "x"]) == 64

    def test_missing_session_dir_is_io_error(self, tmp_path):
        rc = main(["analyze", "--session", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 74

    def test_ingest_error_names_the_bundle(self, tmp_path, spec_file,
                                           capsys):
        good, bad = tmp_path / "good", tmp_path / "bad"
        for bundle in (good, bad):
            main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        events = (bad / "events.csv").read_text()
        (bad / "events.csv").write_text("x" + events[events.index(","):])
        capsys.readouterr()
        out = tmp_path / "r.json"
        rc = main(["analyze", "--session", str(good), str(bad),
                   "--out", str(out)])
        assert rc == 74
        assert capsys.readouterr().err.startswith(
            f"gtl: {bad}: events.csv cell is not a finite decimal number")
        assert not out.exists()

    def test_eeg_header_error_names_row_1(self, tmp_path, spec_file,
                                          capsys):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        eeg = (bundle / "eeg.csv").read_text()
        (bundle / "eeg.csv").write_text("time" + eeg[1:])
        capsys.readouterr()
        rc = main(["analyze", "--session", str(bundle),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 74
        err = capsys.readouterr().err
        assert err.startswith(f"gtl: {bundle}: eeg.csv header must start "
                              f"with 't', got 'time,")
        assert "(row 1)" in err

    @pytest.mark.parametrize("key,value", [
        ("session_index", 0.5), ("session_index", True),
        ("participant_id", None), ("fs_eeg", True), ("fs_eeg", "128"),
    ], ids=["index-0.5", "index-true", "participant-null", "fs-true",
            "fs-string"])
    def test_meta_field_of_the_wrong_kind_is_io_error(self, tmp_path,
                                                      spec_file, capsys,
                                                      key, value):
        # session_index 0.5 used to load as 0: a training session that
        # --include-training off drops without a word
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        meta = json.loads((bundle / "meta.json").read_text())
        (bundle / "meta.json").write_text(json.dumps({**meta, key: value}))
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert main(["analyze", "--session", str(bundle), "--out", str(out),
                     "--include-training", "off"]) == 74
        assert capsys.readouterr().err.startswith(f"gtl: {bundle}: ")
        assert not out.exists()

    def test_validation_violations_exit_2(self, tmp_path):
        # a submitted payload that the keystrokes cannot reproduce
        log = make_event_log([[("INSERT", "a")]])
        events = list(log.events)
        idx = next(i for i, e in enumerate(events)
                   if e.kind.value == "SENTENCE_SUBMIT")
        events[idx] = Event.submit(events[idx].t, "tampered")
        rec = make_record(EventLog(tuple(events)))
        bundle = tmp_path / "bad"
        write_session(rec, bundle)
        out = tmp_path / "r.json"
        rc = main(["analyze", "--session", str(bundle), "--out", str(out)])
        assert rc == 2
        report = json.loads(out.read_text())
        codes = [v["code"] for v in report["sessions"][0]["violations"]]
        assert "TranscriptionMismatch" in codes

    @pytest.mark.parametrize("name", ["meta.json", "eeg.csv", "events.csv"])
    def test_invalid_utf8_is_located_io_error(self, tmp_path, spec_file,
                                              capsys, name):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        lines = (bundle / name).read_bytes().split(b"\n")
        lines[1] += b"\xff"
        (bundle / name).write_bytes(b"\n".join(lines))
        rc = main(["analyze", "--session", str(bundle),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 74
        err = capsys.readouterr().err
        assert f"{name} is not valid UTF-8" in err
        assert "(row 2)" in err

    def test_duplicate_session_exits_2(self, tmp_path, spec_file):
        bundle = str(tmp_path / "bundle")
        main(["simulate", "--spec", str(spec_file), "--out", bundle])
        out = tmp_path / "r.json"
        rc = main(["analyze", "--session", bundle, bundle, "--out", str(out)])
        assert rc == 2
        sessions = json.loads(out.read_text())["sessions"]
        assert [[v["code"] for v in e["violations"]] for e in sessions] == [
            [], ["DuplicateSession"]]

    def test_low_rate_session_is_isolated(self, tmp_path, spec_file):
        good = tmp_path / "good"
        main(["simulate", "--spec", str(spec_file), "--out", str(good)])
        # 24 Hz leaves no room below Nyquist for the default Beta band
        slow = make_record(make_event_log([[("INSERT", "a")]] * 3), fs=24.0,
                           keyboard="B", participant="p02")
        write_session(slow, tmp_path / "slow")
        out = tmp_path / "r.json"
        rc = main(["analyze", "--session", str(good), str(tmp_path / "slow"),
                   "--out", str(out)])
        assert rc == 2
        report = json.loads(out.read_text())
        ok, bad = report["sessions"]
        assert ok["violations"] == [] and ok["load"]["n_windows"] > 0
        assert [v["code"] for v in bad["violations"]] == ["AnalysisError"]
        assert "fs=24.0" in bad["violations"][0]["message"]
        assert bad["load"] is None and bad["metrics"] is None
        assert [g["keyboard"] for g in report["load_groups"]["by_keyboard"]] \
            == ["A"]

    def test_overflowing_metric_fails_only_its_test(self, tmp_path):
        # a 1e-160 s sentence types at ~1e161 wpm: the mean_wpm ANOVA
        # overflows, and the report is still written
        tiny = EventLog((
            Event.session_start(0.0), Event.shown(0.0, "ab"),
            Event.key(3e-161, KeyClass.INSERT, "a"),
            Event.key(6e-161, KeyClass.INSERT, "b"),
            Event.submit(1e-160, "ab"), Event.session_end(1.0)))
        paths = []
        for participant in ("p01", "p02"):
            for keyboard in ("A", "B"):
                log = (tiny if (participant, keyboard) == ("p01", "A") else
                       make_event_log([[("INSERT", "h"), ("INSERT", "i")]]))
                bundle = tmp_path / f"{participant}{keyboard}"
                write_session(make_record(log, keyboard=keyboard,
                                          participant=participant), bundle)
                paths.append(str(bundle))
        out = tmp_path / "r.json"
        assert main(["analyze", "--session", *paths, "--out", str(out)]) == 0
        warnings = json.loads(out.read_text())["warnings"]
        assert any(w.startswith("anova on mean_wpm failed:")
                   and "overflows the float range" in w for w in warnings)

    def test_sentenceless_session_exits_0_without_metrics(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"duration_s": 20.0}')
        bundle, out = tmp_path / "b", tmp_path / "r.json"
        assert main(["simulate", "--spec", str(spec), "--out",
                     str(bundle)]) == 0
        assert main(["analyze", "--session", str(bundle),
                     "--out", str(out)]) == 0
        (entry,) = json.loads(out.read_text())["sessions"]
        assert entry["violations"] == [] and entry["load"] is not None
        assert entry["metrics"] is None
        assert "metrics unavailable: session has no sentence" \
            in entry["warnings"]

    def test_overflowing_sentence_duration_exits_2_without_metrics(
            self, tmp_path):
        # the sentence spans 1e308 - (-1e308) = inf seconds; its events
        # lie outside the EEG span, hence exit 2, and the report used to
        # hold "duration_s": Infinity
        spec = tmp_path / "spec.json"
        spec.write_text('{"duration_s": 20.0, "n_channels": 2}')
        bundle, out = tmp_path / "b", tmp_path / "r.json"
        assert main(["simulate", "--spec", str(spec), "--out",
                     str(bundle)]) == 0
        (bundle / "events.csv").write_text(
            "-1e308,SESSION_START,,\n-1e308,SENTENCE_SHOWN,ab,\n"
            "0.0,KEY,INSERT,a\n0.5,KEY,INSERT,b\n"
            "1e308,SENTENCE_SUBMIT,ab,\n1e308,SESSION_END,,\n")
        assert main(["analyze", "--session", str(bundle),
                     "--out", str(out)]) == 2
        (entry,) = strict_json(out.read_text())["sessions"]
        assert entry["metrics"] is None
        assert ("metrics unavailable: duration of sentence 0 overflows "
                "the float range") in entry["warnings"]

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_channel_name_eeg_csv_cannot_hold_is_usage_error(self, tmp_path,
                                                            name):
        # the bundle used to be written, then fail to load: its eeg.csv
        # header splits the name
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"duration_s": 10.0, "n_channels": 2,
                                    "meta": {"channels": [name, "c"]}}))
        assert main(["simulate", "--spec", str(spec), "--out",
                     str(tmp_path / "b")]) == 64
        assert not (tmp_path / "b").exists()

    def test_channel_name_eeg_csv_cannot_hold_names_the_field(
            self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"duration_s": 10.0, "n_channels": 2}')
        bundle = tmp_path / "b"
        assert main(["simulate", "--spec", str(spec), "--out",
                     str(bundle)]) == 0
        meta = json.loads((bundle / "meta.json").read_text())
        (bundle / "meta.json").write_text(
            json.dumps({**meta, "channels": ["a,b", "c"]}))
        (bundle / "eeg.csv").write_text(
            (bundle / "eeg.csv").read_text().replace("t,ch1,ch2", "t,a,b,c", 1))
        capsys.readouterr()
        assert main(["analyze", "--session", str(bundle), "--out",
                     str(tmp_path / "r.json")]) == 74
        assert "channel_names may not contain" in capsys.readouterr().err

    def test_bad_spec_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"duration_s\": -3}")
        rc = main(["simulate", "--spec", str(bad), "--out", str(tmp_path / "b")])
        assert rc == 64

    @pytest.mark.parametrize("edit", [
        lambda spec: [],
        lambda spec: {**spec, "meta": []},
        lambda spec: {**spec, "meta": {"session_index": float("inf")}},
        lambda spec: {**spec, "meta": {"keyboard": "Z"}},
        lambda spec: {**spec, "duration_s": float("inf")},
        lambda spec: {**spec, "n_channels": 2.9},
        lambda spec: {**spec, "seed": 1.5},
        lambda spec: {**spec, "noise_sgima": 0.5},
        lambda spec: {**spec, "meta": {"session_index": 0.5}},
        # over the memory budget: these used to end in a MemoryError or
        # an OverflowError traceback
        lambda spec: {**spec, "n_channels": 10 ** 9},
        lambda spec: {**spec, "n_channels": 10 ** 400},
        lambda spec: {**spec, "duration_s": 1e308},
        # no sample per channel, yet ~10 GB of channel names and seeds
        lambda spec: {**spec, "duration_s": 0.001, "n_channels": 160_000_000,
                      "script": []},
        # gaze is no longer simulated: an unknown key
        lambda spec: {**spec, "gaze_rate": 60.0},
    ], ids=["list", "meta-list", "index-1e400", "keyboard-Z", "duration-inf",
            "channels-2.9", "seed-1.5", "misspelled-key", "index-0.5",
            "channels-1e9", "channels-1e400", "duration-1e308",
            "channels-1.6e8-no-samples", "gaze-rate"])
    def test_malformed_spec_is_usage_error(self, tmp_path, spec_file, edit):
        spec = edit(json.loads(spec_file.read_text()))
        # json writes inf as Infinity; 1e400 decodes to the same float
        spec_file.write_text(json.dumps(spec).replace("Infinity", "1e400"))
        rc = main(["simulate", "--spec", str(spec_file),
                   "--out", str(tmp_path / "b")])
        assert rc == 64

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_u64_is_usage_error(self, tmp_path, spec_file,
                                             seed):
        # --seed -1 used to be masked to 2^64 - 1 without a word
        rc = main(["simulate", "--spec", str(spec_file), "--seed", seed,
                   "--out", str(tmp_path / "b")])
        assert rc == 64
        assert not (tmp_path / "b").exists()

    def test_spec_of_no_sample_is_usage_error(self, tmp_path, spec_file,
                                             capsys):
        # 0.001 s at 128 Hz rounds to no sample: the bundle used to hold an
        # eeg.csv header only, which gtl analyze then refused with exit 74
        spec_file.write_text(json.dumps({"duration_s": 0.001}))
        rc = main(["simulate", "--spec", str(spec_file),
                   "--out", str(tmp_path / "b")])
        assert rc == 64
        assert "no EEG sample" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_spec_of_one_sample_simulates_and_loads(self, tmp_path,
                                                    spec_file):
        spec_file.write_text(json.dumps({"duration_s": 0.008}))
        bundle = tmp_path / "b"
        assert main(["simulate", "--spec", str(spec_file),
                     "--out", str(bundle)]) == 0
        assert load_session(bundle).eeg.n_samples == 1
        assert main(["analyze", "--session", str(bundle),
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_non_utf8_spec_is_located_io_error(self, tmp_path, spec_file,
                                               capsys):
        spec_file.write_bytes(b'{"duration_s":\n\xff 3}')
        rc = main(["simulate", "--spec", str(spec_file),
                   "--out", str(tmp_path / "b")])
        assert rc == 74
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_missing_spec_is_io_error(self, tmp_path):
        rc = main(["simulate", "--spec", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "b")])
        assert rc == 74


class TestStatsCommand:
    def _write_groups(self, tmp_path, *columns):
        paths = []
        for i, column in enumerate(columns):
            p = tmp_path / f"g{i}.txt"
            p.write_text("\n".join(repr(float(v)) for v in column) + "\n")
            paths.append(str(p))
        return paths

    def test_anova(self, tmp_path, capsys):
        paths = self._write_groups(tmp_path, [1, 2], [3, 4], [5, 6])
        assert main(["stats", "--test", "anova", "--groups", *paths]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["test"] == "anova"
        assert out["statistic"] == pytest.approx(16.0)
        assert out["df"] == [2.0, 3.0]

    def test_ttest_variants(self, tmp_path, capsys):
        rng = np.random.default_rng(30)
        a = rng.standard_normal(10)
        b = rng.standard_normal(10) + 0.5
        paths = self._write_groups(tmp_path, a, b)
        assert main(["stats", "--test", "ttest", "--groups", *paths]) == 0
        student = json.loads(capsys.readouterr().out)
        assert student["test"] == "ttest-student"
        assert main(["stats", "--test", "ttest", "--variant", "welch",
                     "--groups", *paths]) == 0
        welch = json.loads(capsys.readouterr().out)
        assert welch["test"] == "ttest-welch"
        assert student["df"] == [18.0]

    def test_degenerate_input_exits_3(self, tmp_path):
        paths = self._write_groups(tmp_path, [2.0, 2.0], [2.0, 2.0])
        assert main(["stats", "--test", "ttest", "--groups", *paths]) == 3

    def test_constant_groups_with_different_means_exit_3(self, tmp_path,
                                                         capsys):
        # F and t are undefined, and Infinity is not JSON
        paths = self._write_groups(tmp_path, [1, 1], [2, 2])
        for test in (["ttest"], ["ttest", "--variant", "welch"], ["anova"]):
            assert main(["stats", "--test", *test, "--groups", *paths]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "constant" in captured.err

    def test_overflow_exits_3(self, tmp_path, capsys):
        paths = self._write_groups(tmp_path, [1e308, -1e308], [3, 4])
        for test in (["ttest"], ["ttest", "--variant", "welch"], ["anova"]):
            assert main(["stats", "--test", *test, "--groups", *paths]) == 3
            assert "overflows the float range" in capsys.readouterr().err

    def test_overflowing_t_statistic_exits_3(self, tmp_path, capsys):
        # every sum is finite, but t = 1e300 / 5e-161 is not
        paths = self._write_groups(tmp_path, [1e300, 1e300], [0, 1e-160])
        assert main(["stats", "--test", "ttest", "--groups", *paths]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "t statistic overflows the float range" in captured.err

    @pytest.mark.parametrize("bad", [
        b"nan", b"inf", b"-inf", b"\xff", b"1_0", "\u0661".encode(), b"  ",
        b"1,2"])
    def test_bad_value_is_located_io_error(self, tmp_path, capsys, bad):
        paths = self._write_groups(tmp_path, [1, 2], [3, 4])
        Path(paths[1]).write_bytes(b"3\n" + bad + b"\n4\n")
        assert main(["stats", "--test", "ttest", "--groups", *paths]) == 74
        assert "(row 2)" in capsys.readouterr().err

    def test_ttest_needs_two_groups(self, tmp_path):
        paths = self._write_groups(tmp_path, [1, 2], [3, 4], [5, 6])
        assert main(["stats", "--test", "ttest", "--groups", *paths]) == 64


class TestAnalysisFlags:
    def test_flags_are_the_report_config_fields(self):
        (sub,) = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in sub.choices["analyze"]._actions}
        assert dests - {"help", "session", "out", "format"} == {
            f.name for f in dataclasses.fields(ReportConfig)}

    def test_bare_parse_builds_the_default_config(self):
        args = _build_parser().parse_args(
            ["analyze", "--session", "x", "--out", "y"])
        config = ReportConfig(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(ReportConfig)})
        assert config == ReportConfig()
        assert config.hash() == ReportConfig().hash()

    def test_alternate_window_functions_and_detrend(self, tmp_path, spec_file):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        for extra in (["--win-fn", "hann"],
                      ["--win-fn", "rect", "--detrend", "off"],
                      ["--window", "512", "--hop", "256"]):
            out = tmp_path / ("r_" + "_".join(extra).replace("-", "") + ".json")
            rc = main(["analyze", "--session", str(bundle),
                       "--out", str(out), *extra])
            assert rc == 0
            report = json.loads(out.read_text())
            # the 20 Hz tone dominates Beta under every windowing variant
            assert report["sessions"][0]["load"]["mean"] >= 0.95

    @pytest.mark.parametrize("level", ["window", "sentence", "session",
                                       "participant"])
    def test_aggregation_levels(self, tmp_path, spec_file, level):
        bundle = tmp_path / "bundle"
        main(["simulate", "--spec", str(spec_file), "--out", str(bundle)])
        out = tmp_path / f"r_{level}.json"
        assert main(["analyze", "--session", str(bundle), "--out", str(out),
                     "--level", level]) == 0
        report = json.loads(out.read_text())
        by_kb = report["load_groups"]["by_keyboard"]
        assert by_kb and by_kb[0]["boxplot"]["n"] >= 1

    def test_repeated_bundle_is_averaged_at_window_level(self, tmp_path,
                                                         spec_file):
        # equal Alpha and Beta tones: every window carries about 0.5 Beta
        spec = json.loads(spec_file.read_text())
        spec["components"] = [{"freq": 10.0, "amplitude": 8.0},
                              {"freq": 20.0, "amplitude": 8.0}]
        spec_file.write_text(json.dumps(spec))
        bundle = str(tmp_path / "bundle")
        main(["simulate", "--spec", str(spec_file), "--out", bundle])
        out = tmp_path / "r.json"
        # exit 2: the second copy is a DuplicateSession violation
        assert main(["analyze", "--session", bundle, bundle, "--out", str(out),
                     "--level", "window"]) == 2
        report = json.loads(out.read_text())
        mean = report["load_groups"]["by_keyboard"][0]["boxplot"]["mean"]
        assert abs(mean - 0.5) <= 0.02


#: (participant, keyboard, session_index, seed) of the bundles that
#: TestStreaming analyses; the last one is a second recording of the first
#: session.
_STREAM_SESSIONS = (("p01", "A", 1, 1), ("p01", "B", 1, 2), ("p02", "A", 1, 3),
                    ("p02", "B", 1, 4), ("p01", "A", 1, 5))


@pytest.fixture(scope="module")
def stream_bundles(tmp_path_factory) -> list[str]:
    """Short simulated bundles of _STREAM_SESSIONS, built once."""
    root = tmp_path_factory.mktemp("stream")
    keystrokes = [{"dt": 0.5, "class": "INSERT", "produced": "h"},
                  {"dt": 0.5, "class": "SUGG", "produced": "ello"}]
    bundles = []
    for participant, keyboard, index, seed in _STREAM_SESSIONS:
        spec = simspec_from_dict({
            "duration_s": 30.0, "n_channels": 2, "seed": seed,
            "noise_sigma": 4.0,
            "components": [{"freq": 10.0, "amplitude": 8.0},
                           {"freq": 20.0, "amplitude": 8.0}],
            "script": [{"shown_t": 5.0 + 10.0 * i, "keystrokes": keystrokes}
                       for i in range(2)]})
        meta = SessionMeta(participant, keyboard, index, spec.fs,
                           ("ch1", "ch2"))
        bundle = root / f"{participant}{keyboard}{index}-{seed}"
        write_session(simulate_session(spec, meta), bundle)
        bundles.append(str(bundle))
    return bundles


class TestStreaming:
    def test_analyze_holds_one_record_at_a_time(self, tmp_path, monkeypatch,
                                                stream_bundles):
        loaded = []
        real = gtl.cli.load_session

        def load_after_the_last_is_gone(path):
            # CPython frees a record with its last reference
            assert all(ref() is None for ref in loaded), \
                f"a record is still held when {path} loads"
            rec = real(path)
            loaded.append(weakref.ref(rec))
            return rec

        monkeypatch.setattr(gtl.cli, "load_session",
                            load_after_the_last_is_gone)
        out = tmp_path / "r.json"
        rc = main(["analyze", "--session", *stream_bundles[:4],
                   "--out", str(out)])
        assert rc == 0
        assert len(loaded) == 4
        assert len(json.loads(out.read_text())["sessions"]) == 4

    @pytest.mark.parametrize("level", AGGREGATION_LEVELS)
    def test_streamed_report_is_the_list_report(self, tmp_path,
                                                stream_bundles, level):
        first, p01b, p02a, p02b, again = stream_bundles
        # shuffled, with one bundle twice and one session recorded twice
        order = [p02b, again, p01b, first, p02a, p02b]
        config = ReportConfig(level=level)
        expected = build_report([load_session(p) for p in order], config)
        for fmt, render in (("json", render_json), ("csv", render_csv)):
            out = tmp_path / f"r.{fmt}"
            assert main(["analyze", "--session", *order, "--out", str(out),
                         "--format", fmt, "--level", level]) == 2
            assert out.read_text(encoding="utf-8") == render(expected)
        sessions = expected["sessions"]
        codes = [[v["code"] for v in e["violations"]] for e in sessions]
        assert codes == [[], ["DuplicateSession"], [], [], [],
                         ["DuplicateSession"]]
        # the copy given later carries the violation: the p01/A entry with
        # it is the bundle passed after the other recording of p01/A
        later, _ = analyze_session(load_session(first), config)
        assert sessions[1]["load"] == later["load"]
        assert sessions[0]["load"] != later["load"]


class TestReportStructure:
    def test_study_slice_report_groups_and_tests(self, tmp_path):
        # two participants x two keyboards, sessions 0 (training) and 1
        sessions = [
            (meta, spec) for meta, spec in study_sessions()
            if meta.participant_id in ("p01", "p02")
            and meta.keyboard in ("A", "C") and meta.session_index in (0, 1)
        ]
        bundles = []
        for i, (meta, spec) in enumerate(sessions):
            rec = simulate_session(spec, meta)
            b = tmp_path / f"s{i}"
            write_session(rec, b)
            bundles.append(str(b))
        out = tmp_path / "rep.json"
        assert main(["analyze", "--session", *bundles, "--out", str(out),
                     "--level", "session"]) == 0
        report = json.loads(out.read_text())
        assert len(report["sessions"]) == 8
        kb_groups = {e["keyboard"] for e in report["load_groups"]["by_keyboard"]}
        assert kb_groups == {"A", "C"}
        phases = {e["phase"] for e in report["load_groups"]["by_keyboard_phase"]}
        assert "Pre" in phases and "S1" in phases
        tests = {t["metric"] for t in report["tests"]}
        assert "load_session" in tests
        assert "mean_wpm" in tests


_DOCUMENTED_EXITS = {0, 2, 3, 64, 74}
_BUNDLE_FILES = ("meta.json", "eeg.csv", "events.csv", "gaze.csv",
                 EEG_SIDECAR)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory) -> dict[str, bytes]:
    """Input files of one short simulated session, built once."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = {"duration_s": 20.0, "n_channels": 2, "seed": 3,
            "components": [{"freq": 20.0, "amplitude": 8.0}],
            "script": [{"shown_t": 5.0, "keystrokes": [
                {"dt": 0.5, "class": "INSERT", "produced": "h"},
                {"dt": 0.5, "class": "SUGG", "produced": "ello"},
                {"dt": 0.5, "class": "BKSP", "produced": ""}]}]}
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(root / "spec.json"),
                 "--out", str(root / "bundle")]) == 0
    base = {name: (root / "bundle" / name).read_bytes()
            for name in _BUNDLE_FILES if name != "gaze.csv"}
    base["gaze.csv"] = GAZE_CSV
    base["spec.json"] = (root / "spec.json").read_bytes()
    base["group.txt"] = b"0.5\n0.25\n0.75\n"
    return base


#: Exits of a json file with one field of another kind: it loads (and the
#: run ends as usual) or it is the reader's own error.
_FIELD_EXITS = {"meta.json": {0, 2, 74}, "spec.json": {0, 64}}


@st.composite
def _damage(draw, base: dict[str, bytes]) -> tuple[str, bytes, set[int]]:
    """One input file with a span replaced by arbitrary bytes, or whole
    arbitrary bytes, or a json file with one field set to an odd value;
    with the exits it may end in. The spec gets no splice: one into
    duration_s could ask for a simulation that is long, yet under the
    size caps."""
    name = draw(st.sampled_from(sorted(base)))
    data = base[name]
    if name in _FIELD_EXITS and draw(st.booleans()):
        obj = json.loads(data)
        key = draw(st.sampled_from(sorted(obj)))
        text = draw(st.sampled_from(ODD_JSON_VALUES))
        return (name, json.dumps({**obj, key: json.loads(text)}).encode(),
                _FIELD_EXITS[name])
    if name == "spec.json" or draw(st.booleans()):
        return name, draw(st.binary(max_size=64)), _DOCUMENTED_EXITS
    i = draw(st.integers(0, len(data)))
    j = draw(st.integers(i, min(len(data), i + 16)))
    return (name, data[:i] + draw(st.binary(max_size=16)) + data[j:],
            _DOCUMENTED_EXITS)


class TestArbitraryInputBytes:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_every_input_ends_in_a_documented_exit(self, fuzz_base, data):
        name, damaged, exits = data.draw(_damage(fuzz_base))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            bundle = root / "bundle"
            bundle.mkdir()
            for f in _BUNDLE_FILES:
                (bundle / f).write_bytes(fuzz_base[f])
            if name == "spec.json":
                (root / name).write_bytes(damaged)
                argv = ["simulate", "--spec", str(root / name),
                        "--out", str(root / "out")]
            elif name == "group.txt":
                (root / name).write_bytes(damaged)
                (root / "other.txt").write_bytes(b"0.1\n0.3\n")
                argv = ["stats", "--test", "ttest", "--groups",
                        str(root / name), str(root / "other.txt")]
            else:
                (bundle / name).write_bytes(damaged)
                argv = ["analyze", "--session", str(bundle),
                        "--out", str(root / "r.json")]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            assert code in exits
            # whatever is written is JSON proper: no NaN, no Infinity
            if name == "group.txt" and code == 0:
                strict_json(stdout.getvalue())
            elif argv[0] == "analyze" and code in (0, 2):
                strict_json((root / "r.json").read_text())
