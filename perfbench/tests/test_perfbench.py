"""Tests of the benchmark itself, on corpora small enough to run in
seconds:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gtl.simgen import StudyDesign  # noqa: E402

SMALL_STUDY = StudyDesign(participants=1, sessions_per_keyboard=1,
                          sentences_per_session=3, seed=7)


def _make(name: str, work: Path) -> workloads.Workload:
    work.mkdir(parents=True, exist_ok=True)
    if name == "study":
        return workloads.InMemoryReport(work, "study_report", SMALL_STUDY)
    return workloads.C8Analyze(work, seed=7, n_bundles=3)


def _small(name: str, work: Path) -> workloads.Workload:
    wl = _make(name, work)
    wl.setup()
    assert wl.settle() == []
    return wl


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A small C8 corpus with one plain and one traced ``gtl analyze``."""
    wl = _small("analyze", tmp_path_factory.mktemp("analyze"))
    return wl, wl.run_pass(), run._traced_pass(wl)


@pytest.mark.parametrize("name", ["study", "analyze"])
def test_counts_repeat_across_traced_runs(tmp_path, name):
    counts = []
    for attempt in ("a", "b"):
        wl = _make(name, tmp_path / attempt)
        tracer = tracing.Tracer()
        with tracer.installed():
            wl.setup()
        assert wl.settle() == []
        out = run._traced_pass(wl)
        assert wl.check(out) == []
        setup = tracing.pass_metrics(tracer.spans)
        passed = tracing.pass_metrics(out.spans)
        counts.append({k: (setup[k], passed[k])
                       for k in tracing.EXACT_COUNTS})
    assert counts[0] == counts[1]
    in_pass = {
        "study": ("spectral.channel_windows", "spectral.transform_flops",
                  "model.sentences.calls"),
        "analyze": ("spectral.channel_windows", "ingest.bytes_read",
                    "model.sentences.calls"),
    }[name]
    assert all(counts[0][k][1] > 0 for k in in_pass)
    assert counts[0]["simgen.samples"][0] > 0
    if name == "analyze":
        assert counts[0]["ingest.bytes_written"][0] > 0


def test_report_bytes_unchanged_by_tracing(tmp_path, analyzed):
    wl = _small("study", tmp_path)
    plain, traced = wl.run_pass(), run._traced_pass(wl)
    assert traced.spans and plain.output == traced.output

    _, plain, traced = analyzed
    assert traced.spans and plain.exit_code == traced.exit_code == 0
    assert plain.output == traced.output


def _bump_windows(rep):
    rep["sessions"][0]["load"]["n_windows"] += 1


def _drop_windows(rep):
    rep["sessions"][0]["load"]["dropped_windows"] = 1


def _shift_mean(rep):
    rep["load_groups"]["by_keyboard"][0]["boxplot"]["mean"] += 0.03


def _add_violation(rep):
    rep["sessions"][0]["violations"].append({"code": "X", "message": "x"})


def _lose_session(rep):
    rep["sessions"].pop()


def _nudge_wpm(rep):
    sentence = rep["sessions"][0]["metrics"]["sentences"][0]
    sentence["wpm"] = sentence["wpm"] * (1 + 1e-15)


@pytest.mark.parametrize("corrupt", [_bump_windows, _drop_windows,
                                     _shift_mean, _add_violation,
                                     _lose_session, _nudge_wpm])
def test_corrupted_report_fails_check(analyzed, corrupt):
    wl, plain, _ = analyzed
    rep = json.loads(plain.output)
    assert workloads.check_report(rep, wl.expected) == []
    bad = copy.deepcopy(rep)
    corrupt(bad)
    assert workloads.check_report(bad, wl.expected)


def test_nonzero_exit_fails_check(analyzed):
    wl, plain, _ = analyzed
    failed = copy.copy(plain)
    failed.exit_code = 2
    assert wl.check(failed)


def test_corrupted_bundle_fails_corpus_check(analyzed):
    wl, _, _ = analyzed
    eeg = wl.bundles[1] / "eeg.csv"
    original = eeg.read_text()
    lines = original.splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)
    lines[5] = ",".join(cells)
    eeg.write_text("".join(lines))
    try:
        assert wl.settle()
    finally:
        eeg.write_text(original)
    assert wl.settle() == []


def test_missing_target_reported_absent():
    import gtl.report
    original = gtl.report.build_report
    targets = (
        tracing.Target("gtl.report", "no_such_function", "x"),
        tracing.Target("gtl.no_such_module", "f", "y"),
        tracing.Target("gtl.model", "EventLog.no_such_method", "z"),
        tracing.Target("gtl.report", "build_report", "report.build_report"),
    )
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        assert gtl.report.build_report is not original
    assert gtl.report.build_report is original
    assert tracer.absent == ["gtl.report.no_such_function",
                             "gtl.no_such_module.f",
                             "gtl.model.EventLog.no_such_method"]


def test_every_target_present_at_this_commit():
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
