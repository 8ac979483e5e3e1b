"""The benchmark's three workloads: corpora built with ``gtl.simgen`` from a
seed, one timed pass each, and the check of every pass against the
generator's ground truth.

A pass calls gtl through module attributes (``report.build_report``, not
an imported name) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from gtl import ingest, report, simgen
from gtl.model import KeyClass, SessionMeta, SessionRecord
from gtl.simgen import (
    STUDY_TARGET_BETA,
    BandComponent,
    ScriptKey,
    ScriptSentence,
    SimSpec,
    SplitMix64,
    StudyDesign,
)
from gtl.spectral import default_bands, window_count

from tracing import Span

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_CHILD = HERE / "cli_child.py"

CONFIG = report.ReportConfig()

#: Tolerances the acceptance suite already states: C4 for the study
#: targets, C3 for a composition recovered through the on-disk path.
STUDY_TOL = 0.005
COMPOSITION_TOL = 0.02

C8_TEXT = "hello world"
C8_COMPONENTS = (BandComponent(6.0, 2.0), BandComponent(10.0, 2.0),
                 BandComponent(20.0, 1.5))


@dataclass
class Outcome:
    """What one pass produced; ``wall_s`` covers the timed part only."""

    wall_s: float
    output: bytes = b""
    report: Optional[dict] = None
    exit_code: int = 0
    peak_rss_kb: Optional[int] = None
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    traced: bool = False
    stderr: str = ""
    sha256: str = ""

    def release(self) -> None:
        """Keep the digest and drop the payload, so that the passes kept
        for the summary hold no memory that later passes would count."""
        self.sha256 = hashlib.sha256(self.output).hexdigest()
        self.output, self.report = b"", None


# --- ground truth ---------------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """What a correct report on a corpus must contain."""

    windows: dict[tuple[str, str, int], int]  # session -> window count
    beta: dict[str, float]                    # keyboard -> target mean load
    beta_tol: float
    sentence_wpm: Optional[float] = None      # exact, when scripts are fixed
    sentence_kspc: Optional[float] = None

    @classmethod
    def for_cases(cls, cases: Sequence[tuple[SessionMeta, SimSpec]],
                  beta: dict[str, float], beta_tol: float,
                  **exact) -> "Expected":
        windows = {}
        for meta, spec in cases:
            n_samples = int(round(spec.duration_s * spec.fs))
            key = (meta.participant_id, meta.keyboard, meta.session_index)
            windows[key] = window_count(n_samples, CONFIG.window_len,
                                        CONFIG.hop)
        return cls(windows, beta, beta_tol, **exact)


def check_report(rep: dict, expected: Expected) -> list[str]:
    """Every way ``rep`` departs from the ground truth, empty if none."""
    problems: list[str] = []
    sessions = rep.get("sessions", [])
    if len(sessions) != len(expected.windows):
        problems.append(f"{len(sessions)} sessions, expected "
                        f"{len(expected.windows)}")
    for s in sessions:
        key = (s["participant"], s["keyboard"], s["session_index"])
        if s["violations"]:
            problems.append(f"session {key}: violations {s['violations']}")
        want = expected.windows.get(key)
        if s["load"]["n_windows"] != want:
            problems.append(f"session {key}: {s['load']['n_windows']} "
                            f"windows, expected {want}")
        if s["load"]["dropped_windows"] != 0:
            problems.append(f"session {key}: "
                            f"{s['load']['dropped_windows']} dropped windows")
        if expected.sentence_wpm is not None:
            sentences = (s["metrics"] or {}).get("sentences", [])
            if not sentences:
                problems.append(f"session {key}: no sentence metrics")
            for m in sentences:
                if (m["wpm"], m["kspc"]) != (expected.sentence_wpm,
                                             expected.sentence_kspc):
                    problems.append(
                        f"session {key} sentence {m['index']}: wpm "
                        f"{m['wpm']!r} kspc {m['kspc']!r}, expected "
                        f"{expected.sentence_wpm!r} "
                        f"{expected.sentence_kspc!r}")
    means = {g["keyboard"]: g["boxplot"]["mean"]
             for g in rep.get("load_groups", {}).get("by_keyboard", [])}
    for kb, target in expected.beta.items():
        got = means.get(kb)
        if got is None or abs(got - target) > expected.beta_tol:
            problems.append(f"keyboard {kb}: mean load {got!r}, expected "
                            f"{target} +/- {expected.beta_tol}")
    return problems


# --- corpora --------------------------------------------------------------------

def c8_cases(seed: int, n_bundles: int = 15,
             ) -> list[tuple[SessionMeta, SimSpec]]:
    """The acceptance suite's C8 shape: 180 s x 14 channels at 128 Hz,
    five scripted "hello world" sentences, spec seeds drawn from ``seed``.
    """
    script = tuple(
        ScriptSentence(10.0 + 30.0 * i, tuple(
            ScriptKey(0.5, KeyClass.INSERT, c) for c in C8_TEXT))
        for i in range(5))
    seeds = SplitMix64(seed)
    return [(SessionMeta(f"p{i % 5 + 1:02d}", "ABC"[i % 3], i // 5),
             SimSpec(duration_s=180.0, components=C8_COMPONENTS,
                     noise_sigma=0.25, script=script,
                     seed=seeds.next_u64()))
            for i in range(n_bundles)]


def c8_expected(cases: Sequence[tuple[SessionMeta, SimSpec]]) -> Expected:
    """Noiseless beta share for every keyboard; scripted WPM and KSPC."""
    spec = cases[0][1]
    beta = simgen.expected_composition(
        dataclasses.replace(spec, noise_sigma=0.0),
        default_bands(spec.fs)).fraction("Beta")
    sentence = spec.script[0]
    t = sentence.shown_t
    for key in sentence.keys:
        t += key.dt
    duration = t - sentence.shown_t
    n = len(C8_TEXT)
    return Expected.for_cases(
        cases, {meta.keyboard: beta for meta, _ in cases}, COMPOSITION_TOL,
        sentence_wpm=((n - 1) * 60.0) / (5.0 * duration),
        sentence_kspc=len(sentence.keys) / n)


def study_expected(cases: Sequence[tuple[SessionMeta, SimSpec]]) -> Expected:
    keyboards = {meta.keyboard for meta, _ in cases}
    return Expected.for_cases(
        cases, {kb: STUDY_TARGET_BETA[kb] for kb in keyboards}, STUDY_TOL)


def _fsync_tree(root: Path) -> None:
    """Flush the files under ``root``, so that their write-back does not
    land in the next timed pass."""
    for f in sorted(root.rglob("*")):
        if f.is_file():
            fd = os.open(f, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


# --- workloads --------------------------------------------------------------------

class Workload:
    """One corpus and its pass. ``setup`` (re)builds the corpus."""

    name = ""
    in_process = True

    def __init__(self, work: Path) -> None:
        self.work = work
        self.cases: list[tuple[SessionMeta, SimSpec]] = []

    @property
    def channel_samples(self) -> int:
        """EEG channel-samples one pass processes."""
        return sum(spec.n_channels * int(round(spec.duration_s * spec.fs))
                   for _, spec in self.cases)

    def setup(self) -> None:
        raise NotImplementedError

    def settle(self) -> list[str]:
        """Untimed work between set-up and the first pass; returns what is
        wrong with the corpus, empty if nothing."""
        return []

    def run_pass(self, traced: bool = False) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> list[str]:
        raise NotImplementedError

    def records(self) -> list[SessionRecord]:
        """In-memory records of the corpus, for the threads comparison."""
        raise NotImplementedError


class C8Analyze(Workload):
    """``gtl analyze`` on 15 C8 bundles, one fresh process per pass.

    Set-up is ``simulate_session`` + ``write_session`` for the 15 bundles,
    the library path behind ``gtl simulate``, so ``setup_s`` times the
    write side of ingest.
    """

    name = "c8_analyze"
    in_process = False

    def __init__(self, work: Path, seed: int, n_bundles: int = 15) -> None:
        super().__init__(work)
        self.seed, self.n_bundles = seed, n_bundles
        self.bundles = [work / "bundles" / f"s{i:02d}"
                        for i in range(n_bundles)]
        self.out = work / "report.json"
        self.summary = work / "child.json"
        self.written: list[SessionRecord] = []
        self.loaded: list[SessionRecord] = []

    def setup(self) -> None:
        self.written = []
        self.cases = c8_cases(self.seed, self.n_bundles)
        self.expected = c8_expected(self.cases)
        for (meta, spec), path in zip(self.cases, self.bundles):
            rec = simgen.simulate_session(spec, meta)
            ingest.write_session(rec, path)
            self.written.append(rec)

    def settle(self) -> list[str]:
        """Flush the bundles, then reload each and compare it with the
        record that was written."""
        _fsync_tree(self.work / "bundles")
        self.loaded = [ingest.load_session(p) for p in self.bundles]
        problems = []
        for path, rec, back in zip(self.bundles, self.written, self.loaded):
            if back != rec:
                problems.append(f"{path.name}: reloads to a different record")
            elif not back.validation.ok:
                problems.append(f"{path.name}: violations "
                                f"{back.validation.violations}")
        return problems

    def run_pass(self, traced: bool = False) -> Outcome:
        for f in (self.out, self.summary):
            f.unlink(missing_ok=True)
        cmd = [sys.executable, str(CLI_CHILD), str(self.summary),
               *(["--trace"] if traced else []),
               "analyze", "--session", *map(str, self.bundles),
               "--out", str(self.out)]
        env = dict(os.environ, PYTHONPATH=str(SRC), GTL_THREADS="1")
        err_file = self.work / "stderr.txt"
        with open(err_file, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = self.out.read_bytes() if self.out.is_file() else b""
        # without the child's own summary (it crashed), fall back to
        # ru_maxrss, which is at least the parent's peak
        child = {"spans": [], "absent": [], "peak_rss_kb": usage.ru_maxrss}
        if self.summary.is_file():
            child = json.loads(self.summary.read_text())
        return Outcome(wall_s=wall, output=output,
                       exit_code=proc.returncode,
                       peak_rss_kb=child["peak_rss_kb"],
                       spans=[Span.from_list(row) for row in child["spans"]],
                       absent=child["absent"],
                       stderr=err_file.read_text(errors="replace")[-2000:])

    def check(self, out: Outcome) -> list[str]:
        if out.exit_code != 0:
            return [f"gtl analyze exited {out.exit_code}: {out.stderr}"]
        try:
            rep = json.loads(out.output)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        return check_report(rep, self.expected)

    def records(self) -> list[SessionRecord]:
        return self.loaded


class InMemoryReport(Workload):
    """``build_report`` + ``render_json`` on records simulated in setup."""

    def __init__(self, work: Path, name: str, design: StudyDesign) -> None:
        super().__init__(work)
        self.name, self.design = name, design
        self._records: list[SessionRecord] = []

    def setup(self) -> None:
        self._records = []
        self.cases = simgen.study_sessions(self.design)
        self.expected = study_expected(self.cases)
        self._records = [simgen.simulate_session(spec, meta)
                         for meta, spec in self.cases]

    def run_pass(self, traced: bool = False) -> Outcome:
        t0 = time.perf_counter()
        rep = report.build_report(self._records, CONFIG, threads=1)
        text = report.render_json(rep)
        wall = time.perf_counter() - t0
        return Outcome(wall_s=wall, output=text.encode("utf-8"), report=rep)

    def check(self, out: Outcome) -> list[str]:
        return check_report(out.report, self.expected)

    def records(self) -> list[SessionRecord]:
        return self._records


def make(name: str, seed: int, work: Path) -> Workload:
    if name == "c8_analyze":
        return C8Analyze(work, seed)
    if name == "study_report":
        return InMemoryReport(work, name, StudyDesign(seed=seed))
    if name == "long_sessions":
        return InMemoryReport(work, name, StudyDesign(
            participants=2, sessions_per_keyboard=1,
            sentences_per_session=60, seed=seed))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("c8_analyze", "study_report", "long_sessions")
