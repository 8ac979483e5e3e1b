"""Span tracer for the benchmark's traced runs, and the per-layer metrics
derived from its spans.

The tracer replaces gtl's public functions at the module attributes where
their callers look them up (``gtl.report.cognitive_load_series``, not
``gtl.spectral.cognitive_load_series``, because ``report`` imported the
name). Spans are kept in memory as (id, name, start, end, parent, counts)
and handed out at the end; nothing inside ``src/`` changes. A target that
no longer exists after a refactor is recorded in ``Tracer.absent`` and
left alone.
"""

from __future__ import annotations

import importlib
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from itertools import count as _ids
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    counts: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.counts]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


@dataclass(frozen=True)
class Target:
    """``module``'s dotted attribute ``attr`` becomes span ``span``.

    ``count`` maps the call's positional arguments and result to the
    counts recorded on the span.
    """

    module: str
    attr: str
    span: str
    count: Optional[Callable[[tuple, object], dict]] = None


def _text_len(data) -> int:
    return len(data) if isinstance(data, bytes) else len(data.encode("utf-8"))


def _bytes_read(args: tuple, _result) -> dict:
    return {"bytes_read": _text_len(args[0])}


def _bundle_bytes(args: tuple, _result) -> dict:
    root = Path(args[1])
    return {"bytes_written": sum(f.stat().st_size for f in root.iterdir()
                                 if f.is_file())}


def _simulated(_args: tuple, rec) -> dict:
    return {"samples": rec.eeg.n_channels * rec.eeg.n_samples}


def _load_series(args: tuple, series) -> dict:
    eeg, cfg = args[0], args[1]
    channel_windows = (len(series) + series.dropped) * eeg.n_channels
    n = cfg.window_len
    return {
        "channel_windows": channel_windows,
        "dropped_windows": series.dropped,
        # computed, not measured: the radix-2 operation count 5 N log2 N
        "transform_flops": int(5 * n * math.log2(n)) * channel_windows,
    }


def _labels(_args: tuple, samples) -> dict:
    return {"label_slots": 2 * len(samples),
            "labels": sum((s.mode is not None) + (s.phase is not None)
                          for s in samples)}


def _intervals(_args: tuple, intervals) -> dict:
    return {"intervals": len(intervals)}


def _sentence_metrics(_args: tuple, typing) -> dict:
    return {"sentences": len(typing.sentences)}


def _one_test(_args: tuple, _result) -> dict:
    return {"tests": 1}


#: Every boundary the traced run records. The CLI and the report module
#: import their callees by name, so both bindings are wrapped; a call goes
#: through whichever binding its caller uses.
TARGETS: tuple[Target, ...] = (
    Target("gtl.cli", "main", "cli.main"),
    Target("gtl.cli", "load_session", "ingest.load_session"),
    Target("gtl.ingest", "load_session", "ingest.load_session"),
    Target("gtl.ingest", "parse_meta_json", "ingest.parse_meta_json",
           _bytes_read),
    Target("gtl.ingest", "parse_eeg_csv", "ingest.parse_eeg_csv",
           _bytes_read),
    Target("gtl.ingest", "parse_events_csv", "ingest.parse_events_csv",
           _bytes_read),
    Target("gtl.ingest", "parse_gaze_csv", "ingest.parse_gaze_csv",
           _bytes_read),
    Target("gtl.ingest", "write_session", "ingest.write_session",
           _bundle_bytes),
    Target("gtl.ingest", "eeg_to_csv", "ingest.eeg_to_csv"),
    Target("gtl.simgen", "simulate_session", "simgen.simulate_session",
           _simulated),
    Target("gtl.ingest", "validate_session", "model.validate_session"),
    Target("gtl.report", "validate_session", "model.validate_session"),
    Target("gtl.model", "EventLog.sentences", "model.sentences"),
    Target("gtl.report", "cognitive_load_series",
           "spectral.cognitive_load_series", _load_series),
    Target("gtl.report", "label_load_windows",
           "segmentation.label_load_windows", _labels),
    Target("gtl.segmentation", "mode_intervals",
           "segmentation.mode_intervals", _intervals),
    Target("gtl.segmentation", "phase_intervals",
           "segmentation.phase_intervals", _intervals),
    Target("gtl.report", "aggregate", "segmentation.aggregate"),
    Target("gtl.metrics", "session_metrics", "metrics.session_metrics",
           _sentence_metrics),
    Target("gtl.stats", "anova_oneway", "stats.anova_oneway", _one_test),
    Target("gtl.stats", "ttest_two_sample", "stats.ttest_two_sample",
           _one_test),
    Target("gtl.stats", "boxplot_summary", "stats.boxplot_summary"),
    Target("gtl.cli", "build_report", "report.build_report"),
    Target("gtl.report", "build_report", "report.build_report"),
    Target("gtl.cli", "render_json", "report.render_json"),
    Target("gtl.report", "render_json", "report.render_json"),
)


class Tracer:
    """Collects spans from the functions it wraps while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = _ids()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable[[tuple, object], dict]] = None,
             ) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = count(args, result) if count is not None else {}
            self.spans.append(Span(sid, name, start, end, parent, counts))
            return result
        return traced

    @contextmanager
    def installed(self, targets: Sequence[Target] = TARGETS) -> Iterator[None]:
        """Wrap every present target; restore the originals on exit."""
        restore: list[tuple[object, str, object]] = []
        try:
            for t in targets:
                owner, leaf = self._resolve(t)
                if owner is None:
                    self.absent.append(f"{t.module}.{t.attr}")
                    continue
                original = getattr(owner, leaf)
                setattr(owner, leaf, self.wrap(original, t.span, t.count))
                restore.append((owner, leaf, original))
            yield
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    @staticmethod
    def _resolve(t: Target) -> tuple[Optional[object], str]:
        try:
            owner = importlib.import_module(t.module)
        except ImportError:
            return None, ""
        *path, leaf = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, ""
        if not callable(getattr(owner, leaf, None)):
            return None, ""
        return owner, leaf


# --- per-layer metrics --------------------------------------------------------

#: (name, unit, better) of every per-layer metric a traced run prints.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("ingest.load_session.busy_s", "s", "lower"),
    ("ingest.parse_eeg_csv.busy_s", "s", "lower"),
    ("ingest.parse_events_csv.busy_s", "s", "lower"),
    ("ingest.bytes_read", "bytes", "lower"),
    ("ingest.write_session.busy_s", "s", "lower"),
    ("ingest.eeg_to_csv.busy_s", "s", "lower"),
    ("ingest.bytes_written", "bytes", "lower"),
    ("simgen.simulate_session.busy_s", "s", "lower"),
    ("simgen.samples", "count", "lower"),
    ("model.validate_session.busy_s", "s", "lower"),
    ("model.sentences.calls", "count", "lower"),
    ("spectral.cognitive_load_series.busy_s", "s", "lower"),
    ("spectral.channel_windows", "count", "lower"),
    ("spectral.dropped_windows", "count", "lower"),
    ("spectral.transform_flops", "flop_computed", "lower"),
    ("segmentation.label_load_windows.busy_s", "s", "lower"),
    ("segmentation.intervals", "count", "lower"),
    ("segmentation.labeled_frac", "frac", "higher"),
    ("segmentation.aggregate.busy_s", "s", "lower"),
    ("metrics.session_metrics.busy_s", "s", "lower"),
    ("metrics.sentences", "count", "lower"),
    ("stats.anova_oneway.busy_s", "s", "lower"),
    ("stats.ttest_two_sample.busy_s", "s", "lower"),
    ("stats.boxplot_summary.busy_s", "s", "lower"),
    ("stats.tests", "count", "lower"),
    ("report.build_report.self_s", "s", "lower"),
    ("report.render_json.busy_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("report.build_report.threads1_s", "s", "lower"),
    ("report.build_report.threads2_speedup", "x", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.absent_targets", "count", "lower"),
)

#: Layers a traced run reads from its traced set-up (the corpus build)
#: rather than from its passes: no pass of any workload enters them.
SETUP_LAYERS = ("ingest.write_session.busy_s", "ingest.eeg_to_csv.busy_s",
                "ingest.bytes_written", "simgen.simulate_session.busy_s",
                "simgen.samples")

#: Counts that must repeat exactly between traced passes of equal input.
EXACT_COUNTS = ("spectral.channel_windows", "spectral.transform_flops",
                "ingest.bytes_read", "ingest.bytes_written",
                "model.sentences.calls", "simgen.samples",
                "spectral.dropped_windows", "segmentation.intervals",
                "metrics.sentences", "stats.tests")

_BUSY = tuple(name.removesuffix(".busy_s") for name, _, _ in PER_LAYER
              if name.endswith(".busy_s")) + ("cli.main",)


def _union(intervals: list[tuple[float, float]]) -> float:
    """Length covered by the intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def busy_s(spans: Sequence[Span], name: str) -> float:
    return _union([(s.start, s.end) for s in spans if s.name == name])


def self_s(spans: Sequence[Span], name: str) -> float:
    """Duration of ``name`` spans minus what their direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return sum(((s.end - s.start) - _union(children.get(s.sid, []))
                for s in spans if s.name == name), 0.0)


def _total(spans: Sequence[Span], key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans)


def pass_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (layers it never entered read 0)."""
    out = {f"{name}.busy_s": busy_s(spans, name) for name in _BUSY}
    slots = _total(spans, "label_slots")
    out.update({
        "ingest.bytes_read": _total(spans, "bytes_read"),
        "ingest.bytes_written": _total(spans, "bytes_written"),
        "simgen.samples": _total(spans, "samples"),
        "model.sentences.calls": sum(s.name == "model.sentences"
                                     for s in spans),
        "spectral.channel_windows": _total(spans, "channel_windows"),
        "spectral.dropped_windows": _total(spans, "dropped_windows"),
        "spectral.transform_flops": _total(spans, "transform_flops"),
        "segmentation.intervals": _total(spans, "intervals"),
        "segmentation.labeled_frac": (_total(spans, "labels") / slots
                                      if slots else 0.0),
        "metrics.sentences": _total(spans, "sentences"),
        "stats.tests": _total(spans, "tests"),
        "report.build_report.self_s": self_s(spans, "report.build_report"),
    })
    return out
