"""Machine-readable analysis report: metrics, grouped load summaries and
hypothesis tests for a set of session bundles.

Reports are reproducible: the configuration is echoed and hashed into the
output, numbers serialize in shortest round-trip decimal form, group
order is deterministic, and the JSON and CSV encodings carry identical
numeric values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Literal, Sequence, TypeVar

from . import metrics as metrics_mod
from . import stats as stats_mod
from .errors import (ConfigError, EmptyTranscription, NonFiniteMetric,
                     NonPositiveDuration, StatsError, ToolError)
from .ingest import csv_text, fields_dict, json_text
from .model import SessionMeta, SessionRecord, ViolationCode, validate_session
from .segmentation import (AGGREGATION_LEVELS, LOAD_UNITS, LabeledLoadSample,
                           aggregate, label_load_windows)
from .spectral import AnalysisConfig, cognitive_load_series

#: Published grand means from the original five-participant study whose
#: methodology this toolkit reimplements. Context only: these numbers are
#: never computed by, nor comparable against, a synthetic run.
REFERENCE_CONTEXT = {
    "note": "published values from the original study; reference context "
            "only, never produced by this tool",
    "wpm_grand_means": {"A": 9.20, "B": 8.60, "C": 9.05},
    "keystrokes_saved_pct_means": {"A": 39.0018, "B": 35.4366, "C": 33.4694},
    "backspace_usage_means": {"A": 2.92, "B": 6.32, "C": 5.00},
    "beta_ratio_means": {"A": 0.0865, "B": 0.0860, "C": 0.0824},
}


@dataclass(frozen=True)
class ReportConfig(AnalysisConfig):
    """Everything that influences the numbers in a report: the inherited
    windowing fields, then the labeling, timing, grouping and test choices.

    Each field is checked (:func:`gtl.model.check_fields`) and ranged on
    construction; a bad value raises ConfigError. A report's ``config``
    object replays as ``ReportConfig(**config)``.
    """

    label_threshold: float = 0.5
    timing_anchor: Literal[metrics_mod.TIMING_ANCHORS] = "shown"
    level: Literal[AGGREGATION_LEVELS] = "sentence"
    include_training: bool = True
    ttest_variant: Literal[stats_mod.TTEST_VARIANTS] = "student"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.label_threshold <= 1.0:
            raise ConfigError("label_threshold must lie in (0, 1]")

    def to_dict(self) -> dict:
        return {**fields_dict(self), "window_fn": self.window_fn.value}

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


#: Each load_groups section and the sample fields that key its groups.
_LOAD_SECTIONS = {
    "by_keyboard": ("keyboard",),
    "by_keyboard_mode": ("keyboard", "mode"),
    "by_keyboard_phase": ("keyboard", "phase"),
}


def _group_section(groups: dict[tuple, list[float]],
                   key_names: Sequence[str]) -> list[dict]:
    # aggregate makes a group only for a row it keeps, so none is empty
    return [{**dict(zip(key_names, gkey)),
             "boxplot": fields_dict(stats_mod.boxplot_summary(values))}
            for gkey, values in groups.items()]


def analyze_session(rec: SessionRecord, config: ReportConfig,
                    ) -> tuple[dict, list[LabeledLoadSample]]:
    """Per-session report entry plus the labeled windows it contributes.

    A ToolError raised by the analysis, e.g. a sampling rate too low for
    the default bands, becomes a violation of this session: its ``load``
    and ``metrics`` stay null and it contributes no windows.
    """
    validation = validate_session(rec)
    entry = {
        "participant": rec.meta.participant_id,
        "keyboard": rec.meta.keyboard,
        "session_index": rec.meta.session_index,
        "violations": [
            {"code": v.code.value, "message": v.message}
            for v in validation.violations
        ],
        "warnings": list(validation.warnings),
        "load": None,
        "metrics": None,
    }
    try:
        series = cognitive_load_series(rec.eeg, config)
        samples = label_load_windows(series, rec.events, rec.meta,
                                     config.label_threshold)
        try:
            typing = metrics_mod.session_metrics(rec.events,
                                                 config.timing_anchor)
        except (EmptyTranscription, NonFiniteMetric,
                NonPositiveDuration) as exc:
            # e.g. a session without a sentence, a sentence whose
            # keystrokes were all deleted again, or one too short for a
            # finite wpm or too long for a finite duration; the session
            # stays analyzable for load, only its metrics are absent
            typing = None
            entry["warnings"].append(f"metrics unavailable: {exc}")
    except ToolError as exc:
        entry["violations"].append(
            {"code": ViolationCode.ANALYSIS_ERROR.value, "message": str(exc)})
        return entry, []
    entry["load"] = {
        "n_windows": len(series),
        "dropped_windows": series.dropped,
        "mean": float(series.loads.mean()) if len(series) else None,
        "min": float(series.loads.min()) if len(series) else None,
        "max": float(series.loads.max()) if len(series) else None,
    }
    if typing is not None:
        entry["metrics"] = {
            **fields_dict(typing),
            "sentences": tuple(map(fields_dict, typing.sentences))}
    return entry, samples


_Item = TypeVar("_Item")


def build_report(records: Iterable[_Item], config: ReportConfig,
                 threads: int = 1,
                 load: Callable[[_Item], SessionRecord] = lambda rec: rec,
                 ) -> dict:
    """Assemble the full report for a set of sessions.

    Each item of ``records`` is turned into its record by ``load`` (by
    default the item is the record) and analysed, and only its meta,
    report entry and labeled windows are kept, so an item is loaded only
    when it is analysed and dropped right after. On ``threads`` > 1
    workers the items are loaded and analysed on a thread pool, so at
    most one record per worker is alive at once. A ``load`` that raises
    stops the run with the error of the first such item in ``records``
    order; items not started by then are not loaded. The results are
    then stable-sorted by (participant, keyboard, session_index), so the
    same inputs always produce the same bytes, and every copy of a
    session after the first in the given order carries a
    DuplicateSession violation.
    """
    def analyzed(item: _Item) -> tuple[SessionMeta, dict,
                                       list[LabeledLoadSample]]:
        rec = load(item)
        return (rec.meta, *analyze_session(rec, config))

    # map drops each record before it asks for the next one; a for loop
    # would keep it bound while the next one loads
    if threads > 1:
        # imported here, so that a run on one thread does not pay for it.
        # The map's results come in item order; the first that raises
        # cancels the items not yet started
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(analyzed, records))
    else:
        results = list(map(analyzed, records))
    results.sort(key=lambda r: (r[0].participant_id, r[0].keyboard,
                                r[0].session_index))

    warnings: list[str] = []
    session_entries: list[dict] = []
    samples: list[LabeledLoadSample] = []
    seen: set[tuple[str, str, int]] = set()
    for meta, entry, rec_samples in results:
        identity = (meta.participant_id, meta.keyboard, meta.session_index)
        if identity in seen:
            entry["violations"].append({
                "code": ViolationCode.DUPLICATE_SESSION.value,
                "message": "session {}/{}/{} was passed more than once"
                           .format(*identity)})
        seen.add(identity)
        session_entries.append(entry)
        if config.include_training or not meta.is_training:
            samples.extend(rec_samples)
        elif rec_samples:
            warnings.append(
                f"training session {meta.participant_id}/"
                f"{meta.keyboard} excluded from load groups")

    level = config.level
    unit_of = LOAD_UNITS[level]
    load_groups = {
        section: aggregate((tuple(getattr(s, k) for k in keys), unit_of(s),
                            s.load) for s in samples)
        for section, keys in _LOAD_SECTIONS.items()}
    groups_kb = load_groups["by_keyboard"]

    tests: list[dict] = []

    def run_test(metric: str, group_names: list[str], failure: str,
                 test: Callable[..., stats_mod.StatResult], *args) -> None:
        """Append the entry of ``test(*args)``, or ``failure`` and the
        StatsError's text as a warning when the test is undefined."""
        try:
            result = test(*args)
        except StatsError as exc:
            warnings.append(f"{failure}: {exc}")
            return
        tests.append({"metric": metric, "groups": group_names,
                      **fields_dict(result)})

    # ANOVA over keyboards on each metric's participant-level means
    for metric_key in ("mean_wpm", "mean_keystrokes_saved_pct",
                       "mean_backspace_count"):
        groups = aggregate(((e["keyboard"],), (e["participant"],),
                            e["metrics"][metric_key])
                           for e in session_entries
                           if e["metrics"] is not None)
        if len(groups) < 2 or any(len(v) < 2 for v in groups.values()):
            warnings.append(f"anova on {metric_key} skipped: "
                            "not enough groups")
            continue
        run_test(metric_key, [k for (k,) in groups],
                 f"anova on {metric_key} failed", stats_mod.anova_oneway,
                 list(groups.values()))
    for ((kb_a,), a), ((kb_b,), b) in combinations(groups_kb.items(), 2):
        run_test(f"load_{level}", [kb_a, kb_b],
                 f"t-test {kb_a} vs {kb_b} skipped",
                 stats_mod.ttest_two_sample, a, b, config.ttest_variant)

    return {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "sessions": session_entries,
        "load_groups": {section: _group_section(load_groups[section], keys)
                        for section, keys in _LOAD_SECTIONS.items()},
        "tests": tests,
        "not_reproduced": REFERENCE_CONTEXT,
        "warnings": warnings,
    }


def report_has_violations(report: dict) -> bool:
    return any(entry["violations"] for entry in report["sessions"])


# --- rendering ----------------------------------------------------------------

render_json = json_text


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    elif isinstance(value, bool) or value is None:
        rows.append((prefix, json.dumps(value)))
    elif isinstance(value, float):
        rows.append((prefix, repr(value)))
    else:
        rows.append((prefix, str(value)))


def render_csv(report: dict) -> str:
    """Flat ``path,value`` encoding carrying the same numbers as the JSON,
    quoted as :func:`gtl.ingest.csv_text` quotes."""
    rows: list[tuple[str, str]] = [("path", "value")]
    _flatten("", report, rows)
    return csv_text(rows)
