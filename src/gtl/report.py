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
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable, Literal, Optional, Sequence

from . import metrics as metrics_mod
from . import stats as stats_mod
from .errors import (
    ConfigError,
    DegenerateInput,
    EmptyTranscription,
    NonFiniteMetric,
    NonPositiveDuration,
    StatsError,
    ToolError,
    ZeroVariance,
)
from .ingest import csv_text
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
        return {**asdict(self), "window_fn": self.window_fn.value}

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
             "boxplot": asdict(stats_mod.boxplot_summary(values))}
            for gkey, values in groups.items()]


def analyze_session(rec: SessionRecord, config: ReportConfig,
                    ) -> tuple[dict, list[LabeledLoadSample]]:
    """Per-session report entry plus the labeled windows it contributes.

    A ToolError raised by the analysis, e.g. a sampling rate too low for
    the default bands, becomes a violation of this session: its ``load``
    and ``metrics`` stay null and it contributes no windows.
    """
    validation = rec.validation or validate_session(rec)
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
        entry["metrics"] = asdict(typing)
    return entry, samples


def _metric_anova(session_entries: Sequence[dict], metric_key: str,
                  warnings: list[str]) -> Optional[dict]:
    """One-way ANOVA over keyboards on participant-level metric means."""
    groups = aggregate(((e["keyboard"],), (e["participant"],),
                        e["metrics"][metric_key])
                       for e in session_entries if e["metrics"] is not None)
    if len(groups) < 2 or any(len(v) < 2 for v in groups.values()):
        warnings.append(f"anova on {metric_key} skipped: not enough groups")
        return None
    try:
        result = stats_mod.anova_oneway(list(groups.values()))
    except StatsError as exc:
        warnings.append(f"anova on {metric_key} failed: {exc}")
        return None
    return {"metric": metric_key, "groups": [k for (k,) in groups],
            **result.to_dict()}


def build_report(records: Iterable[SessionRecord], config: ReportConfig,
                 threads: int = 1) -> dict:
    """Assemble the full report for a set of sessions.

    Each record is analysed as ``records`` yields it, and only its meta,
    report entry and labeled windows are kept, so a generator that loads
    bundles holds one record at a time. On ``threads`` > 1 workers every
    record is taken up front. The results are then stable-sorted by
    (participant, keyboard, session_index), so the same inputs always
    produce the same bytes, and every copy of a session after the first
    in the given order carries a DuplicateSession violation.
    """
    def analyzed(rec: SessionRecord) -> tuple[SessionMeta, dict,
                                              list[LabeledLoadSample]]:
        return (rec.meta, *analyze_session(rec, config))

    # map drops each record before it asks for the next one; a for loop
    # would keep it bound while the next one loads
    if threads > 1:
        # imported here, so that the analyze path does not pay for it
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
    for metric_key in ("mean_wpm", "mean_keystrokes_saved_pct",
                       "mean_backspace_count"):
        result = _metric_anova(session_entries, metric_key, warnings)
        if result is not None:
            tests.append(result)
    for ((kb_a,), a), ((kb_b,), b) in combinations(groups_kb.items(), 2):
        try:
            result = stats_mod.ttest_two_sample(a, b, config.ttest_variant)
        except (DegenerateInput, ZeroVariance) as exc:
            warnings.append(f"t-test {kb_a} vs {kb_b} skipped: {exc}")
            continue
        tests.append({"metric": f"load_{level}", "groups": [kb_a, kb_b],
                      **result.to_dict()})

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

def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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
