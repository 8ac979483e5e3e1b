"""Command-line front end: analyze session bundles, simulate synthetic
ones, run standalone hypothesis tests.

Exit codes: 0 success, 2 session validation violations (report still
written; these include a session passed twice and a session the analysis
cannot process, e.g. one whose sampling rate (<= 28 Hz) is too low for
the default bands), 3 degenerate statistics input (including groups
that are all constant, whatever their means, and values whose mean or
sum of squares overflows the float range), 64 usage error
(including a bad analysis option or simulation spec, a spec whose
duration rounds to no EEG sample, a spec past the :mod:`gtl.simgen`
memory budget, and a channel name holding ``,``, ``\n`` or ``\r``, which
the ``eeg.csv`` header could not hold), 74 I/O error (an unreadable,
malformed or non-UTF-8 bundle file, spec or group file, e.g. a
``meta.json`` naming such a channel, an ``events.csv`` row with a field
its kind does not use, ``eeg.csv`` timestamps too far apart for a float
spacing, or a group line that is not one finite number), 1 any
other error. Group files and bundle files share one
number grammar and row splitter
(:func:`gtl.ingest.read_number`, :func:`gtl.ingest.split_rows`): rows end
in ``\n`` with an optional ``\r``, and ``1_0``, non-ASCII digits,
``nan`` and ``inf`` are not numbers. ``analyze`` loads, analyses and drops
each ``--session`` bundle in turn, on one worker thread per usable CPU
when it is given more than one bundle (on this thread otherwise), so it
holds at most one loaded bundle per usable CPU however many bundles it
is given. The first bundle in command-line order that does not load
stops the batch with exit 74 and names its directory, even when a later
one failed first on another worker; bundles not started by then are not
loaded, and no report is written. The ``analyze`` options are the
fields of ``ReportConfig``, which extends ``AnalysisConfig``'s windowing
fields with the report's own; their defaults and rules (e.g. a window
length that is a power of two) are ``ReportConfig()``'s. The bands are
always the Delta/Theta/Alpha/Beta split derived from the sampling rate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import ingest
from .errors import (ConfigError, IngestError, MalformedMeta, SpecInvalid,
                     StatsError, ToolError)
from .ingest import (as_text, decode_json, fields_dict, load_session,
                     meta_from_dict, read_number, split_rows, write_session)
from .metrics import TIMING_ANCHORS
from .model import EPOC14_CHANNELS, SessionMeta, SessionRecord
from .report import ReportConfig, build_report, render_csv, render_json, report_has_violations
from .segmentation import AGGREGATION_LEVELS
from .spectral import WindowFn
from .stats import TTEST_VARIANTS, anova_oneway, ttest_two_sample

if TYPE_CHECKING:
    from .simgen import SimSpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_USAGE = 64
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 64."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _build_parser() -> _Parser:
    parser = _Parser(prog="gtl",
                     description="EEG cognitive-load analysis of gaze-typing "
                                 "session recordings")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="analyze session bundles")
    defaults = ReportConfig()
    analyze.add_argument("--session", metavar="DIR", nargs="+",
                         action="extend", required=True,
                         help="session bundle directory (repeatable)")
    analyze.add_argument("--out", metavar="FILE", required=True,
                         help="report output path")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.add_argument("--window", dest="window_len", metavar="WINDOW",
                         type=int, default=defaults.window_len,
                         help="window length in samples (power of two)")
    analyze.add_argument("--hop", type=int, default=defaults.hop,
                         help="window slide in samples")
    analyze.add_argument("--win-fn", dest="window_fn", type=WindowFn,
                         choices=list(WindowFn), metavar="|".join(WindowFn),
                         default=defaults.window_fn)
    analyze.add_argument("--detrend", type=_onoff, default=defaults.detrend,
                         metavar="on|off")
    analyze.add_argument("--label-threshold", type=float,
                         default=defaults.label_threshold)
    analyze.add_argument("--timing-anchor", choices=TIMING_ANCHORS,
                         default=defaults.timing_anchor)
    analyze.add_argument("--level", choices=AGGREGATION_LEVELS,
                         default=defaults.level)
    analyze.add_argument("--include-training", type=_onoff,
                         default=defaults.include_training, metavar="on|off")
    analyze.add_argument("--ttest-variant", choices=TTEST_VARIANTS,
                         default=defaults.ttest_variant)

    simulate = sub.add_parser("simulate", help="write a synthetic bundle")
    simulate.add_argument("--spec", metavar="FILE", required=True,
                          help="JSON simulation spec")
    simulate.add_argument("--seed", type=int, default=None,
                          help="override the seed in the spec file")
    simulate.add_argument("--out", metavar="DIR", required=True,
                          help="bundle output directory")

    stats = sub.add_parser("stats", help="run a test on column files")
    stats.add_argument("--test", choices=("anova", "ttest"), required=True)
    stats.add_argument("--variant", choices=TTEST_VARIANTS,
                       default="student")
    stats.add_argument("--groups", metavar="FILE", nargs="+", action="extend",
                       required=True, help="one column of numbers per file")
    return parser


class _Unreadable(Exception):
    """An ``--session`` bundle that does not load, with its directory."""


def _load(path: str) -> SessionRecord:
    """The record of bundle ``path``; one that does not load raises
    _Unreadable naming its directory."""
    try:
        return load_session(path)
    except IngestError as exc:
        raise _Unreadable(f"{path}: {exc}") from exc


def _cmd_analyze(parser: _Parser, args: argparse.Namespace) -> int:
    try:
        # every config field is the dest of the flag that sets it
        config = ReportConfig(**{f.name: getattr(args, f.name)
                                 for f in dataclasses.fields(ReportConfig)})
    except ConfigError as exc:
        parser.error(f"bad analysis option: {exc}")

    try:
        report = build_report(
            args.session, config, load=_load,
            threads=min(len(args.session), ingest._usable_cpus()))
    except _Unreadable as exc:
        print(f"gtl: {exc}", file=sys.stderr)
        return EXIT_IO
    text = render_json(report) if args.format == "json" else render_csv(report)
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"gtl: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    if report_has_violations(report):
        print("gtl: validation violations found; see report", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _meta_from_spec_file(obj: dict, spec: SimSpec) -> SessionMeta:
    """The spec's ``meta`` object over the defaults; the rate is the spec's."""
    meta = obj.get("meta", {})
    if isinstance(meta, dict):
        channels = (list(EPOC14_CHANNELS) if spec.n_channels == 14
                    else [f"ch{i + 1}" for i in range(spec.n_channels)])
        meta = {"participant_id": "sim", "keyboard": "A", "session_index": 1,
                "channels": channels, **meta, "fs_eeg": spec.fs}
    return meta_from_dict(meta)


def _cmd_simulate(parser: _Parser, args: argparse.Namespace) -> int:
    # imported here: analyze and stats need no simulator
    from .simgen import simspec_from_dict, simulate_session

    try:
        raw = as_text(Path(args.spec).read_bytes(), args.spec)
    except (OSError, IngestError) as exc:
        print(f"gtl: cannot read spec: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        obj = decode_json(raw)
        spec = simspec_from_dict(obj)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        meta = _meta_from_spec_file(obj, spec)
        rec = simulate_session(spec, meta)
    except (ValueError, SpecInvalid, MalformedMeta) as exc:
        parser.error(f"bad simulation spec: {exc}")
    try:
        write_session(rec, args.out)
    except OSError as exc:
        print(f"gtl: cannot write bundle: {exc}", file=sys.stderr)
        return EXIT_IO
    print(args.out)
    return EXIT_OK


def _read_column(path: Path) -> list[float]:
    name = str(path)
    rows = split_rows(as_text(path.read_bytes(), name), name, 1)
    return [read_number(cell, name, row) for row, (cell,) in rows]


def _cmd_stats(parser: _Parser, args: argparse.Namespace) -> int:
    if args.test == "ttest" and len(args.groups) != 2:
        parser.error("--test ttest needs exactly 2 group files")
    if args.test == "anova" and len(args.groups) < 2:
        parser.error("--test anova needs at least 2 group files")
    try:
        groups = [_read_column(Path(p)) for p in args.groups]
    except (OSError, IngestError) as exc:
        print(f"gtl: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        if args.test == "anova":
            result = anova_oneway(groups)
        else:
            result = ttest_two_sample(groups[0], groups[1], args.variant)
    except StatsError as exc:
        print(f"gtl: degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    print(json.dumps(fields_dict(result), sort_keys=True))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return _cmd_analyze(parser, args)
        if args.command == "simulate":
            return _cmd_simulate(parser, args)
        return _cmd_stats(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ToolError as exc:
        print(f"gtl: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
