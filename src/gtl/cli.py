"""Command-line front end: analyze session bundles, simulate synthetic
ones, run standalone hypothesis tests.

Exit codes: 0 success, 2 session validation violations (report still
written; these include a session passed twice and a session the analysis
cannot process, e.g. one whose sampling rate (<= 28 Hz) is too low for
the default bands), 3 degenerate statistics input, 64 usage error, 74 I/O
error (including a malformed or non-UTF-8 bundle file), 1 any other
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import IngestError, SpecInvalid, StatsError, ToolError
from .ingest import load_session, write_session
from .metrics import TIMING_ANCHORS
from .model import SessionMeta
from .report import ReportConfig, build_report, render_csv, render_json, report_has_violations
from .segmentation import AGGREGATION_LEVELS
from .simgen import SimSpec, simspec_from_dict, simulate_session
from .spectral import WindowFn
from .stats import anova_oneway, ttest_two_sample

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
    analyze.add_argument("--session", metavar="DIR", nargs="+",
                         action="extend", required=True,
                         help="session bundle directory (repeatable)")
    analyze.add_argument("--out", metavar="FILE", required=True,
                         help="report output path")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.add_argument("--window", type=int, default=1024,
                         help="window length in samples (power of two)")
    analyze.add_argument("--hop", type=int, default=512,
                         help="window slide in samples")
    analyze.add_argument("--win-fn", choices=[w.value for w in WindowFn],
                         default=WindowFn.HALF_COSINE.value)
    analyze.add_argument("--detrend", type=_onoff, default=True,
                         metavar="on|off")
    analyze.add_argument("--label-threshold", type=float, default=0.5)
    analyze.add_argument("--timing-anchor", choices=TIMING_ANCHORS,
                         default="shown")
    analyze.add_argument("--level", choices=AGGREGATION_LEVELS,
                         default="sentence")
    analyze.add_argument("--include-training", type=_onoff, default=True,
                         metavar="on|off")
    analyze.add_argument("--ttest-variant", choices=("student", "welch"),
                         default="student")

    simulate = sub.add_parser("simulate", help="write a synthetic bundle")
    simulate.add_argument("--spec", metavar="FILE", required=True,
                          help="JSON simulation spec")
    simulate.add_argument("--seed", type=int, default=None,
                          help="override the seed in the spec file")
    simulate.add_argument("--out", metavar="DIR", required=True,
                          help="bundle output directory")

    stats = sub.add_parser("stats", help="run a test on column files")
    stats.add_argument("--test", choices=("anova", "ttest"), required=True)
    stats.add_argument("--variant", choices=("student", "welch"),
                       default="student")
    stats.add_argument("--groups", metavar="FILE", nargs="+", action="extend",
                       required=True, help="one column of numbers per file")
    return parser


def _cmd_analyze(parser: _Parser, args: argparse.Namespace) -> int:
    if args.window < 2 or args.window & (args.window - 1):
        parser.error(f"--window {args.window} is not a power of two")
    if not 0 < args.hop <= args.window:
        parser.error(f"--hop must lie in (0, {args.window}]")
    if not 0.0 < args.label_threshold <= 1.0:
        parser.error("--label-threshold must lie in (0, 1]")

    config = ReportConfig(
        window_len=args.window,
        hop=args.hop,
        window_fn=WindowFn(args.win_fn),
        detrend=args.detrend,
        label_threshold=args.label_threshold,
        timing_anchor=args.timing_anchor,
        level=args.level,
        include_training=args.include_training,
        ttest_variant=args.ttest_variant,
    )

    try:
        records = [load_session(p) for p in args.session]
    except IngestError as exc:
        print(f"gtl: {exc}", file=sys.stderr)
        return EXIT_IO

    report = build_report(records, config)
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
    meta = obj.get("meta", {})
    defaults = SessionMeta(participant_id="sim", keyboard="A", session_index=1)
    channels = meta.get("channels")
    if channels is None:
        channels = (defaults.channel_names if spec.n_channels == 14
                    else tuple(f"ch{i + 1}" for i in range(spec.n_channels)))
    return SessionMeta(
        participant_id=str(meta.get("participant_id", defaults.participant_id)),
        keyboard=str(meta.get("keyboard", defaults.keyboard)),
        session_index=int(meta.get("session_index", defaults.session_index)),
        fs_eeg=spec.fs,
        channel_names=tuple(channels),
    )


def _cmd_simulate(parser: _Parser, args: argparse.Namespace) -> int:
    try:
        raw = Path(args.spec).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"gtl: cannot read spec: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        obj = json.loads(raw)
        spec = simspec_from_dict(obj)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        meta = _meta_from_spec_file(obj, spec)
        rec = simulate_session(spec, meta)
    except (json.JSONDecodeError, SpecInvalid, ValueError) as exc:
        parser.error(f"bad simulation spec: {exc}")
    try:
        write_session(rec, args.out)
    except OSError as exc:
        print(f"gtl: cannot write bundle: {exc}", file=sys.stderr)
        return EXIT_IO
    print(args.out)
    return EXIT_OK


def _read_column(path: Path) -> list[float]:
    values = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                   start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise IngestError(f"{path}: not a number", row=line_no) from None
    return values


def _cmd_stats(parser: _Parser, args: argparse.Namespace) -> int:
    if args.test == "ttest" and len(args.groups) != 2:
        parser.error("--test ttest needs exactly 2 group files")
    if args.test == "anova" and len(args.groups) < 2:
        parser.error("--test anova needs at least 2 group files")
    try:
        groups = [_read_column(Path(p)) for p in args.groups]
    except OSError as exc:
        print(f"gtl: {exc}", file=sys.stderr)
        return EXIT_IO
    except IngestError as exc:
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
    print(json.dumps(result.to_dict(), sort_keys=True))
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
