"""Benchmark for gtl: three workloads timed end to end, and a traced run
that splits one pass into the package's layers.

    python3 perfbench/run.py --workload c8_analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from its
``src/`` and nowhere else. The corpus comes from ``gtl.simgen`` with the
given seed and is written under ``.perfbench_work/`` in the checkout,
which is removed at the end. ``GTL_THREADS`` is pinned to 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics. The line before it holds
machine facts, per-pass figures and the digests of the outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up runs at least SETUP_MIN times, and again while all of them took
#: under SETUP_BUDGET_S, up to SETUP_MAX; ``setup_s`` is the median, so one
#: slow build does not decide it.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 8, 4.0

#: (name, unit, better) of every end-to-end metric an untraced run prints.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("msamples_per_s", "Msample/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "frac", "higher"),
)


def _import_package() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    if not (SRC / "gtl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gtl package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import gtl
    if Path(gtl.__file__).resolve().parent != (SRC / "gtl").resolve():
        raise SystemExit(f"perfbench: gtl imported from {gtl.__file__}, "
                         f"not from {SRC}")


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "GTL_THREADS": os.environ.get("GTL_THREADS"),
    }


def _attempt(wl, traced: bool):
    """One pass and its check. A crash or a failed check is a failed pass,
    recorded with its reason; the run goes on."""
    gc.collect()
    try:
        out = _traced_pass(wl) if traced else wl.run_pass()
    except Exception:
        return None, [traceback.format_exc(limit=3)]
    try:
        problems = wl.check(out)
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    out.release()
    return out, problems


def _traced_pass(wl):
    from tracing import Tracer
    if not wl.in_process:
        out = wl.run_pass(traced=True)
    else:
        tracer = Tracer()
        with tracer.installed():
            out = wl.run_pass()
        out.spans, out.absent = tracer.spans, tracer.absent
    out.traced = True
    return out


def _passes(wl, seconds: float, traced: bool) -> list:
    """Passes until ``seconds`` have elapsed, at least one (two when
    traced). Traced runs alternate untraced and traced passes, so both
    see the same machine conditions."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < 1 + traced or time.perf_counter() < deadline:
        results.append(_attempt(wl, traced and len(results) % 2 == 1))
    return results


def _corpus_check(wl) -> list:
    """A corpus that fails its check counts as one more failed attempt."""
    problems = wl.settle()
    return [(None, problems)] if problems else []


def _tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, else the
    maximum, labelled with the sample count."""
    n = len(values)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            return {"n": n, "percentile": p,
                    "value": statistics.quantiles(values, n=100)[p - 1]}
    return {"n": n, "percentile": "max", "value": max(values)}


def _summary(results: list) -> tuple[int, list[str]]:
    failed = [problems for _, problems in results if problems]
    return len(failed), [p for problems in failed[:3] for p in problems[:3]]


def timed_run(wl, seconds: float) -> tuple[dict, dict, int, int]:
    setup = []
    while len(setup) < SETUP_MIN or (len(setup) < SETUP_MAX
                                     and sum(setup) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    results = _corpus_check(wl) + _passes(wl, seconds, traced=False)
    outcomes = [out for out, _ in results if out is not None]
    failed, problems = _summary(results)
    info = {"setup_s": setup, "problems": problems,
            "error_rate": failed / len(results),
            "output_sha256": sorted({o.sha256 for o in outcomes})}
    if not outcomes:
        return {}, info, len(results), failed
    walls = [o.wall_s for o in outcomes]
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = statistics.median(o.peak_rss_kb for o in outcomes)
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "msamples_per_s": wl.channel_samples / 1e6 / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "success_rate": 1.0 - failed / len(results),
    }
    info.update({"wall_s_per_pass": walls, "wall_s_tail": _tail(walls),
                 "channel_samples_per_pass": wl.channel_samples})
    return ({name: {"value": values[name], "unit": unit}
             for name, unit, _ in END_TO_END}, info, len(results), failed)


def threads_speedup(records: list) -> dict:
    """build_report on one thread against up to two, on the same records."""
    from gtl import report
    from workloads import CONFIG
    workers = min(2, os.cpu_count() or 1)
    busy, text = {}, {}
    for n in (1, workers):
        t0 = time.perf_counter()
        rep = report.build_report(records, CONFIG, threads=n)
        busy[n] = time.perf_counter() - t0
        text[n] = report.render_json(rep)
    return {"threads1_s": busy[1], "workers": workers,
            "threads_n_s": busy[workers],
            "speedup": busy[1] / busy[workers],
            "identical": text[1] == text[workers]}


def traced_run(wl, seconds: float) -> tuple[dict, dict, int, int]:
    from tracing import (EXACT_COUNTS, PER_LAYER, SETUP_LAYERS, Tracer,
                         pass_metrics)
    setup_tracer = Tracer()
    with setup_tracer.installed():
        wl.setup()
    results = _corpus_check(wl)
    threads = threads_speedup(wl.records())
    results += _passes(wl, seconds, traced=True)
    failed, problems = _summary(results)
    plain, traced = [], []
    for out, _ in results:
        if out is not None:
            (traced if out.traced else plain).append(out)
    info = {"threads": threads, "problems": problems,
            "error_rate": failed / len(results),
            "output_sha256": sorted({o.sha256 for o in plain + traced})}
    if not plain or not traced:
        return {}, info, len(results), failed
    per_pass = []
    for out in traced:
        m = pass_metrics(out.spans)
        m["cli.startup_s"] = (out.wall_s - m["cli.main.busy_s"]
                              if m["cli.main.busy_s"] else 0.0)
        per_pass.append(m)
    values = {k: statistics.median_low(m[k] for m in per_pass)
              for k in per_pass[0]}
    plain_wall = statistics.median(o.wall_s for o in plain)
    traced_wall = statistics.median(o.wall_s for o in traced)
    setup_metrics = pass_metrics(setup_tracer.spans)
    values.update({k: setup_metrics[k] for k in SETUP_LAYERS})
    absent = sorted({name for o in traced for name in o.absent}
                    | set(setup_tracer.absent))
    values.update({
        "report.build_report.threads1_s": threads["threads1_s"],
        "report.build_report.threads2_speedup": threads["speedup"],
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.absent_targets": len(absent),
    })
    info.update({
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "traced_passes": len(traced), "absent_targets": absent,
        "counts_repeat": all(len({m[k] for m in per_pass}) == 1
                             for k in EXACT_COUNTS),
    })
    return ({name: {"value": values[name], "unit": unit}
             for name, unit, _ in PER_LAYER}, info, len(results), failed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its work directory and children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_package()
    os.environ["GTL_THREADS"] = "1"
    import workloads
    if args.workload == "all":
        # each workload in its own process, so peak RSS stays its own
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS} "
                     "or all")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        metrics, info, attempted, failed = run(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    info.update({"workload": args.workload, "seconds": args.seconds,
                 "trace": args.trace, "machine": machine_facts(args.seed)})
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
