"""Run the gtl command line in this process, as the ``gtl`` entry point
does, then write a JSON summary: the process's peak RSS and, with
``--trace``, the spans and any absent targets.

    PYTHONPATH=src python3 perfbench/cli_child.py OUT.json [--trace] analyze ...

Exits with gtl's own exit code.
"""

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _peak_rss_kb() -> int:
    # VmHWM is the peak of this program image alone; ru_maxrss would also
    # hold the parent's peak, which the kernel carries into a forked child
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    summary = {"spans": [], "absent": []}
    if argv[:1] == ["--trace"]:
        from tracing import Tracer
        tracer = Tracer()
        with tracer.installed():
            import gtl.cli
            code = gtl.cli.main(argv[1:])
        summary = {"spans": [s.to_list() for s in tracer.spans],
                   "absent": tracer.absent}
    else:
        import gtl.cli
        code = gtl.cli.main(argv)
    summary["peak_rss_kb"] = _peak_rss_kb()
    Path(out).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
