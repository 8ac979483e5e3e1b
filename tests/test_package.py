import os
import subprocess
import sys
from pathlib import Path

import gtl
from gtl.ingest import write_session

from conftest import make_event_log, make_record


def _run_fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this
    checkout's gtl."""
    src = str(Path(gtl.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path)).stdout


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from gtl import *", namespace)
    assert len(set(gtl.__all__)) == len(gtl.__all__)
    assert set(gtl.__all__) <= namespace.keys()


def test_cli_import_loads_no_executor():
    """Startup of ``gtl analyze`` pays for no process or thread pool."""
    code = ("import sys, gtl.cli; print(sorted(m for m in sys.modules if "
            "m.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    assert _run_fresh(code) == "[]\n"


def test_cli_import_loads_no_simulator():
    """Startup of ``gtl analyze`` does not import (or compile) gtl.simgen;
    only ``gtl simulate`` needs it."""
    code = "import sys, gtl.cli; print('gtl.simgen' in sys.modules)"
    assert _run_fresh(code) == "False\n"


def test_simulator_import_loads_no_bundle_or_report_code():
    """gtl.simgen builds records; writing and reporting them is ingest's
    and report's, which its import does not load."""
    code = ("import sys, gtl.simgen; print(sorted({'gtl.ingest', "
            "'gtl.report'} & sys.modules.keys()))")
    assert _run_fresh(code) == "[]\n"


def test_one_bundle_analyze_starts_no_thread(tmp_path):
    """One bundle is loaded and analysed on the calling thread, however
    many CPUs there are: no pool is imported or started. Nor is numpy.ma,
    which np.median imports on first use."""
    bundle, out = tmp_path / "b", tmp_path / "r.json"
    write_session(make_record(make_event_log([[("INSERT", "h")]])), bundle)
    code = (
        "import sys, threading, gtl.cli, gtl.ingest\n"
        "gtl.ingest._usable_cpus = lambda: 2\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda t: started.append(t) or start(t)\n"
        f"rc = gtl.cli.main(['analyze', '--session', {str(bundle)!r}, "
        f"'--out', {str(out)!r}])\n"
        "print(rc, len(started), sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'concurrent'), 'numpy.ma' in sys.modules)")
    assert _run_fresh(code) == "0 0 [] False\n"
    assert out.exists()
