import os
import subprocess
import sys
from pathlib import Path

import gtl


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from gtl import *", namespace)
    assert len(set(gtl.__all__)) == len(gtl.__all__)
    assert set(gtl.__all__) <= namespace.keys()


def test_cli_import_loads_no_executor():
    """Startup of ``gtl analyze`` pays for no process or thread pool."""
    src = str(Path(gtl.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, gtl.cli; print(sorted(m for m in sys.modules if "
            "m.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout == "[]\n"
