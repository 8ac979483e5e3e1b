"""Report and bundle bytes pinned across commits.

The fixtures beside this module are the reports of the golden corpus and
the digests of the README spec's simulated bundle (``regenerate.py``
builds both, and is the one way to rewrite them). Under the numpy
version the manifest records, every byte must match. Under another
version the reports are compared parsed, floats to a relative 1e-9 and
every other value exactly, and the bundle by the digests of the files no
numpy routine computes and by its EEG's end samples and sums of squares;
that comparison fails as the exact one does, it never skips.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from regenerate import ABSENT, HERE, MANIFEST, REPORTS, moved, outputs

REL_TOL = 1e-9
#: Bundle files whose bytes no numpy routine computes.
_PLAIN_FILES = ("events.csv", "meta.json")

_MANIFEST = json.loads((HERE / MANIFEST).read_text(encoding="utf-8"))
EXACT = _MANIFEST["numpy"] == np.__version__


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> dict[str, bytes]:
    return outputs(tmp_path_factory.mktemp("golden"))


def assert_close(got, want, where="") -> None:
    """``got`` equals ``want`` in shape, types and every non-float value,
    and each float to REL_TOL."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL), (where, got, want)
    else:
        assert got == want, where


def _csv_value(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def parsed(name: str, data: bytes):
    """A report's values: the JSON document, or the CSV's rows with each
    cell read as an int, else a float, else left as its text."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        return json.loads(text)
    return [[_csv_value(cell) for cell in row]
            for row in csv.reader(io.StringIO(text))]


@pytest.mark.parametrize("name", REPORTS)
def test_report_matches_its_fixture(built, name):
    want = (HERE / name).read_bytes()
    if EXACT:
        assert built[name] == want
    else:
        assert_close(parsed(name, built[name]), parsed(name, want))


def test_simulated_bundle_matches_its_fixture(built):
    got = json.loads(built[MANIFEST])["simulate"]
    want = _MANIFEST["simulate"]
    if EXACT:
        assert got == want
    else:
        assert list(got["sha256"]) == list(want["sha256"])
        for name in _PLAIN_FILES:
            assert got["sha256"][name] == want["sha256"][name], name
        assert got["n_samples"] == want["n_samples"]
        for key in ("channel_ends", "channel_sumsq"):
            assert_close(got[key], want[key], key)


def test_the_corpus_holds_each_kind_of_session(built):
    """The sessions the corpus promises are in the pinned report."""
    sessions = json.loads(built["default.json"])["sessions"]
    assert len(sessions) == 15
    assert {(s["participant"], s["keyboard"]) for s in sessions[:12]} == {
        (p, k) for p in ("p01", "p02") for k in "ABC"}
    stale, bare, marker = sessions[12:]
    assert stale["warnings"] == [
        "eeg.sidecar ignored, eeg.csv parsed: digest does not match eeg.csv"]
    assert bare["warnings"] == [] and bare["violations"] == []
    assert "MarkerOrder" in {v["code"] for v in marker["violations"]}


def test_moved_lists_each_value_that_differs():
    """What regenerate.py prints for a rewritten JSON fixture."""
    old = {"a": 1.0, "b": [1, 2], "c": "x", "d": 0, "e": 1}
    new = {"a": 1.5, "b": [1], "c": "x", "d": 0.5, "e": 1.0, "f": True}
    assert list(moved(old, new)) == [
        ("$.a", 1.0, 1.5, 0.5), ("$.b[1]", 2, ABSENT, None),
        ("$.d", 0, 0.5, math.inf), ("$.e", 1, 1.0, 0.0),
        ("$.f", ABSENT, True, None)]
    assert list(moved(new, new)) == []
