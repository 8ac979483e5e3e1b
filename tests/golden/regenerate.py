"""Build the golden corpus and rewrite the fixtures beside this script.

The fixtures pin, across commits, the bytes of the reports that
``gtl analyze`` makes of a small generated corpus and of the bundle that
``gtl simulate`` writes for the README's spec; ``test_golden.py``
compares the current code's output with them. This script is the one
way to rewrite them. Run it from the repository root:

    PYTHONPATH=src:tests python tests/golden/regenerate.py

For each JSON fixture it rewrites, it prints the values that moved: their
path, old and new value, and relative difference. A change that moves
these bytes reruns it and says in CHANGES.md which values moved and by
how much.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from gtl.cli import main
from gtl.ingest import EEG_SIDECAR, load_session, write_session
from gtl.model import EventLog, KeyClass, SessionMeta, SessionRecord
from gtl.report import ReportConfig, build_report, render_csv, render_json
from gtl.simgen import (BandComponent, ScriptKey, ScriptSentence, SimSpec,
                        StudyDesign, simulate_session, study_sessions)

from conftest import unbind_sidecar

HERE = Path(__file__).resolve().parent
README = HERE.parents[1] / "README.md"

#: The report configs pinned, by fixture name; each also has a ``.csv``.
CONFIGS = {
    "default": ReportConfig(),
    "participant_welch": ReportConfig(level="participant",
                                      ttest_variant="welch"),
}
REPORTS = tuple(f"{name}.{ext}" for name in CONFIGS for ext in ("json", "csv"))
MANIFEST = "manifest.json"
#: What :func:`moved` gives for a key or item one side does not have.
ABSENT = "(absent)"


def _c8_spec(seed: int) -> SimSpec:
    """C8's band mix, noise and typing, over 30 s instead of 180 s."""
    script = (ScriptSentence(10.0, tuple(
        ScriptKey(0.5, KeyClass.INSERT, c) for c in "hello world")),)
    return SimSpec(duration_s=30.0, components=(
        BandComponent(6.0, 2.0), BandComponent(10.0, 2.0),
        BandComponent(20.0, 1.5)), noise_sigma=0.25, script=script,
        seed=seed)


def corpus(root: Path) -> list[SessionRecord]:
    """The golden corpus, its bundles written under ``root``:
    - 12 short study sessions: 2 participants x 3 keyboards x 2 sessions
      of one sentence;
    - a C8-style bundle whose sidecar is stale, so its load notes it;
    - a C8-style bundle without a sidecar;
    - a C8-style session without its SESSION_START, a MarkerOrder
      violation. ``events.csv`` cannot hold one (its load raises
      MarkerOrder), so this record is built in memory.
    Records come in that order, the on-disk ones loaded as ``gtl analyze``
    loads them."""
    bundles = []
    design = StudyDesign(participants=2, sessions_per_keyboard=2,
                         sentences_per_session=1)
    for i, (meta, spec) in enumerate(study_sessions(design)):
        bundles.append(root / f"study{i:02d}")
        write_session(simulate_session(spec, meta), bundles[-1])
    stale, bare = root / "stale", root / "bare"
    write_session(simulate_session(_c8_spec(9000),
                                   SessionMeta("p03", "A", 1)), stale)
    unbind_sidecar(stale)
    write_session(simulate_session(_c8_spec(9001),
                                   SessionMeta("p03", "B", 1)), bare)
    (bare / EEG_SIDECAR).unlink()
    marker = simulate_session(_c8_spec(9002), SessionMeta("p03", "C", 1))
    return [*map(load_session, [*bundles, stale, bare]),
            replace(marker, events=EventLog(marker.events.events[1:]))]


def readme_spec() -> dict:
    """The spec of the README's "Simulate a synthetic bundle" section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Simulate a synthetic bundle"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S)[1])


def simulated(root: Path) -> dict:
    """What ``gtl simulate`` writes for the README spec: each file's sha256,
    and the EEG's sample count, each channel's first and last sample and
    its sum of squares, which a numpy other than the recorded one is held
    to instead of the EEG files' bytes."""
    spec, bundle = root / "spec.json", root / "readme"
    spec.write_text(json.dumps(readme_spec()), encoding="utf-8")
    with redirect_stdout(StringIO()):  # it prints the bundle's path
        assert main(["simulate", "--spec", str(spec),
                     "--out", str(bundle)]) == 0
    eeg = load_session(bundle).eeg
    return {
        "sha256": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted(bundle.iterdir())},
        "n_samples": eeg.n_samples,
        "channel_ends": eeg.samples[:, [0, -1]].tolist(),
        "channel_sumsq": [math.fsum((row * row).tolist())
                          for row in eeg.samples],
    }


def outputs(root: Path) -> dict[str, bytes]:
    """Each fixture's bytes as the current code makes them, built under
    the empty directory ``root``."""
    records = corpus(root / "corpus")
    out = {}
    for name, config in CONFIGS.items():
        report = build_report(records, config)
        out[f"{name}.json"] = render_json(report).encode("utf-8")
        out[f"{name}.csv"] = render_csv(report).encode("utf-8")
    manifest = {"numpy": np.__version__, "simulate": simulated(root)}
    out[MANIFEST] = (json.dumps(manifest, indent=2, sort_keys=True)
                     + "\n").encode("utf-8")
    return out


def moved(old: object, new: object, where: str = "$"
          ) -> Iterator[tuple[str, object, object, Optional[float]]]:
    """(path, old value, new value, relative difference) for each value
    that differs between two decoded JSON documents, in document order,
    old keys first. A key or item only one side has is :data:`ABSENT` on
    the other; the difference is None unless both values are numbers."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(key for key in new if key not in old)]:
            yield from moved(old.get(key, ABSENT), new.get(key, ABSENT),
                             f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from moved(old[i] if i < len(old) else ABSENT,
                             new[i] if i < len(new) else ABSENT,
                             f"{where}[{i}]")
    elif type(old) is not type(new) or old != new:
        numbers = all(type(v) in (int, float) for v in (old, new))
        yield where, old, new, (
            None if not numbers else abs(new - old) / abs(old) if old
            else math.inf)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in outputs(Path(tmp)).items():
            old = (HERE / name).read_bytes() if (HERE / name).exists() else None
            (HERE / name).write_bytes(data)
            print(f"{name}: {'unchanged' if old == data else 'rewritten'}")
            if old is not None and old != data and name.endswith(".json"):
                for where, was, now, rel in moved(json.loads(old),
                                                  json.loads(data)):
                    diff = "" if rel is None else f" (relative {rel:.3g})"
                    print(f"  {where}: {was!r} -> {now!r}{diff}")
