"""On-disk session bundles: parsing, validation and round-trip writing.

A bundle directory holds ``meta.json``, ``eeg.csv``, ``events.csv`` and
optionally ``gaze.csv``. Numbers use ``.`` as decimal point, fields are
comma-separated, newlines are ``\\n``, and floats serialize in shortest
round-trip form, so writing a loaded bundle reproduces it byte for byte.
Every number cell of every text input is read by :func:`read_number` and
every plain (unquoted) csv row by :func:`split_rows`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .errors import (
    BadEncoding,
    BadHeader,
    ChannelCountMismatch,
    MalformedMeta,
    MalformedNumber,
    MalformedRow,
    MarkerOrder,
    MissingFile,
    NonMonotonicTime,
    NonUniformRate,
    UnknownKeyClass,
    UnknownKind,
)
from .model import (
    EegRecording,
    Event,
    EventKind,
    EventLog,
    GazeSample,
    KeyClass,
    SessionMeta,
    SessionRecord,
    event_log_violations,
    validate_session,
)

#: Relative tolerance for uniform sample spacing and the rate cross-check.
RATE_TOLERANCE = 1e-6

META_FILE = "meta.json"
EEG_FILE = "eeg.csv"
EVENTS_FILE = "events.csv"
GAZE_FILE = "gaze.csv"


def as_text(data: Union[bytes, str], name: str) -> str:
    """Decode UTF-8 bytes; invalid bytes are a BadEncoding at their row."""
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadEncoding(f"{name} is not valid UTF-8 ({exc.reason})",
                              row=data.count(b"\n", 0, exc.start) + 1) from None
    return data


def read_number(cell: str, name: str, row: int,
                col: Optional[int] = None) -> float:
    """The one number grammar of the text inputs: exactly what
    ``np.loadtxt`` reads as a finite float.

    Surrounding whitespace is stripped; the rest must be ASCII without
    ``_`` or ``\\r`` and parse to a finite float. ``float()`` alone would
    also take ``1_0`` and non-ASCII digits. Anything else is a
    MalformedNumber at (``row``, ``col``) of file ``name``.
    """
    text = cell.strip()
    if text.isascii() and "_" not in text and "\r" not in cell:
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if math.isfinite(value):
                return value
    raise MalformedNumber(f"{name} cell is not a finite decimal number",
                          row=row, col=col)


def split_rows(text: str, name: str, width: int, first_row: int = 1,
               ) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each non-empty line of ``text``.

    ``text`` starts at line ``first_row`` of file ``name``. Lines end in
    ``\\n``, one ``\\r`` before it is dropped, cells are split on ``,``
    without quoting, and a row of other than ``width`` cells is a
    MalformedRow.
    """
    for row, line in enumerate(text.split("\n"), start=first_row):
        line = line.removesuffix("\r")
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise MalformedRow(
                f"{name}: expected {width} fields, got {len(cells)}", row=row)
        yield row, cells


# --- meta.json ---------------------------------------------------------------

def parse_meta_json(data: Union[bytes, str]) -> SessionMeta:
    try:
        obj = json.loads(as_text(data, META_FILE))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's
        # digit limit; RecursionError deeply nested arrays or objects
        raise MalformedMeta(f"meta.json is not valid JSON: {exc}") from exc
    return meta_from_dict(obj)


def meta_from_dict(obj: object) -> SessionMeta:
    """Session metadata from a decoded JSON value; MalformedMeta otherwise."""
    if not isinstance(obj, dict):
        raise MalformedMeta("session meta must be a JSON object")
    try:
        channels = obj["channels"]
        if (not isinstance(channels, list)
                or not all(isinstance(c, str) for c in channels)):
            raise MalformedMeta("channels must be an array of strings")
        return SessionMeta(
            participant_id=str(obj["participant_id"]),
            keyboard=str(obj["keyboard"]),
            session_index=int(obj["session_index"]),
            fs_eeg=float(obj["fs_eeg"]),
            channel_names=tuple(channels),
        )
    except KeyError as exc:
        raise MalformedMeta(
            f"session meta misses key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedMeta(f"session meta field invalid: {exc}") from exc


def meta_to_json(meta: SessionMeta) -> str:
    return json.dumps(
        {
            "participant_id": meta.participant_id,
            "keyboard": meta.keyboard,
            "session_index": meta.session_index,
            "fs_eeg": meta.fs_eeg,
            "channels": list(meta.channel_names),
        },
        sort_keys=True, indent=2) + "\n"


# --- eeg.csv -----------------------------------------------------------------

def parse_eeg_csv(data: Union[bytes, str], meta: SessionMeta) -> EegRecording:
    """Strictly parse the EEG matrix and cross-check it against the metadata.

    Timestamps must be uniformly spaced to within RATE_TOLERANCE of the
    metadata rate; the rate inferred from the median spacing must agree
    with ``meta.fs_eeg`` to the same tolerance.
    """
    text = as_text(data, EEG_FILE)
    header, newline, body = text.partition("\n")
    if not newline:
        raise BadHeader("eeg.csv has no header row")
    header = header.removesuffix("\r")
    columns = header.split(",")
    if not columns or columns[0] != "t":
        raise BadHeader(f"eeg.csv header must start with 't', got {header!r}")
    names = tuple(columns[1:])
    if names != meta.channel_names:
        if len(names) != len(meta.channel_names):
            raise ChannelCountMismatch(
                f"eeg.csv has {len(names)} channels, metadata names "
                f"{len(meta.channel_names)}")
        raise ChannelCountMismatch(
            f"eeg.csv channel names {names} differ from metadata")

    if not body.strip():
        raise MalformedRow("eeg.csv has no data rows", row=2)
    n_cols = len(columns)
    try:
        matrix = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2,
                            comments=None)
    except ValueError:
        matrix = None
    if (matrix is None or matrix.shape[1] != n_cols
            or not np.all(np.isfinite(matrix))):
        # loadtxt reads the same grammar; where they differ, one scan with
        # the shared readers names the first bad row or cell in row order
        matrix = np.array([
            [read_number(cell, EEG_FILE, row, col)
             for col, cell in enumerate(cells, start=1)]
            for row, cells in split_rows(body, EEG_FILE, n_cols, first_row=2)])

    t = matrix[:, 0]
    if t.shape[0] > 1:
        spacing = np.diff(t)
        if np.any(spacing <= 0):
            bad = int(np.argmax(spacing <= 0))
            raise NonMonotonicTime(
                f"eeg.csv timestamps must increase strictly "
                f"(t[{bad + 1}]={t[bad + 1]} after t[{bad}]={t[bad]})",
                row=bad + 3)
        expected = 1.0 / meta.fs_eeg
        median = float(np.median(spacing))
        if abs(median - expected) > RATE_TOLERANCE * expected:
            raise NonUniformRate(
                f"median spacing {median} s implies {1.0 / median:.6g} Hz, "
                f"metadata says {meta.fs_eeg} Hz")
        if np.any(np.abs(spacing - median) > RATE_TOLERANCE * median):
            bad = int(np.argmax(np.abs(spacing - median) > RATE_TOLERANCE * median))
            raise NonUniformRate(
                f"sample spacing {spacing[bad]} s deviates from {median} s",
                row=bad + 3)
    return EegRecording(t0=float(t[0]), fs=meta.fs_eeg,
                        samples=matrix[:, 1:].T)


def eeg_to_csv(eeg: EegRecording, channel_names: tuple[str, ...]) -> str:
    lines = ["t," + ",".join(channel_names)]
    times = eeg.t0 + np.arange(eeg.n_samples) / eeg.fs
    rows = np.column_stack((times, eeg.samples.T)).tolist()
    lines.extend(",".join(map(repr, row)) for row in rows)
    lines.append("")
    return "\n".join(lines)


# --- events.csv --------------------------------------------------------------

_EVENT_KINDS = {k.value for k in EventKind}
_KEY_CLASSES = {k.value for k in KeyClass}
_TEXT_KINDS = {EventKind.SENTENCE_SHOWN.value, EventKind.SENTENCE_SUBMIT.value}


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) per record; a record csv cannot read, e.g. a
    field over csv's size limit, becomes a located MalformedRow."""
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise MalformedRow(f"events.csv record is unreadable: {exc}",
                           row=reader.line_num) from None


def parse_events_csv(data: Union[bytes, str]) -> EventLog:
    """Parse and structurally validate the event log.

    Rows are ``t,kind,arg1,arg2`` with RFC-4180 quoting on the text
    fields. A malformed row aborts the parse with a located error; then
    the first :func:`event_log_violations` entry aborts it as a
    MarkerOrder at its event's row. A returned log always satisfies the
    event-log invariants.
    """
    events: list[Event] = []
    rows: list[int] = []
    for row_no, row in _csv_rows(as_text(data, EVENTS_FILE)):
        if not row:
            continue
        if len(row) != 4:
            raise MalformedRow(
                f"expected 4 fields t,kind,arg1,arg2, got {len(row)}",
                row=row_no)
        raw_t, kind, arg1, arg2 = row
        t = read_number(raw_t, EVENTS_FILE, row_no, col=1)
        if kind not in _EVENT_KINDS:
            raise UnknownKind(f"unknown event kind {kind!r}", row=row_no)
        if kind == EventKind.KEY.value:
            if arg1 not in _KEY_CLASSES:
                raise UnknownKeyClass(f"unknown key class {arg1!r}", row=row_no)
            events.append(Event.key(t, KeyClass(arg1), arg2))
        elif kind in _TEXT_KINDS:
            events.append(Event(t, EventKind(kind), text=arg1))
        else:
            events.append(Event(t, EventKind(kind)))
        rows.append(row_no)
    first = next(event_log_violations(events), None)
    if first is not None:
        raise MarkerOrder(f"events.csv: {first.message}", row=(
            None if first.event_index is None else rows[first.event_index]))
    return EventLog(tuple(events))


def events_to_csv(log: EventLog) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # csv quotes only the terminator's characters, but an unquoted \r in
    # text would read back as a line end
    quoting = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for ev in log:
        t = repr(float(ev.t))
        if ev.kind is EventKind.SENTENCE_SHOWN or ev.kind is EventKind.SENTENCE_SUBMIT:
            row = [t, ev.kind.value, ev.text, ""]
        elif ev.kind is EventKind.KEY:
            row = [t, ev.kind.value, ev.key_class.value, ev.produced]
        else:
            row = [t, ev.kind.value, "", ""]
        (quoting if "\r" in row[2] + row[3] else writer).writerow(row)
    return buf.getvalue()


# --- gaze.csv ----------------------------------------------------------------

def parse_gaze_csv(data: Union[bytes, str]) -> tuple[GazeSample, ...]:
    header, _, body = as_text(data, GAZE_FILE).partition("\n")
    if header.removesuffix("\r") != "t,x,y,valid":
        raise BadHeader("gaze.csv header must be 't,x,y,valid'")
    out: list[GazeSample] = []
    for row, cells in split_rows(body, GAZE_FILE, 4, first_row=2):
        t, x, y = (read_number(cell, GAZE_FILE, row, col)
                   for col, cell in enumerate(cells[:3], start=1))
        if cells[3] not in ("0", "1"):
            raise MalformedRow(f"valid flag must be 0 or 1, got {cells[3]!r}",
                               row=row)
        if out and t < out[-1].t:
            raise NonMonotonicTime(f"gaze timestamp {t} before {out[-1].t}",
                                   row=row)
        out.append(GazeSample(t, x, y, cells[3] == "1"))
    return tuple(out)


def gaze_to_csv(gaze: tuple[GazeSample, ...]) -> str:
    lines = ["t,x,y,valid"]
    for g in gaze:
        lines.append(f"{float(g.t)!r},{float(g.x)!r},{float(g.y)!r},"
                     f"{1 if g.valid else 0}")
    lines.append("")
    return "\n".join(lines)


# --- bundles -----------------------------------------------------------------

def load_session(path: Union[str, Path]) -> SessionRecord:
    """Parse a bundle directory into a cross-validated record.

    Semantic violations (marker breaks, transcription mismatches, events
    outside the EEG span) do not raise; they land in ``rec.validation``.
    """
    root = Path(path)
    if not root.is_dir():
        raise MissingFile(f"session bundle {root} is not a directory")
    contents: dict[str, bytes] = {}
    for name in (META_FILE, EEG_FILE, EVENTS_FILE):
        f = root / name
        if not f.is_file():
            raise MissingFile(f"bundle {root} misses {name}")
        contents[name] = f.read_bytes()
        if not contents[name]:
            raise MissingFile(f"bundle file {f} is empty")

    meta = parse_meta_json(contents[META_FILE])
    eeg = parse_eeg_csv(contents[EEG_FILE], meta)
    events = parse_events_csv(contents[EVENTS_FILE])
    gaze = None
    gaze_file = root / GAZE_FILE
    if gaze_file.is_file():
        gaze = parse_gaze_csv(gaze_file.read_bytes())

    rec = SessionRecord(meta=meta, eeg=eeg, events=events, gaze=gaze)
    rec.validation = validate_session(rec)
    return rec


def write_session(rec: SessionRecord, path: Union[str, Path]) -> None:
    """Write a bundle such that loading it back yields an equal record."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / META_FILE).write_text(meta_to_json(rec.meta), encoding="utf-8")
    (root / EEG_FILE).write_text(
        eeg_to_csv(rec.eeg, rec.meta.channel_names), encoding="utf-8")
    (root / EVENTS_FILE).write_text(events_to_csv(rec.events), encoding="utf-8")
    if rec.gaze is not None:
        (root / GAZE_FILE).write_text(gaze_to_csv(rec.gaze), encoding="utf-8")
