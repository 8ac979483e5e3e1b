"""On-disk session bundles: parsing, validation and round-trip writing.

A bundle directory holds ``meta.json``, ``eeg.csv``, ``events.csv`` and
optionally ``eeg.sidecar`` and ``gaze.csv``, which is checked on load and
not kept. Numbers use ``.`` as decimal point, fields are comma-separated,
newlines are ``\\n``, and floats serialize in shortest round-trip form, so
writing a loaded bundle reproduces it byte for byte. Every number cell of
every text input is read by :func:`read_number` and every plain
(unquoted) csv row by :func:`split_rows`.

``eeg.sidecar`` is a binary copy of the (t, channels) matrix of
``eeg.csv``: the 32-byte sha256 digest of the exact ``eeg.csv`` bytes,
then the matrix as raw row-major little-endian float64, with no header:
the width is ``1 + channels`` of ``meta.json`` and the row count that of
``eeg.csv``. Its bytes are deterministic. :func:`write_session` writes
it; ``gtl analyze`` never does. ``eeg.csv`` stays canonical:
:func:`load_session` takes the matrix from the sidecar only when it is
bound to the ``eeg.csv`` bytes it read, i.e. the digest matches, the
data holds one finite row per non-blank ``eeg.csv`` data line, and the
first and last of those lines read as exactly the first and last rows.
Otherwise it parses ``eeg.csv`` and the session gets a warning naming
the reason: a digest mismatch, a length that is not those rows, a
non-finite value, end rows that differ, or a read error. A missing
sidecar is silent. Either way the header, channel-name, time-order and
rate checks of :func:`parse_eeg_csv` run on the matrix unchanged. The
digest guards against a stale sidecar, not a forged one: the lines
between the first and the last are not read when the sidecar is bound.

:func:`write_session` streams ``eeg.csv``: :func:`eeg_to_csv` formats the
matrix in row blocks of about EEG_BLOCK_CELLS cells, on every CPU the
process may use (forked workers where ``os.fork`` exists), and writes
them in file order to the file and to the sidecar's digest, so the text
is never held whole and never read back. The bytes are those of one
serial pass. The sidecar is written from the matrix's own buffer.
``gtl simulate`` of an 850 s, 14-channel session at 128 Hz peaks at
70 MiB, and a 14- to 256-channel spec at the memory budget of
:mod:`gtl.simgen` at 236 MiB (CPython 3.11, numpy 2.4, Linux x86-64,
two CPUs).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import warnings
from collections import deque
from dataclasses import fields
from pathlib import Path
from typing import (BinaryIO, Callable, Iterable, Iterator, Optional,
                    Sequence, Union)

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
)
from .model import (
    EVENT_FIELDS,
    EegRecording,
    Event,
    EventKind,
    EventLog,
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
EEG_SIDECAR = "eeg.sidecar"

#: Cells of the (t, channels) matrix that :func:`eeg_to_csv` formats as
#: one block of rows; a row wider than this is a block of its own.
EEG_BLOCK_CELLS = 64 * 1024

#: Bytes of ``eeg.csv`` that :func:`_row_spans` scans at a time.
_ROW_SCAN_BLOCK = 256 * 1024

_DIGEST_SIZE = hashlib.sha256().digest_size
#: What the sidecar stores: float64, little-endian on every platform, so
#: its bytes do not depend on the machine that wrote them.
_SIDECAR_DTYPE = np.dtype("<f8")


def as_text(data: bytes, name: str) -> str:
    """Decode UTF-8 bytes; invalid bytes are a BadEncoding at their row."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{name} is not valid UTF-8 ({exc.reason})",
                          row=data.count(b"\n", 0, exc.start) + 1) from None


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

def parse_meta_json(data: bytes) -> SessionMeta:
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
        return SessionMeta(obj["participant_id"], obj["keyboard"],
                           obj["session_index"], obj["fs_eeg"],
                           obj["channels"])
    except KeyError as exc:
        raise MalformedMeta(
            f"session meta misses key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise MalformedMeta(f"session meta field invalid: {exc}") from exc


def meta_to_json(meta: SessionMeta) -> str:
    # not dataclasses.asdict, which deep-copies every channel name
    obj = {f.name: getattr(meta, f.name) for f in fields(meta)}
    obj["channels"] = obj.pop("channel_names")
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- eeg.csv -----------------------------------------------------------------

def parse_eeg_csv(data: bytes, meta: SessionMeta,
                  matrix: Optional[np.ndarray] = None) -> EegRecording:
    """Strictly parse the EEG matrix and cross-check it against the metadata.

    Timestamps must be uniformly spaced to within RATE_TOLERANCE of the
    metadata rate; the rate inferred from the median spacing must agree
    with ``meta.fs_eeg`` to the same tolerance. ``matrix``, when given, is
    the (t, channels) body of ``data`` read from a sidecar bound to it; the
    header and every check after the body run on it unchanged.
    """
    if matrix is not None and data.isascii():
        # the sidecar stands for the body; ASCII is valid UTF-8, so only
        # the header needs decoding
        text = data[:data.find(b"\n") + 1].decode("ascii")
    else:
        text = as_text(data, EEG_FILE)
    body_start = text.find("\n") + 1
    if not body_start:
        raise BadHeader("eeg.csv has no header row", row=1)
    header = text[:body_start - 1].removesuffix("\r")
    columns = header.split(",")
    if not columns or columns[0] != "t":
        raise BadHeader(f"eeg.csv header must start with 't', got {header!r}",
                        row=1)
    names = tuple(columns[1:])
    if names != meta.channel_names:
        if len(names) != len(meta.channel_names):
            raise ChannelCountMismatch(
                f"eeg.csv has {len(names)} channels, metadata names "
                f"{len(meta.channel_names)}", row=1)
        raise ChannelCountMismatch(
            f"eeg.csv channel names {names} differ from metadata", row=1)
    if matrix is None:
        matrix = _parse_eeg_body(text[body_start:], len(columns))

    t = matrix[:, 0]
    if t.shape[0] > 1:
        # stamps too far apart for a float spacing get an inf one, which
        # the rate checks reject
        with np.errstate(over="ignore"):
            spacing = np.diff(t)
            median = float(np.median(spacing))
        if np.any(spacing <= 0):
            bad = int(np.argmax(spacing <= 0))
            raise NonMonotonicTime(
                f"eeg.csv timestamps must increase strictly "
                f"(t[{bad + 1}]={t[bad + 1]} after t[{bad}]={t[bad]})",
                row=_data_row(data, bad + 1))
        # |median - 1/fs| > tol/fs times fs: 1/fs overflows below 2**-1024
        if abs(median * meta.fs_eeg - 1.0) > RATE_TOLERANCE:
            raise NonUniformRate(
                f"median spacing {median} s implies {1.0 / median:.6g} Hz, "
                f"metadata says {meta.fs_eeg} Hz")
        if np.any(np.abs(spacing - median) > RATE_TOLERANCE * median):
            bad = int(np.argmax(np.abs(spacing - median) > RATE_TOLERANCE * median))
            raise NonUniformRate(
                f"sample spacing {spacing[bad]} s deviates from {median} s",
                row=_data_row(data, bad + 1))
    return EegRecording(t0=float(t[0]), fs=meta.fs_eeg,
                        samples=matrix[:, 1:].T)


def _parse_eeg_body(body: str, n_cols: int) -> np.ndarray:
    """The (t, channels) matrix of the rows after the header."""
    if not body.strip():
        raise MalformedRow("eeg.csv has no data rows", row=2)
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
    return matrix


def _data_row(data: bytes, index: int) -> Optional[int]:
    """File line of matrix row ``index`` of ``eeg.csv``, None past the last
    row. Only error paths ask, so only they pay for the scan."""
    starts, _ = _row_spans(data)
    if index >= starts.size:
        return None
    return data.count(b"\n", 0, starts[index]) + 1


def _row_spans(eeg_csv: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop offsets of the lines after the header of ``eeg_csv``
    that hold a row: the lines :func:`split_rows` does not skip as blank.
    Vectorised scans of _ROW_SCAN_BLOCK bytes each instead of a bytes
    object per line, or a newline mask as large as the file."""
    data = np.frombuffer(eeg_csv, np.uint8)
    starts = np.concatenate([np.empty(0, np.intp)] + [
        np.flatnonzero(data[i:i + _ROW_SCAN_BLOCK] == ord("\n")) + (i + 1)
        for i in range(0, data.size, _ROW_SCAN_BLOCK)])
    stops = np.append(starts[1:] - 1, data.size)[:starts.size]
    length = stops - starts
    # stops - 1 is the line's last byte, or the newline before an empty one
    blank = (length == 0) | ((length == 1) & (data[stops - 1] == ord("\r")))
    return starts[~blank], stops[~blank]


def eeg_matrix(eeg: EegRecording) -> np.ndarray:
    """The (t, channels) matrix that ``eeg.csv`` holds, one row per sample,
    in row-major order: the order of the file and of the sidecar."""
    matrix = np.empty((eeg.n_samples, 1 + eeg.n_channels))
    matrix[:, 0] = eeg.t0 + np.arange(eeg.n_samples) / eeg.fs
    matrix[:, 1:] = eeg.samples.T
    return matrix


def eeg_to_csv(matrix: np.ndarray, channel_names: tuple[str, ...],
               out: BinaryIO) -> bytes:
    """Write the ``eeg.csv`` bytes of an :func:`eeg_matrix` to ``out`` and
    return their sha256 digest.

    The rows are formatted in blocks of about EEG_BLOCK_CELLS cells. With
    more than one block, more than one CPU and ``os.fork``, forked workers
    format them, one per CPU the process may use and at most one per
    block, with at most two blocks per worker in flight; otherwise this
    process does. Either way the blocks reach ``out`` and the digest in
    file order, so the bytes are the same.
    """
    digest = hashlib.sha256()

    def put(chunk: bytes) -> None:
        out.write(chunk)
        digest.update(chunk)

    put(("t," + ",".join(channel_names) + "\n").encode("utf-8"))
    rows = max(1, EEG_BLOCK_CELLS // matrix.shape[1])
    blocks = [matrix[i:i + rows] for i in range(0, matrix.shape[0], rows)]
    workers = min(len(blocks), _usable_cpus()) if hasattr(os, "fork") else 1
    if workers > 1:
        _format_in_pool(blocks, workers, put)
    else:
        for chunk in map(_eeg_lines, blocks):
            put(chunk)
    return digest.digest()


def _eeg_lines(block: np.ndarray) -> bytes:
    """``eeg.csv`` lines of the rows of ``block``, each ending in ``\\n``."""
    return "".join([",".join(map(repr, row)) + "\n"
                    for row in block.tolist()]).encode("ascii")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_in_pool(blocks: list[np.ndarray], workers: int,
                    put: Callable[[bytes], None]) -> None:
    """``put(_eeg_lines(block))`` for each block in order, the formatting
    done by ``workers`` forked processes. The pool is shut down and its
    workers joined before this returns or raises."""
    # imported here: the analyze path never writes a bundle, and these
    # imports cost it startup time and memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pending: deque = deque()
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool, \
            warnings.catch_warnings():
        # the first submit forks every worker. Python >= 3.12 warns on a
        # fork while numpy's BLAS threads exist; they are idle, and a
        # worker never calls into BLAS
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        for block in blocks:
            if len(pending) == 2 * workers:
                put(pending.popleft().result())
            pending.append(pool.submit(_eeg_lines, block))
        while pending:
            put(pending.popleft().result())


# --- eeg.sidecar -------------------------------------------------------------

def read_sidecar(data: bytes, eeg_csv: bytes, width: int) -> np.ndarray:
    """The matrix of a sidecar bound to ``eeg_csv`` with ``width`` columns.

    Raises ValueError naming the reason when the sidecar is unusable.
    """
    if data[:_DIGEST_SIZE] != hashlib.sha256(eeg_csv).digest():
        raise ValueError("digest does not match eeg.csv")
    starts, stops = _row_spans(eeg_csv)
    n_rows = starts.size
    size = len(data) - _DIGEST_SIZE
    if not n_rows or size != n_rows * width * _SIDECAR_DTYPE.itemsize:
        raise ValueError(f"{size} data bytes are not the {n_rows} rows of "
                         f"{width} float64 values in eeg.csv")
    matrix = np.frombuffer(data, _SIDECAR_DTYPE, offset=_DIGEST_SIZE)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("holds a non-finite value")
    matrix = matrix.reshape(n_rows, width)
    if not (_reads_as(eeg_csv[starts[0]:stops[0]], matrix[0])
            and _reads_as(eeg_csv[starts[-1]:stops[-1]], matrix[-1])):
        raise ValueError("first or last row differs from eeg.csv")
    return matrix


def _reads_as(line: bytes, values: np.ndarray) -> bool:
    """Whether csv ``line`` reads as exactly ``values``, bit for bit."""
    cells = line.removesuffix(b"\r").decode("ascii", "replace").split(",")
    try:
        read = np.array([read_number(cell, EEG_FILE, 0) for cell in cells])
    except MalformedNumber:
        return False
    return read.tobytes() == values.tobytes()


# --- events.csv --------------------------------------------------------------

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


def parse_events_csv(data: bytes) -> EventLog:
    """Parse and structurally validate the event log.

    Rows are ``t,kind,arg1,arg2`` with RFC-4180 quoting on the text
    fields; a field that the row's kind does not use must be empty, and
    :class:`Event` checks the rest. A malformed row aborts the parse with
    a located error; then the first :func:`event_log_violations` entry
    aborts it as a MarkerOrder at its event's row. A returned log always satisfies the
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
        raw_t, kind, *args = row
        t = read_number(raw_t, EVENTS_FILE, row_no, col=1)
        try:
            names = EVENT_FIELDS[EventKind(kind)]
            # Event cannot see a column its kind has no field for
            if any(args[len(names):]):
                raise MalformedRow(f"a {kind} row must leave the fields it "
                                   f"does not use empty", row=row_no)
            events.append(Event(t, kind, **dict(zip(names, args))))
        except ValueError as exc:
            # an unknown kind or key class
            raise MalformedRow(f"invalid event: {exc}", row=row_no) from None
        rows.append(row_no)
    first = next(event_log_violations(events), None)
    if first is not None:
        raise MarkerOrder(f"events.csv: {first.message}", row=(
            None if first.event_index is None else rows[first.event_index]))
    return EventLog(tuple(events))


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """RFC-4180 text of ``rows``, each line ending in ``\\n``.

    csv quotes only the terminator's characters, but an unquoted ``\\r``
    would read back as a line end, so a row holding one is quoted whole.
    """
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any("\r" in cell for cell in row) else plain).writerow(row)
    return buf.getvalue()


def _event_row(ev: Event) -> list[str]:
    args = [getattr(ev, name) for name in EVENT_FIELDS[ev.kind]]
    cells = [a.value if isinstance(a, KeyClass) else a for a in args]
    return [repr(ev.t), ev.kind.value, *cells, *[""] * (2 - len(cells))]


def events_to_csv(log: EventLog) -> str:
    return csv_text(map(_event_row, log))


# --- gaze.csv ----------------------------------------------------------------

def parse_gaze_csv(data: bytes) -> None:
    """Check a ``gaze.csv``: header ``t,x,y,valid``, three finite numbers
    and a ``0``/``1`` flag per row, times not decreasing. No analysis
    reads gaze, so nothing is kept."""
    header, _, body = as_text(data, GAZE_FILE).partition("\n")
    if header.removesuffix("\r") != "t,x,y,valid":
        raise BadHeader("gaze.csv header must be 't,x,y,valid'", row=1)
    prev_t = -math.inf
    for row, cells in split_rows(body, GAZE_FILE, 4, first_row=2):
        t, _, _ = (read_number(cell, GAZE_FILE, row, col)
                   for col, cell in enumerate(cells[:3], start=1))
        if cells[3] not in ("0", "1"):
            raise MalformedRow(f"valid flag must be 0 or 1, got {cells[3]!r}",
                               row=row)
        if t < prev_t:
            raise NonMonotonicTime(f"gaze timestamp {t} before {prev_t}",
                                   row=row)
        prev_t = t


# --- bundles -----------------------------------------------------------------

def load_session(path: Union[str, Path]) -> SessionRecord:
    """Parse a bundle directory into a cross-validated record.

    The EEG matrix comes from ``eeg.sidecar`` when :func:`read_sidecar`
    accepts it, else from ``eeg.csv``; an unusable sidecar is a warning.
    A present ``gaze.csv`` must pass :func:`parse_gaze_csv`. Semantic
    violations (marker breaks, transcription mismatches, events outside
    the EEG span) do not raise; they land in ``rec.validation``.
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
    matrix, sidecar_problem = None, None
    sidecar = root / EEG_SIDECAR
    if sidecar.is_file():
        try:
            matrix = read_sidecar(sidecar.read_bytes(), contents[EEG_FILE],
                                  1 + len(meta.channel_names))
        except (OSError, ValueError) as exc:
            sidecar_problem = exc
    eeg = parse_eeg_csv(contents[EEG_FILE], meta, matrix)
    events = parse_events_csv(contents[EVENTS_FILE])
    gaze_file = root / GAZE_FILE
    if gaze_file.is_file():
        parse_gaze_csv(gaze_file.read_bytes())

    rec = SessionRecord(meta=meta, eeg=eeg, events=events)
    rec.validation = validate_session(rec)
    if sidecar_problem is not None:
        rec.validation.warnings.append(
            f"{EEG_SIDECAR} ignored, {EEG_FILE} parsed: {sidecar_problem}")
    return rec


def write_session(rec: SessionRecord, path: Union[str, Path]) -> None:
    """Write a bundle such that loading it back yields an equal record.

    The EEG matrix is built once and written as ``eeg.csv`` and as the
    sidecar bound to those bytes, straight from the matrix's buffer. A
    ``gaze.csv`` there is removed.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / META_FILE).write_text(meta_to_json(rec.meta), encoding="utf-8")
    matrix = eeg_matrix(rec.eeg)
    with open(root / EEG_FILE, "wb") as f:
        digest = eeg_to_csv(matrix, rec.meta.channel_names, f)
    with open(root / EEG_SIDECAR, "wb") as f:
        f.write(digest)
        # no copy where the machine is little-endian
        f.write(np.ascontiguousarray(matrix, _SIDECAR_DTYPE).data)
    (root / EVENTS_FILE).write_text(events_to_csv(rec.events), encoding="utf-8")
    # a gaze.csv left in the directory is not this record's, and a later
    # load would still check it
    (root / GAZE_FILE).unlink(missing_ok=True)
