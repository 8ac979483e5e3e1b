"""On-disk session bundles: parsing, validation and round-trip writing.

A bundle directory holds ``meta.json``, ``eeg.csv``, ``events.csv`` and
optionally ``eeg.sidecar`` and ``gaze.csv``, which is checked on load and
not kept. Numbers use ``.`` as decimal point, fields are comma-separated,
newlines are ``\\n``, and floats serialize in shortest round-trip form, so
writing a loaded bundle reproduces it byte for byte. Every number cell of
every text input is read by :func:`read_number` and every plain
(unquoted) csv row by :func:`split_rows`. A line holds a row when it is
not empty once one ``\r`` before its ``\n`` is dropped; :func:`_row_lines`
is that rule.

``eeg.sidecar`` is a binary copy of the (t, channels) matrix of
``eeg.csv``: the 32-byte sha256 digest of the exact ``eeg.csv`` bytes,
then the matrix as raw row-major little-endian float64, with no header:
the width is ``1 + channels`` of ``meta.json`` and the row count that of
``eeg.csv``. Its bytes are deterministic. :func:`write_session` writes
it; ``gtl analyze`` never does. ``eeg.csv`` stays canonical:
:func:`load_session` takes the matrix from the sidecar only when it is
bound to the ``eeg.csv`` bytes, which must be as :func:`write_session`
writes them: the digest matches, every line after the header is an
ASCII row (the last may lack its newline), the data holds one finite
row per line, and its first and last rows, as written, lie where those
rows do: right after the header, and after a newline at the end of the
file (without their newline if the file has none). Otherwise it parses
``eeg.csv`` and the session gets a warning naming the reason: a digest
mismatch, rows that are not ASCII, a length that is not those rows, a
non-finite value, end rows that differ (also a row spelled other than
:func:`write_session` spells it), or a read error. A missing sidecar is
silent. Either way the header, channel-name, time-order and rate checks
of :func:`parse_eeg_csv` run on the matrix unchanged, and a time error
in matrix row ``i`` of a bound sidecar names line ``i + 2``. The digest
guards against a stale sidecar, not a forged one: the lines between the
first and the last are not read when the sidecar is bound.

Blocks hold :data:`gtl.model.BLOCK_BYTES`. :func:`load_session` reads
``eeg.csv`` once in blocks for its digest, header and line count, and
keeps no row; a bound sidecar is read in row blocks straight into
channel-major samples, so neither file is held whole. ``eeg.csv`` is
read whole only to parse it, when no sidecar is bound. A 180 s,
14-channel bundle with a 6.6 MB ``eeg.csv`` loads at a tracemalloc peak
of 3.2 MiB, 2.5 MiB of them the samples, and at 16.7 MiB from
``eeg.csv`` alone (CPython 3.11, numpy 2.4, Linux x86-64).

:func:`write_session` streams ``eeg.csv``: :func:`eeg_to_csv` formats the
matrix in row blocks, on every CPU the process may use (forked workers
where ``os.fork`` exists), and writes them in file order to the file and
to the sidecar's digest, so the text is never held whole and never read
back. The bytes are those of one serial pass. The sidecar is written
from the matrix's own buffer.
``gtl simulate`` of an 850 s, 14-channel session at 128 Hz peaks at
64 MiB, and a 14- to 256-channel spec at the memory budget of
:mod:`gtl.simgen` at 232 MiB (CPython 3.11, numpy 2.4, Linux x86-64,
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
from itertools import islice
from pathlib import Path
from typing import (BinaryIO, Callable, Iterable, Iterator, Optional,
                    Sequence, TypeVar, Union)

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
from . import model
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
    row_blocks,
    validate_session,  # not called here; still importable from this module
)

#: Relative tolerance for uniform sample spacing and the rate cross-check.
RATE_TOLERANCE = 1e-6

META_FILE = "meta.json"
EEG_FILE = "eeg.csv"
EVENTS_FILE = "events.csv"
GAZE_FILE = "gaze.csv"
EEG_SIDECAR = "eeg.sidecar"

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


def _row_lines(text: str, first_row: int = 1) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of ``text`` that holds a row.

    ``text`` starts at line ``first_row``. Lines end in ``\\n``, one
    ``\\r`` before it is dropped, and a line left empty holds no row.
    """
    for row, line in enumerate(text.split("\n"), start=first_row):
        line = line.removesuffix("\r")
        if line:
            yield row, line


def split_rows(text: str, name: str, width: int, first_row: int = 1,
               ) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each row line (:func:`_row_lines`) of
    ``text``, which starts at line ``first_row`` of file ``name``.

    Cells are split on ``,`` without quoting, and a row of other than
    ``width`` cells is a MalformedRow.
    """
    for row, line in _row_lines(text, first_row):
        cells = line.split(",")
        if len(cells) != width:
            raise MalformedRow(
                f"{name}: expected {width} fields, got {len(cells)}", row=row)
        yield row, cells


# --- meta.json ---------------------------------------------------------------

def decode_json(text: str) -> object:
    """``json.loads(text)``, which also raises a ValueError for nesting
    past Python's recursion limit."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(exc) from None


def parse_meta_json(data: bytes) -> SessionMeta:
    try:
        obj = decode_json(as_text(data, META_FILE))
    except ValueError as exc:
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
    obj = fields_dict(meta)
    obj["channels"] = obj.pop("channel_names")
    return json_text(obj)


# --- eeg.csv -----------------------------------------------------------------

def parse_eeg_csv(data: bytes, meta: SessionMeta,
                  matrix: Optional[np.ndarray] = None) -> EegRecording:
    """Strictly parse the EEG matrix and cross-check it against the metadata.

    Timestamps must be uniformly spaced to within RATE_TOLERANCE of the
    metadata rate; the rate inferred from the median spacing must agree
    with ``meta.fs_eeg`` to the same tolerance. ``matrix``, when given, is
    the (t, channels) body of ``eeg.csv`` read from a sidecar bound to it,
    and ``data`` may be the header line alone. The header and every check
    after the body run unchanged, and a time error in matrix row ``i``
    names line ``i + 2``: a bound file has one row per line.
    """
    text = as_text(data, EEG_FILE)
    del data  # a caller that passes its only reference frees the bytes here
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
    parsed = matrix is None
    if parsed:
        matrix = _parse_eeg_body(text, len(columns))

    def row_of(index: int) -> Optional[int]:
        return _data_row(text, index) if parsed else index + 2

    t = matrix[:, 0]
    if t.shape[0] > 1:
        # stamps too far apart for a float spacing get an inf one, which
        # the rate checks reject
        with np.errstate(over="ignore"):
            spacing = np.diff(t)
            # np.median's mean of the middle values, without the NaN check
            # that imports numpy.ma
            middle = [(spacing.size - 1) // 2, spacing.size // 2]
            median = float(np.mean(np.partition(spacing, middle)[
                middle[0]:middle[1] + 1]))
        if np.any(spacing <= 0):
            bad = int(np.argmax(spacing <= 0))
            raise NonMonotonicTime(
                f"eeg.csv timestamps must increase strictly "
                f"(t[{bad + 1}]={t[bad + 1]} after t[{bad}]={t[bad]})",
                row=row_of(bad + 1))
        # |median - 1/fs| > tol/fs times fs: 1/fs overflows below 2**-1024
        if abs(median * meta.fs_eeg - 1.0) > RATE_TOLERANCE:
            raise NonUniformRate(
                f"median spacing {median} s implies {1.0 / median:.6g} Hz, "
                f"metadata says {meta.fs_eeg} Hz")
        if np.any(np.abs(spacing - median) > RATE_TOLERANCE * median):
            bad = int(np.argmax(np.abs(spacing - median) > RATE_TOLERANCE * median))
            raise NonUniformRate(
                f"sample spacing {spacing[bad]} s deviates from {median} s",
                row=row_of(bad + 1))
    return EegRecording(t0=float(t[0]), fs=meta.fs_eeg,
                        samples=matrix[:, 1:].T)


def _parse_eeg_body(text: str, n_cols: int) -> np.ndarray:
    """The (t, channels) matrix of the rows after the ``eeg.csv`` header."""
    # lines, not a StringIO, which copies the text at 4 bytes a character
    lines = text.split("\n")[1:]
    if not any(map(str.strip, lines)):
        raise MalformedRow("eeg.csv has no data rows", row=2)
    try:
        matrix = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        matrix = None
    if (matrix is None or matrix.shape[1] != n_cols
            or not np.all(np.isfinite(matrix))):
        # loadtxt reads the same grammar; where they differ, one scan with
        # the shared readers names the first bad row or cell in row order,
        # after the header: the first row line, and as wide as the rows
        rows = islice(split_rows(text, EEG_FILE, n_cols), 1, None)
        matrix = np.array([[read_number(cell, EEG_FILE, row, col)
                            for col, cell in enumerate(cells, start=1)]
                           for row, cells in rows])
    return matrix


def _data_row(text: str, index: int) -> Optional[int]:
    """File line of matrix row ``index`` of the ``eeg.csv`` text, None past
    the last row. The header is the first row line. Only error paths ask,
    so only they pay for the scan."""
    return next(islice(_row_lines(text), index + 1, None), (None,))[0]


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

    The rows are formatted in blocks (:func:`gtl.model.row_blocks`). With
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
    blocks = [matrix[b] for b in row_blocks(len(matrix), 8 * matrix.shape[1])]
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

class _EegScan:
    """What one pass over the ``eeg.csv`` bytes of ``f`` yields to bind a
    sidecar to them. After the header line, blocks of
    :data:`gtl.model.BLOCK_BYTES` go to one sha256 and a vectorised
    newline count, and none is kept. Every line after the header counts
    as a row, as in the files :func:`write_session` writes.
    """

    digest: bytes  # sha256 of the bytes
    head: bytes  # the header line with its newline; all bytes if none
    rows: int  # lines after the header, the last maybe without newline
    ascii: bool  # whether every byte after the header is ASCII
    size: int  # the byte count
    newline_end: bool  # whether the last byte is a newline

    def __init__(self, f: BinaryIO) -> None:
        self.head = f.readline()
        digest, newlines = hashlib.sha256(self.head), 0
        self.ascii, self.newline_end = True, self.head.endswith(b"\n")
        # reused for every block; a fresh mask per block raised peak RSS
        newline = np.empty(model.BLOCK_BYTES, bool)
        while block := f.read(model.BLOCK_BYTES):
            digest.update(block)
            self.ascii = self.ascii and block.isascii()
            newlines += np.count_nonzero(np.equal(
                np.frombuffer(block, np.uint8), ord("\n"),
                out=newline[:len(block)]))
            self.newline_end = block.endswith(b"\n")
        self.size, self.digest = f.tell(), digest.digest()
        # a last line without its newline is a row too
        self.rows = newlines + (self.size > len(self.head)
                                and not self.newline_end)


def _read_sidecar(f: BinaryIO, eeg_csv: BinaryIO, scan: _EegScan,
                  width: int) -> np.ndarray:
    """The (rows, width) matrix of the sidecar ``f`` when it is bound to
    the scanned ``eeg.csv``, open as ``eeg_csv``; ValueError naming the
    reason otherwise. Its end rows must format (:func:`_eeg_lines`) as the
    end lines, read where they lie; ``repr`` spells each double one way,
    so this is bit for bit.

    The rows are read in blocks (:func:`gtl.model.row_blocks`) into a
    channel-major array, and the matrix is its transpose: the time column
    and each channel's column are contiguous, so the samples of an
    :class:`EegRecording` need no copy.
    """
    if f.read(_DIGEST_SIZE) != scan.digest:
        raise ValueError("digest does not match eeg.csv")
    if not scan.ascii:
        raise ValueError("eeg.csv rows are not ASCII")
    size = f.seek(0, io.SEEK_END) - _DIGEST_SIZE
    n_rows, row_bytes = scan.rows, width * _SIDECAR_DTYPE.itemsize
    not_the_rows = ValueError(
        f"{size} data bytes are not the {n_rows} rows of {width} float64 "
        f"values in eeg.csv")
    if not n_rows or size != n_rows * row_bytes:
        raise not_the_rows
    f.seek(_DIGEST_SIZE)
    columns = np.empty((width, n_rows))
    blocks = row_blocks(n_rows, row_bytes)
    block = np.empty((blocks[0].stop, width), _SIDECAR_DTYPE)
    for b in blocks:
        rows = block[:b.stop - b.start]
        if f.readinto(rows) != rows.nbytes:
            # the file shrank since its size was taken
            raise not_the_rows
        if not np.all(np.isfinite(rows)):
            raise ValueError("holds a non-finite value")
        columns[:, b] = rows.T
    matrix = columns.T
    last = b"\n" + _eeg_lines(matrix[-1:])
    if not scan.newline_end:
        last = last[:-1]
    # a single row is also the last, which the end check covers
    first = _eeg_lines(matrix[:1]) if n_rows > 1 else b""
    for offset, want in ((len(scan.head), first),
                         (max(scan.size - len(last), 0), last)):
        eeg_csv.seek(offset)
        if eeg_csv.read(len(want)) != want:
            raise ValueError("first or last row differs from eeg.csv")
    return matrix


# --- events.csv --------------------------------------------------------------

def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) per record, numbered by the line the record
    starts on; a record csv cannot read, e.g. a field over csv's size
    limit, becomes a MalformedRow located the same way."""
    reader = csv.reader(io.StringIO(text))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedRow(f"events.csv record is unreadable: {exc}",
                           row=start) from None


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


def json_text(obj: object) -> str:
    """``meta.json`` and JSON report text: sorted keys, indent 2, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def fields_dict(obj: object) -> dict:
    """A dataclass's fields by name, as ``asdict`` but copying no value."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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

_T = TypeVar("_T")


def _checked_io(call: Callable[[Path], _T], path: Path) -> _T:
    """``call(path)``; an OSError becomes a MissingFile naming ``path`` and
    the OS reason, e.g. a bundle file that cannot be read."""
    try:
        return call(path)
    except OSError as exc:
        reason = exc.strerror or exc
        raise MissingFile(f"cannot read {path}: {reason}") from None


def _bundle_file(root: Path, name: str,
                 read: Callable[[BinaryIO], _T] = lambda f: f.read()) -> _T:
    """``read`` to its end of bundle file ``name``, opened in binary mode;
    a MissingFile if it is not there, cannot be read or is empty."""
    path = root / name
    if not _checked_io(Path.is_file, path):
        raise MissingFile(f"bundle {root} misses {name}")

    def read_to_end(path: Path) -> tuple[_T, int]:
        with path.open("rb") as f:
            return read(f), f.tell()

    data, size = _checked_io(read_to_end, path)
    if not size:
        raise MissingFile(f"bundle file {path} is empty")
    return data


def load_session(path: Union[str, Path]) -> SessionRecord:
    """Parse a bundle directory into a record whose parts agree.

    ``meta.json``, ``eeg.csv`` and ``events.csv`` are checked in that
    order (:func:`_bundle_file`) before any is parsed. The EEG matrix
    comes from ``eeg.sidecar`` when it is bound to ``eeg.csv``
    (:func:`_read_sidecar`), else from ``eeg.csv`` read whole. A sidecar
    that is not a file is silent, an unusable one one of the record's
    ``notes``. A present ``gaze.csv`` must pass :func:`parse_gaze_csv`.
    Semantic violations (marker breaks, transcription mismatches, events
    outside the EEG span) do not raise: :func:`gtl.model.validate_session`
    finds them, and lists the record's ``notes`` as its last warnings.
    """
    root = Path(path)
    if not _checked_io(Path.is_dir, root):
        raise MissingFile(f"session bundle {root} is not a directory")
    meta_data = _bundle_file(root, META_FILE)
    scan = _bundle_file(root, EEG_FILE, _EegScan)
    events_data = _bundle_file(root, EVENTS_FILE)

    meta = parse_meta_json(meta_data)
    sidecar, matrix, notes = root / EEG_SIDECAR, None, ()
    try:
        # not a file, e.g. none, or a FIFO, whose open would wait for a writer
        if sidecar.is_file():
            with sidecar.open("rb") as f, \
                    (root / EEG_FILE).open("rb") as eeg_csv:
                matrix = _read_sidecar(f, eeg_csv, scan,
                                       1 + len(meta.channel_names))
    except (OSError, ValueError) as exc:
        notes = (f"{EEG_SIDECAR} ignored, {EEG_FILE} parsed: {exc}",)
    # passed as the only reference, which parse_eeg_csv drops once decoded
    eeg = parse_eeg_csv(scan.head if matrix is not None
                        else _checked_io(Path.read_bytes, root / EEG_FILE),
                        meta, matrix)
    events = parse_events_csv(events_data)
    gaze_file = root / GAZE_FILE
    if _checked_io(Path.is_file, gaze_file):
        parse_gaze_csv(_checked_io(Path.read_bytes, gaze_file))
    return SessionRecord(meta=meta, eeg=eeg, events=events, notes=notes)


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
