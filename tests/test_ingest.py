import csv
import hashlib
import io
import json
import random
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtl.errors import (
    IngestError,
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
from gtl import ingest
from gtl.ingest import (
    EEG_SIDECAR,
    eeg_matrix,
    events_to_csv,
    load_session,
    parse_eeg_csv,
    parse_events_csv,
    parse_gaze_csv,
    parse_meta_json,
    read_number,
    split_rows,
    write_session,
)
from gtl.model import EegRecording, GazeSample, SessionMeta, SessionRecord

from conftest import (ODD_JSON_VALUES, loads_as_itself, make_event_log,
                      make_record, random_event_log)

META14 = SessionMeta("p01", "A", 1)
META2 = SessionMeta("p01", "A", 1,
                    channel_names=("ch1", "ch2"))


def eeg_bytes(times, n_channels=14, names=None):
    names = names or [f"c{i}" for i in range(n_channels)]
    lines = ["t," + ",".join(names)]
    for i, t in enumerate(times):
        lines.append(",".join([repr(float(t))]
                              + [repr(float(i + ch)) for ch in range(n_channels)]))
    return ("\n".join(lines) + "\n").encode()


class TestEegCsv:
    def test_three_rows_at_128hz(self):
        meta = SessionMeta("p01", "A", 1,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        text = eeg_bytes([0.0, 1 / 128, 2 / 128])
        rec = parse_eeg_csv(text, meta)
        assert rec.fs == 128.0
        assert rec.n_samples == 3
        assert rec.n_channels == 14
        assert rec.t0 == 0.0

    def test_wrong_rate_vs_meta(self):
        meta = SessionMeta("p01", "A", 1,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        with pytest.raises(NonUniformRate):
            parse_eeg_csv(eeg_bytes([0.0, 0.01, 0.02]), meta)

    def test_jittered_spacing(self):
        meta = SessionMeta("p01", "A", 1,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        with pytest.raises(NonUniformRate):
            parse_eeg_csv(eeg_bytes([0.0, 1 / 128, 2 / 128 + 1e-3]), meta)

    def test_channel_count_mismatch(self):
        text = eeg_bytes([0.0, 1 / 128], n_channels=13)
        meta = SessionMeta("p01", "A", 1,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        with pytest.raises(ChannelCountMismatch):
            parse_eeg_csv(text, meta)

    def test_malformed_number_locates_cell(self):
        meta = META2
        text = b"t,ch1,ch2\n0.0,1.0,2.0\n0.0078125,oops,2.0\n"
        with pytest.raises(MalformedNumber) as err:
            parse_eeg_csv(text, meta)
        assert err.value.row == 3
        assert err.value.col == 2

    def test_truncated_row_names_failing_row(self):
        text = b"t,ch1,ch2\n0.0,1.0,2.0\n0.0078125,1.0\n"
        with pytest.raises((MalformedRow, MalformedNumber)) as err:
            parse_eeg_csv(text, META2)
        assert err.value.row == 3

    def test_non_monotonic_time(self):
        text = b"t,ch1,ch2\n0.0,1.0,2.0\n0.0078125,1.0,2.0\n0.0,1.0,2.0\n"
        with pytest.raises(NonMonotonicTime):
            parse_eeg_csv(text, META2)

    def test_missing_header(self):
        with pytest.raises(BadHeader):
            parse_eeg_csv(b"0.0,1.0,2.0", META2)

    @pytest.mark.parametrize("text,error,row", [
        ("t,a\n\n0,1\n0,2\n", NonMonotonicTime, 4),
        ("t,a\n0,1\n\n\n1,2\n1,3\n", NonMonotonicTime, 6),
        ("t,a\n0,1\n1,1\n\r\n2,1\n\n3.5,1\n4.5,1\n", NonUniformRate, 7),
    ], ids=["blank-before-first", "blanks-mid", "crlf-blank-and-blank"])
    def test_time_error_row_skips_blank_lines(self, text, error, row):
        meta = SessionMeta("p01", "A", 1, 1.0, ("a",))
        data = text.encode()
        with pytest.raises(error) as err:
            parse_eeg_csv(data, meta)
        assert err.value.row == row
        # the same row when the matrix comes from a bound sidecar
        matrix = np.loadtxt(io.StringIO(text.partition("\n")[2]),
                            delimiter=",", ndmin=2)
        bound = ingest.read_sidecar(ingest.sidecar_bytes(data, matrix), data, 2)
        with pytest.raises(error) as err:
            parse_eeg_csv(data, meta, bound)
        assert err.value.row == row

    def test_header_only(self):
        with pytest.raises(MalformedRow) as err:
            parse_eeg_csv(b"t,ch1,ch2\n", META2)
        assert err.value.row == 2

    def test_non_finite_rejected(self):
        text = b"t,ch1,ch2\n0.0,1.0,2.0\n0.0078125,nan,2.0\n"
        with pytest.raises(MalformedNumber) as err:
            parse_eeg_csv(text, META2)
        assert (err.value.row, err.value.col) == (3, 2)

    @pytest.mark.parametrize("body,error,cell", [
        ("0.0,1,2#junk\n0.0078125,3,4\n", MalformedNumber, (2, 3)),
        # a one-field line has the wrong width before any cell is read
        ("0.0,1,2\n# c\n0.0078125,3,4\n", MalformedRow, (3, None)),
    ], ids=["hash-in-cell", "comment-line"])
    def test_hash_is_not_a_comment(self, body, error, cell):
        with pytest.raises(error) as err:
            parse_eeg_csv(("t,ch1,ch2\n" + body).encode(), META2)
        assert (err.value.row, err.value.col) == cell


# digits and signs, the characters numpy and float() treat differently, the
# whitespace both strip (NBSP, ideographic space, tab) and \r, which numpy
# takes as a line end only right before \n
_CELL = st.lists(st.sampled_from(
    list("0123456789.eE+-_# ") + ["inf", "nan", "\u0661", "\xa0", "\u3000",
                                  "\t", "\r"]),
    max_size=8).map("".join)


class TestNumberGrammar:
    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    @settings(max_examples=1000)
    @given(st.lists(_CELL, min_size=1, max_size=3))
    def test_rows_read_as_loadtxt_reads_them(self, cells):
        """The shared readers accept a line iff np.loadtxt reads it as
        finite values, and then read the same values."""
        line = ",".join(cells) + "\n"
        try:
            want = np.loadtxt(io.StringIO(line), delimiter=",", ndmin=2,
                              comments=None).tolist()
        except ValueError:
            want = None
        if want is not None and not np.all(np.isfinite(want)):
            want = None
        try:
            got = [[read_number(c, "f.csv", row, col)
                    for col, c in enumerate(row_cells, start=1)]
                   for row, row_cells in split_rows(line, "f.csv", len(cells))]
        except (MalformedNumber, MalformedRow) as err:
            assert err.row == 1
            got = None
        assert got == want

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "0x1p0", "1e999"])
    def test_every_reader_rejects(self, cell):
        with pytest.raises(MalformedNumber) as err:
            parse_eeg_csv(f"t,ch1,ch2\n0.0,{cell},1\n".encode(), META2)
        assert (err.value.row, err.value.col) == (2, 2)
        with pytest.raises(MalformedNumber) as err:
            parse_events_csv(
                f"{cell},SESSION_START,,\n2.0,SESSION_END,,\n".encode())
        assert (err.value.row, err.value.col) == (1, 1)
        with pytest.raises(MalformedNumber) as err:
            parse_gaze_csv(f"t,x,y,valid\n0.0,{cell},0,1\n".encode())
        assert (err.value.row, err.value.col) == (2, 2)


class TestEventsCsv:
    def test_valid_log(self):
        text = ("0,SESSION_START,,\n"
                "1,SENTENCE_SHOWN,\"my dog\",\n"
                "2,KEY,INSERT,m\n"
                "3,KEY,SUGG,y dog\n"
                "4,SENTENCE_SUBMIT,\"my dog\",\n"
                "5,SESSION_END,,\n")
        log = parse_events_csv(text.encode())
        assert len(log) == 6
        sentences = log.sentences()
        assert len(sentences) == 1
        assert sentences[0].submit.text == "my dog"

    def test_unknown_key_class(self):
        text = ("0,SESSION_START,,\n"
                "1,SENTENCE_SHOWN,x,\n"
                "2,KEY,TAP,x\n"
                "3,SENTENCE_SUBMIT,x,\n"
                "4,SESSION_END,,\n")
        with pytest.raises(UnknownKeyClass) as err:
            parse_events_csv(text.encode())
        assert err.value.row == 3

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            parse_events_csv(b"0,SESSION_BEGIN,,\n")

    def test_marker_order_submit_before_shown(self):
        text = ("0,SESSION_START,,\n"
                "1,SENTENCE_SUBMIT,x,\n"
                "2,SESSION_END,,\n")
        with pytest.raises(MarkerOrder) as err:
            parse_events_csv(text.encode())
        assert err.value.row == 2

    def test_time_regression_rejected(self):
        text = ("5,SESSION_START,,\n"
                "1,SENTENCE_SHOWN,x,\n")
        with pytest.raises(MarkerOrder):
            parse_events_csv(text.encode())

    @pytest.mark.parametrize("text,row", [
        ("0,SESSION_START,,\n1,SESSION_END,,\n2,SENTENCE_SHOWN,x,\n", 2),
        ("0,SESSION_START,,\n1,SENTENCE_SHOWN,x,\n2,SENTENCE_SUBMIT,x,\n", 3),
        ("", None),
    ], ids=["event-after-end", "no-end", "empty"])
    def test_marker_order_row_is_the_first_violation(self, text, row):
        with pytest.raises(MarkerOrder) as err:
            parse_events_csv(text.encode())
        assert err.value.row == row

    def test_row_error_precedes_structure_error(self):
        text = "1,SENTENCE_SHOWN,x,\n2,KEY,TAP,x\n"
        with pytest.raises(UnknownKeyClass) as err:
            parse_events_csv(text.encode())
        assert err.value.row == 2

    def test_malformed_row_width(self):
        with pytest.raises(MalformedRow):
            parse_events_csv(b"0,SESSION_START,\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_timestamp_rejected(self, raw):
        text = f"0.0,SESSION_START,,\n{raw},SESSION_END,,\n"
        with pytest.raises(MalformedNumber) as exc:
            parse_events_csv(text.encode())
        assert exc.value.row == 2

    def test_field_over_csv_limit_is_located(self):
        text = ('0.0,SESSION_START,,\n1.0,SENTENCE_SHOWN,"'
                + "a" * (128 * 1024 + 1) + '",\n')
        with pytest.raises(MalformedRow) as exc:
            parse_events_csv(text.encode())
        assert exc.value.row == 2

    def test_round_trip_preserves_quoted_text(self):
        rng = random.Random(99)
        for _ in range(40):
            log = random_event_log(rng)
            text = events_to_csv(log)
            assert parse_events_csv(text.encode()) == log

    def test_round_trip_keeps_carriage_returns_in_text(self):
        log = make_event_log([[("INSERT", "a\r"), ("SUGG", "\rb")]])
        assert parse_events_csv(events_to_csv(log).encode()) == log

    def test_round_trip_is_byte_stable(self):
        rng = random.Random(5)
        log = random_event_log(rng)
        once = events_to_csv(log)
        again = events_to_csv(parse_events_csv(once.encode()))
        assert once == again


class TestMetaJson:
    def test_round_trip(self):
        from gtl.ingest import meta_to_json
        meta = SessionMeta("p07", "C", 3, 128.0, ("a", "b"))
        assert parse_meta_json(meta_to_json(meta).encode()) == meta

    def test_missing_key(self):
        with pytest.raises(MalformedMeta):
            parse_meta_json(b'{"participant_id": "x"}')

    def test_bad_json(self):
        with pytest.raises(MalformedMeta):
            parse_meta_json(b"{nope")

    @pytest.mark.parametrize("field,value", [
        ("session_index", "1e400"),
        ("session_index", "9" * 5000),
        ("fs_eeg", "Infinity"),
    ], ids=["index-1e400", "index-5000-digits", "fs-Infinity"])
    def test_out_of_range_number(self, field, value):
        obj = {"participant_id": '"p"', "keyboard": '"A"',
               "session_index": "1", "fs_eeg": "128.0", "channels": '["a"]'}
        obj[field] = value
        text = "{" + ",".join(f'"{k}": {v}' for k, v in obj.items()) + "}"
        with pytest.raises(MalformedMeta):
            parse_meta_json(text.encode())

    def test_deep_nesting(self):
        with pytest.raises(MalformedMeta):
            parse_meta_json(b"[" * 100_000 + b"]" * 100_000)

    @pytest.mark.parametrize("key", ["participant_id", "keyboard",
                                     "session_index", "fs_eeg", "channels"])
    def test_each_field_loads_as_itself_or_is_malformed(self, key):
        # session_index 0.5 used to load as 0, a training session, and
        # true as 1; participant_id null as "None"; fs_eeg "128" as 128.0
        for text in ODD_JSON_VALUES:
            obj = {"participant_id": '"p"', "keyboard": '"A"',
                   "session_index": "1", "fs_eeg": "128.0",
                   "channels": '["a"]', key: text}
            data = "{" + ",".join(f'"{k}": {v}' for k, v in obj.items()) + "}"
            try:
                meta = parse_meta_json(data.encode())
            except MalformedMeta:
                continue
            value = json.loads(text)
            if key == "channels":
                assert loads_as_itself(meta.channel_names, tuple(value))
            else:
                assert loads_as_itself(getattr(meta, key), value), text


class TestGazeCsv:
    def test_round_trip(self):
        from gtl.ingest import gaze_to_csv
        gaze = (GazeSample(0.0, 1.5, 2.5, True),
                GazeSample(1 / 60, 3.0, 4.0, False))
        text = gaze_to_csv(gaze)
        assert parse_gaze_csv(text.encode()) == gaze

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonicTime):
            parse_gaze_csv(b"t,x,y,valid\n1.0,0,0,1\n0.5,0,0,1\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_non_finite_rejected(self, raw, col):
        cells = ["0.5", "0", "0", "1"]
        cells[col] = raw
        text = "t,x,y,valid\n0.0,0,0,1\n" + ",".join(cells) + "\n"
        with pytest.raises(MalformedNumber) as err:
            parse_gaze_csv(text.encode())
        assert err.value.row == 3


class TestBundles:
    def test_load_write_identity(self, tmp_path, simple_log):
        rec = make_record(simple_log)
        rec.gaze = (GazeSample(0.0, 1.0, 2.0, True),)
        first = tmp_path / "b1"
        second = tmp_path / "b2"
        write_session(rec, first)
        loaded = load_session(first)
        assert loaded.meta == rec.meta
        assert loaded.eeg == rec.eeg
        assert loaded.events == rec.events
        assert loaded.gaze == rec.gaze
        assert loaded.validation is not None and loaded.validation.ok
        write_session(loaded, second)
        for name in ("meta.json", "eeg.csv", "events.csv", "gaze.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_rewrite_without_gaze_drops_the_old_gaze(self, tmp_path,
                                                      simple_log):
        rec = make_record(simple_log)
        rec.gaze = (GazeSample(0.0, 1.0, 2.0, True),)
        write_session(rec, tmp_path)
        rec.gaze = None
        write_session(rec, tmp_path)
        assert not (tmp_path / "gaze.csv").exists()
        assert load_session(tmp_path).gaze is None

    def test_load_write_identity_random_logs(self, tmp_path):
        rng = random.Random(17)
        for i in range(5):
            rec = make_record(random_event_log(rng))
            first = tmp_path / f"r{i}a"
            second = tmp_path / f"r{i}b"
            write_session(rec, first)
            write_session(load_session(first), second)
            for name in ("meta.json", "eeg.csv", "events.csv"):
                assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_file(self, tmp_path, simple_log):
        rec = make_record(simple_log)
        bundle = tmp_path / "b"
        write_session(rec, bundle)
        (bundle / "events.csv").unlink()
        with pytest.raises(MissingFile):
            load_session(bundle)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(MissingFile):
            load_session(tmp_path / "nope")

    def test_empty_file(self, tmp_path, simple_log):
        rec = make_record(simple_log)
        bundle = tmp_path / "b"
        write_session(rec, bundle)
        (bundle / "eeg.csv").write_bytes(b"")
        with pytest.raises(MissingFile):
            load_session(bundle)


class _Tripwire:
    """Counts its own unpickling."""

    unpickled = 0

    def __reduce__(self):
        return _trip, ()


def _trip():
    _Tripwire.unpickled += 1


def _npy(array: np.ndarray, allow_pickle: bool = False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _with_nan(matrix: np.ndarray) -> np.ndarray:
    bad = matrix.copy()
    bad[1, 1] = np.nan
    return bad


def _tripwires(matrix: np.ndarray) -> np.ndarray:
    out = np.empty(matrix.shape, dtype=object)
    out[...] = _Tripwire()
    return out


def _raw(matrix: np.ndarray) -> bytes:
    return np.ascontiguousarray(matrix, dtype="<f8").tobytes()


def _edited_last(matrix: np.ndarray) -> np.ndarray:
    bad = matrix.copy()
    bad[-1, 1] += 1.0
    return bad


# (digest, matrix, good sidecar) -> bad sidecar, and the reason it names
_BAD_SIDECARS = {
    "short": (lambda d, m, good: good[:20], "digest does not match"),
    "no-digest": (lambda d, m, good: good[32:], "digest does not match"),
    "empty": (lambda d, m, good: d, "are not the"),
    "data-cut": (lambda d, m, good: good[:-8], "are not the"),
    "trailing": (lambda d, m, good: good + bytes(8), "are not the"),
    "garbage": (lambda d, m, good: d + bytes(range(256)), "are not the"),
    "npy": (lambda d, m, good: d + _npy(m), "are not the"),
    "pickled": (lambda d, m, good: d + _npy(_tripwires(m), allow_pickle=True),
                "are not the"),
    "float32": (lambda d, m, good: d + m.astype("<f4").tobytes(),
                "are not the"),
    "width": (lambda d, m, good: d + _raw(m[:, :-1]), "are not the"),
    # one row more than eeg.csv, breaking time order past its last line
    "extra-row": (lambda d, m, good: d + _raw(np.vstack([m, m[-1:]])),
                  "are not the"),
    "nan": (lambda d, m, good: d + _raw(_with_nan(m)), "non-finite"),
    "inf": (lambda d, m, good: d + _raw(_with_nan(m) + np.inf), "non-finite"),
    "reversed": (lambda d, m, good: d + _raw(m[::-1]), "differs"),
    "last-edited": (lambda d, m, good: d + _raw(_edited_last(m)), "differs"),
}


class TestSidecar:
    @pytest.fixture
    def bundle(self, tmp_path, simple_log) -> tuple[Path, SessionRecord]:
        rec = make_record(simple_log)
        write_session(rec, tmp_path / "b")
        return tmp_path / "b", rec

    def test_written_bound_and_deterministic(self, tmp_path, bundle):
        path, rec = bundle
        data = (path / EEG_SIDECAR).read_bytes()
        assert data[:32] == hashlib.sha256(
            (path / "eeg.csv").read_bytes()).digest()
        assert data[32:] == eeg_matrix(rec.eeg).astype("<f8").tobytes()
        write_session(rec, tmp_path / "again")
        assert (tmp_path / "again" / EEG_SIDECAR).read_bytes() == data

    def test_load_takes_the_matrix_from_the_sidecar(self, bundle,
                                                    monkeypatch):
        path, rec = bundle

        def no_text_parse(*args):
            raise AssertionError("eeg.csv body parsed")

        monkeypatch.setattr(ingest, "_parse_eeg_body", no_text_parse)
        loaded = load_session(path)
        assert loaded == rec
        assert loaded.validation.warnings == []

    def test_missing_sidecar_is_silent(self, bundle):
        path, rec = bundle
        (path / EEG_SIDECAR).unlink()
        loaded = load_session(path)
        assert loaded == rec
        assert loaded.validation.warnings == []

    def test_edited_csv_unbinds_the_sidecar(self, bundle):
        path, rec = bundle
        eeg = path / "eeg.csv"
        lines = eeg.read_bytes().split(b"\n")
        # one byte: the first decimal of the row's last cell
        i = lines[3].rindex(b".") + 1
        digit = str((int(lines[3][i:i + 1]) + 1) % 10).encode()
        lines[3] = lines[3][:i] + digit + lines[3][i + 1:]
        eeg.write_bytes(b"\n".join(lines))
        loaded = load_session(path)
        assert loaded.eeg == parse_eeg_csv(eeg.read_bytes(), rec.meta)
        assert loaded.eeg != rec.eeg
        assert loaded.validation.warnings == [
            "eeg.sidecar ignored, eeg.csv parsed: "
            "digest does not match eeg.csv"]

    @pytest.mark.parametrize("name", sorted(_BAD_SIDECARS))
    def test_unusable_sidecar_falls_back_with_warning(self, bundle, name):
        path, rec = bundle
        make, reason = _BAD_SIDECARS[name]
        sidecar = path / EEG_SIDECAR
        good = sidecar.read_bytes()
        sidecar.write_bytes(make(good[:32], eeg_matrix(rec.eeg), good))
        _Tripwire.unpickled = 0
        loaded = load_session(path)
        assert _Tripwire.unpickled == 0
        assert loaded == rec
        (warning,) = loaded.validation.warnings
        assert warning.startswith("eeg.sidecar ignored, eeg.csv parsed: ")
        assert reason in warning

    def test_samples_are_frozen_on_both_paths(self, bundle):
        path, rec = bundle
        with_sidecar = load_session(path)
        (path / EEG_SIDECAR).unlink()
        from_csv = load_session(path)
        assert with_sidecar.validation.warnings == []
        for loaded in (with_sidecar, from_csv):
            assert not loaded.eeg.samples.flags.writeable

    def test_matrix_longer_than_the_csv_is_a_located_error(self):
        """A time break past the last line of eeg.csv has no row to name."""
        meta = SessionMeta("p01", "A", 1, 1.0, ("a",))
        matrix = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NonMonotonicTime) as err:
            parse_eeg_csv(b"t,a\n0.0,1.0\n1.0,1.0\n", meta, matrix)
        assert err.value.row is None

    def test_csv_without_rows_binds_no_sidecar(self):
        csv_bytes = b"t,a\n\r\n"
        empty = ingest.sidecar_bytes(csv_bytes, np.empty((0, 2)))
        with pytest.raises(ValueError, match="not the 0 rows"):
            ingest.read_sidecar(empty, csv_bytes, 2)

    @settings(max_examples=300)
    @given(st.data())
    def test_damaged_sidecar_is_a_value_error(self, data):
        """Any bytes after a matching digest give the matrix or a
        ValueError, never another exception."""
        csv_bytes = b"t,a,b\n0.0,1.0,2.0\n"
        good = ingest.sidecar_bytes(csv_bytes, np.array([[0.0, 1.0, 2.0]]))
        if data.draw(st.booleans()):
            tail = data.draw(st.binary(max_size=200))
        else:
            i = data.draw(st.integers(32, len(good)))
            j = data.draw(st.integers(i, min(len(good), i + 16)))
            tail = (good[:i] + data.draw(st.binary(max_size=16)) + good[j:])[32:]
        try:
            matrix = ingest.read_sidecar(good[:32] + tail, csv_bytes, 3)
        except ValueError:
            return
        # one row is both the first and the last, so it must be eeg.csv's
        assert matrix.tobytes() == good[32:]

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(["", "\r", "\r\r", " ", "1", "1,2\r"]),
                    max_size=8).map("\n".join))
    def test_row_spans_are_the_lines_split_rows_reads(self, text):
        data = text.encode()
        starts, stops = ingest._row_spans(data)
        expected = [line.encode() for line in text.split("\n")[1:]
                    if line.removesuffix("\r")]
        assert [data[a:b] for a, b in zip(starts, stops)] == expected


def _total(parse, data):
    """A parser gives a record or an IngestError, never another exception;
    a bad row or cell names a line the file has."""
    try:
        parse(data)
    except (MalformedRow, MalformedNumber) as err:
        assert err.row is not None and 1 <= err.row <= data.count(b"\n") + 1
    except IngestError:
        pass


_EEG_LINE = st.lists(st.sampled_from(
    ["0.0", "0.0078125", "1e400", "nan", "-3.5", "x", "", " ", "1_0",
     "\u0661", "1\r"]),
    max_size=4).map(",".join)
_EVENT_LINES = ["0.0,SESSION_START,,", "1.0,SENTENCE_SHOWN,a,",
                "2.0,KEY,INSERT,a", "2.5,KEY,CAPS,", "3.0,SENTENCE_SUBMIT,a,",
                "4.0,SESSION_END,,", "nan,KEY,BKSP,", '5.0,KEY,"SUGG', "\r"]


class TestParsersAreTotal:
    @given(st.binary())
    def test_arbitrary_bytes(self, data):
        _total(parse_meta_json, data)
        _total(lambda d: parse_eeg_csv(d, META2), data)
        _total(parse_events_csv, data)
        _total(parse_gaze_csv, data)

    @given(st.text())
    def test_arbitrary_text_after_headers(self, text):
        _total(lambda d: parse_eeg_csv(d, META2),
               ("t,ch1,ch2\n" + text).encode())
        _total(parse_gaze_csv, ("t,x,y,valid\n" + text).encode())
        _total(parse_meta_json, ('{"channels": ' + text).encode())

    @given(st.lists(_EEG_LINE, max_size=6))
    def test_near_valid_eeg(self, lines):
        _total(lambda d: parse_eeg_csv(d, META2),
               "\n".join(["t,ch1,ch2", *lines]).encode())

    @given(st.lists(_EEG_LINE.map(lambda line: line + ",1"), max_size=6))
    def test_near_valid_gaze(self, lines):
        _total(parse_gaze_csv, "\n".join(["t,x,y,valid", *lines]).encode())

    @given(st.lists(st.one_of(st.sampled_from(_EVENT_LINES), st.text()),
                    max_size=8))
    def test_near_valid_events(self, lines):
        _total(parse_events_csv, "\n".join(lines).encode())


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
_KEYS = st.lists(st.tuples(st.sampled_from(["INSERT", "SUGG", "BKSP"]),
                           st.text(max_size=4)), min_size=1, max_size=5)


@st.composite
def _records(draw):
    fs = draw(st.sampled_from([24.0, 128.0, 256.0, 100.0]))
    channels = tuple(draw(st.lists(
        st.text(alphabet="abcXYZ019_ é", min_size=1, max_size=4)
        .filter(lambda c: c != "t"), min_size=1, max_size=3, unique=True)))
    meta = SessionMeta(draw(st.text(max_size=8)),
                       draw(st.sampled_from(["A", "B", "C"])),
                       draw(st.integers(0, 10**6)), fs, channels)
    n = draw(st.integers(1, 40))
    t0 = draw(st.floats(-100.0, 100.0))
    samples = np.array(draw(st.lists(_FINITE, min_size=n * len(channels),
                                     max_size=n * len(channels))))
    eeg = EegRecording(t0, fs, samples.reshape(len(channels), n))
    log = make_event_log(draw(st.lists(_KEYS, min_size=1, max_size=3)),
                         start=t0, key_dt=draw(st.sampled_from([0.25, 1.0])))
    gaze = None
    if draw(st.booleans()):
        times = sorted(draw(st.lists(_FINITE, max_size=5)))
        gaze = tuple(GazeSample(t, draw(_FINITE), draw(_FINITE),
                                draw(st.booleans())) for t in times)
    return SessionRecord(meta=meta, eeg=eeg, events=log, gaze=gaze)


def _eeg_bits(rec: SessionRecord) -> tuple[bytes, float, bytes]:
    """The EEG recording bit for bit: == would equate 0.0 and -0.0."""
    eeg = rec.eeg
    return struct.pack("<d", eeg.t0), eeg.fs, eeg.samples.tobytes()


class TestRoundTripProperty:
    @settings(max_examples=50)
    @given(_records())
    def test_write_then_load_is_equal(self, rec):
        with tempfile.TemporaryDirectory() as tmp:
            write_session(rec, tmp)
            with_sidecar = load_session(tmp)
            assert with_sidecar == rec
            (Path(tmp) / EEG_SIDECAR).unlink()
            from_csv = load_session(tmp)
        assert _eeg_bits(with_sidecar) == _eeg_bits(from_csv)
        assert with_sidecar == from_csv
        assert with_sidecar.validation.warnings == from_csv.validation.warnings

    @settings(max_examples=50)
    @given(_records())
    def test_crlf_bundle_loads_equal(self, rec):
        with tempfile.TemporaryDirectory() as tmp:
            write_session(rec, tmp)
            for f in Path(tmp).iterdir():
                if f.name == EEG_SIDECAR:
                    continue
                text = f.read_bytes().decode("utf-8")
                if f.name == "events.csv":
                    # only record ends; quoted text keeps its own newlines
                    buf = io.StringIO()
                    csv.writer(buf, lineterminator="\r\n").writerows(
                        csv.reader(io.StringIO(text)))
                    text = buf.getvalue()
                else:
                    text = text.replace("\n", "\r\n")
                f.write_bytes(text.encode("utf-8"))
            loaded = load_session(tmp)
            assert loaded == rec
            # the sidecar was bound to the \n bytes, so eeg.csv was parsed
            assert any("digest does not match" in w
                       for w in loaded.validation.warnings)
