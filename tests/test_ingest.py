import csv
import hashlib
import io
import json
import multiprocessing
import os
import random
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
)
from gtl import ingest, model
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
from gtl.model import (EegRecording, EventKind, KeyClass, SessionMeta,
                       SessionRecord)

from conftest import (ODD_JSON_VALUES, deny_reading, loads_as_itself,
                      make_event_log, make_record, random_event_log,
                      unbind_sidecar)

META14 = SessionMeta("p01", "A", 1)
META2 = SessionMeta("p01", "A", 1,
                    channel_names=("ch1", "ch2"))
_ENUM_VALUES = {k.value for k in (*EventKind, *KeyClass)}


def _read_sidecar(sidecar: bytes, csv_bytes: bytes, width: int):
    """The matrix of ``sidecar`` when it is bound to ``csv_bytes``, read
    as :func:`load_session` reads a bundle's files."""
    return ingest._read_sidecar(io.BytesIO(sidecar), io.BytesIO(csv_bytes),
                                ingest._EegScan(io.BytesIO(csv_bytes)), width)


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

    def test_rate_below_2_pow_minus_1024_vs_meta(self):
        # 1 / 1e-320 overflows to inf, which once let any spacing pass
        meta = SessionMeta("p01", "A", 1, fs_eeg=1e-320,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        with pytest.raises(NonUniformRate):
            parse_eeg_csv(eeg_bytes([0.0, 1 / 128, 2 / 128]), meta)

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

    @pytest.mark.parametrize("data,error", [
        (b"t,ch1,ch2", BadHeader),
        (b"time,a,b\n0,1,2\n", BadHeader),
        (b"t,ch1\n0,1\n", ChannelCountMismatch),
        (b"t,ch1,chX\n0,1,2\n", ChannelCountMismatch),
    ], ids=["no-header-row", "first-not-t", "channel-count",
            "channel-names"])
    def test_header_error_names_row_1(self, data, error):
        with pytest.raises(error) as err:
            parse_eeg_csv(data, META2)
        assert err.value.row == 1
        assert str(err.value).endswith("(row 1)")

    @pytest.mark.parametrize("text,error,row,bound_row", [
        ("t,a\n\n0,1\n0,2\n", NonMonotonicTime, 4, 3),
        ("t,a\n0,1\n\n\n1,2\n1,3\n", NonMonotonicTime, 6, 4),
        ("t,a\n0,1\n1,1\n\r\n2,1\n\n3.5,1\n4.5,1\n", NonUniformRate, 7,
         5),
    ], ids=["blank-before-first", "blanks-mid", "crlf-blank-and-blank"])
    def test_time_error_row_skips_blank_lines(self, text, error, row,
                                              bound_row):
        meta = SessionMeta("p01", "A", 1, 1.0, ("a",))
        data = text.encode()
        with pytest.raises(error) as err:
            parse_eeg_csv(data, meta)
        assert err.value.row == row
        # a sidecar hashed to text with blank lines does not bind
        matrix = np.loadtxt(io.StringIO(text.partition("\n")[2]),
                            delimiter=",", ndmin=2)
        sidecar = hashlib.sha256(data).digest() + matrix.astype("<f8").tobytes()
        with pytest.raises(ValueError, match="are not the"):
            _read_sidecar(sidecar, data, 2)
        # a bound matrix has one row per line after the header: row i + 2
        with pytest.raises(error) as err:
            parse_eeg_csv(data[:data.find(b"\n") + 1], meta, matrix)
        assert err.value.row == bound_row

    @pytest.mark.parametrize("times,fs", [
        ((-1e308, 1e308), 1.0),
        ((-1e308, 1e308, 1.5e308), 1.0),
        ((-1e308, -9.99e307, 1e308), 1e-300),
        ((-1.6e308, 0.0, 1.6e308), 1.0),
    ], ids=["spacing-overflows", "first-of-two-overflows",
            "tiny-rate", "median-overflows"])
    def test_far_apart_stamps_fail_the_rate_check_without_a_warning(
            self, times, fs):
        # the spacing (or the median of two) exceeds the float range; the
        # tier-1 warning filter turns a numpy overflow warning into a failure
        meta = SessionMeta("p01", "A", 1, fs, ("a",))
        with pytest.raises((NonUniformRate, NonMonotonicTime)):
            parse_eeg_csv(eeg_bytes(times, names=["a"], n_channels=1), meta)

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
        with pytest.raises(MalformedRow, match="KeyClass") as err:
            parse_events_csv(text.encode())
        assert err.value.row == 3

    def test_unknown_kind(self):
        with pytest.raises(MalformedRow, match="EventKind") as err:
            parse_events_csv(b"0,SESSION_BEGIN,,\n")
        assert err.value.row == 1

    @given(st.sampled_from(["1,{},x,", "1,KEY,{},x"]),
           st.text().filter(lambda s: s not in _ENUM_VALUES))
    def test_any_other_kind_or_key_class_is_a_row_error(self, line, value):
        # Event decides what a kind or key class is; the reader locates it
        # at the line its record starts on, however many lines it spans
        cell = ingest.csv_text([[value]]).removesuffix("\n")
        text = "0,SESSION_START,,\n" + line.format(cell) + "\n"
        with pytest.raises(MalformedRow) as err:
            parse_events_csv(text.encode())
        assert err.value.row == 2

    def test_unreadable_record_names_its_first_line(self):
        # a quoted prompt over csv's field size limit, from row 2 on
        prompt = "a\n" * (csv.field_size_limit() // 2 + 1)
        text = f'0,SESSION_START,,\n1,SENTENCE_SHOWN,"{prompt}",\n'
        with pytest.raises(MalformedRow, match="unreadable") as err:
            parse_events_csv(text.encode())
        assert err.value.row == 2

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
        with pytest.raises(MalformedRow) as err:
            parse_events_csv(text.encode())
        assert err.value.row == 2

    @pytest.mark.parametrize("row,line", [
        (1, "0,SESSION_START,junk,"),
        (1, "0,SESSION_START,,more"),
        (1, "0,SESSION_START,junk,more"),
        (2, "1,SENTENCE_SHOWN,x,junk"),
        (3, "2,SENTENCE_SUBMIT,x,junk"),
        (4, "3,SESSION_END,junk,"),
        (4, "3,SESSION_END,,junk"),
    ])
    def test_unused_field_must_be_empty(self, row, line):
        lines = ["0,SESSION_START,,", "1,SENTENCE_SHOWN,x,",
                 "2,SENTENCE_SUBMIT,x,", "3,SESSION_END,,"]
        lines[row - 1] = line
        with pytest.raises(MalformedRow) as exc:
            parse_events_csv("\n".join(lines).encode() + b"\n")
        assert exc.value.row == row

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
        for channels in (("a", "b"),
                         tuple(f"channel{i}" for i in range(20_000))):
            meta = SessionMeta("p07", "C", 3, 128.0, channels)
            text = meta_to_json(meta)
            assert text == json.dumps(
                {"channels": list(channels), "fs_eeg": 128.0,
                 "keyboard": "C", "participant_id": "p07",
                 "session_index": 3}, sort_keys=True, indent=2) + "\n"
            assert parse_meta_json(text.encode()) == meta

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

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", "a\r"])
    def test_channel_name_eeg_csv_cannot_hold_is_malformed(self, name):
        meta = json.dumps({"participant_id": "p", "keyboard": "A",
                           "session_index": 1, "fs_eeg": 128.0,
                           "channels": [name, "c"]})
        with pytest.raises(MalformedMeta, match="channel_names"):
            parse_meta_json(meta.encode())

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
    def test_well_formed_is_accepted(self):
        # equal times, CRLF and blank lines pass; nothing is kept
        assert parse_gaze_csv(b"t,x,y,valid\r\n0.0,1.5,2.5,1\r\n\n"
                              b"0.0,3.0,-4.0,0\r\n0.5,0,0,1") is None

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
        first = tmp_path / "b1"
        second = tmp_path / "b2"
        write_session(rec, first)
        loaded = load_session(first)
        assert loaded.meta == rec.meta
        assert loaded.eeg == rec.eeg
        assert loaded.events == rec.events
        assert loaded.validation is not None and loaded.validation.ok
        write_session(loaded, second)
        for name in ("meta.json", "eeg.csv", "events.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_write_removes_a_stale_gaze_csv(self, tmp_path, simple_log):
        # a gaze.csv left in the directory would still be checked on load
        (tmp_path / "gaze.csv").write_bytes(b"t,x,y\n")
        rec = make_record(simple_log)
        write_session(rec, tmp_path)
        assert not (tmp_path / "gaze.csv").exists()
        assert load_session(tmp_path) == rec

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

    @pytest.mark.parametrize("files,named", [
        ({"eeg.csv": None, "meta.json": b"{"}, "misses eeg.csv"),
        ({"eeg.csv": None, "events.csv": None}, "misses eeg.csv"),
        ({"eeg.csv": b"", "meta.json": b"{"}, "eeg.csv is empty"),
        ({"events.csv": b"", "eeg.csv": b"no header"}, "events.csv is empty"),
    ], ids=["no-eeg-bad-meta", "no-eeg-no-events", "empty-eeg-bad-meta",
            "empty-events-bad-eeg"])
    def test_files_are_checked_in_order_before_any_parse(
            self, tmp_path, simple_log, files, named):
        """meta.json, eeg.csv, events.csv: the first that is missing or
        empty is named, even where another is malformed."""
        bundle = tmp_path / "b"
        write_session(make_record(simple_log), bundle)
        for name, data in files.items():
            if data is None:
                (bundle / name).unlink()
            else:
                (bundle / name).write_bytes(data)
        with pytest.raises(MissingFile) as err:
            load_session(bundle)
        assert str(err.value).endswith(named)

    @pytest.mark.parametrize("name", ["meta.json", "eeg.csv", "events.csv",
                                      "gaze.csv"])
    def test_unreadable_file_is_named(self, tmp_path, simple_log,
                                      monkeypatch, name):
        bundle = tmp_path / "b"
        write_session(make_record(simple_log), bundle)
        (bundle / "gaze.csv").write_bytes(b"t,x,y,valid\n")
        deny_reading(monkeypatch, name)
        with pytest.raises(MissingFile) as err:
            load_session(bundle)
        assert str(err.value) == (f"cannot read {bundle / name}: "
                                  f"Permission denied")

    @pytest.mark.parametrize("call", ["is_dir", "is_file"])
    def test_unreadable_directory_is_named(self, tmp_path, simple_log,
                                           monkeypatch, call):
        bundle = tmp_path / "b"
        write_session(make_record(simple_log), bundle)

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, call, denied)
        with pytest.raises(MissingFile, match="Permission denied"):
            load_session(bundle)

    def test_unreadable_sidecar_is_a_warning(self, tmp_path, simple_log,
                                             monkeypatch):
        rec = make_record(simple_log)
        write_session(rec, tmp_path / "b")
        deny_reading(monkeypatch, EEG_SIDECAR)
        loaded = load_session(tmp_path / "b")
        assert loaded == rec
        assert loaded.validation.warnings == [
            f"{EEG_SIDECAR} ignored, eeg.csv parsed: [Errno 13] Permission "
            f"denied: '{tmp_path / 'b' / EEG_SIDECAR}'"]


def _fail_block(block):
    raise ValueError("block not formatted")


def _block_record(n_channels: int, n_samples: int,
                  prefix: str = "c") -> SessionRecord:
    meta = SessionMeta("p01", "A", 1, 128.0,
                       tuple(f"{prefix}{i}" for i in range(n_channels)))
    samples = np.random.default_rng(3).standard_normal((n_channels, n_samples))
    return SessionRecord(meta=meta, eeg=EegRecording(0.0, 128.0, samples),
                         events=make_event_log([[("INSERT", "h")]]))


# 14 channels in five full blocks and a partial one; a row too wide for
# two to share a block. Six blocks are more than two workers keep in
# flight. A row holds the time and each channel as 8-byte floats.
_ROWS_PER_BLOCK = model.BLOCK_BYTES // (15 * 8)
_BLOCK_SHAPES = {
    "partial-block": (14, 5 * _ROWS_PER_BLOCK + _ROWS_PER_BLOCK // 2),
    "row-per-block": (model.BLOCK_BYTES // (2 * 8), 6),
}


class TestBlockWriter:
    """eeg.csv is formatted in row blocks, in worker processes when the
    process may use more than one CPU."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def use(n: int) -> None:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(n)), raising=False)
        return use

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("shape", sorted(_BLOCK_SHAPES))
    def test_blocks_join_to_the_whole_text(self, tmp_path, cpus, n_cpus,
                                           shape):
        rec = _block_record(*_BLOCK_SHAPES[shape])
        matrix = eeg_matrix(rec.eeg)
        text = ("t," + ",".join(rec.meta.channel_names) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in matrix.tolist()))
        cpus(n_cpus)
        write_session(rec, tmp_path)
        assert (tmp_path / "eeg.csv").read_bytes() == text.encode()
        assert (tmp_path / EEG_SIDECAR).read_bytes() == (
            hashlib.sha256(text.encode()).digest()
            + matrix.astype("<f8").tobytes())
        assert multiprocessing.active_children() == []

    def test_at_most_two_blocks_per_worker_in_flight(self, cpus,
                                                     monkeypatch):
        from concurrent.futures import ProcessPoolExecutor
        submits_at_write = []
        submitted = 0
        real_submit = ProcessPoolExecutor.submit

        def submit(pool, *args):
            nonlocal submitted
            submitted += 1
            return real_submit(pool, *args)

        class Out(io.BytesIO):
            def write(self, chunk):
                submits_at_write.append(submitted)
                return super().write(chunk)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        cpus(2)
        rec = _block_record(*_BLOCK_SHAPES["partial-block"])
        ingest.eeg_to_csv(eeg_matrix(rec.eeg), rec.meta.channel_names, Out())
        header, *blocks = submits_at_write
        assert header == 0 and len(blocks) == submitted == 6
        # submitted and not yet written when block k is written
        assert max(n - k for k, n in enumerate(blocks)) == 2 * 2

    def test_no_worker_outlives_a_failed_write(self, tmp_path, cpus,
                                               monkeypatch):
        cpus(2)
        monkeypatch.setattr(ingest, "_eeg_lines", _fail_block)
        with pytest.raises(ValueError, match="block not formatted") as err:
            write_session(_block_record(*_BLOCK_SHAPES["partial-block"]),
                          tmp_path)
        # raised in a worker: the pool attaches the remote traceback
        assert type(err.value.__cause__).__name__ == "_RemoteTraceback"
        assert multiprocessing.active_children() == []


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


def _edit_line(i: int, new: Callable[[bytes], bytes]
               ) -> Callable[[bytes], bytes]:
    """File bytes -> the same bytes with line ``i + 1`` made ``new(line)``."""
    def edit(data: bytes) -> bytes:
        lines = data.split(b"\n")
        lines[i] = new(lines[i])
        return b"\n".join(lines)
    return edit


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

    @pytest.mark.parametrize("edit", [
        lambda data: data,
        lambda data: data.removesuffix(b"\n"),
    ], ids=["as-written", "no-final-newline"])
    def test_load_takes_the_matrix_from_the_sidecar(self, bundle,
                                                    monkeypatch, edit):
        """Also when eeg.csv's last line lacks its newline, with the
        sidecar's digest taken of those bytes."""
        path, rec = bundle
        data = edit((path / "eeg.csv").read_bytes())
        (path / "eeg.csv").write_bytes(data)
        sidecar = path / EEG_SIDECAR
        sidecar.write_bytes(hashlib.sha256(data).digest()
                            + sidecar.read_bytes()[32:])

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

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_sidecar_that_is_no_file_is_silent(self, bundle, kind):
        """A named pipe is not opened: the open would wait for a writer,
        which the test supplies if the load is still waiting."""
        path, rec = bundle
        sidecar = path / EEG_SIDECAR
        sidecar.unlink()
        if kind == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no named pipes on this platform")
            os.mkfifo(sidecar)
        else:
            sidecar.mkdir()
        loaded = []
        worker = threading.Thread(
            target=lambda: loaded.append(load_session(path)), daemon=True)
        worker.start()
        worker.join(10)
        if worker.is_alive():
            os.close(os.open(sidecar, os.O_WRONLY | os.O_NONBLOCK))
            worker.join(10)
        assert loaded == [rec]
        assert loaded[0].validation.warnings == []

    def test_edited_csv_unbinds_the_sidecar(self, bundle):
        path, rec = bundle
        eeg = path / "eeg.csv"
        unbind_sidecar(path)
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

    @pytest.mark.parametrize("edit,reason", [
        (_edit_line(2, lambda line: line + b"\n"), "are not the"),
        (lambda data: data + b"\n", "are not the"),
        (lambda data: data.replace(b"\n", b"\r\n"), "row differs"),
        (_edit_line(2, lambda line: line + "\xa0".encode()), "not ASCII"),
        (_edit_line(2, lambda line: line + "\u0661".encode()), "not ASCII"),
        # the same values, spelled as write_session does not spell them
        (_edit_line(1, lambda line: line.replace(b",", b"0,", 1)),
         "row differs"),
        (_edit_line(-2, lambda line: line.replace(b",", b"0,", 1)),
         "row differs"),
        # the newline after the first row and the one before the last
        # are part of the end rows' bytes
        (_edit_line(1, lambda line: line + b"0"), "row differs"),
        (_edit_line(-2, lambda line: b"0" + line), "row differs"),
    ], ids=["blank-line", "blank-last-line", "crlf", "non-ascii-space",
            "non-ascii-digit", "first-row-respelled", "last-row-respelled",
            "digit-after-first-row", "digit-before-last-row"])
    def test_csv_not_as_written_binds_no_sidecar(self, bundle, edit,
                                                  reason):
        """A sidecar hashed to an eeg.csv that write_session would not
        write is ignored with its reason, and the load gives what
        eeg.csv alone gives: the record or the parse error."""
        path, rec = bundle
        eeg = path / "eeg.csv"
        data = edit(eeg.read_bytes())
        eeg.write_bytes(data)
        sidecar = path / EEG_SIDECAR
        sidecar.write_bytes(hashlib.sha256(data).digest()
                            + _raw(eeg_matrix(rec.eeg)))

        def outcome():
            try:
                return load_session(path)
            except IngestError as exc:
                return type(exc), str(exc)

        with_sidecar = outcome()
        sidecar.unlink()
        from_csv = outcome()
        assert with_sidecar == from_csv
        if isinstance(from_csv, tuple):
            return  # the parse error, raised before any warning
        (warning,) = with_sidecar.validation.warnings
        assert warning.startswith("eeg.sidecar ignored, eeg.csv parsed: ")
        assert reason in warning
        assert from_csv.validation.warnings == []

    def test_samples_are_frozen_on_both_paths(self, bundle):
        path, rec = bundle
        with_sidecar = load_session(path)
        (path / EEG_SIDECAR).unlink()
        from_csv = load_session(path)
        assert with_sidecar.validation.warnings == []
        for loaded in (with_sidecar, from_csv):
            assert not loaded.eeg.samples.flags.writeable

    def test_time_error_with_a_bound_sidecar_names_its_row(self, bundle,
                                                          monkeypatch):
        """The load holds only the head of eeg.csv, yet names the row: it
        never reads eeg.csv whole."""
        path, _ = bundle
        eeg = path / "eeg.csv"
        lines = eeg.read_bytes().split(b"\n")
        # two rows out of time order
        lines[2:4] = [lines[3], lines[2]]
        data = b"\n".join(lines)
        eeg.write_bytes(data)
        matrix = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1)
        (path / EEG_SIDECAR).write_bytes(hashlib.sha256(data).digest()
                                         + matrix.astype("<f8").tobytes())
        real = Path.read_bytes

        def read_bytes(self):
            if self.name == "eeg.csv":
                raise AssertionError("eeg.csv read whole")
            return real(self)

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        with pytest.raises(NonMonotonicTime) as err:
            load_session(path)
        assert err.value.row == 4

    def test_matrix_longer_than_the_csv_is_a_located_error(self):
        """Matrix row i of a bound sidecar is line i + 2 of eeg.csv, also
        past the lines that the given data holds."""
        meta = SessionMeta("p01", "A", 1, 1.0, ("a",))
        matrix = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NonMonotonicTime) as err:
            parse_eeg_csv(b"t,a\n", meta, matrix)
        assert err.value.row == 4

    def test_csv_without_rows_binds_no_sidecar(self):
        csv_bytes = b"t,a\n"
        empty = hashlib.sha256(csv_bytes).digest()
        with pytest.raises(ValueError, match="not the 0 rows"):
            _read_sidecar(empty, csv_bytes, 2)

    @pytest.mark.parametrize("csv_bytes", [b"t,a\n0.0,1.0\n",
                                           b"t,a\n0.0,1.0"],
                             ids=["newline", "no-newline"])
    def test_one_row_is_the_first_and_the_last(self, csv_bytes):
        matrix = np.array([[0.0, 1.0]])
        sidecar = hashlib.sha256(csv_bytes).digest() + _raw(matrix)
        assert _read_sidecar(sidecar, csv_bytes, 2).tolist() == [[0.0, 1.0]]
        with pytest.raises(ValueError, match="row differs"):
            _read_sidecar(sidecar[:32] + _raw(matrix + 1), csv_bytes, 2)

    @settings(max_examples=300)
    @given(st.data())
    def test_damaged_sidecar_is_a_value_error(self, data):
        """Any bytes after a matching digest give the matrix or a
        ValueError, never another exception."""
        csv_bytes = b"t,a,b\n0.0,1.0,2.0\n"
        good = (hashlib.sha256(csv_bytes).digest()
                + np.array([[0.0, 1.0, 2.0]], "<f8").tobytes())
        if data.draw(st.booleans()):
            tail = data.draw(st.binary(max_size=200))
        else:
            i = data.draw(st.integers(32, len(good)))
            j = data.draw(st.integers(i, min(len(good), i + 16)))
            tail = (good[:i] + data.draw(st.binary(max_size=16)) + good[j:])[32:]
        try:
            matrix = _read_sidecar(good[:32] + tail, csv_bytes, 3)
        except ValueError:
            return
        # one row is both the first and the last, so it must be eeg.csv's
        assert matrix.tobytes() == good[32:]

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(["", "\r", "\r\r", " ", "1", "1,2\r",
                                     "0.5,-1.25"]),
                    max_size=12).map("\n".join))
    @example("t\n1\r\n\r\n\r\r\n\n0.5,-1.25")
    def test_data_row_is_the_line_split_rows_reads(self, text):
        """Matrix row i is row line i + 1: the header is the first."""
        # without "," every line is one cell, so no width is wrong
        rows = [row for row, _ in split_rows(text.replace(",", ";"),
                                              "eeg.csv", 1)][1:]
        for i in range(len(rows) + 2):
            assert ingest._data_row(text, i) == (
                rows[i] if i < len(rows) else None)

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(["", "\r", "\r\r", " ", "1", "1,2\r",
                                     "0.5,-1.25", "\xe9,1"]),
                    max_size=12).map("\n".join),
           st.integers(1, 7) | st.just(model.BLOCK_BYTES))
    @example("t\n1\r\n\r\n\r\r\n\n0.5,-1.25", 2)
    @example("t,a\r\n", 3)
    @example("t,a", 2)
    @example("", 1)
    def test_streamed_scan_is_the_whole_file_scan(self, text, block):
        """Blocks of 1-7 bytes split lines, "\\r\\n" pairs and blank
        lines; the scan keeps what the whole file gives."""
        data = text.encode()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK_BYTES", block)
            scan = ingest._EegScan(io.BytesIO(data))
        # every line after the header, the last even without its newline
        body = data.partition(b"\n")[2]
        rows = body.removesuffix(b"\n").split(b"\n") if body else []
        assert scan.digest == hashlib.sha256(data).digest()
        assert scan.rows == len(rows)
        assert scan.ascii == body.isascii()
        assert scan.size == len(data)
        assert scan.newline_end == data.endswith(b"\n")
        assert scan.head == data[:data.find(b"\n") + 1 or len(data)]

    @pytest.mark.parametrize("prefix", ["c", "\xe9"],
                             ids=["ascii-names", "non-ascii-names"])
    def test_load_holds_neither_file_whole(self, tmp_path, prefix):
        """The sidecar load peaks at the samples plus a few scan blocks,
        well below the size of eeg.csv, whatever the channel names."""
        rec = _block_record(14, 180 * 128, prefix)
        write_session(rec, tmp_path)
        csv_size = (tmp_path / "eeg.csv").stat().st_size
        bound = (rec.eeg.samples.nbytes + 8 * rec.eeg.n_samples
                 + 4 * model.BLOCK_BYTES)
        assert bound < 0.7 * csv_size
        # the first load in a process imports numpy modules lazily
        load_session(tmp_path)
        tracemalloc.start()
        try:
            loaded = load_session(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.validation.warnings == []
        assert peak < bound
        # the channel-major sidecar matrix becomes the samples uncopied
        assert loaded.eeg.samples.base is not None

    def test_csv_load_makes_no_wide_copy_of_the_text(self, tmp_path):
        """Without a sidecar the whole text is parsed, but never copied
        into a buffer of four bytes a character, and the file's bytes are
        not held once decoded."""
        rec = _block_record(14, 180 * 128)
        write_session(rec, tmp_path)
        (tmp_path / EEG_SIDECAR).unlink()
        csv_size = (tmp_path / "eeg.csv").stat().st_size
        load_session(tmp_path)
        tracemalloc.start()
        try:
            loaded = load_session(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == rec
        assert peak < 3 * csv_size

    def test_read_error_inside_eeg_csv_is_named(self, bundle, monkeypatch):
        path, _ = bundle
        real = Path.open

        class Failing(io.BytesIO):
            def read(self, *args):
                raise OSError(5, "Input/output error")

        def open_failing(self, *args, **kwargs):
            return Failing() if self.name == "eeg.csv" else real(
                self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_failing)
        with pytest.raises(MissingFile) as err:
            load_session(path)
        assert str(err.value) == (f"cannot read {path / 'eeg.csv'}: "
                                  f"Input/output error")


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
    return SessionRecord(meta=meta, eeg=eeg, events=log)


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
