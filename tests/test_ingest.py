import random
import tempfile

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
from gtl.ingest import (
    events_to_csv,
    load_session,
    parse_eeg_csv,
    parse_events_csv,
    parse_gaze_csv,
    parse_meta_json,
    write_session,
)
from gtl.model import EegRecording, GazeSample, SessionMeta, SessionRecord

from conftest import make_event_log, make_record, random_event_log

META14 = SessionMeta("p01", "A", 1)
META2 = SessionMeta("p01", "A", 1,
                    channel_names=("ch1", "ch2"))


def eeg_text(times, n_channels=14, names=None):
    names = names or [f"c{i}" for i in range(n_channels)]
    lines = ["t," + ",".join(names)]
    for i, t in enumerate(times):
        lines.append(",".join([repr(float(t))]
                              + [repr(float(i + ch)) for ch in range(n_channels)]))
    return "\n".join(lines) + "\n"


class TestEegCsv:
    def test_three_rows_at_128hz(self):
        meta = SessionMeta("p01", "A", 1,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        text = eeg_text([0.0, 1 / 128, 2 / 128])
        rec = parse_eeg_csv(text, meta)
        assert rec.fs == 128.0
        assert rec.n_samples == 3
        assert rec.n_channels == 14
        assert rec.t0 == 0.0

    def test_wrong_rate_vs_meta(self):
        meta = SessionMeta("p01", "A", 1,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        with pytest.raises(NonUniformRate):
            parse_eeg_csv(eeg_text([0.0, 0.01, 0.02]), meta)

    def test_jittered_spacing(self):
        meta = SessionMeta("p01", "A", 1,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        with pytest.raises(NonUniformRate):
            parse_eeg_csv(eeg_text([0.0, 1 / 128, 2 / 128 + 1e-3]), meta)

    def test_channel_count_mismatch(self):
        text = eeg_text([0.0, 1 / 128], n_channels=13)
        meta = SessionMeta("p01", "A", 1,
                           channel_names=tuple(f"c{i}" for i in range(14)))
        with pytest.raises(ChannelCountMismatch):
            parse_eeg_csv(text, meta)

    def test_malformed_number_locates_cell(self):
        meta = META2
        text = "t,ch1,ch2\n0.0,1.0,2.0\n0.0078125,oops,2.0\n"
        with pytest.raises(MalformedNumber) as err:
            parse_eeg_csv(text, meta)
        assert err.value.row == 3
        assert err.value.col == 2

    def test_truncated_row_names_failing_row(self):
        text = "t,ch1,ch2\n0.0,1.0,2.0\n0.0078125,1.0\n"
        with pytest.raises((MalformedRow, MalformedNumber)) as err:
            parse_eeg_csv(text, META2)
        assert err.value.row == 3

    def test_non_monotonic_time(self):
        text = "t,ch1,ch2\n0.0,1.0,2.0\n0.0078125,1.0,2.0\n0.0,1.0,2.0\n"
        with pytest.raises(NonMonotonicTime):
            parse_eeg_csv(text, META2)

    def test_missing_header(self):
        with pytest.raises(BadHeader):
            parse_eeg_csv("0.0,1.0,2.0", META2)

    def test_header_only(self):
        with pytest.raises(MalformedRow) as err:
            parse_eeg_csv("t,ch1,ch2\n", META2)
        assert err.value.row == 2

    def test_non_finite_rejected(self):
        text = "t,ch1,ch2\n0.0,1.0,2.0\n0.0078125,nan,2.0\n"
        with pytest.raises(MalformedNumber) as err:
            parse_eeg_csv(text, META2)
        assert (err.value.row, err.value.col) == (3, 2)

    @pytest.mark.parametrize("body,cell", [
        ("0.0,1,2#junk\n0.0078125,3,4\n", (2, 3)),
        ("0.0,1,2\n# c\n0.0078125,3,4\n", (3, 1)),
    ], ids=["hash-in-cell", "comment-line"])
    def test_hash_is_not_a_comment(self, body, cell):
        with pytest.raises(MalformedNumber) as err:
            parse_eeg_csv("t,ch1,ch2\n" + body, META2)
        assert (err.value.row, err.value.col) == cell


class TestEventsCsv:
    def test_valid_log(self):
        text = ("0,SESSION_START,,\n"
                "1,SENTENCE_SHOWN,\"my dog\",\n"
                "2,KEY,INSERT,m\n"
                "3,KEY,SUGG,y dog\n"
                "4,SENTENCE_SUBMIT,\"my dog\",\n"
                "5,SESSION_END,,\n")
        log = parse_events_csv(text)
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
            parse_events_csv(text)
        assert err.value.row == 3

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            parse_events_csv("0,SESSION_BEGIN,,\n")

    def test_marker_order_submit_before_shown(self):
        text = ("0,SESSION_START,,\n"
                "1,SENTENCE_SUBMIT,x,\n"
                "2,SESSION_END,,\n")
        with pytest.raises(MarkerOrder) as err:
            parse_events_csv(text)
        assert err.value.row == 2

    def test_time_regression_rejected(self):
        text = ("5,SESSION_START,,\n"
                "1,SENTENCE_SHOWN,x,\n")
        with pytest.raises(MarkerOrder):
            parse_events_csv(text)

    @pytest.mark.parametrize("text,row", [
        ("0,SESSION_START,,\n1,SESSION_END,,\n2,SENTENCE_SHOWN,x,\n", 2),
        ("0,SESSION_START,,\n1,SENTENCE_SHOWN,x,\n2,SENTENCE_SUBMIT,x,\n", 3),
        ("", None),
    ], ids=["event-after-end", "no-end", "empty"])
    def test_marker_order_row_is_the_first_violation(self, text, row):
        with pytest.raises(MarkerOrder) as err:
            parse_events_csv(text)
        assert err.value.row == row

    def test_row_error_precedes_structure_error(self):
        text = "1,SENTENCE_SHOWN,x,\n2,KEY,TAP,x\n"
        with pytest.raises(UnknownKeyClass) as err:
            parse_events_csv(text)
        assert err.value.row == 2

    def test_malformed_row_width(self):
        with pytest.raises(MalformedRow):
            parse_events_csv("0,SESSION_START,\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_timestamp_rejected(self, raw):
        text = f"0.0,SESSION_START,,\n{raw},SESSION_END,,\n"
        with pytest.raises(MalformedNumber) as exc:
            parse_events_csv(text)
        assert exc.value.row == 2

    def test_field_over_csv_limit_is_located(self):
        text = ('0.0,SESSION_START,,\n1.0,SENTENCE_SHOWN,"'
                + "a" * (128 * 1024 + 1) + '",\n')
        with pytest.raises(MalformedRow) as exc:
            parse_events_csv(text)
        assert exc.value.row == 2

    def test_round_trip_preserves_quoted_text(self):
        rng = random.Random(99)
        for _ in range(40):
            log = random_event_log(rng)
            text = events_to_csv(log)
            assert parse_events_csv(text) == log

    def test_round_trip_is_byte_stable(self):
        rng = random.Random(5)
        log = random_event_log(rng)
        once = events_to_csv(log)
        again = events_to_csv(parse_events_csv(once))
        assert once == again


class TestMetaJson:
    def test_round_trip(self):
        from gtl.ingest import meta_to_json
        meta = SessionMeta("p07", "C", 3, 128.0, ("a", "b"))
        assert parse_meta_json(meta_to_json(meta)) == meta

    def test_missing_key(self):
        with pytest.raises(MalformedMeta):
            parse_meta_json('{"participant_id": "x"}')

    def test_bad_json(self):
        with pytest.raises(MalformedMeta):
            parse_meta_json("{nope")

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
            parse_meta_json(text)

    def test_deep_nesting(self):
        with pytest.raises(MalformedMeta):
            parse_meta_json("[" * 100_000 + "]" * 100_000)


class TestGazeCsv:
    def test_round_trip(self):
        from gtl.ingest import gaze_to_csv
        gaze = (GazeSample(0.0, 1.5, 2.5, True),
                GazeSample(1 / 60, 3.0, 4.0, False))
        text = gaze_to_csv(gaze)
        assert parse_gaze_csv(text) == gaze

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonicTime):
            parse_gaze_csv("t,x,y,valid\n1.0,0,0,1\n0.5,0,0,1\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_non_finite_rejected(self, raw, col):
        cells = ["0.5", "0", "0", "1"]
        cells[col] = raw
        text = "t,x,y,valid\n0.0,0,0,1\n" + ",".join(cells) + "\n"
        with pytest.raises(MalformedNumber) as err:
            parse_gaze_csv(text)
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


def _total(parse, data):
    """A parser gives a record or an IngestError, never another exception."""
    try:
        parse(data)
    except IngestError:
        pass


_EEG_LINE = st.lists(st.sampled_from(
    ["0.0", "0.0078125", "1e400", "nan", "-3.5", "x", "", " "]),
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
        _total(lambda d: parse_eeg_csv(d, META2), "t,ch1,ch2\n" + text)
        _total(parse_gaze_csv, "t,x,y,valid\n" + text)
        _total(parse_meta_json, '{"channels": ' + text)

    @given(st.lists(_EEG_LINE, max_size=6))
    def test_near_valid_eeg(self, lines):
        _total(lambda d: parse_eeg_csv(d, META2),
               "\n".join(["t,ch1,ch2", *lines]))

    @given(st.lists(st.one_of(st.sampled_from(_EVENT_LINES), st.text()),
                    max_size=8))
    def test_near_valid_events(self, lines):
        _total(parse_events_csv, "\n".join(lines))


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
_KEYS = st.lists(st.tuples(st.sampled_from(["INSERT", "SUGG", "BKSP"]),
                           st.text(max_size=4)), min_size=1, max_size=5)


@st.composite
def _records(draw):
    fs = draw(st.sampled_from([24.0, 128.0, 256.0, 100.0]))
    channels = tuple(draw(st.lists(
        st.text(alphabet="abcXYZ019_ ", min_size=1, max_size=4)
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


class TestRoundTripProperty:
    @settings(max_examples=50)
    @given(_records())
    def test_write_then_load_is_equal(self, rec):
        with tempfile.TemporaryDirectory() as tmp:
            write_session(rec, tmp)
            assert load_session(tmp) == rec
