import gc
import itertools
import logging
import math
import re
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bytemot import mot_io, synth
from bytemot.cli import run_tracker

from bytemot.geometry import BOX_LIMIT, BOX_MIN, BBox, Detection
from bytemot.mot_io import (
    ParseError,
    dump_from_rows,
    group_by_frame,
    read_detections,
    read_gt,
    read_results,
    write_detections,
    write_gt,
    write_results,
    _PRINT_MIN,
    _paused,
)
from bytemot.metrics import GtEntry, evaluate
from bytemot.postprocess import TrackEntry, interpolate
from bytemot.tracker import TrackerConfig
from oracles import (
    ref_dump_from_rows,
    ref_read_detections,
    ref_read_gt,
    ref_read_results,
    ref_write_detections,
    ref_write_gt,
    ref_write_results,
)


class TestReadDetections:
    def test_example_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.85,-1,-1,-1\n")
        dets = read_detections(p)
        assert dets == [Detection(1, BBox(10, 20, 30, 40), 0.85)]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("")
        assert read_detections(p) == []

    def test_short_line_errors_with_line_number(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.85,-1,-1,-1\n1,-1,10,20,30\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_detections(p)

    def test_non_numeric_field_errors(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,abc,20,30,40,0.85,-1,-1,-1\n")
        with pytest.raises(ParseError, match=r":1:.*abc"):
            read_detections(p)

    def test_confidence_clamped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,1.7,-1,-1,-1\n")
        with caplog.at_level(logging.WARNING):
            dets = read_detections(p)
        assert dets[0].score == 1.0
        assert "clamped" in caplog.text

    def test_non_positive_size_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,0,40,0.9,-1,-1,-1\n2,-1,10,20,30,40,0.9,-1,-1,-1\n")
        with caplog.at_level(logging.WARNING):
            dets = read_detections(p)
        assert len(dets) == 1 and dets[0].frame == 2
        assert ":1:" in caplog.text

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_bytes(b"1,-1,10,20,30,40,0.85,-1,-1,-1\r\n")
        assert len(read_detections(p)) == 1

    def test_seven_column_file_accepted(self, tmp_path):
        # some public detection files omit the trailing -1 world coordinates
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.85\n")
        dets = read_detections(p)
        assert dets == [Detection(1, BBox(10, 20, 30, 40), 0.85)]

    def test_negative_confidence_clamped(self, tmp_path, caplog):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,-0.8,-1,-1,-1\n")
        with caplog.at_level(logging.WARNING):
            dets = read_detections(p)
        assert dets[0].score == 0.0

    @pytest.mark.parametrize("box", [
        "nan,20,30,40", "10,inf,30,40", "10,20,nan,40", "10,20,30,-inf", "10,20,-inf,40",
    ])
    def test_non_finite_box_value_errors_with_line_number(self, tmp_path, box):
        p = tmp_path / "det.txt"
        p.write_text(f"1,-1,10,20,30,40,0.9,-1,-1,-1\n2,-1,{box},0.9,-1,-1,-1\n")
        with pytest.raises(ParseError, match=r"det\.txt:2:.*finite"):
            read_detections(p)

    def test_nan_confidence_errors_with_line_number(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,nan,-1,-1,-1\n")
        with pytest.raises(ParseError, match=r":1:.*NaN"):
            read_detections(p)

    def test_frame_floor(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("0,-1,10,20,30,40,0.85,-1,-1,-1\n")
        with pytest.raises(ParseError, match=r"frame"):
            read_detections(p)


class TestResultsRoundTrip:
    def make_dump(self):
        return {
            3: [TrackEntry(1, BBox(10.123, 20.456, 30.789, 40.001), 0.85)],
            1: [
                TrackEntry(1, BBox(50, 60, 20, 30), 0.9),
                TrackEntry(2, BBox(51.5, 60.25, 20, 30), 0.8),
            ],
        }

    def test_single_track_single_frame(self, tmp_path):
        p = tmp_path / "res.txt"
        write_results(p, {7: [TrackEntry(4, BBox(1, 2, 3, 4), 0.5)]})
        assert p.read_text() == "4,7,1.00,2.00,3.00,4.00,0.500000,-1,-1,-1\n"

    def test_round_trip_at_declared_precision(self, tmp_path):
        p = tmp_path / "res.txt"
        dump = self.make_dump()
        write_results(p, dump)
        back = read_results(p)
        assert sorted(back) == [1, 3]
        for tid in dump:
            for a, b in zip(sorted(dump[tid], key=lambda e: e.frame), back[tid]):
                assert a.frame == b.frame
                for x, y in zip(a.box.tlwh(), b.box.tlwh()):
                    assert abs(x - y) <= 0.005
                assert abs(a.score - b.score) <= 5e-7

    def test_second_write_is_stable(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_results(first, self.make_dump())
        write_results(second, read_results(first))
        assert first.read_bytes() == second.read_bytes()

    def test_byte_identical_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_results(a, self.make_dump())
        write_results(b, self.make_dump())
        assert a.read_bytes() == b.read_bytes()

    def test_rows_sorted_by_frame_then_id(self, tmp_path):
        p = tmp_path / "res.txt"
        write_results(p, self.make_dump())
        keys = [tuple(map(float, line.split(",")[:2])) for line in p.read_text().splitlines()]
        assert keys == sorted(keys)

    def test_duplicate_frame_rejected(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text(
            "1,5,10,20,30,40,0.9,-1,-1,-1\n1,5,11,20,30,40,0.8,-1,-1,-1\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            read_results(p)


class TestReadResults:
    def test_non_finite_box_value_errors(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("1,1,10,20,30,40,0.9,-1,-1,-1\n1,2,nan,20,30,40,0.9,-1,-1,-1\n")
        with pytest.raises(ParseError, match=r":2:.*finite"):
            read_results(p)


# A valid row of each reader's format, with the fields the bounds tests vary.
ROWS = {
    read_detections: "{frame},-1,{left},20,30,{height},0.9,-1,-1,-1\n",
    read_results: "{frame},{id},{left},20,30,{height},0.9,-1,-1,-1\n",
    read_gt: "{frame},{id},{left},20,30,{height},1,1,1\n",
}


def bounds_file(tmp_path, reader, **fields):
    """A two-line file for reader: frame 1, id 1, then frame 2, id 2 with the
    given fields."""
    first = {"frame": 1, "id": 1, "left": 10, "height": 40}
    second = {**first, "frame": 2, "id": 2, **fields}
    p = tmp_path / "in.txt"
    p.write_text(ROWS[reader].format(**first) + ROWS[reader].format(**second))
    return p


class TestBounds:
    """Box values beyond BOX_LIMIT, positive sizes below BOX_MIN and frames or
    identities outside int64 are ParseErrors at file:line, not skipped rows or
    silent conversions."""

    @pytest.mark.parametrize("reader", list(ROWS))
    @pytest.mark.parametrize("field, value", [
        ("left", "1e200"), ("left", "-1.000001e9"), ("height", "1e200"), ("height", "-1e200"),
    ])
    def test_box_outside_limit_errors_with_line_number(self, tmp_path, reader, field, value):
        p = bounds_file(tmp_path, reader, **{field: value})
        with pytest.raises(ParseError, match=r"in\.txt:2:.*at most 1e\+09"):
            reader(p)

    @pytest.mark.parametrize("reader", list(ROWS))
    @pytest.mark.parametrize("value", ["1e-300", "0.0009", "5e-324"])
    def test_positive_size_below_minimum_errors_with_line_number(self, tmp_path, reader, value):
        p = bounds_file(tmp_path, reader, height=value)
        with pytest.raises(ParseError, match=r"in\.txt:2:.*at least 0\.001"):
            reader(p)

    @pytest.mark.parametrize("reader", list(ROWS))
    def test_non_positive_size_still_skipped(self, tmp_path, reader, caplog):
        p = bounds_file(tmp_path, reader, height="-0.0005")
        with caplog.at_level(logging.WARNING):
            assert len(reader(p)) == 1
        assert "in.txt:2: skipping row with non-positive box size" in caplog.text

    @pytest.mark.parametrize("reader", list(ROWS))
    def test_box_at_minimum_accepted(self, tmp_path, reader):
        p = bounds_file(tmp_path, reader, height=repr(BOX_MIN))
        assert len(reader(p)) == 2

    @pytest.mark.parametrize("reader", list(ROWS))
    def test_box_at_limit_accepted(self, tmp_path, reader):
        p = bounds_file(tmp_path, reader, left=f"{-BOX_LIMIT:.1f}", height=f"{BOX_LIMIT:.1f}")
        assert len(reader(p)) == 2

    @pytest.mark.parametrize("reader", list(ROWS))
    @pytest.mark.parametrize("value", ["1e19", "-1e19", "9223372036854775808"])
    def test_frame_outside_int64_errors_with_line_number(self, tmp_path, reader, value):
        p = bounds_file(tmp_path, reader, frame=value)
        with pytest.raises(ParseError, match=r"in\.txt:2: frame .*int64"):
            reader(p)

    @pytest.mark.parametrize("reader", [read_results, read_gt])
    @pytest.mark.parametrize("value", ["1e19", "-1e19"])
    def test_identity_outside_int64_errors_with_line_number(self, tmp_path, reader, value):
        p = bounds_file(tmp_path, reader, id=value)
        with pytest.raises(ParseError, match=r"in\.txt:2: .*id.* outside the int64 range"):
            reader(p)

    def test_largest_int64_frame_accepted(self, tmp_path):
        # 2**63 - 1024 is the largest double below 2**63
        p = bounds_file(tmp_path, read_detections, frame=str(2**63 - 1024))
        assert read_detections(p)[1].frame == 2**63 - 1024


class TestReadGt:
    def test_nine_column_pedestrian(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,2,10,20,30,40,1,1,0.75\n")
        entries = read_gt(p)
        assert entries == [GtEntry(1, 2, BBox(10, 20, 30, 40), True, 0.75)]

    def test_flag_zero_not_considered(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,2,10,20,30,40,0,1,0.75\n")
        assert read_gt(p)[0].considered is False

    def test_non_pedestrian_class_not_considered(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,2,10,20,30,40,1,8,0.75\n")
        assert read_gt(p)[0].considered is False

    def test_seven_column_minimal_considered(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,2,10,20,30,40,1\n")
        entry = read_gt(p)[0]
        assert entry.considered is True
        assert entry.visibility == 1.0

    def test_non_finite_box_value_errors(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,2,10,20,inf,40\n")
        with pytest.raises(ParseError, match=r":1:.*finite"):
            read_gt(p)

    def test_duplicate_identity_in_frame_errors_at_repeated_row(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,2,10,20,30,40\n1,3,50,20,30,40\n2,2,12,20,30,40\n1,2,11,20,30,40\n")
        with pytest.raises(ParseError, match=r"gt\.txt:4:.*identity 2.*frame 1.*line 1"):
            read_gt(p)

    @pytest.mark.parametrize("visibility", ["nan", "7.5", "-0.25"])
    def test_visibility_outside_unit_interval_errors(self, tmp_path, visibility):
        p = tmp_path / "gt.txt"
        p.write_text(f"1,2,10,20,30,40,1,1,0.5\n2,2,10,20,30,40,1,1,{visibility}\n")
        with pytest.raises(ParseError, match=r"gt\.txt:2:.*visibility"):
            read_gt(p)

    def test_visibility_bounds_accepted(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,2,10,20,30,40,1,1,0\n1,3,50,20,30,40,1,1,1\n")
        assert [e.visibility for e in read_gt(p)] == [0.0, 1.0]

    def test_six_column_minimal(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,2,10,20,30,40\n")
        assert read_gt(p)[0].considered is True

    def test_write_read_round_trip(self, tmp_path):
        p = tmp_path / "gt.txt"
        entries = [
            GtEntry(2, 1, BBox(1, 2, 3, 4), True, 1.0),
            GtEntry(1, 3, BBox(5.5, 6.25, 7, 8), False, 0.5),
        ]
        write_gt(p, entries)
        back = read_gt(p)
        assert [(e.frame, e.identity, e.considered) for e in back] == [
            (1, 3, False),
            (2, 1, True),
        ]
        assert back[0].visibility == pytest.approx(0.5)


class TestHelpers:
    def test_group_by_frame(self):
        d1 = Detection(1, BBox(0, 0, 1, 1), 0.5)
        d2 = Detection(2, BBox(0, 0, 1, 1), 0.5)
        d3 = Detection(1, BBox(5, 5, 1, 1), 0.6)
        grouped = group_by_frame([d1, d2, d3])
        assert grouped == {1: [d1, d3], 2: [d2]}

    def test_write_detections_round_trip(self, tmp_path):
        p = tmp_path / "det.txt"
        dets = [
            Detection(2, BBox(10, 20, 30, 40), 0.25),
            Detection(1, BBox(1, 2, 3, 4), 0.75),
        ]
        write_detections(p, dets)
        back = read_detections(p)
        assert [d.frame for d in back] == [1, 2]
        assert back[0].score == pytest.approx(0.75)

    def test_dump_from_rows_sorts(self):
        rows = [(2, 1, BBox(0, 0, 1, 1), 0.5), (1, 1, BBox(0, 0, 1, 1), 0.6)]
        dump = dump_from_rows(rows)
        assert [e.frame for e in dump[1]] == [1, 2]


# (frame, id) rows; small ranges make repeated frames and out-of-order
# arrivals common, a frame-sorted draw makes the in-order case common
result_rows = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(0, 3)), max_size=14
).map(lambda rows: [(f, t, BBox(x, 0, 1, 1), 0.5) for f, t, x in rows])


class TestDumpFromRows:
    @staticmethod
    def outcome(build, rows):
        try:
            return list(build(rows).items())
        except ParseError as exc:
            return str(exc)

    @given(result_rows, st.booleans())
    def test_equals_reference(self, rows, in_frame_order):
        if in_frame_order:
            rows = sorted(rows, key=lambda r: r[0])
        assert self.outcome(dump_from_rows, rows) == self.outcome(ref_dump_from_rows, rows)

    def test_first_track_smallest_frame_reported(self):
        b = BBox(0, 0, 1, 1)
        rows = [(5, 2, b, 0.5), (3, 1, b, 0.5), (5, 2, b, 0.5), (3, 1, b, 0.5),
                (1, 2, b, 0.5), (1, 2, b, 0.5)]
        with pytest.raises(ParseError, match="track 2 has duplicate entries for frame 1"):
            dump_from_rows(rows)


class TestPrintedSize:
    """A width or height below 0.005 prints as 0.00, which a reader skips:
    the writers refuse such a box instead of losing its row."""

    def test_threshold_is_where_the_print_turns_zero(self):
        assert f"{_PRINT_MIN:.2f}" == "0.01"
        assert f"{math.nextafter(_PRINT_MIN, 0.0):.2f}" == "0.00"

    def test_write_results_rejects_tiny_width(self, tmp_path):
        p = tmp_path / "res.txt"
        with pytest.raises(ValueError, match=r"res\.txt: track 1 in frame 1 .*0\.00"):
            write_results(p, {1: [TrackEntry(1, BBox(10, 10, 0.004, 20), 0.9)]})
        assert not p.exists()

    def test_write_detections_rejects_tiny_height(self, tmp_path):
        p = tmp_path / "det.txt"
        dets = [Detection(2, BBox(10, 10, 30, 40), 0.9), Detection(3, BBox(10, 10, 30, 0.002), 0.9)]
        with pytest.raises(ValueError, match=r"det\.txt: a detection in frame 3 .*0\.00"):
            write_detections(p, dets)

    def test_write_gt_rejects_tiny_box(self, tmp_path):
        p = tmp_path / "gt.txt"
        entries = [GtEntry(4, 7, BBox(10, 10, 0.001, 0.001))]
        with pytest.raises(ValueError, match=r"gt\.txt: identity 7 in frame 4 .*0\.00"):
            write_gt(p, entries)

    @pytest.mark.parametrize("size, written", [(BOX_MIN, None), (_PRINT_MIN, 0.01)])
    def test_round_trip_at_the_smallest_sizes(self, tmp_path, size, written):
        # BOX_MIN is a valid box but prints as 0.00; the smallest printable
        # size comes back as 0.01 instead of being skipped on read
        p = tmp_path / "res.txt"
        dump = {1: [TrackEntry(1, BBox(10, 10, size, size), 0.9),
                    TrackEntry(2, BBox(10, 10, 5, 5), 0.9)]}
        if written is None:
            with pytest.raises(ValueError, match="prints as 0.00"):
                write_results(p, dump)
            return
        write_results(p, dump)
        back = read_results(p)
        assert [e.frame for e in back[1]] == [1, 2]
        assert back[1][0].box.tlwh() == (10.0, 10.0, written, written)


# -- the table read against the line-by-line reference readers ----------------

REFERENCE = {read_detections: ref_read_detections, read_results: ref_read_results,
             read_gt: ref_read_gt}

# fields either parser may read differently, or one of them not at all, and
# values on each side of every check
TRICKY = [
    "1_0", "2\x1c", "١", "2\r5", "nan", "-inf", "inf", "1e400", "abc", "", " 3 ",
    "\t1", "+1", "1.", ".5", "1e-320", "-0.0", "1.5", "0", "-1", "1.7", "-0.3",
    "1e19", "-1e19", "9223372036854775808", "9223372036854774784",
    "-9223372036854775808", "1e9", "-1e9", "1000000000.0000001", "0.001", "0.0009",
    "0.0005", "-0.0005", "7.5",
]
# values on each side of each column's checks, per column of
# frame,id,left,top,width,height,conf-or-flag,class,visibility
COLUMN_VALUES = [
    ["0", "4.0", "1.5", "-1"], ["-1", "0", "2.5"],
    ["10.5", "-1e9", "1e9", "-1000000000.0000001"], ["-0.0", "1e9", "1e200"],
    ["1e-3", "0.0009", "0", "-5", "1e9"], ["0.001", "-0.0", "1e200", "-1e-300"],
    ["0", "1", "1.7", "-0.3", "nan", "2"], ["-1", "8", "1.5"], ["0", "1", "7.5", "-1", "nan"],
]


@st.composite
def mot_rows(draw, width):
    """One data line of width fields: a valid row of frame 1-3 and id 1-3
    (so repeats and out-of-order frames are common) with up to two fields
    replaced by a value from the edges of their checks or by a TRICKY one."""
    fields = [str(draw(st.integers(1, 3))), str(draw(st.integers(1, 3))),
              "10", "20", "30", "40", "1", "1", "0.5"]
    fields = (fields + ["-1"] * width)[:width]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        i = draw(st.integers(0, width - 1))
        pool = COLUMN_VALUES[i] if i < len(COLUMN_VALUES) else []
        fields[i] = draw(st.sampled_from(pool + TRICKY) if pool and draw(st.booleans())
                         else st.sampled_from(TRICKY))
    return ",".join(fields)


@st.composite
def mot_files(draw):
    """A file of data lines of one width (a few ragged), with blank and
    whitespace-only lines, LF or CRLF endings, sometimes no final newline."""
    width = draw(st.sampled_from([10, 9, 7, 6, 8, 11, 5]))
    lines = draw(st.lists(st.one_of(
        mot_rows(width), mot_rows(width), mot_rows(width), mot_rows(width),
        st.integers(4, 11).flatmap(mot_rows),
        st.sampled_from(["", "  ", "\t", " \r "]),
    ), max_size=10))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def read_outcome(reader, path, caplog):
    """The reader's records (or exception) and the warnings it logged."""
    caplog.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = reader(path)
        except Exception as exc:  # compared with the reference's, type and text
            result = (type(exc), str(exc))
    if isinstance(result, dict):
        result = list(result.items())
    return result, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def assert_record_types(reader, result):
    """Frames and identities are ints, box values and scores floats."""
    if isinstance(result, tuple):
        return
    if reader is read_results:
        result = [e for _, entries in result for e in entries]
    for record in result:
        assert type(record.frame) is int
        assert all(type(v) is float for v in record.box.tlwh())
        if reader is read_gt:
            assert type(record.identity) is int and type(record.considered) is bool
            assert type(record.visibility) is float
        else:
            assert type(record.score) is float


def assert_reads_like_reference(path, caplog):
    with caplog.at_level(logging.WARNING, logger="bytemot.mot_io"):
        for reader, reference in REFERENCE.items():
            got = read_outcome(reader, path, caplog)
            assert got == read_outcome(reference, path, caplog), reader.__name__
            assert_record_types(reader, got[0])


class TestTableEquivalence:
    """Each reader returns the records, raises the error and logs the
    warnings, in order, that the line-by-line reference does."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mot_files())
    def test_generated_files(self, tmp_path, caplog, text):
        p = tmp_path / "in.txt"
        p.write_bytes(text.encode("utf-8"))
        assert_reads_like_reference(p, caplog)

    @pytest.mark.parametrize("text", [
        "", "\n", " \n\t\r\n", "1,1,10,20,30,40,0.9", "1,1,10,20,30,40,0.9,1,1\r\n",
        "1,1,10,20,30,40,0.9\n\n\n2,1,10,20,30,40,0.9\n",
        "1,1,10,20,30,40,1_0\n", "1,1,10,20,30,40,2\x1c\n", "1,1,10,20,30,40,١\n",
        "1,1,10,20\r,30,40,0.9\n", "1,1,10,20,30,40,0.9,1,1\n1,1,10,20,30,40,0.9,1,1\n",
        "1,1,10,20,30,40,0.9,1,1\n1,1,10,20,0,40,0.9,1,1\n1,1,10,20,30,40,0.9,1,1\n",
        "1,1,10,20,0,40,0.9,1,1\n1,1,10,20,30,40,0.9,1,1\n1,1,10,20,30,40,0.9,1,1\n",
        "1,1,10,20,30,40\n1,1,10,20,30,40,1,1,1\n",
        # records of clamped rows between clean ones, in line order
        "1,1,10,20,30,40,0.9\n1,2,10,20,30,40,1.7\n1,3,10,20,30,40,0.9\n2,1,10,20,30,40,-0.3\n",
        "1,1,10,20,30,40,0.9\n2,1,10,20,0,40,0.9\n1,2,10,20,30,40,2\n1,3,10,20,30,40,0.9\n",
    ])
    def test_hand_written_files(self, tmp_path, caplog, text):
        p = tmp_path / "in.txt"
        p.write_bytes(text.encode("utf-8"))
        assert_reads_like_reference(p, caplog)

    @pytest.mark.parametrize("reader", list(REFERENCE))
    def test_check_error_beats_a_later_unparsable_line(self, tmp_path, reader):
        lines = [f"{frame},1,10,20,30,40,1,1,1" for frame in range(1, 10)]
        lines[2] = "1.5,1,10,20,30,40,1,1,1"
        lines[8] = "9,1,abc,20,30,40,1,1,1"
        p = tmp_path / "in.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"in\.txt:3: frame must be an integer"):
            reader(p)

    @pytest.mark.parametrize("reader", [read_detections, read_results])
    @pytest.mark.parametrize("bad", ["abc", "30,40"])
    def test_clamp_warning_logged_before_a_later_error(self, tmp_path, caplog, reader, bad):
        lines = [f"{f},1,10,20,30,40,0.9,-1,-1,-1" for f in range(1, 6)]
        lines[1] = "2,1,10,20,30,40,1.7,-1,-1,-1"
        lines[4] = f"5,1,10,20,{bad}"
        p = tmp_path / "in.txt"
        p.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING), pytest.raises(ParseError, match=r"in\.txt:5:"):
            reader(p)
        assert [r.getMessage() for r in caplog.records] == [
            f"{p}:2: confidence 1.7 outside [0, 1], clamped to 1"]

    @pytest.mark.parametrize("reader", list(REFERENCE))
    @pytest.mark.parametrize("text", ["", "\n \n\t\n"])
    def test_empty_file_reads_empty_without_warnings(self, tmp_path, reader, text):
        p = tmp_path / "in.txt"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not reader(p)


# the crowd_occluded benchmark workload's inputs at seed 0
OCCLUDED_CROWD = synth.ScenarioConfig(
    seed=11, frames=400, field_size=(1280.0, 960.0), agents=120,
    speed_range=(1.0, 3.0), box_size_range=(24.0, 60.0), occlusion_decay=0.85,
    base_score=0.9, score_noise_std=0.05, miss_prob=0.03, fp_per_frame=4.0,
    fp_score_range=(0.1, 0.75), jitter_std=0.5,
)


def write_pipeline_files(directory, gt, dets):
    """det.txt and gt.txt of a generated sequence, and the res.txt of
    tracking and interpolating it, as the CLI pipeline writes them."""
    directory.mkdir(parents=True, exist_ok=True)
    write_detections(directory / "det.txt", dets)
    write_gt(directory / "gt.txt", gt)
    dump, _ = run_tracker(read_detections(directory / "det.txt"), TrackerConfig())
    write_results(directory / "res.txt", interpolate(dump, sigma=20))
    return [directory / name for name in ("det.txt", "gt.txt", "res.txt")]


class TestPipelineFiles:
    """The readers equal the references on the files the pipeline writes."""

    def test_ablation_corpus(self, tmp_path, caplog):
        for name, cfg in synth.ablation_corpus():
            for p in write_pipeline_files(tmp_path / name, *synth.generate(cfg)):
                assert_reads_like_reference(p, caplog)

    def test_occluded_crowd(self, tmp_path, caplog):
        for p in write_pipeline_files(tmp_path, *synth.generate(OCCLUDED_CROWD)):
            assert_reads_like_reference(p, caplog)


# -- the template writers against the per-row reference writers ---------------

WRITERS = {write_detections: ref_write_detections, write_results: ref_write_results,
           write_gt: ref_write_gt}


def write_outcome(writer, path, records):
    """The bytes the writer wrote, or its ValueError's text; a writer that
    raises has not created the file."""
    try:
        writer(path, records)
    except ValueError as exc:
        assert not path.exists()
        return str(exc)
    data = path.read_bytes()
    path.unlink()
    return data


def assert_writes_like_reference(writer, path, records):
    assert write_outcome(writer, path, records) == write_outcome(WRITERS[writer], path, records)


# signed zeros, halves that %.2f rounds to even, doubles just below a printed
# half (1.005, 2.675) and the box bounds
EDGE_COORDS = [0.0, -0.0, 0.005, -0.005, 0.015, -0.015, 0.125, 0.375, 1.005, 2.675,
               -0.004, 123.455, BOX_LIMIT, -BOX_LIMIT]
PRINTABLE_SIZES = [_PRINT_MIN, 0.015, 0.125, 1.005, 2.675, 40.0, BOX_LIMIT]
UNPRINTABLE_SIZES = [BOX_MIN, 0.004, math.nextafter(_PRINT_MIN, 0.0)]
UNIT_VALUES = [0.0, -0.0, 1.0, 0.5, 5e-7, 1.5e-6, 2.5e-6, 0.1234565, 0.9999995]
# scores and visibilities the writers refuse; the first two print inside
# [0, 1] at six decimals
OUTSIDE_UNIT = [math.nextafter(1.0, 2.0), -1e-9, 1.5, -0.25, math.nan, math.inf, -math.inf,
                np.float32(1.7), 2]

coords = st.one_of(st.sampled_from(EDGE_COORDS), st.floats(-1e4, 1e4))
units = st.one_of(st.sampled_from(UNIT_VALUES), st.floats(0.0, 1.0))
# numpy integers and integral floats are written as they print (5.0 as 5.0)
small_ints = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3).map(np.int64), st.integers(-3, 3).map(np.int32),
    st.integers(-3, 3).map(float), st.integers(-3, 3).map(np.float64),
    st.sampled_from([2**63 - 1, -(2**63), np.uint64(2**63 - 1)]),
)
detection_frames = st.one_of(
    st.integers(1, 4), st.integers(1, 4).map(np.int64), st.integers(1, 4).map(np.uint8),
    st.just(2**63 - 1),
)
# values no int64 column holds exactly
INEXACT = [1.5, -0.5, True, False, np.bool_(True), np.float64(2.5), 2**63, -(2**63) - 1,
           float(2**63), np.uint64(2**63), math.nan, math.inf]


@st.composite
def sizes(draw):
    """Mostly printable sizes, now and then one that prints as 0.00."""
    if draw(st.integers(0, 24)) == 0:
        return draw(st.sampled_from(UNPRINTABLE_SIZES))
    return draw(st.one_of(st.sampled_from(PRINTABLE_SIZES), st.floats(0.01, 1e4)))


boxes = st.builds(BBox, coords, coords, sizes(), sizes())


@st.composite
def result_dumps(draw):
    """A hand-built dump: track lists in any frame order, with repeated
    frames, so (frame, id) ties are common; ids of several types."""
    dump = {}
    for track_id in draw(st.lists(small_ints, max_size=5)):
        dump[track_id] = draw(st.lists(
            st.builds(TrackEntry, small_ints, boxes, units, st.booleans()), max_size=5))
    return dump


detection_lists = st.lists(st.builds(Detection, detection_frames, boxes, units), max_size=12)
gt_lists = st.lists(
    st.builds(GtEntry, small_ints, small_ints, boxes, st.sampled_from([True, False, 0, 1]),
              units),
    max_size=12,
)


class TestTemplateWriters:
    """Each writer writes the bytes, or raises the error, that the per-row
    reference writer does, and refuses frames and identities that are not
    exact int64 values before opening the file."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(result_dumps())
    def test_results_equal_reference(self, tmp_path, dump):
        assert_writes_like_reference(write_results, tmp_path / "res.txt", dump)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(detection_lists)
    def test_detections_equal_reference(self, tmp_path, dets):
        assert_writes_like_reference(write_detections, tmp_path / "det.txt", dets)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gt_lists)
    def test_gt_equal_reference(self, tmp_path, entries):
        assert_writes_like_reference(write_gt, tmp_path / "gt.txt", entries)

    def test_ties_keep_their_order(self, tmp_path):
        a, b, c = (BBox(x, 0, 5, 5) for x in (3, 1, 2))
        dump = {2: [TrackEntry(1, a, 0.1), TrackEntry(1, b, 0.2)], 1: [TrackEntry(1, c, 0.3)],
                0: [TrackEntry(2, a, 0.4), TrackEntry(1.0, b, 0.5)]}
        p = tmp_path / "res.txt"
        write_results(p, dump)
        assert [line.split(",")[:3] for line in p.read_text().splitlines()] == [
            ["1.0", "0", "1.00"], ["1", "1", "2.00"], ["1", "2", "3.00"], ["1", "2", "1.00"],
            ["2", "0", "3.00"]]
        assert_writes_like_reference(write_results, p, dump)
        dets = [Detection(1, a, 0.5), Detection(1, a, 0.5), Detection(1, b, 0.7),
                Detection(1, b, 0.9)]
        assert_writes_like_reference(write_detections, tmp_path / "det.txt", dets)
        gt = [GtEntry(1, 1, a), GtEntry(1, 1, b, False), GtEntry(1, 0, c)]
        assert_writes_like_reference(write_gt, tmp_path / "gt.txt", gt)

    def test_unprintable_error_names_the_first_row_written(self, tmp_path):
        tiny = BBox(0, 0, 0.004, 1)
        dump = {9: [TrackEntry(1, tiny, 0.5)], 2: [TrackEntry(3, tiny, 0.5)],
                5: [TrackEntry(1, BBox(0, 0, 1, BOX_MIN), 0.5)]}
        p = tmp_path / "res.txt"
        with pytest.raises(ValueError, match=r"res\.txt: track 5 in frame 1 "):
            write_results(p, dump)
        assert_writes_like_reference(write_results, p, dump)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(result_dumps(), st.sampled_from(INEXACT), st.booleans(), st.data())
    def test_results_refuse_inexact_ints(self, tmp_path, dump, bad, in_frame, data):
        entry = TrackEntry(bad if in_frame else 1, BBox(0, 0, 1, 1), 0.5)
        if in_frame and dump:
            entries = dump[data.draw(st.sampled_from(list(dump)))]
        else:
            # a drawn id equal to bad (1 == True) would take the entry in
            dump.pop(bad, None)
            entries = dump.setdefault(7 if in_frame else bad, [])
        entries.insert(data.draw(st.integers(0, len(entries))), entry)
        rows = [(track_id, e.frame) for track_id in dump for e in dump[track_id]]
        track_id, frame = next(row for row in rows if not all(map(is_exact_int64, row)))
        p = tmp_path / "res.txt"
        with pytest.raises(ValueError) as raised:
            write_results(p, dump)
        assert str(raised.value) == (
            f"{p}: track {track_id} in frame {frame}: frames and identities "
            "must be integers inside the int64 range")
        assert not p.exists()

    @pytest.mark.parametrize("bad", INEXACT)
    def test_gt_refuses_inexact_ints(self, tmp_path, bad):
        box = BBox(0, 0, 1, 1)
        p = tmp_path / "gt.txt"
        for entries, named in (([GtEntry(1, 1, box), GtEntry(bad, 2, box)], (2, bad)),
                               ([GtEntry(1, 1, box), GtEntry(1, bad, box)], (bad, 1))):
            with pytest.raises(ValueError, match=re.escape(
                    f"{p}: identity {named[0]} in frame {named[1]}: frames and identities")):
                write_gt(p, entries)
            assert not p.exists()

    @pytest.mark.parametrize("frame", [2**63, np.uint64(2**63)])
    def test_detections_refuse_frames_beyond_int64(self, tmp_path, frame):
        p = tmp_path / "det.txt"
        with pytest.raises(ValueError, match=re.escape(f"{p}: a detection in frame {frame}:")):
            write_detections(p, [Detection(1, BBox(0, 0, 1, 1), 0.5),
                                 Detection(frame, BBox(0, 0, 1, 1), 0.5)])
        assert not p.exists()

    @pytest.mark.parametrize("bad", OUTSIDE_UNIT)
    def test_results_refuse_scores_outside_unit(self, tmp_path, bad):
        box = BBox(0, 0, 1, 1)
        dump = {4: [TrackEntry(1, box, 0.5), TrackEntry(3, box, bad)],
                2: [TrackEntry(2, box, bad)]}
        p = tmp_path / "res.txt"
        with pytest.raises(ValueError) as raised:
            write_results(p, dump)
        # the first record in given order, as for frames and ids
        assert str(raised.value) == f"{p}: track 4 in frame 3 has score {bad!r}, outside [0, 1]"
        assert not p.exists()

    @pytest.mark.parametrize("bad", OUTSIDE_UNIT)
    def test_gt_refuses_visibility_outside_unit(self, tmp_path, bad):
        box = BBox(0, 0, 1, 1)
        entries = [GtEntry(1, 1, box), GtEntry(2, 5, box, False, bad), GtEntry(1, 2, box, True, bad)]
        p = tmp_path / "gt.txt"
        with pytest.raises(ValueError) as raised:
            write_gt(p, entries)
        assert str(raised.value) == (
            f"{p}: identity 5 in frame 2 has visibility {bad!r}, outside [0, 1]")
        assert not p.exists()

    def test_frame_error_comes_before_the_unit_error(self, tmp_path):
        p = tmp_path / "res.txt"
        with pytest.raises(ValueError, match="must be integers"):
            write_results(p, {1: [TrackEntry(1, BBox(0, 0, 1, 1), 1.5)],
                              2: [TrackEntry(1.5, BBox(0, 0, 1, 1), 0.5)]})

    @pytest.mark.parametrize("value", [*UNIT_VALUES, *OUTSIDE_UNIT])
    def test_written_scores_read_back_unchanged(self, tmp_path, caplog, value):
        # a score is written when read_results would take it as it is,
        # and refused when a line holding it would be clamped or refused
        box = BBox(0, 0, 1, 1)
        p = tmp_path / "res.txt"
        if 0.0 <= value <= 1.0:
            write_results(p, {3: [TrackEntry(1, box, value)]})
            with caplog.at_level(logging.WARNING):
                back = read_results(p)
            assert back[3][0].score == float(f"{value:.6f}")
            assert not caplog.text
            return
        with pytest.raises(ValueError, match="outside"):
            write_results(p, {3: [TrackEntry(1, box, value)]})
        p.write_text(f"1,3,0,0,1,1,{float(value)!r},-1,-1,-1\n")
        with caplog.at_level(logging.WARNING):
            try:
                back = read_results(p)
            except ParseError:
                return
        assert back[3][0].score != value and "clamped" in caplog.text

    @pytest.mark.parametrize("value", [*UNIT_VALUES, *OUTSIDE_UNIT])
    def test_written_visibility_reads_back(self, tmp_path, value):
        box = BBox(0, 0, 1, 1)
        p = tmp_path / "gt.txt"
        if 0.0 <= value <= 1.0:
            write_gt(p, [GtEntry(1, 3, box, True, value)])
            assert read_gt(p)[0].visibility == float(f"{value:.6f}")
            return
        with pytest.raises(ValueError, match="outside"):
            write_gt(p, [GtEntry(1, 3, box, True, value)])
        p.write_text(f"1,3,0,0,1,1,1,1,{float(value)!r}\n")
        with pytest.raises(ParseError, match="visibility"):
            read_gt(p)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(result_dumps(), gt_lists, st.integers(1, 4))
    def test_blocks_of_rows_write_the_same_bytes(self, tmp_path, dump, entries, rows):
        with mock.patch.object(mot_io, "_WRITE_ROWS", rows):
            assert_writes_like_reference(write_results, tmp_path / "res.txt", dump)
            assert_writes_like_reference(write_gt, tmp_path / "gt.txt", entries)

    def test_pipeline_files_equal_reference(self, tmp_path):
        """The 48,812-row res.txt of the crowd_occluded workload, and its
        inputs, byte for byte."""
        gt, dets = synth.generate(OCCLUDED_CROWD)
        dump, _ = run_tracker(dets, TrackerConfig())
        filled = interpolate(dump, sigma=20)
        assert sum(map(len, filled.values())) == 48812
        for writer, records in ((write_results, filled), (write_detections, dets),
                                (write_gt, gt)):
            assert_writes_like_reference(writer, tmp_path / "out.txt", records)


def is_exact_int64(value) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return int(value) == value and -(2**63) <= int(value) < 2**63
    except (ValueError, OverflowError):
        return False


# -- the collector pause around the readers' bulk builds -----------------------

# every order in which two threads can each enter (A, B) and then leave (a, b)
TWO_THREAD_ORDERS = ["".join(order) for order in sorted(set(itertools.permutations("AaBb")))
                     if order.index("A") < order.index("a")
                     and order.index("B") < order.index("b")]

class TestCollectorPause:
    """The pause disables a collector it finds enabled, restores it when the
    outermost pause ends, also on an exception, never collects and leaves a
    disabled collector alone, whatever threads enter and leave it."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        assert gc.isenabled()

    def test_nested(self):
        with _paused:
            assert not gc.isenabled()
            with _paused:
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exception_inside(self):
        with pytest.raises(RuntimeError, match="inside"):
            with _paused:
                with _paused:
                    raise RuntimeError("inside")
        assert gc.isenabled()

    def test_never_collects(self):
        with mock.patch.object(gc, "collect") as collect:
            with _paused:
                pass
        collect.assert_not_called()

    def test_disabled_collector_stays_disabled(self, tmp_path):
        p = tmp_path / "res.txt"
        write_results(p, {1: [TrackEntry(1, BBox(0, 0, 1, 1), 0.5)]})
        gc.disable()
        try:
            with _paused:
                assert not gc.isenabled()
            assert not gc.isenabled()
            assert read_results(p)[1][0].frame == 1
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("reader, per_row, line", [
        (read_results, "_result", "1,1,10,20,30,40,nan,-1,-1,-1"),
        (read_gt, "_gt_entry", "1,1,10,20,30,40,1,1,1\n1,1,10,20,30,40,1,1,1"),
    ])
    def test_parse_error_raised_inside_the_pause(self, tmp_path, reader, per_row, line):
        p = tmp_path / "in.txt"
        p.write_text("1,2,1,2,3,4,0.5,1,1\n" + line + "\n")
        real = getattr(mot_io, per_row)
        seen = []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        with mock.patch.object(mot_io, per_row, spy), pytest.raises(ParseError):
            reader(p)
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("events", TWO_THREAD_ORDERS)
    def test_two_threads_in_every_order(self, enabled, events):
        """Threads A and B enter (upper case) and leave (lower case) the
        pause in the given order, one step at a time between barriers."""
        barrier = threading.Barrier(2)
        inside = set()
        states = []
        errors = []

        def run(name):
            try:
                for event in events:
                    barrier.wait()
                    if event.upper() == name:
                        if event == name:
                            _paused.__enter__()
                            inside.add(name)
                        else:
                            inside.discard(name)
                            _paused.__exit__(None, None, None)
                        states.append((bool(inside), gc.isenabled()))
                    barrier.wait()
            except BaseException as exc:  # reported below, in the test's thread
                errors.append(exc)
                barrier.abort()

        (gc.enable if enabled else gc.disable)()
        try:
            threads = [threading.Thread(target=run, args=(name,)) for name in "AB"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert not errors
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        # while a thread is inside, the collector is off; after, as found
        assert states == [(busy, enabled and not busy) for busy, _ in states]
        assert len(states) == 4

    def test_detections_built_with_the_collector_running(self, tmp_path):
        # the tracker's input: a pause would push its deferred collection
        # into the first frames' steps
        p = tmp_path / "det.txt"
        p.write_text("1,-1,1,2,3,4,0.5,-1,-1,-1\n")
        with mock.patch.object(mot_io, "_build", wraps=mot_io._build) as build, \
                mock.patch.object(gc, "disable") as disable:
            assert read_detections(p)[0].frame == 1
        assert build.called
        disable.assert_not_called()

    def test_many_threads_under_fast_switching(self):
        # more threads than cores, switching every microsecond: a lost
        # update of the depth would leave the collector off, or let it run
        # while a thread is inside
        seen_on = []

        def run():
            for _ in range(2000):
                with _paused:
                    if gc.isenabled():
                        seen_on.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not seen_on
        assert gc.isenabled()

    def test_pipeline_leaves_no_garbage(self, tmp_path):
        """The pipeline, run with the collector disabled, makes no reference
        cycles: pausing the collector delays no garbage."""

        def pipeline():
            det, gt_file, res = write_pipeline_files(tmp_path, *synth.generate(
                synth.ablation_corpus()[0][1]))
            evaluate(read_gt(gt_file), read_results(res))
            return read_detections(det)

        pipeline()  # first-call caches are not the pipeline's garbage
        gc.collect()
        gc.disable()
        try:
            dets = pipeline()
            found = gc.collect()
        finally:
            gc.enable()
        assert dets and found == 0
