"""Reading and writing MOT-style comma-separated text files.

Three line formats share the layout frame,id,left,top,width,height,...:

detections   frame,-1,left,top,w,h,conf,-1,-1,-1   (id ignored on read)
results      frame,id,left,top,w,h,score,-1,-1,-1
ground truth frame,id,left,top,w,h[,flag[,class[,visibility]]]

Files are UTF-8; both LF and CRLF line endings are accepted and LF is
emitted. Every input line either yields a record or a diagnostic carrying
its line number: malformed lines (including NaN or infinite box values or
confidences, box values beyond geometry.BOX_LIMIT in absolute value, positive
box sizes below geometry.BOX_MIN, integer fields outside the int64 range, a
ground-truth visibility that is NaN or outside [0, 1], and a ground-truth
identity repeated within a frame) raise ParseError, rows with non-positive box
sizes are skipped with a warning, and confidences outside [0, 1] are clamped
with a warning.

Each reader reads its file once into a float64 table, one row per non-blank
line (``_table``). One ``np.loadtxt`` call parses the whole file when it holds
only the characters of plain decimal numbers and every line has the same
number of fields, at least the reader's minimum; otherwise ``float`` parses
each field, and the table stops before the first line that is short or has a
field ``float`` rejects. Every check is a mask over the table's columns. The
rows no mask flags are built in bulk without checking them again; the flagged
rows go, in line order, through the per-row code, which raises or warns for
its line. A parse error is raised after them. So the records, the
diagnostics and their order are those of reading one line at a time, and do
not depend on which parser read the file.

read_gt and read_results build their records while CPython's cyclic garbage
collector is paused (``_CollectorPause``). The records hold no reference
cycles, yet every few hundred new ones start a young collection, and every
quarter the heap grows a full one that walks every object again. The pause
restores the collector's state when the build ends, also when it raises,
and never collects. The collector is process-wide: while any thread is
inside a pause, no thread's cycles are collected, and the first collections
after it have more to do. read_detections builds its records with the
collector running: they are the tracker's input, and the pass over them
that a pause defers lands in the first frames' steps (on a 48k-row crowd
file, 5-7 ms more collection inside the steps that track them, against
10-12 ms saved in a 65-78 ms read).

The writers print coordinates at two decimals. Each gathers its records'
fields as columns, orders them with one stable ``np.lexsort`` and formats
the rows with one ``%`` template, _WRITE_ROWS rows per write
(``_write_rows``). Frames and identities are printed as given (``%s``, as an
f-string prints them), and must be integers inside the int64 range: a bool,
a fraction or a value outside that range raises ValueError. So does a
result score or a ground-truth visibility that is NaN or outside [0, 1],
which read_results would clamp and read_gt refuse, and a box whose width or
height would print as 0.00, a row a reader would skip. All are raised
before the file is opened.
"""

from __future__ import annotations

import gc
import logging
import math
import threading
from collections import deque
from dataclasses import fields
from itertools import chain, compress, repeat
from operator import attrgetter, truth
from typing import NamedTuple

import numpy as np

from .geometry import BOX_LIMIT, BBox, Detection, _accepted_tlwh
from .metrics import _BOX, _CONSIDERED, _FRAME, _IDENTITY, _TLWH, GtEntry
from .postprocess import TrackDump, TrackEntry

__all__ = [
    "ParseError",
    "read_detections",
    "write_detections",
    "read_results",
    "write_results",
    "read_gt",
    "write_gt",
    "group_by_frame",
    "dump_from_rows",
]

logger = logging.getLogger(__name__)

PEDESTRIAN_CLASS = 1
# 2**63 is exact as a float, so comparing the parsed floats with it is exact
_INT64_END = float(2**63)
# Every positive size below 0.005 prints as 0.00 at two decimals (the double
# 0.005 itself lies just above 0.005 and prints as 0.01).
_PRINT_MIN = 0.005
# The fields a reader may use: ground truth's visibility is the ninth
_COLUMNS = 9
# The characters of plain decimal numbers, which np.loadtxt and float() read
# alike; a file with any other character is parsed field by field
_PLAIN = str.maketrans("", "", "0123456789.,+-eE \t\r\n")


class ParseError(ValueError):
    """Raised for malformed input lines; message names file and line number."""


def group_by_frame(dets: list[Detection]) -> dict[int, list[Detection]]:
    by_frame: dict[int, list[Detection]] = {}
    for det in dets:
        by_frame.setdefault(det.frame, []).append(det)
    return by_frame


class _Table(NamedTuple):
    """A file's fields as float64 rows, one per non-blank line up to the
    first line that failed to parse (whose ParseError is error)."""

    values: np.ndarray  # (rows, columns), NaN past each row's width
    linenos: list[int]
    widths: np.ndarray
    error: ParseError | None

    def line(self, row: int) -> tuple[int, list[float]]:
        """The line number and parsed fields of a row, for the per-row code."""
        return self.linenos[row], self.values[row, :self.widths[row]].tolist()


def _table(path, minimum: int) -> _Table:
    """Read path into a table of at least _COLUMNS columns (see the module
    docstring for the two parsers); minimum is the fewest fields a line may
    have."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    lines = list(map(str.strip, raw.split("\n")))
    linenos = list(compress(range(1, len(lines) + 1), lines))
    lines = list(filter(None, lines))
    if lines and not raw.translate(_PLAIN):
        try:
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is not None and len(values) == len(lines) and values.shape[1] >= minimum:
            widths = np.full(len(values), values.shape[1])
            if values.shape[1] < _COLUMNS:
                values = np.pad(values, ((0, 0), (0, _COLUMNS - values.shape[1])),
                                constant_values=np.nan)
            return _Table(values, linenos, widths, None)
    rows, error = [], None
    for lineno, line in zip(linenos, lines):
        try:
            rows.append(_fields(path, lineno, line, minimum))
        except ParseError as exc:
            error = exc
            break
    widths = np.array([len(row) for row in rows], dtype=np.intp)
    values = np.full((len(rows), max(_COLUMNS, widths.max(initial=0))), np.nan)
    for i, row in enumerate(rows):
        values[i, :len(row)] = row
    return _Table(values, linenos[:len(rows)], widths, error)


def _fields(path, lineno: int, line: str, minimum: int) -> list[float]:
    parts = line.split(",")
    if len(parts) < minimum:
        raise ParseError(
            f"{path}:{lineno}: expected at least {minimum} comma-separated "
            f"fields, got {len(parts)}"
        )
    values = []
    for part in parts:
        try:
            values.append(float(part))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric field {part!r}") from None
    return values


# -- checks over columns; each mask is True where the per-row check passes --

def _is_int64(column: np.ndarray) -> np.ndarray:
    """_int_field's rule: an integer inside the int64 range."""
    return (column == np.trunc(column)) & (column >= -_INT64_END) & (column < _INT64_END)


def _in_unit(column: np.ndarray) -> np.ndarray:
    """Inside [0, 1]: no clamp warning for a confidence, and a valid
    visibility (NaN fails)."""
    return (column >= 0.0) & (column <= 1.0)


def _box_ok(values: np.ndarray) -> np.ndarray:
    return _accepted_tlwh(values[:, 2], values[:, 3], values[:, 4], values[:, 5])


def _first_rows(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each row in mask, the first row in mask with the same (a, b) key;
    every other row maps to itself."""
    first = np.arange(len(a))
    rows = first[mask]
    order = rows[np.lexsort((rows, b[rows], a[rows]))]
    ka, kb = a[order], b[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ka[1:] != ka[:-1]) | (kb[1:] != kb[:-1])
    first[order] = order[np.maximum.accumulate(np.where(starts, np.arange(len(order)), 0))]
    return first


# -- records --------------------------------------------------------------------

class _CollectorPause:
    """A re-entrant pause of the cyclic garbage collector, as a context
    manager. The outermost entry disables a collector it finds enabled, and
    the matching exit enables it again; a collector found disabled is left
    alone. It never collects. The depth is counted under a lock: otherwise a
    thread could read the collector as disabled by another thread's pause
    and leave it disabled after that pause had ended."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                if self._resume:
                    gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()


# The collector is one per process, so its pause is too.
_paused = _CollectorPause()


def _build(cls, *columns) -> list:
    """One cls per row of the columns (one column per field, in order),
    filled slot by slot without __init__ or __post_init__. The values must be
    ones cls would accept: the readers pass what their masks accepted, so it
    is not checked again."""
    records = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for field, column in zip(fields(cls), columns, strict=True):
        deque(map(getattr(cls, field.name).__set__, records, column), maxlen=0)
    return records


def _ints(column: np.ndarray) -> list[int]:
    return column.astype(np.int64).tolist()


def _boxes(values: np.ndarray) -> list[BBox]:
    return _build(BBox, *(values[:, j].tolist() for j in range(2, 6)))


def _in_line_order(clean: np.ndarray, records, check_row):
    """The bulk-built records of the clean rows (an iterable, returned as it
    is when no row is flagged) merged, in line order, with what
    check_row(row) returns for each flagged row: a record, or None for a
    skipped row. check_row raises for a malformed row."""
    flagged = np.flatnonzero(~clean).tolist()
    if not flagged:
        return records
    records, out, start = list(records), [], 0
    for k, row in enumerate(flagged):
        # row - k clean rows come before this one
        out += records[start:row - k]
        start = row - k
        record = check_row(row)
        if record is not None:
            out.append(record)
    out += records[start:]
    return out


def _clean_rows(values: np.ndarray, clean: np.ndarray) -> np.ndarray:
    return values if clean.all() else values[clean]


# -- per-row code: the checks of one line, with their diagnostics ---------------

def _int_field(path, lineno: int, value: float, what: str) -> int:
    if not value.is_integer():
        raise ParseError(f"{path}:{lineno}: {what} must be an integer, got {value}")
    if not -_INT64_END <= value < _INT64_END:
        raise ParseError(f"{path}:{lineno}: {what} {value:g} is outside the int64 range")
    return int(value)


def _box(path, lineno: int, left, top, width, height) -> BBox | None:
    # BBox validates the values; the row is diagnosed only when it rejects them
    try:
        return BBox(left, top, width, height)
    except ValueError as exc:
        if (width > 0.0 and height > 0.0
                or not all(abs(v) <= BOX_LIMIT for v in (left, top, width, height))):
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    logger.warning(
        "%s:%d: skipping row with non-positive box size %.6g x %.6g",
        path, lineno, width, height,
    )
    return None


def _score(path, lineno: int, conf: float) -> float:
    if math.isnan(conf):
        raise ParseError(f"{path}:{lineno}: confidence is NaN")
    if conf < 0.0 or conf > 1.0:
        clamped = min(max(conf, 0.0), 1.0)
        logger.warning(
            "%s:%d: confidence %.6g outside [0, 1], clamped to %.6g",
            path, lineno, conf, clamped,
        )
        return clamped
    return conf


def _detection(path, lineno: int, vals: list[float]) -> Detection | None:
    frame = _int_field(path, lineno, vals[0], "frame")
    if frame < 1:
        raise ParseError(f"{path}:{lineno}: frame index must be >= 1, got {frame}")
    box = _box(path, lineno, vals[2], vals[3], vals[4], vals[5])
    if box is None:
        return None
    return Detection(frame=frame, box=box, score=_score(path, lineno, vals[6]))


def _result(path, lineno: int, vals: list[float]) -> tuple[int, TrackEntry] | None:
    frame = _int_field(path, lineno, vals[0], "frame")
    track_id = _int_field(path, lineno, vals[1], "track id")
    box = _box(path, lineno, vals[2], vals[3], vals[4], vals[5])
    if box is None:
        return None
    return track_id, TrackEntry(frame, box, _score(path, lineno, vals[6]))


def _gt_entry(path, lineno: int, vals: list[float], first: int) -> GtEntry | None:
    """first: the line of the first row kept with this (frame, identity)."""
    frame = _int_field(path, lineno, vals[0], "frame")
    identity = _int_field(path, lineno, vals[1], "identity")
    box = _box(path, lineno, vals[2], vals[3], vals[4], vals[5])
    if box is None:
        return None
    if first != lineno:
        raise ParseError(
            f"{path}:{lineno}: identity {identity} repeated in frame {frame} "
            f"(first at line {first})"
        )
    if len(vals) >= 8:
        flag = _int_field(path, lineno, vals[6], "active flag")
        cls = _int_field(path, lineno, vals[7], "class id")
        considered = flag == 1 and cls == PEDESTRIAN_CLASS
    else:
        considered = True
    visibility = vals[8] if len(vals) >= 9 else 1.0
    if not 0.0 <= visibility <= 1.0:
        raise ParseError(f"{path}:{lineno}: visibility must be in [0, 1], got {visibility}")
    return GtEntry(
        frame=frame,
        identity=identity,
        box=box,
        considered=considered,
        visibility=visibility,
    )


# -- readers and writers --------------------------------------------------------

def read_detections(path) -> list[Detection]:
    """Parse a detection file; the id column is ignored (conventionally -1)."""
    t = _table(path, minimum=7)
    frame, score = t.values[:, 0], t.values[:, 6]
    clean = _is_int64(frame) & (frame >= 1) & _box_ok(t.values) & _in_unit(score)
    v = _clean_rows(t.values, clean)
    # built with the collector running (see the module docstring)
    dets = _in_line_order(
        clean,
        _build(Detection, _ints(v[:, 0]), _boxes(v), v[:, 6].tolist()),
        lambda row: _detection(path, *t.line(row)),
    )
    if t.error is not None:
        raise t.error
    return dets


def write_detections(path, dets: list[Detection]) -> None:
    """Write detections sorted by (frame, left, top, descending score)."""
    boxes = list(map(_BOX, dets))
    scores = list(map(_SCORE, dets))
    n = len(dets)
    minor = [*(np.fromiter(map(get, boxes), float, n) for get in _TLWH[:2]),
             -np.fromiter(scores, float, n)]
    _write_rows(path, _DETECTION_ROW, [list(map(_FRAME, dets))], boxes, [scores],
                lambda row: "a detection", minor)


# -- the one writer path --------------------------------------------------------

_SCORE, _VISIBILITY = attrgetter("score"), attrgetter("visibility")
_RESULT_ROW = "%s,%s,%.2f,%.2f,%.2f,%.2f,%.6f,-1,-1,-1\n"
_DETECTION_ROW = "%s,-1,%.2f,%.2f,%.2f,%.2f,%.6f,-1,-1,-1\n"
_GT_ROW = f"%s,%s,%.2f,%.2f,%.2f,%.2f,%d,{PEDESTRIAN_CLASS},%.6f\n"
# Rows formatted per write: the template copies, the arguments and the text
# of one block exist at a time
_WRITE_ROWS = 1 << 12


def _unprintable(path, what: str, frame: int, box: BBox) -> ValueError:
    """The writers' error for a box whose width or height is below
    _PRINT_MIN: it would print as 0.00, and a reader would skip its row."""
    return ValueError(
        f"{path}: {what} in frame {frame} has box size {box.width:.6g} x "
        f"{box.height:.6g}, which prints as 0.00 at two decimals"
    )


def _exact_int64(value) -> int | None:
    """value as an int when it equals an integer inside the int64 range and
    is not a bool; otherwise None."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if number != value or not -(2**63) <= number < 2**63:
        return None
    return number


def _int64_column(values: list) -> tuple[np.ndarray | None, int | None]:
    """values as an int64 column, or None and the index of the first value
    _exact_int64 refuses. np.array(..., dtype=np.int64) alone would truncate
    1.5 to 1 and take True as 1."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64), None
        except OverflowError:
            pass
    exact = list(map(_exact_int64, values))
    if None in exact:
        return None, exact.index(None)
    return np.array(exact, dtype=np.int64), None


def _write_rows(path, template: str, ints: list[list], boxes: list, tail: list[list],
                what, minor=(), unit: str | None = None) -> None:
    """Write one template row per record: the ints columns (frame first),
    the box's left, top, width and height, then the tail columns, each value
    as the object given. Rows are ordered stably by the ints columns, then
    the minor float keys, and formatted and written _WRITE_ROWS at a time.
    what(row) names a record in an error. Raises ValueError before the file
    is opened for the first record in given order whose frame or identity
    is not an integer inside the int64 range, then for the first in given
    order whose last tail value, named unit if given, is NaN or outside
    [0, 1], and for the first record in written order whose box prints a
    size of 0.00."""
    n = len(boxes)
    keys, bad = zip(*map(_int64_column, ints))
    bad = [row for row in bad if row is not None]
    if bad:
        row = min(bad)
        raise ValueError(
            f"{path}: {what(row)} in frame {ints[0][row]}: frames and identities "
            "must be integers inside the int64 range"
        )
    if unit is not None:
        outside = ~_in_unit(np.fromiter(tail[-1], float, n))
        if outside.any():
            row = int(outside.argmax())
            raise ValueError(
                f"{path}: {what(row)} in frame {ints[0][row]} has {unit} {tail[-1][row]!r}, "
                "outside [0, 1]"
            )
    order = np.lexsort([*reversed(minor), *reversed(keys)])
    width, height = (np.fromiter(map(get, boxes), float, n) for get in _TLWH[2:])
    small = ((width < _PRINT_MIN) | (height < _PRINT_MIN))[order]
    if small.any():
        row = int(order[small.argmax()])
        raise _unprintable(path, what(row), ints[0][row], boxes[row])
    columns = [*ints, *(list(map(get, boxes)) for get in _TLWH), *tail]
    order = order.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, n, _WRITE_ROWS):
            rows = order[start:start + _WRITE_ROWS]
            flat = [None] * (len(rows) * len(columns))
            for j, column in enumerate(columns):
                flat[j::len(columns)] = map(column.__getitem__, rows)
            fh.write((template * len(rows)) % tuple(flat))


def dump_from_rows(rows: list[tuple[int, int, BBox, float]]) -> TrackDump:
    """Build a TrackDump from (frame, id, box, score) rows, sorted per id.

    Rows are appended in one pass. Rows that already arrive in frame order per
    track need nothing more; only a track whose frames did not strictly
    increase is sorted and checked for a frame listed twice (the first such
    track in first-seen order raises, naming its smallest repeated frame).
    """
    frames, track_ids, boxes, scores = zip(*rows) if rows else ((), (), (), ())
    return _dump(zip(track_ids, _build(TrackEntry, frames, boxes, scores, repeat(False))))


def _dump(pairs) -> TrackDump:
    """dump_from_rows over (track id, entry) pairs."""
    dump: TrackDump = {}
    unordered = set()
    for track_id, entry in pairs:
        entries = dump.get(track_id)
        if entries is None:
            dump[track_id] = [entry]
        else:
            if entry.frame <= entries[-1].frame:
                unordered.add(track_id)
            entries.append(entry)
    for track_id in (t for t in dump if t in unordered):
        entries = dump[track_id]
        entries.sort(key=lambda e: e.frame)
        for prev, entry in zip(entries, entries[1:]):
            if entry.frame == prev.frame:
                raise ParseError(
                    f"track {track_id} has duplicate entries for frame {entry.frame}"
                )
    return dump


def read_results(path) -> TrackDump:
    """Parse a tracker result file into a per-identity dump."""
    t = _table(path, minimum=7)
    frame, track_id, score = t.values[:, 0], t.values[:, 1], t.values[:, 6]
    clean = (_is_int64(frame) & _is_int64(track_id) & _box_ok(t.values)
             & _in_unit(score))
    v = _clean_rows(t.values, clean)
    with _paused:
        entries = _build(TrackEntry, _ints(v[:, 0]), _boxes(v), v[:, 6].tolist(), repeat(False))
        pairs = _in_line_order(
            clean,
            zip(_ints(v[:, 1]), entries),
            lambda row: _result(path, *t.line(row)),
        )
    if t.error is not None:
        raise t.error
    return _dump(pairs)


def write_results(path, tracks: TrackDump) -> None:
    """Write a result dump sorted by (frame, id), coordinates at two decimals.

    Reading the file back reproduces the dump up to the printed precision;
    output bytes are deterministic for identical input. Rows of one (frame,
    id) keep their order in the dump. A score must lie in [0, 1].
    """
    entries = list(chain.from_iterable(tracks.values()))
    ids = list(chain.from_iterable(map(repeat, tracks, map(len, tracks.values()))))
    _write_rows(path, _RESULT_ROW, [list(map(_FRAME, entries)), ids],
                list(map(_BOX, entries)), [list(map(_SCORE, entries))],
                lambda row: f"track {ids[row]}", unit="score")


def read_gt(path) -> list[GtEntry]:
    """Parse ground truth. Nine-column files carry an active flag, a class id
    and a visibility ratio; an entry is considered when flag == 1 and the
    class is pedestrian. Minimal 6/7-column files are accepted with every row
    considered. A (frame, identity) pair may appear only once."""
    t = _table(path, minimum=6)
    values, widths = t.values, t.widths
    frame, identity = values[:, 0], values[:, 1]
    flag, cls, visibility = values[:, 6], values[:, 7], values[:, 8]
    box_ok = _box_ok(values)
    first = _first_rows(frame, identity, box_ok)
    has_flags, has_visibility = widths >= 8, widths >= 9
    clean = (_is_int64(frame) & _is_int64(identity) & box_ok
             & (first == np.arange(len(first)))
             & (~has_flags | (_is_int64(flag) & _is_int64(cls)))
             & (~has_visibility | _in_unit(visibility)))
    considered = ~has_flags | ((flag == 1.0) & (cls == PEDESTRIAN_CLASS))
    visibility = np.where(has_visibility, visibility, 1.0)
    v = _clean_rows(values, clean)
    with _paused:
        entries = _in_line_order(
            clean,
            _build(GtEntry, _ints(v[:, 0]), _ints(v[:, 1]), _boxes(v),
                   considered[clean].tolist(), visibility[clean].tolist()),
            lambda row: _gt_entry(path, *t.line(row), first=t.linenos[first[row]]),
        )
    if t.error is not None:
        raise t.error
    return entries


def write_gt(path, entries: list[GtEntry]) -> None:
    """Write ground truth sorted by (frame, identity) in the nine-column
    layout; the active flag is 1 for a considered entry, else 0. A
    visibility must lie in [0, 1]."""
    identities = list(map(_IDENTITY, entries))
    _write_rows(path, _GT_ROW, [list(map(_FRAME, entries)), identities],
                list(map(_BOX, entries)),
                [list(map(truth, map(_CONSIDERED, entries))), list(map(_VISIBILITY, entries))],
                lambda row: f"identity {identities[row]}", unit="visibility")
