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
"""

from __future__ import annotations

import logging
import math

from .geometry import BOX_LIMIT, BBox, Detection
from .metrics import GtEntry
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


class ParseError(ValueError):
    """Raised for malformed input lines; message names file and line number."""


def group_by_frame(dets: list[Detection]) -> dict[int, list[Detection]]:
    by_frame: dict[int, list[Detection]] = {}
    for det in dets:
        by_frame.setdefault(det.frame, []).append(det)
    return by_frame


def _lines(path) -> list[tuple[int, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    out = []
    for lineno, line in enumerate(raw.split("\n"), start=1):
        line = line.strip("\r").strip()
        if line:
            out.append((lineno, line))
    return out


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


def read_detections(path) -> list[Detection]:
    """Parse a detection file; the id column is ignored (conventionally -1)."""
    dets = []
    for lineno, line in _lines(path):
        vals = _fields(path, lineno, line, minimum=7)
        frame = _int_field(path, lineno, vals[0], "frame")
        if frame < 1:
            raise ParseError(f"{path}:{lineno}: frame index must be >= 1, got {frame}")
        box = _box(path, lineno, vals[2], vals[3], vals[4], vals[5])
        if box is None:
            continue
        dets.append(Detection(frame=frame, box=box, score=_score(path, lineno, vals[6])))
    return dets


def write_detections(path, dets: list[Detection]) -> None:
    rows = sorted(dets, key=lambda d: (d.frame, d.box.left, d.box.top, -d.score))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in rows:
            fh.write(
                f"{d.frame},-1,{d.box.left:.2f},{d.box.top:.2f},"
                f"{d.box.width:.2f},{d.box.height:.2f},{d.score:.6f},-1,-1,-1\n"
            )


def dump_from_rows(rows: list[tuple[int, int, BBox, float]]) -> TrackDump:
    """Build a TrackDump from (frame, id, box, score) rows, sorted per id.

    Rows are appended in one pass. Rows that already arrive in frame order per
    track, as run_tracker and write_results produce them, need nothing more;
    only a track whose frames did not strictly increase is sorted and checked
    for a frame listed twice (the first such track in first-seen order raises,
    naming its smallest repeated frame).
    """
    dump: TrackDump = {}
    unordered = set()
    for frame, track_id, box, score in rows:
        entry = TrackEntry(frame, box, score)
        entries = dump.get(track_id)
        if entries is None:
            dump[track_id] = [entry]
        else:
            if frame <= entries[-1].frame:
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
    rows = []
    for lineno, line in _lines(path):
        vals = _fields(path, lineno, line, minimum=7)
        frame = _int_field(path, lineno, vals[0], "frame")
        track_id = _int_field(path, lineno, vals[1], "track id")
        box = _box(path, lineno, vals[2], vals[3], vals[4], vals[5])
        if box is None:
            continue
        rows.append((frame, track_id, box, _score(path, lineno, vals[6])))
    return dump_from_rows(rows)


def write_results(path, tracks: TrackDump) -> None:
    """Write a result dump sorted by (frame, id), coordinates at two decimals.

    Reading the file back reproduces the dump up to the printed precision;
    output bytes are deterministic for identical input.
    """
    rows = []
    for track_id in tracks:
        for e in tracks[track_id]:
            rows.append((e.frame, track_id, e.box, e.score))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame, track_id, box, score in rows:
            fh.write(
                f"{frame},{track_id},{box.left:.2f},{box.top:.2f},"
                f"{box.width:.2f},{box.height:.2f},{score:.6f},-1,-1,-1\n"
            )


def read_gt(path) -> list[GtEntry]:
    """Parse ground truth. Nine-column files carry an active flag, a class id
    and a visibility ratio; an entry is considered when flag == 1 and the
    class is pedestrian. Minimal 6/7-column files are accepted with every row
    considered. A (frame, identity) pair may appear only once."""
    entries = []
    first_line: dict[tuple[int, int], int] = {}
    for lineno, line in _lines(path):
        vals = _fields(path, lineno, line, minimum=6)
        frame = _int_field(path, lineno, vals[0], "frame")
        identity = _int_field(path, lineno, vals[1], "identity")
        box = _box(path, lineno, vals[2], vals[3], vals[4], vals[5])
        if box is None:
            continue
        first = first_line.setdefault((frame, identity), lineno)
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
        entries.append(
            GtEntry(
                frame=frame,
                identity=identity,
                box=box,
                considered=considered,
                visibility=visibility,
            )
        )
    return entries


def write_gt(path, entries: list[GtEntry]) -> None:
    rows = sorted(entries, key=lambda e: (e.frame, e.identity))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in rows:
            flag = 1 if e.considered else 0
            fh.write(
                f"{e.frame},{e.identity},{e.box.left:.2f},{e.box.top:.2f},"
                f"{e.box.width:.2f},{e.box.height:.2f},{flag},{PEDESTRIAN_CLASS},"
                f"{e.visibility:.6f}\n"
            )
