"""Offline track refinement: the track dump type and gap interpolation."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .geometry import BOX_MIN, BBox

__all__ = ["TrackEntry", "TrackDump", "DEFAULT_SIGMA", "interpolate"]

DEFAULT_SIGMA = 20


@dataclass(frozen=True, slots=True)
class TrackEntry:
    """One (frame, box, score) record of a track; interpolated marks boxes
    synthesized offline rather than observed."""

    frame: int
    box: BBox
    score: float
    interpolated: bool = False


# Offline tracker output: identity -> entries sorted by strictly increasing frame.
TrackDump = dict[int, list[TrackEntry]]


def _check_sorted(track_id: int, entries: list[TrackEntry]) -> None:
    for prev, cur in zip(entries, entries[1:]):
        if cur.frame <= prev.frame:
            raise ValueError(
                f"track {track_id}: frames must strictly increase "
                f"({prev.frame} then {cur.frame})"
            )


def interpolate(tracks: TrackDump, sigma: int = DEFAULT_SIGMA) -> TrackDump:
    """Fill per-track gaps up to sigma frames with linear box interpolation.

    For each pair of consecutive entries at frames t1 < t2 with no entry in
    between and 1 < t2 - t1 <= sigma, boxes for t1 < t < t2 are interpolated
    componentwise on the corner (tlbr) representation; scores are
    interpolated the same way. Existing entries are preserved untouched,
    longer gaps are left alone, and nothing is extrapolated past a track's
    first or last frame. The operation is idempotent.
    """
    if isinstance(sigma, bool) or not isinstance(sigma, Integral):
        raise ValueError(f"sigma must be an integer, got {sigma!r}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    out: TrackDump = {}
    for track_id, entries in tracks.items():
        _check_sorted(track_id, entries)
        filled: list[TrackEntry] = []
        for prev, cur in zip(entries, entries[1:]):
            filled.append(prev)
            gap = cur.frame - prev.frame
            if 1 < gap <= sigma:
                l1, t1, r1, b1 = prev.box.tlbr()
                l2, t2, r2, b2 = cur.box.tlbr()
                for f in range(prev.frame + 1, cur.frame):
                    w = (f - prev.frame) / gap
                    left = l1 + (l2 - l1) * w
                    top = t1 + (t2 - t1) * w
                    # the sizes lie between the two boxes' sizes but are
                    # differences of rounded edges, which can fall a float
                    # step below BOX_MIN far from the origin
                    filled.append(
                        TrackEntry(
                            frame=f,
                            box=BBox(
                                left,
                                top,
                                max(r1 + (r2 - r1) * w - left, BOX_MIN),
                                max(b1 + (b2 - b1) * w - top, BOX_MIN),
                            ),
                            score=prev.score + (cur.score - prev.score) * w,
                            interpolated=True,
                        )
                    )
        if entries:
            filled.append(entries[-1])
        out[track_id] = filled
    return out

