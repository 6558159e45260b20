"""Two-stage association tracker with a single-stage baseline mode.

Each frame, detections are split by score into a high band (score > tau_high)
and a low band (tau_low <= score <= tau_high); anything below tau_low is
dropped. Every live track is advanced one frame by the motion model, then:

1. high-band detections are matched against all live tracks, lost ones
   included, by min-cost assignment on 1 - IoU;
2. in byte mode only, tracks still unmatched get a second chance against the
   low band, again IoU only; low detections that match nothing are discarded
   as background;
3. tracks unmatched after both stages go lost, lost tracks beyond the
   time-to-live are removed, and each remaining high detection starts a new
   track.

Only tracks matched (or born) in the current frame are emitted. Single mode
skips stage 2 and is the one-stage baseline used for ablations.

A frame reads its detections once: sorted into the canonical order (score
descending, then left and top edges), they become one float64 (n, 9) array,
a row per detection holding its tlbr corners, its cxcyah measurement and its
score, computed with BBox's own arithmetic, so the values are BBox.tlbr()'s
and BBox.cxcyah()'s bit for bit. Scores are compared as these float64 values.
Since the rows run by descending score, the high band is a prefix and the
low band the slice after it; each stage scores its slice's corners, and the
Kalman filter takes the matched and born rows' measurements.

Live tracks are a table of columns with one row per track, oldest (lowest id)
first: the Kalman beliefs as one MotionState batch (mean (N, 8), cov
(N, 3, 4)), the ids, the first and last matched frames, and each track's last
matched Detection, whose box and score are what the track emits. A frame
predicts the whole batch in one call, and both stages match against those
predictions; the rows either stage matched are then gathered, updated in one
call and scattered back. Going lost, removal and emission are masks over the
table, and births are initiated in one batch and appended. Whether a track is
tracked is not stored: a track goes lost in the first frame it is not
matched, so the tracked rows are exactly those whose last matched frame is
the latest frame processed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain
from numbers import Integral
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .assignment import min_cost_assignment
from .geometry import BBox, Detection, iou_matrix_tlbr
from .kalman import KalmanFilter, MotionState

__all__ = [
    "Mode",
    "TrackState",
    "TrackerConfig",
    "Track",
    "TrackOutput",
    "FrameResult",
    "StepStats",
    "ByteTracker",
]


class Mode(str, Enum):
    BYTE = "byte"
    SINGLE = "single"


class TrackState(Enum):
    TRACKED = "tracked"
    LOST = "lost"


@dataclass(frozen=True)
class TrackerConfig:
    """Association parameters; defaults follow the standard benchmark setup.

    tau_high splits high from low detections (strictly greater than), tau_low
    is the floor below which detections are discarded outright, min_iou_*
    reject weak-overlap pairings per stage, and lost_ttl is how many frames an
    unmatched track is kept alive for rebirth, counted from its last match.
    """

    tau_high: float = 0.6
    tau_low: float = 0.1
    min_iou_first: float = 0.2
    min_iou_second: float = 0.2
    lost_ttl: int = 30
    mode: Mode = Mode.BYTE
    second_stage_tracked_only: bool = False
    init_score_margin: float = 0.0
    emit_on_birth: bool = True

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        if not 0.0 <= self.tau_low < self.tau_high <= 1.0:
            raise ValueError(
                f"need 0 <= tau_low < tau_high <= 1, got {self.tau_low}, {self.tau_high}"
            )
        if isinstance(self.lost_ttl, bool) or not isinstance(self.lost_ttl, Integral):
            raise ValueError(f"lost_ttl must be an integer, got {self.lost_ttl!r}")
        if self.lost_ttl < 0:
            raise ValueError(f"lost_ttl must be >= 0, got {self.lost_ttl}")
        for name in ("min_iou_first", "min_iou_second"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if not self.init_score_margin >= 0.0:
            raise ValueError(f"init_score_margin must be >= 0, got {self.init_score_margin}")


class Track(NamedTuple):
    """Read-only snapshot of one live track, as returned by ByteTracker.tracks;
    score is that of its last matched detection."""

    id: int
    state: TrackState
    score: float
    start_frame: int
    last_frame: int


class TrackOutput(NamedTuple):
    """One emitted track: its id and its last matched detection's own box
    and score; unpacks as (track_id, box, score)."""

    track_id: int
    box: BBox
    score: float


@dataclass(frozen=True)
class FrameResult:
    """Tracks emitted for one frame; never contains lost or removed tracks."""

    frame: int
    outputs: list[TrackOutput]


@dataclass(frozen=True)
class StepStats:
    """Where each input detection of the last step ended up, plus lifecycle
    counts. The detection counts partition the input exactly."""

    frame: int
    n_dets: int
    n_high: int
    n_low: int
    n_below_floor: int
    n_first_matches: int
    n_second_matches: int
    n_new_tracks: int
    n_births_suppressed: int
    n_low_discarded: int
    n_lost: int
    n_removed: int


def _tlbr(mean: np.ndarray) -> np.ndarray:
    """Corner boxes (N, 4) of the (cx, cy, a, h) part of the beliefs."""
    half = mean[:, 2:4].copy()
    half[:, 0] *= mean[:, 3]  # the width a * h
    half /= 2.0
    return np.concatenate([mean[:, :2] - half, mean[:, :2] + half], axis=1)


_STATES = (TrackState.LOST, TrackState.TRACKED)  # indexed by "is tracked"
_NO_COLS = np.empty(0, dtype=np.intp)
_BOX, _SCORE = attrgetter("box"), attrgetter("score")
# TrackOutput._make without its length check, for (id, box, score) triples
_output = partial(tuple.__new__, TrackOutput)


def _canonical(det: Detection) -> tuple[float, float, float]:
    return (-det.score, det.box.left, det.box.top)


def _read(dets: list[Detection]) -> np.ndarray:
    """The detections as one float64 (n, 9) array, a row per detection:
    its tlbr corners, its cxcyah measurement and its score, each computed as
    BBox.right, BBox.bottom and BBox.cxcyah compute it."""
    n = len(dets)
    return np.fromiter(chain.from_iterable([
        (b.left, b.top, b.left + b.width, b.top + b.height,
         b.left + b.width / 2.0, b.top + b.height / 2.0, b.width / b.height, b.height,
         d.score)
        for d in dets for b in (d.box,)
    ]), float, 9 * n).reshape(n, 9)


class ByteTracker:
    """Online tracker; one instance per sequence, frames fed in order."""

    def __init__(self, config: TrackerConfig | None = None, kalman: KalmanFilter | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.kalman = kalman if kalman is not None else KalmanFilter()
        self._motion = MotionState(np.empty((0, 8)), np.empty((0, 3, 4)))
        self._id = np.empty(0, dtype=np.int64)
        self._start = np.empty(0, dtype=np.int64)
        self._last = np.empty(0, dtype=np.int64)
        self._det = np.empty(0, dtype=object)
        self._next_id = 1
        self._frame = 0
        self.last_stats: StepStats | None = None

    @property
    def tracks(self) -> list[Track]:
        """Snapshots of the live (tracked or lost) tracks, oldest first."""
        return list(map(Track._make, zip(
            self._id.tolist(),
            map(_STATES.__getitem__, (self._last == self._frame).tolist()),
            [d.score for d in self._det],
            self._start.tolist(),
            self._last.tolist(),
        )))

    def _associate(
        self, rows: np.ndarray, predicted: np.ndarray, boxes: np.ndarray, min_iou: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Match the given table rows against the (M, 4) tlbr boxes; returns
        the matched rows, their box indices, the unmatched rows and the
        unmatched box indices."""
        if not len(rows) or not len(boxes):
            return rows[:0], _NO_COLS, rows, np.arange(len(boxes))
        sim = iou_matrix_tlbr(predicted[rows], boxes)
        assign = min_cost_assignment(1.0 - sim, min_iou=min_iou)
        k = len(assign.matches)
        hits = np.fromiter(chain.from_iterable(assign.matches), np.intp, 2 * k)  # row, col, ...
        return (rows[hits[::2]], hits[1::2],
                rows[assign.unmatched_rows], np.array(assign.unmatched_cols, dtype=np.intp))

    def step(self, frame: int, detections: list[Detection]) -> FrameResult:
        """Run one association round and return the tracks to emit.

        The frame index must be an integer inside the int64 range (bools are
        rejected) that strictly increases across calls, and every detection
        must carry this frame's index. Frames skipped since the last call are
        advanced as empty frames while any track is live, so a gap predicts,
        loses and removes tracks exactly as feeding the empty frames would;
        their lost and removed counts are added to last_stats.
        """
        if type(frame) is not int and (isinstance(frame, bool) or not isinstance(frame, Integral)):
            raise ValueError(f"frame index must be an integer, got {frame!r}")
        # a numpy integer would give the int64 frame columns its own dtype
        frame = int(frame)
        if frame >= 2**63:
            raise ValueError(f"frame index {frame} is outside the int64 range")
        if frame <= self._frame:
            raise ValueError(
                f"frame index must increase, got {frame} after {self._frame}"
            )
        for det in detections:
            if det.frame != frame:
                raise ValueError(
                    f"detection frame {det.frame} does not match step frame {frame}"
                )
        gap_lost = gap_removed = 0
        for skipped in range(self._frame + 1, frame):
            if not len(self._id):
                break
            self._advance(skipped, [])
            gap_lost += self.last_stats.n_lost
            gap_removed += self.last_stats.n_removed
        return self._advance(frame, detections, gap_lost, gap_removed)

    def _advance(
        self, frame: int, detections: list[Detection], n_lost: int = 0, n_removed: int = 0
    ) -> FrameResult:
        """One association round on validated input; n_lost and n_removed
        start from the counts carried over a frame gap."""
        prev = self._frame
        self._frame = frame
        cfg = self.config

        # canonical order makes the result independent of caller ordering
        dets = sorted(detections, key=_canonical)
        v = _read(dets)
        # the rows run by descending score, so the bands are the rows
        # [0, n_high) and [n_high, n_kept)
        n_high = int(np.count_nonzero(v[:, 8] > cfg.tau_high))
        n_kept = int(np.count_nonzero(v[:, 8] >= cfg.tau_low))
        n_low = n_kept - n_high
        det_of = np.fromiter(dets, object, len(dets))

        self._motion = self.kalman.predict_many(self._motion)
        predicted = _tlbr(self._motion.mean)

        hit, cols, remain, remain_high = self._associate(
            np.arange(len(self._id)), predicted, v[:n_high, :4], cfg.min_iou_first
        )

        n_second = 0
        n_low_discarded = n_low
        if cfg.mode is Mode.BYTE and n_low:
            if cfg.second_stage_tracked_only:
                remain = remain[self._last[remain] == prev]  # tracked until now
            # stage 2 scores the same predictions: both stages update below
            hit2, cols2, _, unmatched_low = self._associate(
                remain, predicted, v[n_high:n_kept, :4], cfg.min_iou_second
            )
            if len(hit2):
                hit = np.concatenate([hit, hit2])
                cols = np.concatenate([cols, cols2 + n_high])
            n_second = len(hit2)
            n_low_discarded = len(unmatched_low)

        if len(hit):
            # rebirth updates the prior belief (not a new one), so the
            # velocity learned before the object went lost carries over
            prior = MotionState._of(self._motion.mean[hit], self._motion.cov[hit])
            motion = self.kalman.update_many(prior, v[cols, 4:8])
            self._motion.mean[hit] = motion.mean
            self._motion.cov[hit] = motion.cov
            self._last[hit] = frame
            self._det[hit] = det_of[cols]

        n_lost += int(np.count_nonzero(self._last == prev))  # tracked, now unmatched

        # tracked rows have last == frame, so only lost rows can expire
        keep = self._last >= frame - cfg.lost_ttl
        gone = len(keep) - int(np.count_nonzero(keep))
        if gone:
            n_removed += gone
            self._take(keep)

        bar = cfg.tau_high + cfg.init_score_margin
        born = remain_high[v[remain_high, 8] > bar]
        if len(born):
            self._append(frame, det_of[born], v[born, 4:8])

        emit = self._last == frame
        if not cfg.emit_on_birth:
            emit &= self._start < frame
        # the table is in id order, so the outputs are sorted by track id
        emitted = self._det[emit].tolist()
        outputs = list(map(_output, zip(
            self._id[emit].tolist(), map(_BOX, emitted), map(_SCORE, emitted)
        )))

        self.last_stats = StepStats(
            frame=frame,
            n_dets=len(dets),
            n_high=n_high,
            n_low=n_low,
            n_below_floor=len(dets) - n_kept,
            n_first_matches=n_high - len(remain_high),
            n_second_matches=n_second,
            n_new_tracks=len(born),
            n_births_suppressed=len(remain_high) - len(born),
            n_low_discarded=n_low_discarded,
            n_lost=n_lost,
            n_removed=n_removed,
        )
        return FrameResult(frame=frame, outputs=outputs)

    def _take(self, rows: np.ndarray) -> None:
        self._motion = self._motion[rows]
        self._id = self._id[rows]
        self._start = self._start[rows]
        self._last = self._last[rows]
        self._det = self._det[rows]

    def _append(self, frame: int, born: np.ndarray, measurements: np.ndarray) -> None:
        """Start one track per detection of the object array born, with
        consecutive new ids, from the detections' (cx, cy, a, h) rows."""
        n = len(born)
        motion = self.kalman.initiate(measurements)
        self._motion = MotionState._of(
            np.concatenate([self._motion.mean, motion.mean]),
            np.concatenate([self._motion.cov, motion.cov]),
        )
        self._id = np.concatenate([self._id, np.arange(self._next_id, self._next_id + n)])
        self._next_id += n
        self._start = np.concatenate([self._start, np.full(n, frame)])
        self._last = np.concatenate([self._last, np.full(n, frame)])
        self._det = np.concatenate([self._det, born])
