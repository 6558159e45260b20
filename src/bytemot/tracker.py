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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assignment import min_cost_assignment
from .geometry import BBox, Detection, iou_matrix_tlbr, to_cxcyah
from .kalman import KalmanFilter, MotionState
from .postprocess import TrackEntry

__all__ = [
    "Mode",
    "TrackState",
    "TrackerConfig",
    "Track",
    "TrackOutput",
    "FrameResult",
    "StepStats",
    "ByteTracker",
    "split_by_score",
]


class Mode(str, Enum):
    BYTE = "byte"
    SINGLE = "single"


class TrackState(Enum):
    TRACKED = "tracked"
    LOST = "lost"
    REMOVED = "removed"


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
        if self.lost_ttl < 0:
            raise ValueError(f"lost_ttl must be >= 0, got {self.lost_ttl}")
        for name in ("min_iou_first", "min_iou_second"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if self.init_score_margin < 0.0:
            raise ValueError("init_score_margin must be >= 0")


class Track:
    """Mutable per-identity state owned by one tracker instance."""

    __slots__ = ("id", "state", "motion", "score", "start_frame", "last_frame", "history")

    def __init__(self, track_id: int, frame: int, motion: MotionState, det: Detection):
        self.id = track_id
        self.state = TrackState.TRACKED
        self.motion = motion
        self.score = det.score
        self.start_frame = frame
        self.last_frame = frame
        self.history: list[TrackEntry] = [TrackEntry(frame, det.box, det.score)]

    def apply_match(self, frame: int, det: Detection, motion: MotionState) -> None:
        # rebirth reuses the prior motion state (updated, not re-initiated) so
        # the velocity estimate learned before the object went lost carries over
        self.motion = motion
        self.state = TrackState.TRACKED
        self.score = det.score
        self.last_frame = frame
        self.history.append(TrackEntry(frame, det.box, det.score))


@dataclass(frozen=True, slots=True)
class TrackOutput:
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


def split_by_score(
    dets: list[Detection], cfg: TrackerConfig
) -> tuple[list[Detection], list[Detection]]:
    """Split detections into (high, low) bands; scores below tau_low are
    dropped. The high band is strictly above tau_high, so a score exactly at
    the threshold lands in the low band."""
    high = [d for d in dets if d.score > cfg.tau_high]
    low = [d for d in dets if cfg.tau_low <= d.score <= cfg.tau_high]
    return high, low


class ByteTracker:
    """Online tracker; one instance per sequence, frames fed in order."""

    def __init__(self, config: TrackerConfig | None = None, kalman: KalmanFilter | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.kalman = kalman if kalman is not None else KalmanFilter()
        self._tracks: list[Track] = []
        self._frame = 0
        self._ids = itertools.count(1)
        self.last_stats: StepStats | None = None

    @property
    def tracks(self) -> list[Track]:
        """Live (tracked or lost) tracks, oldest first."""
        return list(self._tracks)

    def _predicted_tlbr(self) -> np.ndarray:
        out = np.empty((len(self._tracks), 4))
        for i, t in enumerate(self._tracks):
            cx, cy, a, h = t.motion.mean[:4]
            w = a * h
            out[i] = (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        return out

    def _associate(
        self,
        track_indices: list[int],
        predicted: np.ndarray,
        dets: list[Detection],
        min_iou: float,
        frame: int,
    ) -> tuple[list[int], list[int]]:
        """Match dets against the given tracks; returns (unmatched track
        indices, unmatched det indices). Matched tracks are updated in place."""
        if not track_indices or not dets:
            return list(track_indices), list(range(len(dets)))
        sim = iou_matrix_tlbr(
            predicted[track_indices],
            np.array([d.box.tlbr() for d in dets]),
        )
        assign = min_cost_assignment(1.0 - sim, min_iou=min_iou)
        if assign.matches:
            matched = [self._tracks[track_indices[r]] for r, _ in assign.matches]
            motions = self.kalman.update_many(
                [t.motion for t in matched],
                [dets[c].box.cxcyah() for _, c in assign.matches],
            )
            for (_, c), track, motion in zip(assign.matches, matched, motions):
                track.apply_match(frame, dets[c], motion)
        return (
            [track_indices[r] for r in assign.unmatched_rows],
            list(assign.unmatched_cols),
        )

    def step(self, frame: int, detections: list[Detection]) -> FrameResult:
        """Run one association round and return the tracks to emit.

        The frame index must strictly increase across calls and every
        detection must carry this frame's index. Frames skipped since the
        last call are advanced as empty frames while any track is live, so a
        gap predicts, loses and removes tracks exactly as feeding the empty
        frames would; their lost and removed counts are added to last_stats.
        """
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
            if not self._tracks:
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
        self._frame = frame
        cfg = self.config

        # canonical order makes the result independent of caller ordering
        dets = sorted(detections, key=lambda d: (-d.score, d.box.left, d.box.top))
        high, low = split_by_score(dets, cfg)
        n_below = len(dets) - len(high) - len(low)

        motions = self.kalman.predict_many([t.motion for t in self._tracks])
        for track, motion in zip(self._tracks, motions):
            track.motion = motion
        predicted = self._predicted_tlbr()

        remain_tracks, remain_high = self._associate(
            list(range(len(self._tracks))), predicted, high, cfg.min_iou_first, frame
        )

        n_second = 0
        n_low_discarded = len(low)
        if cfg.mode is Mode.BYTE and low:
            candidates = remain_tracks
            if cfg.second_stage_tracked_only:
                candidates = [
                    i for i in remain_tracks
                    if self._tracks[i].state is TrackState.TRACKED
                ]
            skipped = [i for i in remain_tracks if i not in candidates]
            unmatched, unmatched_low = self._associate(
                candidates, predicted, low, cfg.min_iou_second, frame
            )
            n_second = len(low) - len(unmatched_low)
            n_low_discarded = len(unmatched_low)
            remain_tracks = sorted(unmatched + skipped)

        for i in remain_tracks:
            track = self._tracks[i]
            if track.state is TrackState.TRACKED:
                track.state = TrackState.LOST
                n_lost += 1

        survivors = []
        for track in self._tracks:
            if (
                track.state is TrackState.LOST
                and frame - track.last_frame > cfg.lost_ttl
            ):
                track.state = TrackState.REMOVED
                n_removed += 1
            else:
                survivors.append(track)
        self._tracks = survivors

        births = []
        n_suppressed = 0
        bar = cfg.tau_high + cfg.init_score_margin
        for c in remain_high:
            det = high[c]
            if det.score > bar:
                births.append(
                    Track(next(self._ids), frame, self.kalman.initiate(to_cxcyah(det.box)), det)
                )
            else:
                n_suppressed += 1
        self._tracks.extend(births)

        outputs = [
            TrackOutput(t.id, t.history[-1].box, t.score)
            for t in self._tracks
            if t.state is TrackState.TRACKED
            and t.last_frame == frame
            and (cfg.emit_on_birth or t.start_frame < frame)
        ]
        outputs.sort(key=lambda o: o.track_id)

        self.last_stats = StepStats(
            frame=frame,
            n_dets=len(dets),
            n_high=len(high),
            n_low=len(low),
            n_below_floor=n_below,
            n_first_matches=len(high) - len(remain_high),
            n_second_matches=n_second,
            n_new_tracks=len(births),
            n_births_suppressed=n_suppressed,
            n_low_discarded=n_low_discarded,
            n_lost=n_lost,
            n_removed=n_removed,
        )
        return FrameResult(frame=frame, outputs=outputs)
