"""Independent reference implementations used by the tests.

Everything here is deliberately naive (enumeration, counting, scalar
recursions, per-object loops) and shares no code with the library paths it
checks. The reference tracker reuses the library's configuration and result
types, IoU and assignment, which are checked on their own. A few small
readers of library output that several test modules share sit at the end.
"""

import itertools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from bytemot.assignment import Assignment, min_cost_assignment, solve
from bytemot.geometry import BOX_LIMIT, BBox, Detection, iou_matrix_tlbr
from bytemot.metrics import ClearResult, GtEntry, IdfResult
from bytemot.mot_io import ParseError, dump_from_rows, group_by_frame
from bytemot.postprocess import TrackDump, TrackEntry
from bytemot.tracker import (
    ByteTracker,
    FrameResult,
    Mode,
    StepStats,
    TrackerConfig,
    TrackOutput,
)


def dp_assignment(cost, feasible) -> tuple[int, float]:
    """Exhaustive search over all partial matchings via a column-set sweep.

    Returns (cardinality, total cost) of the best matching under the
    max-cardinality-first, min-cost-second order.
    """
    cost = np.asarray(cost, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    n, m = cost.shape
    states = {0: (0, 0.0)}
    for i in range(n):
        nxt = dict(states)
        for mask, (card, tot) in states.items():
            for j in range(m):
                if feasible[i, j] and not (mask >> j) & 1:
                    cand = (card + 1, tot + cost[i, j])
                    cur = nxt.get(mask | (1 << j))
                    if (
                        cur is None
                        or cand[0] > cur[0]
                        or (cand[0] == cur[0] and cand[1] < cur[1])
                    ):
                        nxt[mask | (1 << j)] = cand
        states = nxt
    return max(states.values(), key=lambda v: (v[0], -v[1]))


def enum_assignment(cost, feasible) -> tuple[int, float]:
    """Literal enumeration of every injection of rows into columns; only
    sensible for tiny matrices."""
    cost = np.asarray(cost, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    n, m = cost.shape
    best = (0, 0.0)
    for k in range(min(n, m) + 1):
        for rows in combinations(range(n), k):
            for cols in permutations(range(m), k):
                if all(feasible[r, c] for r, c in zip(rows, cols)):
                    tot = sum(cost[r, c] for r, c in zip(rows, cols))
                    if (k, -tot) > (best[0], -best[1]):
                        best = (k, tot)
    return best


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Continuous geometry (no inclusive-pixel +1 convention); symmetric, zero
    for disjoint boxes and exactly 1.0 for identical ones.

    The scalar formula geometry.iou was until the package kept a single IoU
    formula, kept verbatim as a reference.
    """
    ar, ab = a.right, a.bottom
    br, bb = b.right, b.bottom
    iw = min(ar, br) - max(a.left, b.left)
    ih = min(ab, bb) - max(a.top, b.top)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    # areas from the same corner values as the intersection, so rounding can
    # never push the ratio past 1
    area_a = (ar - a.left) * (ab - a.top)
    area_b = (br - b.left) * (bb - b.top)
    return inter / (area_a + area_b - inter)


def iou_matrix_tlbr_dense(a, b) -> np.ndarray:
    """The (N, M, 2)-temporary pairwise IoU formula that the plane-wise
    ``geometry.iou_matrix_tlbr`` replaced, kept verbatim as its bit-level
    reference."""
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=float)
    lt = np.maximum(a[:, None, :2], b[None, :, :2])
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    area_a = np.clip(a[:, 2] - a[:, 0], 0.0, None) * np.clip(a[:, 3] - a[:, 1], 0.0, None)
    area_b = np.clip(b[:, 2] - b[:, 0], 0.0, None) * np.clip(b[:, 3] - b[:, 1], 0.0, None)
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0.0, inter / union, 0.0)
    return out


def ref_solve(cost, feasible=None) -> Assignment:
    """The dense-mask ``assignment.solve`` that the flat pass over feasible
    cells replaced, kept verbatim (with its padded solve) as its reference.

    Maximum-cardinality, then minimum-cost matching over feasible entries.

    cost: (n, m) array of finite values (non-finite entries are treated as
    infeasible). feasible: optional boolean mask of the same shape; entries
    marked False can never be matched.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-dimensional, got shape {cost.shape}")
    n, m = cost.shape
    mask = np.isfinite(cost)
    if feasible is not None:
        feasible = np.asarray(feasible, dtype=bool)
        if feasible.shape != cost.shape:
            raise ValueError("feasible mask shape must match the cost matrix")
        mask &= feasible
    if n == 0 or m == 0 or not mask.any():
        return Assignment([], list(range(n)), list(range(m)))

    row_deg = mask.sum(axis=1)
    col_deg = mask.sum(axis=0)
    # a feasible cell alone in both its row and its column is in every
    # maximum-cardinality matching at the same cost: settle it directly
    single = np.flatnonzero(row_deg == 1)
    single_col = mask[single].argmax(axis=1)
    alone = col_deg[single_col] == 1
    forced_r, forced_c = single[alone], single_col[alone]
    contested_rows = row_deg > 0
    contested_rows[forced_r] = False
    rr = np.flatnonzero(contested_rows)
    if len(rr) == 0:
        matches = list(zip(forced_r.tolist(), forced_c.tolist()))
    else:
        contested_cols = col_deg > 0
        contested_cols[forced_c] = False
        cc = np.flatnonzero(contested_cols)
        # one shift for the whole matrix, so each shifted cost handed to the
        # solver is the value the full padded matrix would hold
        usable = cost[mask]
        span = float(usable.max() - min(0.0, usable.min()))
        big = span * min(n, m) + 1.0
        if len(rr) == n and len(cc) == m:
            matches = _ref_padded_solve(cost, mask, big)
        else:
            sub = (rr[:, None], cc)
            row_of, col_of = rr.tolist(), cc.tolist()
            matches = sorted(
                list(zip(forced_r.tolist(), forced_c.tolist()))
                + [(row_of[r], col_of[c])
                   for r, c in _ref_padded_solve(cost[sub], mask[sub], big)]
            )

    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return Assignment(
        matches,
        [r for r in range(n) if r not in matched_rows],
        [c for c in range(m) if c not in matched_cols],
    )


def _ref_padded_solve(cost, mask, big) -> list[tuple[int, int]]:
    """Exact LSAP on the (n+m)^2 embedding: one dummy column per row and one
    dummy row per column, so leaving an index unmatched costs nothing.
    Returns the matched (row, col) pairs sorted by row."""
    n, m = cost.shape
    padded = np.full((n + m, n + m), np.inf)
    np.subtract(cost, big, out=padded[:n, :m], where=mask)
    np.fill_diagonal(padded[:n, m:], 0.0)
    np.fill_diagonal(padded[n:, :m], 0.0)
    padded[n:, m:] = 0.0
    rows, cols = linear_sum_assignment(padded)
    return [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if r < n and c < m]


def padded_full_assignment(cost, feasible=None):
    """The full-matrix padded solver that ``assignment.solve`` ran before it
    settled forced pairs, kept verbatim as its reference.

    Returns (matches sorted by row, unmatched rows, unmatched cols).
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    mask = np.isfinite(cost)
    if feasible is not None:
        mask &= np.asarray(feasible, dtype=bool)
    if n == 0 or m == 0 or not mask.any():
        return [], list(range(n)), list(range(m))

    usable = cost[mask]
    span = float(usable.max() - min(0.0, usable.min()))
    big = span * min(n, m) + 1.0

    padded = np.full((n + m, n + m), np.inf)
    block = np.full((n, m), np.inf)
    block[mask] = cost[mask] - big
    padded[:n, :m] = block
    padded[np.arange(n), m + np.arange(n)] = 0.0
    padded[n + np.arange(m), np.arange(m)] = 0.0
    padded[n:, m:] = 0.0

    rows, cols = linear_sum_assignment(padded)
    matches = sorted(
        (int(r), int(c)) for r, c in zip(rows, cols) if r < n and c < m
    )
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return (
        matches,
        [r for r in range(n) if r not in matched_rows],
        [c for c in range(m) if c not in matched_cols],
    )


def max_weight_matching_enum(weights) -> float:
    """Best total weight over every partial identity matching (tiny inputs)."""
    weights = np.asarray(weights, dtype=float)
    n, m = weights.shape
    best = 0.0
    for k in range(min(n, m) + 1):
        for rows in combinations(range(n), k):
            for cols in permutations(range(m), k):
                best = max(best, sum(weights[r, c] for r, c in zip(rows, cols)))
    return best


def rasterized_iou(a8: tuple[int, int, int, int], b8: tuple[int, int, int, int]) -> float:
    """IoU by counting covered grid cells.

    Boxes are given as tlbr in eighth-pixel integer units, so a unit grid is
    exact. Returns 0.0 when the union is empty.
    """
    l = min(a8[0], b8[0])
    t = min(a8[1], b8[1])
    r = max(a8[2], b8[2])
    b = max(a8[3], b8[3])
    grid_a = np.zeros((r - l, b - t), dtype=bool)
    grid_b = np.zeros_like(grid_a)
    grid_a[a8[0] - l:a8[2] - l, a8[1] - t:a8[3] - t] = True
    grid_b[b8[0] - l:b8[2] - l, b8[1] - t:b8[3] - t] = True
    inter = int(np.logical_and(grid_a, grid_b).sum())
    union = int(np.logical_or(grid_a, grid_b).sum())
    return inter / union if union else 0.0


def linear_interp_scalar(t1: int, v1: float, t2: int, v2: float, t: int) -> float:
    """Per-coordinate linear interpolation, evaluated with plain floats."""
    return v1 + (v2 - v1) * (t - t1) / (t2 - t1)


# --- reference motion model and tracker -------------------------------------
#
# The per-state Kalman filter and the object-per-track ByteTracker that the
# batched filter and the track table replaced, kept verbatim (the filter's
# batched forms run the per-state ones in a loop) as their bit-level
# references.


class RefTrackState(Enum):
    TRACKED = "tracked"
    LOST = "lost"
    REMOVED = "removed"


NDIM = 4


@dataclass(frozen=True)
class RefMotionState:
    """Immutable Gaussian belief over one track's box state.

    mean is an 8-vector, cov an 8x8 symmetric positive-definite matrix. The
    arrays are copied and marked read-only on construction.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (2 * NDIM,) or cov.shape != (2 * NDIM, 2 * NDIM):
            raise ValueError(
                f"expected mean (8,) and cov (8, 8), got {mean.shape} and {cov.shape}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


class RefKalmanFilter:
    """Constant-velocity filter with height-scaled noise.

    pos_weight scales position-like stds, vel_weight velocity-like stds, both
    relative to the current box height. Initiation inflates position stds by
    2x and velocity stds by 10x. Aspect-ratio components use the constant
    stds aspect_pos_std / aspect_vel_std instead of height scaling.
    """

    def __init__(
        self,
        pos_weight: float = 1.0 / 20.0,
        vel_weight: float = 1.0 / 160.0,
        aspect_pos_std: float = 1e-2,
        aspect_vel_std: float = 1e-5,
    ):
        self.pos_weight = float(pos_weight)
        self.vel_weight = float(vel_weight)
        self.aspect_pos_std = float(aspect_pos_std)
        self.aspect_vel_std = float(aspect_vel_std)

        self._motion = np.eye(2 * NDIM)
        self._motion[:NDIM, NDIM:] = np.eye(NDIM)

    def _pos_stds(self, h: float, scale: float = 1.0) -> np.ndarray:
        s = self.pos_weight * h * scale
        return np.array([s, s, self.aspect_pos_std, s])

    def _vel_stds(self, h: float, scale: float = 1.0) -> np.ndarray:
        s = self.vel_weight * h * scale
        return np.array([s, s, self.aspect_vel_std, s])

    @staticmethod
    def _noise_height(h: float) -> float:
        # noise scales must stay positive even for degraded predicted states
        return max(float(h), 1e-3)

    def initiate(self, measurement) -> RefMotionState:
        """Create a track state from an unassociated (cx, cy, a, h) measurement.

        Velocities start at exactly zero with inflated uncertainty.
        """
        m = np.asarray(measurement, dtype=float)
        if m.shape != (NDIM,):
            raise ValueError(f"expected a 4-vector measurement, got shape {m.shape}")
        if m[3] <= 0.0:
            raise ValueError(f"measurement height must be positive, got {m[3]}")
        mean = np.concatenate([m, np.zeros(NDIM)])
        std = np.concatenate([self._pos_stds(m[3], 2.0), self._vel_stds(m[3], 10.0)])
        return RefMotionState(mean, np.diag(std * std))

    def predict(self, state: RefMotionState) -> RefMotionState:
        """Advance the belief one frame under the constant-velocity model."""
        h = self._noise_height(state.mean[3])
        std = np.concatenate([self._pos_stds(h), self._vel_stds(h)])
        mean = self._motion @ state.mean
        cov = self._motion @ state.cov @ self._motion.T + np.diag(std * std)
        return RefMotionState(mean, (cov + cov.T) / 2.0)

    def project(self, state: RefMotionState) -> tuple[np.ndarray, np.ndarray]:
        """Return the belief in measurement space: (4-vector mean, 4x4 cov)."""
        h = self._noise_height(state.mean[3])
        std = self._pos_stds(h)
        mean = state.mean[:NDIM].copy()
        cov = state.cov[:NDIM, :NDIM] + np.diag(std * std)
        return mean, cov

    def update(self, state: RefMotionState, measurement) -> RefMotionState:
        """Correct the belief with an associated (cx, cy, a, h) measurement.

        Raises numpy.linalg.LinAlgError if the innovation covariance is
        singular, which cannot happen with the positive-definite default noise.
        """
        z = np.asarray(measurement, dtype=float)
        if z.shape != (NDIM,):
            raise ValueError(f"expected a 4-vector measurement, got shape {z.shape}")
        proj_mean, proj_cov = self.project(state)
        # gain K = cov H' S^-1, with H selecting the position block
        b = state.cov[:, :NDIM]
        gain = np.linalg.solve(proj_cov, b.T).T
        mean = state.mean + gain @ (z - proj_mean)
        cov = state.cov - gain @ proj_cov @ gain.T
        return RefMotionState(mean, (cov + cov.T) / 2.0)

    def predict_many(self, states):
        return [self.predict(s) for s in states]

    def update_many(self, states, measurements):
        return [self.update(s, z) for s, z in zip(states, measurements)]


# The library filter keeps only the four 2x2 (component, velocity) blocks of
# the 8x8 covariance, as (..., 3, 4) rows p_xx, p_xv and p_vv, one column per
# axis. These convert between the two forms.
_AXIS = np.arange(NDIM)


def full_cov(blocks) -> np.ndarray:
    """The (..., 8, 8) covariance that per-axis blocks (..., 3, 4) stand for,
    with 0.0 outside the blocks."""
    blocks = np.asarray(blocks, dtype=float)
    cov = np.zeros(blocks.shape[:-2] + (2 * NDIM, 2 * NDIM))
    cov[..., _AXIS, _AXIS] = blocks[..., 0, :]
    cov[..., _AXIS, _AXIS + NDIM] = blocks[..., 1, :]
    cov[..., _AXIS + NDIM, _AXIS] = blocks[..., 1, :]
    cov[..., _AXIS + NDIM, _AXIS + NDIM] = blocks[..., 2, :]
    return cov


def cov_blocks(cov) -> np.ndarray:
    """The per-axis blocks (..., 3, 4) of (..., 8, 8) covariances. Asserts
    that both off-diagonal copies of p_xv hold the same bytes and that every
    entry outside the blocks is exactly 0.0, so the blocks lose nothing."""
    cov = np.asarray(cov, dtype=float)
    p_xv = cov[..., _AXIS, _AXIS + NDIM]
    assert p_xv.tobytes() == cov[..., _AXIS + NDIM, _AXIS].tobytes()
    outside = cov.copy()
    outside[..., _AXIS, _AXIS] = outside[..., _AXIS, _AXIS + NDIM] = 0.0
    outside[..., _AXIS + NDIM, _AXIS] = outside[..., _AXIS + NDIM, _AXIS + NDIM] = 0.0
    assert np.all(outside == 0.0), "covariance has entries outside the per-axis blocks"
    return np.stack(
        [cov[..., _AXIS, _AXIS], p_xv, cov[..., _AXIS + NDIM, _AXIS + NDIM]], axis=-2
    )


def split_by_score(
    dets: list[Detection], cfg: TrackerConfig
) -> tuple[list[Detection], list[Detection]]:
    """Split detections into (high, low) bands; scores below tau_low are
    dropped. The high band is strictly above tau_high, so a score exactly at
    the threshold lands in the low band."""
    high = [d for d in dets if d.score > cfg.tau_high]
    low = [d for d in dets if cfg.tau_low <= d.score <= cfg.tau_high]
    return high, low


class RefTrack:
    """Mutable per-identity state owned by one tracker instance."""

    __slots__ = ("id", "state", "motion", "score", "start_frame", "last_frame", "history")

    def __init__(self, track_id: int, frame: int, motion: RefMotionState, det: Detection):
        self.id = track_id
        self.state = RefTrackState.TRACKED
        self.motion = motion
        self.score = det.score
        self.start_frame = frame
        self.last_frame = frame
        self.history: list[TrackEntry] = [TrackEntry(frame, det.box, det.score)]

    def apply_match(self, frame: int, det: Detection, motion: RefMotionState) -> None:
        # rebirth reuses the prior motion state (updated, not re-initiated) so
        # the velocity estimate learned before the object went lost carries over
        self.motion = motion
        self.state = RefTrackState.TRACKED
        self.score = det.score
        self.last_frame = frame
        self.history.append(TrackEntry(frame, det.box, det.score))


class RefByteTracker:
    """Online tracker; one instance per sequence, frames fed in order."""

    def __init__(self, config: TrackerConfig | None = None, kalman: RefKalmanFilter | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.kalman = kalman if kalman is not None else RefKalmanFilter()
        self._tracks: list[RefTrack] = []
        self._frame = 0
        self._ids = itertools.count(1)
        self.last_stats: StepStats | None = None

    @property
    def tracks(self) -> list[RefTrack]:
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
                    if self._tracks[i].state is RefTrackState.TRACKED
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
            if track.state is RefTrackState.TRACKED:
                track.state = RefTrackState.LOST
                n_lost += 1

        survivors = []
        for track in self._tracks:
            if (
                track.state is RefTrackState.LOST
                and frame - track.last_frame > cfg.lost_ttl
            ):
                track.state = RefTrackState.REMOVED
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
                    RefTrack(next(self._ids), frame, self.kalman.initiate(det.box.cxcyah()), det)
                )
            else:
                n_suppressed += 1
        self._tracks.extend(births)

        outputs = [
            TrackOutput(t.id, t.history[-1].box, t.score)
            for t in self._tracks
            if t.state is RefTrackState.TRACKED
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


# --- reference evaluation ----------------------------------------------------
#
# CLEAR and IDF1 as they were before evaluation moved to the columnar index:
# per-object per-frame dictionaries, one dense IoU matrix per frame and the
# scalar IoU for carried-over matches. Kept verbatim (only the two public
# functions are renamed) as the bit-level references of metrics.clear_mot and
# metrics.idf1.


def _pred_rows_by_frame(pred: TrackDump) -> dict[int, tuple[list[int], list[BBox]]]:
    """Per frame, the predicted identities in ascending order and their boxes,
    as two parallel lists."""
    rows: dict[int, tuple[list[int], list[BBox]]] = {}
    for track_id in sorted(pred):
        for entry in pred[track_id]:
            frame_rows = rows.get(entry.frame)
            if frame_rows is None:
                frame_rows = rows[entry.frame] = ([], [])
            frame_rows[0].append(track_id)
            frame_rows[1].append(entry.box)
    return rows


def _gt_by_frame(gt: list[GtEntry], considered: bool) -> dict[int, list[GtEntry]]:
    rows: dict[int, list[GtEntry]] = {}
    for entry in gt:
        if entry.considered == considered:
            rows.setdefault(entry.frame, []).append(entry)
    return rows


def ref_clear_mot(
    gt: list[GtEntry],
    pred: TrackDump,
    iou_min: float = 0.5,
    ignore_unconsidered: bool = True,
) -> ClearResult:
    """Frame-by-frame CLEAR matching producing FP / FN / ID-switch counts.

    Per frame: (a) carry over the previous frame's (gt, pred) matches still
    overlapping with IoU >= iou_min, (b) assign remaining pairs by min-cost
    matching on 1 - IoU restricted to IoU >= iou_min, (c) count unmatched
    predictions as FP and unmatched considered ground truth as FN, (d) count
    an ID switch whenever a ground-truth object's matched prediction differs
    from its most recent previously matched one.

    With ignore_unconsidered on, unmatched predictions overlapping a
    non-considered ground-truth box (IoU >= iou_min) are dropped rather than
    counted as FP, the benchmark convention for distractor regions.
    """
    gt_frames = _gt_by_frame(gt, considered=True)
    ignore_frames = _gt_by_frame(gt, considered=False) if ignore_unconsidered else {}
    pred_frames = _pred_rows_by_frame(pred)

    fp = fn = ids = 0
    num_gt = sum(len(v) for v in gt_frames.values())
    prev_matches: dict[int, int] = {}
    last_pred: dict[int, int] = {}
    trace: dict[int, list[tuple[int, int]]] = {}

    for frame in sorted(set(gt_frames) | set(pred_frames)):
        gts = gt_frames.get(frame, [])
        pids, boxes = pred_frames.get(frame, ((), ()))
        pred_boxes = dict(zip(pids, boxes))

        current: dict[int, int] = {}
        open_gts = []
        for g in gts:
            pid = prev_matches.get(g.identity)
            if pid is not None and pid in pred_boxes and iou(g.box, pred_boxes[pid]) >= iou_min:
                current[g.identity] = pid
                continue
            open_gts.append(g)
        taken = set(current.values())
        open_preds = [j for j, pid in enumerate(pids) if pid not in taken]

        if open_gts and open_preds:
            sim = iou_matrix_tlbr(
                np.array([g.box.tlbr() for g in open_gts]),
                np.array([boxes[j].tlbr() for j in open_preds]),
            )
            assign = min_cost_assignment(1.0 - sim, min_iou=iou_min)
            for r, c in assign.matches:
                current[open_gts[r].identity] = pids[open_preds[c]]
            unmatched_gt = len(assign.unmatched_rows)
            loose_preds = [open_preds[c] for c in assign.unmatched_cols]
        else:
            unmatched_gt = len(open_gts)
            loose_preds = open_preds

        for gid, pid in current.items():
            before = last_pred.get(gid)
            if before is not None and before != pid:
                ids += 1
            last_pred[gid] = pid

        fn += unmatched_gt
        ignores = ignore_frames.get(frame, [])
        if loose_preds and ignores:
            overlap = iou_matrix_tlbr(
                np.array([boxes[j].tlbr() for j in loose_preds]),
                np.array([g.box.tlbr() for g in ignores]),
            )
            absorbed = (overlap >= iou_min).any(axis=1)
            fp += int((~absorbed).sum())
        else:
            fp += len(loose_preds)

        trace[frame] = sorted(current.items())
        prev_matches = current

    return ClearResult(fp=fp, fn=fn, ids=ids, num_gt=num_gt, matches_by_frame=trace)


def ref_idf1(gt: list[GtEntry], pred: TrackDump, iou_min: float = 0.5) -> IdfResult:
    """Identity-F1 via a single global matching of identities.

    Edge weight between a ground-truth identity and a predicted identity is
    the number of frames where their boxes overlap with IoU >= iou_min; the
    matching maximizing total weight gives IDTP, and the remaining box-frames
    on either side are IDFN / IDFP.
    """
    gt_frames = _gt_by_frame(gt, considered=True)
    pred_frames = _pred_rows_by_frame(pred)

    gt_ids = sorted({g.identity for rows in gt_frames.values() for g in rows})
    pred_ids = sorted(pred.keys())
    gt_index = {g: i for i, g in enumerate(gt_ids)}
    pred_index = {p: j for j, p in enumerate(pred_ids)}

    total_gt = sum(len(v) for v in gt_frames.values())
    total_pred = sum(len(pids) for pids, _ in pred_frames.values())

    weights = np.zeros((len(gt_ids), len(pred_ids)))
    for frame, gts in gt_frames.items():
        pids, boxes = pred_frames.get(frame, ((), ()))
        if not pids:
            continue
        sim = iou_matrix_tlbr(
            np.array([g.box.tlbr() for g in gts]),
            np.array([box.tlbr() for box in boxes]),
        )
        hit_r, hit_c = np.nonzero(sim >= iou_min)
        for r, c in zip(hit_r, hit_c):
            weights[gt_index[gts[r].identity], pred_index[pids[c]]] += 1

    idtp = 0
    if weights.size:
        assign = solve(-weights)
        idtp = int(sum(weights[r, c] for r, c in assign.matches))
    idfp = total_pred - idtp
    idfn = total_gt - idtp
    denom = 2 * idtp + idfp + idfn
    score = None if denom == 0 else 2.0 * idtp / denom
    return IdfResult(idf1=score, idtp=idtp, idfp=idfp, idfn=idfn)


# --- reference tracker loop --------------------------------------------------
#
# cli.run_tracker as it was before it stepped only the frames that hold
# detections: every frame from 1 to the last is stepped, empty ones included.
# Kept (renamed, without the timings) as its reference.


def ref_run_tracker(dets: list[Detection], cfg: TrackerConfig) -> TrackDump:
    """Drive a fresh tracker over frames 1..max; returns the result dump."""
    by_frame = group_by_frame(dets)
    last = max(by_frame) if by_frame else 0
    tracker = ByteTracker(cfg)
    rows = []
    for frame in range(1, last + 1):
        result = tracker.step(frame, by_frame.get(frame, []))
        for out in result.outputs:
            rows.append((frame, out.track_id, out.box, out.score))
    return dump_from_rows(rows)


# --- reference low-score report ----------------------------------------------
#
# cli.lowscore_counts as it was before it matched each band through the
# evaluation's overlap gate: one iou_matrix_tlbr call per box. Kept verbatim
# (renamed) as its reference.


def ref_lowscore_counts(
    gt: list[GtEntry],
    dets: list[Detection],
    pred: TrackDump,
    tau_low: float,
    tau_high: float,
    iou_min: float = 0.5,
) -> dict[str, int]:
    """TP/FP counts among low-score boxes, for the raw detections and for the
    boxes the tracker kept. A box is TP when it overlaps a considered truth
    box of its frame with IoU >= iou_min."""
    gt_frames: dict[int, list[GtEntry]] = {}
    for entry in gt:
        if entry.considered:
            gt_frames.setdefault(entry.frame, []).append(entry)

    def classify(frame: int, box) -> bool:
        gts = gt_frames.get(frame, [])
        if not gts:
            return False
        sim = iou_matrix_tlbr(
            np.array([box.tlbr()]), np.array([g.box.tlbr() for g in gts])
        )
        return bool(sim.max() >= iou_min)

    counts = {"det_low_tp": 0, "det_low_fp": 0, "kept_low_tp": 0, "kept_low_fp": 0}
    for det in dets:
        if tau_low <= det.score <= tau_high:
            key = "det_low_tp" if classify(det.frame, det.box) else "det_low_fp"
            counts[key] += 1
    for track_id in pred:
        for entry in pred[track_id]:
            if tau_low <= entry.score <= tau_high:
                key = "kept_low_tp" if classify(entry.frame, entry.box) else "kept_low_fp"
                counts[key] += 1
    return counts


# --- reference result rows ---------------------------------------------------
#
# dump_from_rows as it was before it became linear for rows in frame order:
# every track sorted and scanned for repeated frames. Kept verbatim (renamed)
# as its reference.


def ref_dump_from_rows(rows: list[tuple[int, int, BBox, float]]) -> TrackDump:
    """Build a TrackDump from (frame, id, box, score) rows, sorted per id."""
    dump: TrackDump = {}
    for frame, track_id, box, score in rows:
        dump.setdefault(track_id, []).append(TrackEntry(frame, box, score))
    for track_id, entries in dump.items():
        entries.sort(key=lambda e: e.frame)
        seen = set()
        for entry in entries:
            if entry.frame in seen:
                raise ParseError(
                    f"track {track_id} has duplicate entries for frame {entry.frame}"
                )
            seen.add(entry.frame)
    return dump


# --- reference readers -------------------------------------------------------
#
# The MOT text readers as they were before they read each file as one numeric
# table: one line at a time, float() on each field and BBox's own checks.
# Kept verbatim (renamed, over ref_dump_from_rows) as their reference. They
# log through the library's logger, so their warning records compare equal.

_ref_logger = logging.getLogger("bytemot.mot_io")
_REF_PEDESTRIAN_CLASS = 1
_REF_INT64_END = float(2**63)


def _ref_lines(path) -> list[tuple[int, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    out = []
    for lineno, line in enumerate(raw.split("\n"), start=1):
        line = line.strip("\r").strip()
        if line:
            out.append((lineno, line))
    return out


def _ref_fields(path, lineno: int, line: str, minimum: int) -> list[float]:
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


def _ref_int_field(path, lineno: int, value: float, what: str) -> int:
    if not value.is_integer():
        raise ParseError(f"{path}:{lineno}: {what} must be an integer, got {value}")
    if not -_REF_INT64_END <= value < _REF_INT64_END:
        raise ParseError(f"{path}:{lineno}: {what} {value:g} is outside the int64 range")
    return int(value)


def _ref_box(path, lineno: int, left, top, width, height) -> BBox | None:
    # BBox validates the values; the row is diagnosed only when it rejects them
    try:
        return BBox(left, top, width, height)
    except ValueError as exc:
        if (width > 0.0 and height > 0.0
                or not all(abs(v) <= BOX_LIMIT for v in (left, top, width, height))):
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    _ref_logger.warning(
        "%s:%d: skipping row with non-positive box size %.6g x %.6g",
        path, lineno, width, height,
    )
    return None


def _ref_score(path, lineno: int, conf: float) -> float:
    if math.isnan(conf):
        raise ParseError(f"{path}:{lineno}: confidence is NaN")
    if conf < 0.0 or conf > 1.0:
        clamped = min(max(conf, 0.0), 1.0)
        _ref_logger.warning(
            "%s:%d: confidence %.6g outside [0, 1], clamped to %.6g",
            path, lineno, conf, clamped,
        )
        return clamped
    return conf


def ref_read_detections(path) -> list[Detection]:
    """Parse a detection file; the id column is ignored (conventionally -1)."""
    dets = []
    for lineno, line in _ref_lines(path):
        vals = _ref_fields(path, lineno, line, minimum=7)
        frame = _ref_int_field(path, lineno, vals[0], "frame")
        if frame < 1:
            raise ParseError(f"{path}:{lineno}: frame index must be >= 1, got {frame}")
        box = _ref_box(path, lineno, vals[2], vals[3], vals[4], vals[5])
        if box is None:
            continue
        dets.append(Detection(frame=frame, box=box, score=_ref_score(path, lineno, vals[6])))
    return dets


def ref_read_results(path) -> TrackDump:
    """Parse a tracker result file into a per-identity dump."""
    rows = []
    for lineno, line in _ref_lines(path):
        vals = _ref_fields(path, lineno, line, minimum=7)
        frame = _ref_int_field(path, lineno, vals[0], "frame")
        track_id = _ref_int_field(path, lineno, vals[1], "track id")
        box = _ref_box(path, lineno, vals[2], vals[3], vals[4], vals[5])
        if box is None:
            continue
        rows.append((frame, track_id, box, _ref_score(path, lineno, vals[6])))
    return ref_dump_from_rows(rows)


def ref_read_gt(path) -> list[GtEntry]:
    """Parse ground truth. Nine-column files carry an active flag, a class id
    and a visibility ratio; an entry is considered when flag == 1 and the
    class is pedestrian. Minimal 6/7-column files are accepted with every row
    considered. A (frame, identity) pair may appear only once."""
    entries = []
    first_line: dict[tuple[int, int], int] = {}
    for lineno, line in _ref_lines(path):
        vals = _ref_fields(path, lineno, line, minimum=6)
        frame = _ref_int_field(path, lineno, vals[0], "frame")
        identity = _ref_int_field(path, lineno, vals[1], "identity")
        box = _ref_box(path, lineno, vals[2], vals[3], vals[4], vals[5])
        if box is None:
            continue
        first = first_line.setdefault((frame, identity), lineno)
        if first != lineno:
            raise ParseError(
                f"{path}:{lineno}: identity {identity} repeated in frame {frame} "
                f"(first at line {first})"
            )
        if len(vals) >= 8:
            flag = _ref_int_field(path, lineno, vals[6], "active flag")
            cls = _ref_int_field(path, lineno, vals[7], "class id")
            considered = flag == 1 and cls == _REF_PEDESTRIAN_CLASS
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


# --- reference writers -------------------------------------------------------
#
# The MOT text writers as they were before they formatted every row with one
# template: a sort with a key function over records or row tuples, then one
# f-string and one write per row. Kept verbatim (renamed) as their reference.

_REF_PRINT_MIN = 0.005


def _ref_unprintable(path, what: str, frame: int, box: BBox) -> ValueError:
    """The writers' error for a box whose width or height is below
    _PRINT_MIN: it would print as 0.00, and a reader would skip its row."""
    return ValueError(
        f"{path}: {what} in frame {frame} has box size {box.width:.6g} x "
        f"{box.height:.6g}, which prints as 0.00 at two decimals"
    )


def ref_write_detections(path, dets: list[Detection]) -> None:
    rows = sorted(dets, key=lambda d: (d.frame, d.box.left, d.box.top, -d.score))
    for d in rows:
        if d.box.width < _REF_PRINT_MIN or d.box.height < _REF_PRINT_MIN:
            raise _ref_unprintable(path, "a detection", d.frame, d.box)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in rows:
            fh.write(
                f"{d.frame},-1,{d.box.left:.2f},{d.box.top:.2f},"
                f"{d.box.width:.2f},{d.box.height:.2f},{d.score:.6f},-1,-1,-1\n"
            )


def ref_write_results(path, tracks: TrackDump) -> None:
    """Write a result dump sorted by (frame, id), coordinates at two decimals.

    Reading the file back reproduces the dump up to the printed precision;
    output bytes are deterministic for identical input.
    """
    rows = []
    for track_id in tracks:
        for e in tracks[track_id]:
            rows.append((e.frame, track_id, e.box, e.score))
    rows.sort(key=lambda r: (r[0], r[1]))
    for frame, track_id, box, _ in rows:
        if box.width < _REF_PRINT_MIN or box.height < _REF_PRINT_MIN:
            raise _ref_unprintable(path, f"track {track_id}", frame, box)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame, track_id, box, score in rows:
            fh.write(
                f"{frame},{track_id},{box.left:.2f},{box.top:.2f},"
                f"{box.width:.2f},{box.height:.2f},{score:.6f},-1,-1,-1\n"
            )


def ref_write_gt(path, entries: list[GtEntry]) -> None:
    rows = sorted(entries, key=lambda e: (e.frame, e.identity))
    for e in rows:
        if e.box.width < _REF_PRINT_MIN or e.box.height < _REF_PRINT_MIN:
            raise _ref_unprintable(path, f"identity {e.identity}", e.frame, e.box)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in rows:
            flag = 1 if e.considered else 0
            fh.write(
                f"{e.frame},{e.identity},{e.box.left:.2f},{e.box.top:.2f},"
                f"{e.box.width:.2f},{e.box.height:.2f},{flag},{_REF_PEDESTRIAN_CLASS},"
                f"{e.visibility:.6f}\n"
            )


# --- shared test helpers ----------------------------------------------------


def total_cost(assign, cost) -> float:
    """Summed cost of an assignment's matched cells."""
    return float(sum(cost[r, c] for r, c in assign.matches))


def read_manifest(path) -> dict[str, str]:
    """The key=value lines of a run manifest as a dict."""
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)
