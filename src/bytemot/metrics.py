"""Tracking evaluation: CLEAR counts (FP, FN, ID switches, MOTA) and IDF1.

CLEAR matching is frame by frame: correspondences from the previous frame are
carried over while they still overlap enough, remaining pairs are matched by
exact min-cost assignment on 1 - IoU, and a ground-truth object whose matched
predicted identity differs from its most recent one counts as an ID switch.
IDF1 is global: ground-truth and predicted identities are matched once over
the whole sequence to maximize the number of overlapping box-frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import min_cost_assignment, solve
from .geometry import BBox, iou, iou_matrix_tlbr
from .postprocess import TrackDump

__all__ = [
    "GtEntry",
    "ClearResult",
    "IdfResult",
    "EvalResult",
    "clear_mot",
    "idf1",
    "evaluate",
    "aggregate",
]


@dataclass(frozen=True, slots=True)
class GtEntry:
    """One ground-truth box. Entries with considered=False never contribute
    to FN or num_gt; they act as ignore regions that can absorb predictions
    (see clear_mot)."""

    frame: int
    identity: int
    box: BBox
    considered: bool = True
    visibility: float = 1.0


@dataclass(frozen=True)
class ClearResult:
    fp: int
    fn: int
    ids: int
    num_gt: int
    # frame -> matched (gt identity, predicted identity) pairs
    matches_by_frame: dict[int, list[tuple[int, int]]]

    @property
    def mota(self) -> float | None:
        if self.num_gt == 0:
            return None
        return 1.0 - (self.fp + self.fn + self.ids) / self.num_gt


@dataclass(frozen=True)
class IdfResult:
    idf1: float | None
    idtp: int
    idfp: int
    idfn: int


@dataclass(frozen=True)
class EvalResult:
    """Per-sequence or aggregated metric counts with derived ratios."""

    mota: float | None
    idf1: float | None
    fp: int
    fn: int
    ids: int
    num_gt: int
    idtp: int
    idfp: int
    idfn: int

    @classmethod
    def from_counts(cls, fp, fn, ids, num_gt, idtp, idfp, idfn) -> "EvalResult":
        mota = None if num_gt == 0 else 1.0 - (fp + fn + ids) / num_gt
        denom = 2 * idtp + idfp + idfn
        idf1_score = None if denom == 0 else 2.0 * idtp / denom
        return cls(mota, idf1_score, fp, fn, ids, num_gt, idtp, idfp, idfn)


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


def clear_mot(
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


def idf1(gt: list[GtEntry], pred: TrackDump, iou_min: float = 0.5) -> IdfResult:
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


def evaluate(
    gt: list[GtEntry],
    pred: TrackDump,
    iou_min: float = 0.5,
    ignore_unconsidered: bool = True,
) -> EvalResult:
    """CLEAR counts and IDF1 for one sequence, combined into an EvalResult."""
    clear = clear_mot(gt, pred, iou_min=iou_min, ignore_unconsidered=ignore_unconsidered)
    ident = idf1(gt, pred, iou_min=iou_min)
    return EvalResult.from_counts(
        clear.fp, clear.fn, clear.ids, clear.num_gt, ident.idtp, ident.idfp, ident.idfn
    )


def aggregate(results) -> EvalResult:
    """Micro-average across sequences: counts are summed before ratios."""
    fp = fn = ids = num_gt = idtp = idfp = idfn = 0
    for r in results:
        fp += r.fp
        fn += r.fn
        ids += r.ids
        num_gt += r.num_gt
        idtp += r.idtp
        idfp += r.idfp
        idfn += r.idfn
    return EvalResult.from_counts(fp, fn, ids, num_gt, idtp, idfp, idfn)
