"""Tracking evaluation: CLEAR counts (FP, FN, ID switches, MOTA) and IDF1.

CLEAR matching is frame by frame: correspondences from the previous frame are
carried over while they still overlap enough, remaining pairs are matched by
exact min-cost assignment on 1 - IoU, and a ground-truth object whose matched
predicted identity differs from its most recent one counts as an ID switch.
IDF1 is global: ground-truth and predicted identities are matched once over
the whole sequence to maximize the number of overlapping box-frames.

Both read a columnar index of the sequence instead of per-frame objects. One
pass over the ground truth and one over the predictions take their frames,
identities and track ranks as columns and group the rows by frame with a
stable sort (ground truth in input order within a frame, predictions in
ascending track id). The frames are then read in blocks of about
_BLOCK_ROWS rows: a block's box edges become float64 columns, and its
same-frame (ground truth, prediction) pairs of positive IoU come from
geometry._overlaps, the overlap gate iou_matrix_tlbr also uses, with the
frame's position in the index as the major sort key (the gate's keys are
floats, which hold positions exactly but not frames beyond 2**53). It
gates on the x axis and scores the pairs with iou_matrix_tlbr's cell
arithmetic, so each IoU equals that matrix's cell bit for bit. The CLEAR frame loop and the IDF1 weight count read that
table; a pair missing from it has IoU 0. Each frame's CLEAR assignment still gets the
dense matrix the per-frame formulation builds (open ground truth in input
order by open predictions in ascending id, 0.0 where boxes do not overlap),
so every count, match and tie-break is unchanged. The three threshold tests
stay separate: IoU >= iou_min for a carried-over match, 1 - IoU <=
1 - iou_min inside min_cost_assignment, and IoU >= iou_min for an IDF1 hit.
At iou_min 0 every same-frame pair is an IDF1 hit, so idf1 then lists every
same-frame pair, disjoint ones included, and scores and reads no box.

Most frames of a well-tracked sequence are quiet: every match carries over
and nothing is left open, so the frame adds no FP, FN or ID switch and
keeps the carried state. clear_mot settles a run of such frames with one
array pass (_carried_run) instead of its per-row loop. It tries one at a
block's first frame and after each frame the loop found quiet, while
iou_min > 0 and the state holds at least _RUN_ROWS matches (a frame of the
run holds as many ground-truth rows). The pass maps each row's identity
rank to its place in the state and checks the row's carried track among
the block table's pairs of IoU >= iou_min; the run ends at the first frame
with a missing or weak carry, an identity repeated, or a ground-truth or
prediction count other than the state's size, and that frame goes through
the loop. A block builds the loop's overlap dict only when one of its
frames needs the loop.

iou_min must satisfy 0 <= iou_min < 1 (NaN is rejected); clear_mot, idf1 and
evaluate check it on entry. Frames and ground-truth identities are indexed as
int64; values outside that range raise ValueError. Memory: only the index
columns (a few words per row) span the sequence; box edges, sorted copies,
candidate windows and pair arrays exist for one block, and candidates are
scored in batches of _PAIR_CHUNK.

evaluate builds the index once and shares it with its clear_mot and idf1
calls, so each box is read and each block gated once per evaluate: clear_mot
keeps every block's table on the shared index and idf1 counts its weights
from those (at iou_min 0 idf1 lists every same-frame pair; no table is
kept). Under the shared index clear_mot also builds no matches_by_frame,
which evaluate does not report; a direct clear_mot call returns it in full.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter

import numpy as np

from .assignment import min_cost_assignment, solve
from .geometry import _PAIR_CHUNK, BBox, _overlaps, _windows, iou_matrix_tlbr
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


# Ground-truth plus predicted rows per frame block; candidate pairs per IoU
# batch are geometry's _PAIR_CHUNK.
_BLOCK_ROWS = 1 << 12

# Carried matches the state must hold before clear_mot checks a carried run
# (see _carried_run); a frame of the run holds as many ground-truth rows.
# Below this the check costs more than the per-row loop it would spare.
_RUN_ROWS = 32

_FRAME = attrgetter("frame")
_IDENTITY = attrgetter("identity")
_CONSIDERED = attrgetter("considered")
_BOX = attrgetter("box")
_TLWH = tuple(attrgetter(name) for name in ("left", "top", "width", "height"))


def _check_iou_min(iou_min) -> None:
    if not 0.0 <= iou_min < 1.0:
        raise ValueError(f"iou_min must be in [0, 1), got {iou_min}")


def _int_column(items: list, field, what: str) -> np.ndarray:
    """The field of every item as an int64 column."""
    try:
        return np.fromiter(map(field, items), np.int64, len(items))
    except OverflowError:
        raise ValueError(f"{what} outside the int64 range") from None


def _edges(items) -> np.ndarray:
    """(4, n) array of the left, top, right and bottom edges of the items'
    boxes; right and bottom are summed as BBox sums them."""
    boxes = list(map(_BOX, items))
    n = len(boxes)
    out = np.empty((4, n))
    for k, value in enumerate(_TLWH):
        out[k] = np.fromiter(map(value, boxes), float, n)
    out[2] += out[0]
    out[3] += out[1]
    return out


def _grouped(frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Index taking the masked rows grouped by frame, input order kept within
    a frame."""
    rows = np.flatnonzero(mask)
    return rows[np.argsort(frame[rows], kind="stable")]


def _frame_slicer(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct frames of a sorted frame column and the number of rows
    before each (then the total): enough to slice the column by frame."""
    first = np.ones(len(frame), dtype=bool)
    np.not_equal(frame[1:], frame[:-1], out=first[1:])
    first = np.flatnonzero(first)
    return frame[first], np.append(first, len(frame))


def _take(items: list, rows: np.ndarray) -> list:
    """The items at the index rows."""
    return list(map(items.__getitem__, rows.tolist()))


class _Index:
    """Where each frame's rows of one sequence are.

    Considered ground truth is grouped by frame, input order kept within a
    frame (``gt_rows`` indexes the input list), with its identities and their
    ranks among the sorted distinct identities (``gt_ids``) as columns
    (``gt_id``, ``gt_rank``). Predictions are flattened in (track id, entry)
    order (``pred_entries``) and grouped by frame the same way (``pred_rows``),
    with the rank of their track id among the sorted ids (``pred_ids``) as a
    column. Ignore regions (entries not considered) keep their box edges.
    ``frames`` lists every frame with considered ground truth or predictions,
    and the ``*_start``/``*_end`` lists slice each side's rows per frame. The
    other box edges are read a block of frames at a time (``blocks``).

    evaluate's index is ``shared``: clear_mot builds no trace on it and keeps
    the blocks' tables in ``tables`` for idf1 (only at iou_min > 0).
    """

    def __init__(self, gt: list[GtEntry], pred: TrackDump, shared: bool = False):
        self.gt = gt
        self.pred = pred
        self.shared = shared
        self.tables: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
        frame = _int_column(gt, _FRAME, "ground-truth frame")
        considered = np.fromiter(map(_CONSIDERED, gt), bool, len(gt))
        self.gt_rows = _grouped(frame, considered)
        self.gt_id = _int_column(gt, _IDENTITY, "ground-truth identity")[self.gt_rows]
        self.gt_ids, self.gt_rank = np.unique(self.gt_id, return_inverse=True)
        ign_rows = _grouped(frame, ~considered)
        slicers = {
            "gt": _frame_slicer(frame[self.gt_rows]),
            "ign": _frame_slicer(frame[ign_rows]),
        }
        self.ign_box = _edges(_take(gt, ign_rows))
        del frame, considered

        self.pred_ids = sorted(pred)
        tracks = [pred[track_id] for track_id in self.pred_ids]
        self.pred_entries = list(chain.from_iterable(tracks))
        frame = _int_column(self.pred_entries, _FRAME, "predicted frame")
        self.pred_rows = np.argsort(frame, kind="stable")
        frame.sort()
        slicers["pred"] = _frame_slicer(frame)
        del frame
        ranks = np.repeat(np.arange(len(tracks), dtype=np.int32), list(map(len, tracks)))
        self.pred_rank = ranks[self.pred_rows]
        del ranks

        frames = np.union1d(slicers["gt"][0], slicers["pred"][0])
        self.frames = frames.tolist()
        for side, (distinct, before) in slicers.items():
            for bound, side_of in (("start", "left"), ("end", "right")):
                rows = before[np.searchsorted(distinct, frames, side_of)]
                setattr(self, f"{side}_{bound}", rows.tolist())

    def blocks(self, boxes: bool = True):
        """The frames in consecutive blocks of about _BLOCK_ROWS rows (a frame
        is never split), each with its box edges read if boxes is true."""
        rows_end = np.add(self.gt_end, self.pred_end)
        f0 = 0
        while f0 < len(self.frames):
            budget = self.gt_start[f0] + self.pred_start[f0] + _BLOCK_ROWS
            f1 = max(f0 + 1, int(np.searchsorted(rows_end, budget, "right")))
            yield _Block(self, f0, f1, boxes)
            f0 = f1

    def block_tables(self, keep: bool):
        """Each block with its table; a shared index keeps the tables, if
        asked to, once the last block is read."""
        keep = keep and self.shared
        kept = []
        for block in self.blocks():
            table = block.table()
            if keep:
                kept.append(table)
            yield block, table
        if keep:
            self.tables = kept


class _Block:
    """Frames [f0, f1) of an index, rows in index order; ``g0`` is the index
    row of the first ground truth, ``pred_rank`` holds the predictions' track
    ranks, and ``gt_frame``/``pred_frame`` each row's frame position in the
    index (not the frame itself: positions stay exact as the float keys of
    geometry's overlap gate, frames beyond 2**53 would not). With boxes, the
    box edges are (4, n) columns."""

    def __init__(self, index: _Index, f0: int, f1: int, boxes: bool = True):
        self.f0, self.f1 = f0, f1
        self.g0, g1 = index.gt_start[f0], index.gt_end[f1 - 1]
        p0, p1 = index.pred_start[f0], index.pred_end[f1 - 1]
        positions = np.arange(f0, f1)
        self.gt_frame = np.repeat(
            positions, np.subtract(index.gt_end[f0:f1], index.gt_start[f0:f1]))
        self.pred_frame = np.repeat(
            positions, np.subtract(index.pred_end[f0:f1], index.pred_start[f0:f1]))
        self.pred_rank = index.pred_rank[p0:p1]
        if boxes:
            self.gt_box = _edges(_take(index.gt, index.gt_rows[self.g0:g1]))
            self.pred_box = _edges(_take(index.pred_entries, index.pred_rows[p0:p1]))

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block's same-frame pairs of positive IoU as (ground-truth index
        row, predicted track rank, IoU) columns, found by geometry's overlap
        gate with the frame as its major key."""
        g_rows, p_rows, ious = _overlaps(
            self.gt_box, self.pred_box, self.gt_frame, self.pred_frame, _PAIR_CHUNK)
        return self.g0 + g_rows, self.pred_rank[p_rows], ious

    def all_pairs(self):
        """Every same-frame pair of the block, disjoint ones included, as
        (ground-truth index row, predicted track rank) columns, in batches of
        at most _PAIR_CHUNK pairs."""
        lo = np.searchsorted(self.pred_frame, self.gt_frame, "left")
        hi = np.searchsorted(self.pred_frame, self.gt_frame, "right")
        for g_rows, p_rows in _windows(lo, hi, _PAIR_CHUNK):
            yield self.g0 + g_rows, self.pred_rank[p_rows]


# The index evaluate builds once for its clear_mot and idf1 calls.
_shared_index: ContextVar[_Index | None] = ContextVar("_shared_index", default=None)


def _index(gt: list[GtEntry], pred: TrackDump) -> _Index:
    shared = _shared_index.get()
    if shared is not None and shared.gt is gt and shared.pred is pred:
        return shared
    return _Index(gt, pred)


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
    _check_iou_min(iou_min)
    index = _index(gt, pred)
    gt_ids = index.gt_ids.tolist()
    pred_ids = index.pred_ids
    n_pred = len(pred_ids)
    gt_start, gt_end = index.gt_start, index.gt_end
    pred_start, pred_end = index.pred_start, index.pred_end
    ign_start, ign_end = index.ign_start, index.ign_end
    # evaluate reads the counts only
    traced = not index.shared
    # identity rank -> place in the carried state, -1 outside (_carried_run)
    slots = np.full(len(gt_ids), -1, np.intp)

    fp = fn = ids = 0
    # gt identity rank -> rank of the matched predicted id
    prev_matches: dict[int, int] = {}
    last_pred: dict[int, int] = {}
    trace: dict[int, list[tuple[int, int]]] = {}

    for block, table in index.block_tables(keep=iou_min > 0.0):
        overlap = None
        g0, p0 = block.g0, pred_start[block.f0]
        frames = iter(range(block.f0, block.f1))
        # try a carried run at the block's first frame and after each quiet one
        quiet = True
        for f in frames:
            if quiet and len(prev_matches) >= _RUN_ROWS and iou_min > 0.0:
                run = _carried_run(index, block, f, table, iou_min, prev_matches, slots)
                if run:
                    if traced:
                        settled = [(gt_ids[r], pred_ids[j]) for r, j in sorted(prev_matches.items())]
                        for frame in index.frames[f:f + run]:
                            trace[frame] = settled.copy()
                    # skip the run's other frames; the loop takes the next one
                    next(islice(frames, run - 1, run - 1), None)
                    quiet = False
                    continue
            if overlap is None:
                g_rows, p_ranks, ious = table
                # (gt row * n_pred + pred rank) -> IoU, for the block's positive pairs
                overlap = dict(zip((g_rows * n_pred + p_ranks).tolist(), ious.tolist()))
                gids = index.gt_rank[g0:gt_end[block.f1 - 1]].tolist()
                ranks = block.pred_rank.tolist()

            ga, gb = gt_start[f] - g0, gt_end[f] - g0
            pa, pb = pred_start[f] - p0, pred_end[f] - p0

            current: dict[int, int] = {}
            open_gts = []
            for r in range(ga, gb):
                gid = gids[r]
                j = prev_matches.get(gid)
                if j is not None:
                    # a pair missing from the table has IoU 0
                    s = overlap.get((g0 + r) * n_pred + j, 0.0)
                    if s >= iou_min and (s > 0.0 or j in ranks[pa:pb]):
                        current[gid] = j
                        continue
                open_gts.append(r)
            taken = set(current.values())
            if len(taken) < pb - pa:
                open_preds = [c for c in range(pa, pb) if ranks[c] not in taken]
            else:
                open_preds = []

            if open_gts and open_preds:
                # columns in ascending id, as the index lists predictions
                cols = [ranks[c] for c in open_preds]
                sim = np.array([
                    [overlap.get(key + j, 0.0) for j in cols]
                    for key in [(g0 + r) * n_pred for r in open_gts]
                ])
                assign = min_cost_assignment(1.0 - sim, min_iou=iou_min)
                assigned = [gids[open_gts[r]] for r, _ in assign.matches]
                for gid, (_, c) in zip(assigned, assign.matches):
                    current[gid] = cols[c]
                # a carried-over match repeats the object's last match, so
                # only assigned ones can switch identity
                for gid in assigned:
                    j = current[gid]
                    before = last_pred.get(gid)
                    if before is not None and before != j:
                        ids += 1
                    last_pred[gid] = j
                unmatched_gt = len(assign.unmatched_rows)
                loose_preds = [open_preds[c] for c in assign.unmatched_cols]
            else:
                unmatched_gt = len(open_gts)
                loose_preds = open_preds

            fn += unmatched_gt
            if loose_preds and ignore_unconsidered and ign_start[f] < ign_end[f]:
                overlap_ign = iou_matrix_tlbr(
                    block.pred_box[:, loose_preds].T,
                    index.ign_box[:, ign_start[f]:ign_end[f]].T,
                )
                absorbed = (overlap_ign >= iou_min).any(axis=1)
                fp += int((~absorbed).sum())
            else:
                fp += len(loose_preds)

            if traced:
                trace[index.frames[f]] = [(gt_ids[r], pred_ids[j]) for r, j in sorted(current.items())]
            prev_matches = current
            quiet = not open_gts and not open_preds

    return ClearResult(
        fp=fp, fn=fn, ids=ids, num_gt=len(index.gt_id), matches_by_frame=trace
    )


def _carried_run(index: _Index, block: _Block, f: int, table, iou_min: float,
                 state: dict[int, int], slots: np.ndarray) -> int:
    """How many frames from f on, within the block, carry every match of the
    state (identity rank -> track rank) and leave nothing open. Such a frame
    holds as many ground-truth rows and predictions as the state has
    matches, each row's identity is a distinct one of the state's, and each
    row and its carried track are a pair of the block's table with IoU >=
    iou_min. It counts no FP, FN or ID switch and keeps the state. slots is
    -1 everywhere and left so."""
    size = len(state)
    # the usual miss, found without array work
    if not index.gt_end[f] - index.gt_start[f] == size == index.pred_end[f] - index.pred_start[f]:
        return 0
    # two identities carry one track only when it is listed twice in a frame
    if len(set(state.values())) < size:
        return 0
    gt_count = np.subtract(index.gt_end[f:block.f1], index.gt_start[f:block.f1])
    pred_count = np.subtract(index.pred_end[f:block.f1], index.pred_start[f:block.f1])
    even = (gt_count == size) & (pred_count == size)
    frames = len(even) if even.all() else int(even.argmin())
    if not frames:
        return 0
    # the ground-truth rows of those frames, frames x size of them, and
    # their strong pairs
    r0 = index.gt_start[f]
    g_rows, p_ranks, ious = table
    pick = (g_rows >= r0) & (g_rows < r0 + frames * size) & (ious >= iou_min)
    rows = g_rows[pick]
    ranks = np.fromiter(state, np.intp, size)
    slots[ranks] = np.arange(size)
    slot = slots[index.gt_rank[rows]]
    slots[ranks] = -1
    tracks = np.fromiter(state.values(), np.intp, size)
    carried = (slot >= 0) & (tracks[slot] == p_ranks[pick])
    # a frame is quiet when its carried pairs fill every slot of the state
    filled = np.zeros(frames * size, bool)
    filled[((rows - r0) // size * size + slot)[carried]] = True
    quiet = filled.reshape(frames, size).all(axis=1)
    return frames if quiet.all() else int(quiet.argmin())


def idf1(gt: list[GtEntry], pred: TrackDump, iou_min: float = 0.5) -> IdfResult:
    """Identity-F1 via a single global matching of identities.

    Edge weight between a ground-truth identity and a predicted identity is
    the number of frames where their boxes overlap with IoU >= iou_min; the
    matching maximizing total weight gives IDTP, and the remaining box-frames
    on either side are IDFN / IDFP.
    """
    _check_iou_min(iou_min)
    index = _index(gt, pred)
    weights = np.zeros((len(index.gt_ids), len(index.pred_ids)))
    if iou_min == 0.0:
        # every same-frame pair is a hit, disjoint ones included: two
        # accepted boxes never have a negative or NaN IoU
        hits = chain.from_iterable(block.all_pairs() for block in index.blocks(boxes=False))
    else:
        if index.tables is not None:
            tables = index.tables  # kept by clear_mot under evaluate
        else:
            tables = (table for _, table in index.block_tables(keep=False))
        hits = ((g_rows[(hit := ious >= iou_min)], p_ranks[hit])
                for g_rows, p_ranks, ious in tables)
    for g_rows, p_ranks in hits:
        cells, counts = np.unique(
            index.gt_rank[g_rows] * weights.shape[1] + p_ranks, return_counts=True)
        weights.reshape(-1)[cells] += counts

    idtp = 0
    if weights.size:
        assign = solve(-weights)
        idtp = int(sum(weights[r, c] for r, c in assign.matches))
    idfp = len(index.pred_entries) - idtp
    idfn = len(index.gt_id) - idtp
    denom = 2 * idtp + idfp + idfn
    score = None if denom == 0 else 2.0 * idtp / denom
    return IdfResult(idf1=score, idtp=idtp, idfp=idfp, idfn=idfn)


def evaluate(
    gt: list[GtEntry],
    pred: TrackDump,
    iou_min: float = 0.5,
    ignore_unconsidered: bool = True,
) -> EvalResult:
    """CLEAR counts and IDF1 for one sequence, combined into an EvalResult;
    both read one shared index of the sequence, whose blocks are gated once
    (and read once when iou_min > 0)."""
    _check_iou_min(iou_min)
    index = _Index(gt, pred, shared=True)
    token = _shared_index.set(index)
    try:
        clear = clear_mot(gt, pred, iou_min=iou_min, ignore_unconsidered=ignore_unconsidered)
        ident = idf1(gt, pred, iou_min=iou_min)
    finally:
        _shared_index.reset(token)
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
