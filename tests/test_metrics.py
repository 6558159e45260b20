import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytemot import metrics, synth
from bytemot.cli import run_tracker
from bytemot.geometry import BBox
from bytemot.metrics import (
    EvalResult,
    GtEntry,
    aggregate,
    clear_mot,
    evaluate,
    idf1,
)
from bytemot.postprocess import TrackEntry
from bytemot.tracker import TrackerConfig
from oracles import max_weight_matching_enum, ref_clear_mot, ref_idf1


def gt_box(frame, identity, l=0.0, t=0.0, w=10.0, h=10.0, considered=True):
    return GtEntry(frame, identity, BBox(l, t, w, h), considered=considered)


def pred_entry(frame, l=0.0, t=0.0, w=10.0, h=10.0, score=0.9):
    return TrackEntry(frame, BBox(l, t, w, h), score)


def linear_gt(identity, frames, x0=0.0, step=5.0):
    return [gt_box(f, identity, l=x0 + step * (f - 1)) for f in frames]


def dump_from_gt(entries, track_ids=None):
    """Prediction dump that mirrors ground truth exactly, optionally relabeled."""
    dump = {}
    for e in entries:
        tid = e.identity if track_ids is None else track_ids[e.identity]
        dump.setdefault(tid, []).append(pred_entry(e.frame, *e.box.tlwh()))
    for v in dump.values():
        v.sort(key=lambda p: p.frame)
    return dump


def identity_graph(weights):
    """Ground truth and predictions whose per-identity overlap counts equal
    the given weight matrix, using one disjoint frame per overlap."""
    gt, dump, frame = [], {}, 1
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            for _ in range(int(weights[i, j])):
                gt.append(gt_box(frame, i + 1))
                dump.setdefault(j + 1, []).append(pred_entry(frame))
                frame += 1
    for v in dump.values():
        v.sort(key=lambda e: e.frame)
    return gt, dump


class TestClearMot:
    def test_perfect_tracker(self):
        gt = linear_gt(1, range(1, 11)) + linear_gt(2, range(1, 11), x0=200.0)
        result = clear_mot(gt, dump_from_gt(gt))
        assert (result.fp, result.fn, result.ids) == (0, 0, 0)
        assert result.mota == 1.0

    def test_miss_everything(self):
        gt = linear_gt(1, range(1, 51))
        result = clear_mot(gt, {})
        assert result.fn == 50
        assert result.mota == 0.0

    def test_split_identity_counts_one_switch(self):
        gt = linear_gt(1, range(1, 11))
        dump = {
            1: [pred_entry(f, *g.box.tlwh()) for f, g in zip(range(1, 6), gt)],
            2: [pred_entry(g.frame, *g.box.tlwh()) for g in gt[5:]],
        }
        result = clear_mot(gt, dump)
        assert (result.fp, result.fn, result.ids) == (0, 0, 1)
        assert result.mota == pytest.approx(0.9)

    def test_switch_detected_across_gap(self):
        gt = [gt_box(f, 1) for f in range(1, 7)]
        dump = {
            1: [pred_entry(f) for f in range(1, 4)],
            2: [pred_entry(6)],
        }
        result = clear_mot(gt, dump)
        assert result.fn == 2
        assert result.ids == 1

    def test_carryover_beats_fresh_higher_overlap(self):
        # pred A keeps its match from frame 1 even though pred B overlaps
        # the object better in frame 2; B becomes a false positive
        gt = [gt_box(1, 1), gt_box(2, 1)]
        dump = {
            10: [pred_entry(1), pred_entry(2, t=3.0)],
            20: [pred_entry(2, t=0.5)],
        }
        result = clear_mot(gt, dump)
        assert result.ids == 0
        assert result.fp == 1
        assert result.matches_by_frame[2] == [(1, 10)]

    def test_unmatched_prediction_is_fp(self):
        gt = [gt_box(1, 1)]
        dump = {1: [pred_entry(1)], 2: [pred_entry(1, l=500.0)]}
        result = clear_mot(gt, dump)
        assert result.fp == 1

    def test_ignore_region_absorbs_prediction(self):
        gt = [gt_box(1, 1), gt_box(1, 2, l=500.0, considered=False)]
        dump = {1: [pred_entry(1)], 2: [pred_entry(1, l=500.0)]}
        assert clear_mot(gt, dump).fp == 0
        assert clear_mot(gt, dump, ignore_unconsidered=False).fp == 1

    def test_unconsidered_not_counted_as_gt(self):
        gt = [gt_box(1, 1), gt_box(1, 2, l=500.0, considered=False)]
        result = clear_mot(gt, {})
        assert result.num_gt == 1
        assert result.fn == 1

    def test_mota_none_without_gt(self):
        result = clear_mot([], {1: [pred_entry(1)]})
        assert result.mota is None
        assert result.fp == 1


class TestIdf1:
    def test_perfect(self):
        gt = linear_gt(1, range(1, 11))
        result = idf1(gt, dump_from_gt(gt))
        assert result.idf1 == 1.0
        assert result.idtp == 10

    def test_split_identity(self):
        gt = linear_gt(1, range(1, 11))
        dump = {
            1: [pred_entry(g.frame, *g.box.tlwh()) for g in gt[:5]],
            2: [pred_entry(g.frame, *g.box.tlwh()) for g in gt[5:]],
        }
        result = idf1(gt, dump)
        assert (result.idtp, result.idfp, result.idfn) == (5, 5, 5)
        assert result.idf1 == pytest.approx(0.5)

    def test_one_identity_covering_two_objects(self):
        gt = linear_gt(1, range(1, 11)) + linear_gt(2, range(11, 21))
        dump = {7: [pred_entry(g.frame, *g.box.tlwh()) for g in gt]}
        result = idf1(gt, dump)
        weights = np.array([[10.0], [10.0]])
        assert result.idtp == max_weight_matching_enum(weights)
        assert result.idf1 == pytest.approx(0.5)

    def test_label_permutation_invariance(self):
        gt = linear_gt(1, range(1, 8)) + linear_gt(2, range(1, 8), x0=300.0)
        a = evaluate(gt, dump_from_gt(gt, track_ids={1: 1, 2: 2}))
        b = evaluate(gt, dump_from_gt(gt, track_ids={1: 9, 2: 4}))
        assert (a.mota, a.idf1, a.fp, a.fn, a.ids) == (b.mota, b.idf1, b.fp, b.fn, b.ids)

    def test_prefers_weight_over_cardinality(self):
        # one strong pairing outweighs two weak ones: matching gt1 with
        # pred1 (weight 10) beats the cardinality-2 matching worth 2
        weights = np.array([[10, 1], [1, 0]])
        gt, dump = identity_graph(weights)
        result = idf1(gt, dump)
        assert result.idtp == 10
        assert result.idtp == max_weight_matching_enum(weights)

    def test_matches_enumeration_on_random_identity_graphs(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n_gt = int(rng.integers(1, 5))
            n_pred = int(rng.integers(1, 5))
            weights = rng.integers(0, 4, size=(n_gt, n_pred))
            gt, dump = identity_graph(weights)
            result = idf1(gt, dump)
            assert result.idtp == max_weight_matching_enum(weights)

    def test_empty_inputs(self):
        result = idf1([], {})
        assert result.idf1 is None
        assert (result.idtp, result.idfp, result.idfn) == (0, 0, 0)


class TestIdf1DuplicateFrames:
    def test_duplicate_frames_rejected_upstream(self):
        # dumps with duplicate frames per id are invalid; the library relies
        # on TrackDump's strictly-increasing invariant, enforced at parse time
        from bytemot.mot_io import dump_from_rows

        with pytest.raises(ValueError):
            dump_from_rows([(1, 1, BBox(0, 0, 1, 1), 0.5), (1, 1, BBox(0, 0, 1, 1), 0.5)])


class TestAggregate:
    def test_single_sequence_identity(self):
        r = EvalResult.from_counts(1, 2, 3, 100, 90, 4, 5)
        agg = aggregate([r])
        assert agg == r

    def test_two_sequences(self):
        a = EvalResult.from_counts(1, 1, 0, 10, 8, 1, 1)
        b = EvalResult.from_counts(0, 2, 1, 10, 7, 2, 2)
        agg = aggregate([a, b])
        assert agg.mota == pytest.approx(1 - 5 / 20)
        assert agg.fp == 1 and agg.fn == 3 and agg.ids == 1

    def test_empty(self):
        agg = aggregate([])
        assert agg.mota is None
        assert agg.idf1 is None
        assert agg.num_gt == 0


class TestEvalResult:
    def test_mota_upper_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            fp, fn, ids = rng.integers(0, 30, size=3)
            num_gt = int(rng.integers(1, 50))
            r = EvalResult.from_counts(int(fp), int(fn), int(ids), num_gt, 0, 0, 0)
            assert r.mota <= 1.0
            if fp == fn == ids == 0:
                assert r.mota == 1.0


class TestIouMinValidation:
    def test_empty_inputs_still_checked(self):
        with pytest.raises(ValueError, match="iou_min"):
            evaluate([], {}, iou_min=-1)

    def test_checked_before_any_assignment(self):
        gt = [gt_box(1, 1)]
        pred = {1: [pred_entry(1, l=2.0)]}
        with pytest.raises(ValueError, match="iou_min must be in"):
            evaluate(gt, pred, iou_min=-1)

    def test_nan_rejected(self):
        gt = [gt_box(1, 1)]
        pred = {1: [pred_entry(1)]}
        for fn in (idf1, clear_mot, evaluate):
            with pytest.raises(ValueError, match="iou_min"):
                fn(gt, pred, iou_min=math.nan)

    @pytest.mark.parametrize("value", [1.0, 1.5, -1e-9])
    def test_out_of_range_rejected(self, value):
        for fn in (idf1, clear_mot, evaluate):
            with pytest.raises(ValueError, match="iou_min"):
                fn([], {}, iou_min=value)

    def test_zero_accepted(self):
        gt = [gt_box(1, 1)]
        pred = {1: [pred_entry(1, l=50.0)]}
        result = evaluate(gt, pred, iou_min=0.0)
        # at iou_min 0 every same-frame pair is a match, disjoint ones included
        assert (result.fp, result.fn, result.idtp) == (0, 0, 1)


# Boxes on a coarse grid make exact-threshold IoUs (1/2, 1/3, ...) and equal
# assignment costs common.
grid_box = st.builds(
    BBox,
    left=st.integers(0, 8).map(float),
    top=st.integers(0, 4).map(float),
    width=st.sampled_from([2.0, 4.0, 6.0]),
    height=st.sampled_from([2.0, 4.0, 6.0]),
)
iou_mins = st.one_of(
    st.just(0.0), st.just(0.5), st.just(1.0 / 3.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def sequences(draw):
    """Ground truth with ignore regions, identities that come and go, and
    predictions whose frames may lie outside the ground truth's."""
    n_frames = draw(st.integers(1, 7))
    gt = []
    for frame in range(1, n_frames + 1):
        for identity in draw(st.lists(st.sampled_from([1, 2, 3, 4, 10**12]),
                                      unique=True, max_size=4)):
            considered = draw(st.sampled_from([True, True, True, False]))
            gt.append(GtEntry(frame, identity, draw(grid_box), considered=considered))
    gt = draw(st.permutations(gt))
    pred = {}
    for track_id in draw(st.lists(st.sampled_from([-3, 0, 1, 2, 5, 10**12]),
                                  unique=True, max_size=5)):
        frames = sorted(draw(st.sets(st.integers(1, n_frames + 1), max_size=n_frames)))
        pred[track_id] = [TrackEntry(f, draw(grid_box), 0.9) for f in frames]
    return gt, pred


class TestColumnarEquivalence:
    """clear_mot, idf1 and evaluate must equal the per-object reference
    implementations exactly, matches_by_frame included, whatever the block
    and batch sizes."""

    @staticmethod
    def check(gt, pred, iou_min, ignore):
        clear = clear_mot(gt, pred, iou_min=iou_min, ignore_unconsidered=ignore)
        assert clear == ref_clear_mot(gt, pred, iou_min=iou_min, ignore_unconsidered=ignore)
        ident = idf1(gt, pred, iou_min=iou_min)
        assert ident == ref_idf1(gt, pred, iou_min=iou_min)
        assert evaluate(gt, pred, iou_min=iou_min, ignore_unconsidered=ignore) == (
            EvalResult.from_counts(clear.fp, clear.fn, clear.ids, clear.num_gt,
                                   ident.idtp, ident.idfp, ident.idfn))

    @settings(max_examples=300, deadline=None)
    @given(sequences(), iou_mins, st.booleans())
    def test_equals_reference(self, seq, iou_min, ignore):
        self.check(*seq, iou_min, ignore)

    @settings(max_examples=150, deadline=None)
    @given(sequences(), iou_mins, st.booleans(), st.integers(1, 6), st.integers(1, 4))
    def test_equals_reference_in_small_blocks(self, seq, iou_min, ignore, rows, chunk):
        with mock.patch.object(metrics, "_BLOCK_ROWS", rows), \
                mock.patch.object(metrics, "_PAIR_CHUNK", chunk):
            self.check(*seq, iou_min, ignore)


class TestFramesBeyondFloatPrecision:
    """Frames that float64 cannot tell apart (beyond 2**53) are still
    different frames: the overlap gate is keyed by frame positions."""

    BASE = 2**53

    @pytest.mark.parametrize("iou_min", [0.0, 0.5])
    def test_neighbouring_frames_never_pair(self, iou_min):
        gt = [gt_box(self.BASE, 1)]
        pred = {7: [pred_entry(self.BASE + 1)]}
        assert idf1(gt, pred, iou_min=iou_min).idtp == 0
        clear = clear_mot(gt, pred, iou_min=iou_min)
        assert (clear.fp, clear.fn) == (1, 1)
        result = evaluate(gt, pred, iou_min=iou_min)
        assert (result.idtp, result.fp, result.fn) == (0, 1, 1)

    @settings(max_examples=100, deadline=None)
    @given(sequences(), iou_mins, st.booleans(), st.integers(1, 6),
           st.sampled_from([2**53 - 3, 2**62, 2**63 - 9]))
    def test_equals_reference(self, seq, iou_min, ignore, rows, base):
        gt, pred = seq
        gt = [dataclasses.replace(g, frame=base + g.frame) for g in gt]
        pred = {t: [dataclasses.replace(e, frame=base + e.frame) for e in entries]
                for t, entries in pred.items()}
        with mock.patch.object(metrics, "_BLOCK_ROWS", rows):
            TestColumnarEquivalence.check(gt, pred, iou_min, ignore)


@st.composite
def carried_sequences(draw):
    """Ground truth and predictions whose frames mostly repeat the previous
    frame's matches, so CLEAR carries long runs of them, broken by one edit
    at a time: an identity leaves or returns, repeats within a frame, moves
    to a new track or swaps tracks with another, drifts from its track (to
    below iou_min), a spare track or an ignore region comes or goes.
    Identity k's 10 x 10 box sits at x = spacing * k (plus 1 per frame when
    moving), so at spacing 3 a row also overlaps its neighbour's track at
    IoU 7/13 >= 0.5, and the spare track overlaps identity 0's."""
    identities = [1, 2, 3, 4, 10**12][:draw(st.integers(1, 5))]
    n = len(identities)
    spacing = draw(st.sampled_from([3.0, 6.0, 12.0]))
    moving = draw(st.booleans())
    # a frame edits the scene with probability 1 / edit_every
    edit_every = draw(st.sampled_from([2, 6, 20]))
    pool = [-3, 0, 1, 2, 5, 10**12]
    present = [True] * n
    tracks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    shift = [0.0] * n
    repeated = spare = None
    ignored = False
    gt, pred = [], {}
    for frame in range(1, draw(st.integers(2, 40)) + 1):
        if frame > 1 and draw(st.integers(1, edit_every)) == 1:
            edit, k = draw(st.sampled_from(["present", "repeated", "track", "swap", "shift",
                                            "spare", "ignored"])), draw(st.integers(0, n - 1))
            if edit == "present":
                present[k] = not present[k]
            elif edit == "repeated":
                repeated = None if repeated is not None else k
            elif edit == "track" and len(pool) > n:
                tracks[k] = draw(st.sampled_from([t for t in pool if t not in tracks]))
            elif edit == "swap":
                tracks[k], tracks[k - 1] = tracks[k - 1], tracks[k]
            elif edit == "shift":
                # offsets of 0, 1, 3 and 6 give IoU 1, 9/11, 7/13 and 1/4
                shift[k] = draw(st.sampled_from([0.0, 1.0, 3.0, 6.0]))
            elif edit == "spare":
                spare = None if spare is not None else draw(st.sampled_from([7, 10**12 + 1]))
            elif edit == "ignored":
                ignored = not ignored
        drift = frame if moving else 0.0
        for k, identity in enumerate(identities):
            if present[k] or k == repeated:
                left = spacing * k + drift
                gt.append(GtEntry(frame, identity, BBox(left, 0.0, 10.0, 10.0)))
                if k == repeated:
                    gt.append(GtEntry(frame, identity, BBox(left + 1.0, 0.0, 10.0, 10.0)))
                pred.setdefault(tracks[k], []).append(
                    TrackEntry(frame, BBox(left + shift[k], 0.0, 10.0, 10.0), 0.9))
        if spare is not None:
            pred.setdefault(spare, []).append(TrackEntry(frame, BBox(drift, 0.5, 10.0, 10.0), 0.9))
        if ignored:
            gt.append(GtEntry(frame, 99, BBox(drift, 1.0, 10.0, 10.0), considered=False))
    return draw(st.permutations(gt)), pred


class TestCarriedRuns:
    """clear_mot settles runs of frames that carry every match in one array
    pass; the counts and matches_by_frame must equal the reference's, and on
    a steady crowd nearly every frame must go that way."""

    @settings(max_examples=300, deadline=None)
    @given(carried_sequences(), iou_mins, st.booleans(), st.integers(1, 3),
           st.sampled_from([4, 9, 16, 64, 1 << 12]))
    def test_equals_reference(self, seq, iou_min, ignore, run_rows, block_rows):
        with mock.patch.object(metrics, "_RUN_ROWS", run_rows), \
                mock.patch.object(metrics, "_BLOCK_ROWS", block_rows):
            TestColumnarEquivalence.check(*seq, iou_min, ignore)

    def test_missing_identity_beside_a_spare_track_ends_the_run(self):
        # frame 4 holds as many predictions as the state has matches, but
        # one ground-truth row fewer: identity 2 and its track are away, the
        # spare track is a false positive, and frame 5's rows must not fill
        # the gap
        gt = [gt_box(f, i, l=20.0 * i) for f in (1, 2, 3) for i in (1, 2)]
        gt += [gt_box(4, 1, l=20.0), gt_box(5, 2, l=40.0), gt_box(5, 1, l=20.0)]
        pred = {
            10: [pred_entry(f, l=20.0) for f in range(1, 6)],
            20: [pred_entry(f, l=40.0) for f in (1, 2, 3, 5)],
            30: [pred_entry(4, l=100.0)],
        }
        with mock.patch.object(metrics, "_RUN_ROWS", 1):
            result = clear_mot(gt, pred)
        assert (result.fp, result.fn, result.ids) == (1, 0, 0)
        assert result == ref_clear_mot(gt, pred)

    @pytest.fixture(scope="class")
    def steady_crowd(self):
        return crowd(200, 400)

    def test_settles_nearly_every_crowd_frame(self, steady_crowd):
        gt, dump = steady_crowd
        settled = []
        real = metrics._carried_run

        def spy(*args):
            settled.append(real(*args))
            return settled[-1]

        with mock.patch.object(metrics, "_carried_run", spy):
            result = clear_mot(gt, dump)
            counts = evaluate(gt, dump)
        frames = len(result.matches_by_frame)
        assert frames == 400
        # under evaluate and in a direct call alike
        assert sum(settled) >= 2 * 0.99 * frames
        assert (counts.fp, counts.fn, counts.ids) == (result.fp, result.fn, result.ids)
        assert result == ref_clear_mot(gt, dump)
        # every frame has its own list
        assert len(set(map(id, result.matches_by_frame.values()))) == frames


class TestIntegerRange:
    """Frames and identities are indexed as int64 columns; larger ones are a
    ValueError, not an OverflowError."""

    @pytest.mark.parametrize("fn", [clear_mot, idf1, evaluate])
    def test_huge_ground_truth_frame(self, fn):
        with pytest.raises(ValueError, match="ground-truth frame"):
            fn([gt_box(10**19, 1)], {1: [pred_entry(1)]})

    @pytest.mark.parametrize("fn", [clear_mot, idf1, evaluate])
    def test_huge_ground_truth_identity(self, fn):
        with pytest.raises(ValueError, match="ground-truth identity"):
            fn([gt_box(1, -(10**19))], {1: [pred_entry(1)]})

    @pytest.mark.parametrize("fn", [clear_mot, idf1, evaluate])
    def test_huge_predicted_frame(self, fn):
        with pytest.raises(ValueError, match="predicted frame"):
            fn([gt_box(1, 1)], {1: [pred_entry(10**19)]})


def crowd(agents, frames):
    """A synthetic timing crowd and the tracker's dump of it."""
    gt, dets = synth.generate(synth.timing_config(agents=agents, frames=frames))
    dump, _ = run_tracker(dets, TrackerConfig())
    return gt, dump


class TestSharedPass:
    """evaluate reads and gates each frame block once: clear_mot keeps the
    blocks' tables on the shared index for idf1 and builds no trace there,
    and nothing of that outlives the evaluate call."""

    @pytest.fixture(scope="class")
    def seq(self):
        gt, dump = crowd(12, 25)
        # an ignore region, so ignored boxes are read as well
        gt.append(gt_box(3, 99, l=5000.0, considered=False))
        return gt, dump

    @pytest.fixture(autouse=True)
    def small_blocks(self):
        with mock.patch.object(metrics, "_BLOCK_ROWS", 64):
            yield

    @staticmethod
    def n_blocks(gt, pred):
        return sum(1 for _ in metrics._Index(gt, pred).blocks())

    @pytest.mark.parametrize("iou_min", [0.0, 0.5])
    def test_calls_clear_mot_and_idf1_once_through_the_module(self, seq, iou_min):
        with mock.patch.object(metrics, "clear_mot", wraps=metrics.clear_mot) as clear, \
                mock.patch.object(metrics, "idf1", wraps=metrics.idf1) as ident:
            metrics.evaluate(*seq, iou_min=iou_min)
        assert clear.call_count == 1 and ident.call_count == 1

    @pytest.mark.parametrize("iou_min", [0.3, 0.5, 0.7])
    def test_each_block_read_and_gated_once(self, seq, iou_min):
        n_blocks = self.n_blocks(*seq)
        assert n_blocks > 5
        with mock.patch.object(metrics, "_overlaps", wraps=metrics._overlaps) as gate, \
                mock.patch.object(metrics, "_Block", wraps=metrics._Block) as block:
            result = metrics.evaluate(*seq, iou_min=iou_min)
        assert gate.call_count == n_blocks
        assert block.call_count == n_blocks
        gt, dump = seq
        assert result == EvalResult.from_counts(
            *dataclasses.astuple(ref_clear_mot(gt, dump, iou_min=iou_min))[:4],
            *dataclasses.astuple(ref_idf1(gt, dump, iou_min=iou_min))[1:])

    def test_iou_min_zero_still_lists_every_pair(self, seq):
        # idf1 reads the blocks again for the disjoint pairs, and gates none
        n_blocks = self.n_blocks(*seq)
        with mock.patch.object(metrics, "_overlaps", wraps=metrics._overlaps) as gate, \
                mock.patch.object(metrics, "_Block", wraps=metrics._Block) as block:
            metrics.evaluate(*seq, iou_min=0.0)
        assert gate.call_count == n_blocks
        assert block.call_count == 2 * n_blocks

    def test_iou_min_zero_reads_no_block_boxes(self, seq):
        # all_pairs needs only the frame columns; _edges still reads the
        # ignore regions once, and clear_mot's blocks under evaluate
        gt, dump = seq
        n_blocks = self.n_blocks(gt, dump)
        with mock.patch.object(metrics, "_edges", wraps=metrics._edges) as edges:
            assert idf1(gt, dump, iou_min=0.0) == ref_idf1(gt, dump, iou_min=0.0)
        assert edges.call_count == 1
        with mock.patch.object(metrics, "_edges", wraps=metrics._edges) as edges:
            metrics.evaluate(gt, dump, iou_min=0.0)
        assert edges.call_count == 1 + 2 * n_blocks

    @pytest.mark.parametrize("iou_min, kept", [(0.0, False), (0.5, True)])
    def test_tables_kept_only_when_idf1_reads_them(self, seq, iou_min, kept):
        # at iou_min 0 idf1 lists every pair, so clear_mot keeps no table
        seen = []
        real_idf1 = metrics.idf1

        def spy(gt, pred, iou_min=0.5):
            seen.append(metrics._shared_index.get().tables is not None)
            return real_idf1(gt, pred, iou_min=iou_min)

        gt, dump = seq
        with mock.patch.object(metrics, "idf1", spy):
            result = metrics.evaluate(gt, dump, iou_min=iou_min)
        assert seen == [kept]
        assert result == EvalResult.from_counts(
            *dataclasses.astuple(ref_clear_mot(gt, dump, iou_min=iou_min))[:4],
            *dataclasses.astuple(ref_idf1(gt, dump, iou_min=iou_min))[1:])

    def test_direct_clear_mot_after_evaluate_has_full_trace(self, seq):
        gt, dump = seq
        expected = ref_clear_mot(gt, dump)
        assert len(expected.matches_by_frame) == 25
        metrics.evaluate(gt, dump)
        assert metrics._shared_index.get() is None
        assert clear_mot(gt, dump) == expected

    def test_nothing_survives_a_failed_evaluate(self, seq):
        gt, dump = seq
        seen = []

        def failing_idf1(gt, pred, iou_min=0.5):
            index = metrics._shared_index.get()
            seen.append((index.shared, index.tables is not None))
            raise RuntimeError("idf1 failed")

        with mock.patch.object(metrics, "idf1", failing_idf1):
            with pytest.raises(RuntimeError, match="idf1 failed"):
                metrics.evaluate(gt, dump)
        # idf1 ran on the shared index after clear_mot had kept its tables
        assert seen == [(True, True)]
        assert metrics._shared_index.get() is None
        assert clear_mot(gt, dump) == ref_clear_mot(gt, dump)
        assert idf1(gt, dump) == ref_idf1(gt, dump)

    def test_idf1_alone_on_the_shared_index_gates_the_blocks(self, seq):
        # a shared index whose tables clear_mot has not kept yet
        gt, dump = seq
        index = metrics._Index(gt, dump, shared=True)
        token = metrics._shared_index.set(index)
        try:
            assert idf1(gt, dump) == ref_idf1(gt, dump)
        finally:
            metrics._shared_index.reset(token)


def test_evaluate_memory_peak():
    """tracemalloc peak of one evaluate of a 200-agent x 120-frame timing
    crowd. Measured on Python 3.11.7 with numpy 2.4.6, also under -X dev:
    4.674 MiB when clear_mot built the matches_by_frame evaluate discards and
    idf1 read every block again, 3.600 MiB with the shared pass. The bound
    lies between the two."""
    gt, dump = crowd(200, 120)
    metrics.evaluate(gt, dump)  # first-call allocations are not the evaluate's
    tracemalloc.start()
    try:
        metrics.evaluate(gt, dump)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.1 * 2**20
