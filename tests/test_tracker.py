from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytemot.cli import run_tracker
from bytemot.geometry import BOX_LIMIT, BOX_MIN, BBox, Detection
from bytemot.kalman import KalmanFilter
from bytemot.synth import ablation_corpus, generate
from bytemot import tracker as tracker_module
from bytemot.tracker import (
    ByteTracker,
    Mode,
    TrackerConfig,
    TrackOutput,
    TrackState,
)
from oracles import RefByteTracker, cov_blocks, split_by_score


def det(frame, l, t, w, h, score):
    return Detection(frame=frame, box=BBox(l, t, w, h), score=score)


def run_stream(stream, **cfg_kwargs):
    """stream: list of detection lists, one per frame starting at 1."""
    tracker = ByteTracker(TrackerConfig(**cfg_kwargs))
    results = []
    for frame, dets in enumerate(stream, start=1):
        results.append(tracker.step(frame, dets))
    return tracker, results


class TestConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            TrackerConfig(tau_high=0.3, tau_low=0.3)
        with pytest.raises(ValueError):
            TrackerConfig(lost_ttl=-1)

    def test_mode_accepts_strings(self):
        assert TrackerConfig(mode="single").mode is Mode.SINGLE

    def test_nan_init_score_margin_rejected(self):
        # NaN passes a `< 0` check, and the tracker would then start no track
        with pytest.raises(ValueError, match="init_score_margin"):
            TrackerConfig(init_score_margin=float("nan"))

    def test_fractional_lost_ttl_rejected(self):
        with pytest.raises(ValueError, match="lost_ttl"):
            TrackerConfig(lost_ttl=1.5)

    def test_bool_lost_ttl_rejected(self):
        with pytest.raises(ValueError, match="lost_ttl"):
            TrackerConfig(lost_ttl=True)


class TestSplitByScore:
    def test_boundaries(self):
        cfg = TrackerConfig()
        dets = [det(1, 10 * i, 0, 5, 5, s) for i, s in enumerate([0.9, 0.61, 0.6, 0.3, 0.05])]
        high, low = split_by_score(dets, cfg)
        assert [d.score for d in high] == [0.9, 0.61]
        assert [d.score for d in low] == [0.6, 0.3]

    def test_all_high(self):
        cfg = TrackerConfig()
        dets = [det(1, 0, 0, 5, 5, 0.7), det(1, 10, 0, 5, 5, 0.8)]
        high, low = split_by_score(dets, cfg)
        assert len(high) == 2 and low == []

    def test_empty(self):
        assert split_by_score([], TrackerConfig()) == ([], [])

    def test_zero_floor_keeps_every_sub_threshold_detection(self):
        # tau_low=0 recovers the plain two-way split: nothing is discarded
        cfg = TrackerConfig(tau_low=0.0)
        dets = [det(1, 10 * i, 0, 5, 5, s) for i, s in enumerate([0.9, 0.6, 0.05, 0.0])]
        high, low = split_by_score(dets, cfg)
        assert [d.score for d in high] == [0.9]
        assert [d.score for d in low] == [0.6, 0.05, 0.0]

    @pytest.mark.parametrize("tau_low, tau_high", [(0.1, 0.6), (0.0, 0.6), (0.0, 1.0), (0.3, 0.31)])
    def test_step_counts_equal_the_split_at_the_band_edges(self, tau_low, tau_high):
        cfg = TrackerConfig(tau_low=tau_low, tau_high=tau_high)
        edges = [tau_high, tau_low, np.nextafter(tau_high, 2.0), np.nextafter(tau_high, -1.0),
                 np.nextafter(tau_low, 2.0), np.nextafter(tau_low, -1.0), 0.0, 0.5, 1.0]
        scores = [float(s) for s in edges if 0.0 <= s <= 1.0]
        dets = [det(1, 10 * i, 0, 5, 5, s) for i, s in enumerate(scores * 2)]
        tracker = ByteTracker(cfg)
        tracker.step(1, dets)
        high, low = split_by_score(dets, cfg)
        s = tracker.last_stats
        assert (s.n_high, s.n_low, s.n_below_floor) == (
            len(high), len(low), len(dets) - len(high) - len(low))
        assert s.n_high == s.n_new_tracks + s.n_births_suppressed


class TestStepBasics:
    def test_frame_must_increase(self):
        tracker = ByteTracker()
        tracker.step(1, [])
        with pytest.raises(ValueError):
            tracker.step(1, [])

    def test_detection_frame_must_match(self):
        tracker = ByteTracker()
        with pytest.raises(ValueError):
            tracker.step(2, [det(1, 0, 0, 5, 5, 0.9)])

    @pytest.mark.parametrize("frame", [1.5, 2.0, True, np.float64(3.0)])
    def test_non_integer_frame_rejected(self, frame):
        with pytest.raises(ValueError, match="frame index must be an integer"):
            ByteTracker().step(frame, [])

    def test_non_integer_frame_rejected_after_live_track(self):
        tracker = ByteTracker()
        tracker.step(1, [det(1, 0, 0, 5, 5, 0.9)])
        with pytest.raises(ValueError, match="2.5"):
            tracker.step(2.5, [])
        assert [t.last_frame for t in tracker.tracks] == [1]

    def test_numpy_integer_frames_accepted(self):
        tracker = ByteTracker()
        tracker.step(np.int64(1), [det(1, 0, 0, 5, 5, 0.9)])
        out = tracker.step(np.int32(2), [det(np.int64(2), 0, 0, 5, 5, 0.9)])
        assert [o.track_id for o in out.outputs] == [1]

    @pytest.mark.parametrize("box", [
        (-BOX_LIMIT, -BOX_LIMIT, BOX_MIN, BOX_MIN),
        (BOX_LIMIT - BOX_MIN, BOX_LIMIT - BOX_MIN, BOX_MIN, BOX_MIN),
        (0.0, 0.0, BOX_LIMIT, BOX_MIN),
        (0.0, 0.0, BOX_MIN, BOX_LIMIT),
        (-BOX_LIMIT, BOX_LIMIT - BOX_MIN, BOX_LIMIT, BOX_MIN),
        (BOX_LIMIT - BOX_MIN, -BOX_LIMIT, BOX_MIN, BOX_LIMIT),
    ])
    def test_stationary_extreme_box_keeps_identity(self, box):
        # the smallest sizes at the largest coordinates still span many float
        # steps, so a box that does not move stays matched
        with np.errstate(all="raise"):
            _, results = run_stream([[det(f, *box, 0.9)] for f in range(1, 6)])
        assert [[o.track_id for o in r.outputs] for r in results] == [[1]] * 5

    def test_birth_and_emit(self):
        _, results = run_stream([[det(1, 10, 10, 20, 40, 0.9)]])
        assert len(results[0].outputs) == 1
        out = results[0].outputs[0]
        assert out.track_id == 1
        assert out.box == BBox(10, 10, 20, 40)
        assert out.score == 0.9

    def test_emit_on_birth_off_delays_first_output(self):
        stream = [
            [det(1, 10, 10, 20, 40, 0.9)],
            [det(2, 11, 10, 20, 40, 0.9)],
        ]
        _, results = run_stream(stream, emit_on_birth=False)
        assert results[0].outputs == []
        assert [o.track_id for o in results[1].outputs] == [1]

    def test_init_score_margin_raises_birth_bar(self):
        stream = [[det(1, 10, 10, 20, 40, 0.65)]]
        tracker, results = run_stream(stream, init_score_margin=0.1)
        assert results[0].outputs == []
        assert tracker.last_stats.n_births_suppressed == 1
        assert tracker.last_stats.n_new_tracks == 0


class TestTwoFrameScoreDrop:
    """A confident detection followed by the same box at score 0.4."""

    STREAM = [
        [det(1, 100, 100, 40, 80, 0.9)],
        [det(2, 100, 100, 40, 80, 0.4)],
    ]

    def test_byte_recovers_in_second_stage(self):
        tracker, results = run_stream(self.STREAM, mode="byte")
        assert [o.track_id for o in results[1].outputs] == [1]
        assert tracker.last_stats.n_second_matches == 1

    def test_single_stage_loses_the_track(self):
        tracker, results = run_stream(self.STREAM, mode="single")
        assert results[1].outputs == []
        assert tracker.tracks[0].state is TrackState.LOST


class TestOcclusionDecayScenario:
    """Stationary box whose score decays 0.8 -> 0.4 -> 0.1 plus a background
    box at 0.35 that overlaps no track prediction."""

    STREAM = [
        [det(1, 100, 100, 40, 80, 0.8), det(1, 300, 50, 30, 60, 0.35)],
        [det(2, 100, 100, 40, 80, 0.4), det(2, 300, 50, 30, 60, 0.35)],
        [det(3, 100, 100, 40, 80, 0.1), det(3, 300, 50, 30, 60, 0.35)],
    ]

    def test_byte_keeps_identity_and_drops_background(self):
        _, results = run_stream(self.STREAM, mode="byte")
        for r in results:
            assert [o.track_id for o in r.outputs] == [1]
            assert all(o.box.left == 100 for o in r.outputs)

    def test_single_emits_only_first_frame(self):
        _, results = run_stream(self.STREAM, mode="single")
        assert [len(r.outputs) for r in results] == [1, 0, 0]


class TestRebirth:
    def test_lost_track_reclaims_identity_within_ttl(self):
        box = dict(l=50, t=50, w=30, h=60)
        stream = [[det(1, 50, 50, 30, 60, 0.9)]]
        stream += [[] for _ in range(10)]
        stream += [[det(12, 50, 50, 30, 60, 0.9)]]
        tracker, results = run_stream(stream)
        assert [o.track_id for o in results[-1].outputs] == [1]
        assert tracker.tracks[0].state is TrackState.TRACKED

    def test_expired_track_gets_new_identity(self):
        stream = [[det(1, 50, 50, 30, 60, 0.9)]]
        stream += [[] for _ in range(31)]
        stream += [[det(33, 50, 50, 30, 60, 0.9)]]
        _, results = run_stream(stream)
        assert [o.track_id for o in results[-1].outputs] == [2]

    def test_all_tracks_removed_after_ttl_of_empty_frames(self):
        stream = [
            [det(1, 50, 50, 30, 60, 0.9), det(1, 200, 50, 30, 60, 0.9)]
        ] + [[] for _ in range(31)]
        tracker, results = run_stream(stream)
        assert tracker.tracks == []
        assert all(r.outputs == [] for r in results[1:])

    def test_lost_ttl_zero_removes_immediately(self):
        stream = [[det(1, 50, 50, 30, 60, 0.9)], []]
        tracker, _ = run_stream(stream, lost_ttl=0)
        assert tracker.tracks == []


class TestFrameGaps:
    @staticmethod
    def lifecycle_run(frames, skip_empty, **cfg_kwargs):
        """Two boxes moving +10 px/frame, detected on the given frames; frames
        without detections are either fed empty or skipped."""
        tracker = ByteTracker(TrackerConfig(**cfg_kwargs))
        outputs, lost, removed = [], 0, 0
        for frame in range(1, max(frames) + 1):
            if frame not in frames and skip_empty:
                continue
            dets = []
            if frame in frames:
                dets = [det(frame, 10 * frame, 0, 20, 40, 0.9),
                        det(frame, 10 * frame, 300, 20, 40, 0.9)]
            result = tracker.step(frame, dets)
            outputs.append([(o.track_id, o.box) for o in result.outputs])
            lost += tracker.last_stats.n_lost
            removed += tracker.last_stats.n_removed
        return [o for o in outputs if o], lost, removed

    @pytest.mark.parametrize("frames", [
        {1, 2, 3, 4, 5, 10},       # short gap: the identity carries over
        {1, 2, 3, 40},             # gap past lost_ttl: tracks are removed
        {1, 2, 3, 8, 9, 25, 70},   # several gaps
    ])
    def test_gap_equals_feeding_empty_frames(self, frames):
        assert self.lifecycle_run(frames, True) == self.lifecycle_run(frames, False)

    def test_moving_box_keeps_identity_across_gap(self):
        outputs, lost, removed = self.lifecycle_run({1, 2, 3, 4, 5, 10}, True)
        assert [tid for tid, _ in outputs[-1]] == [1, 2]
        assert (lost, removed) == (2, 0)


class TestInvariants:
    @staticmethod
    def random_recoverable_stream(rng, frames=25, objects=4):
        """Well-separated objects, always detected, scores above tau_low,
        first frame confident so both modes initialize every track."""
        stream = []
        centers = [(120.0 + 240.0 * i, 120.0) for i in range(objects)]
        vels = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(objects)]
        for f in range(1, frames + 1):
            dets = []
            for i in range(objects):
                cx = centers[i][0] + vels[i][0] * (f - 1)
                cy = centers[i][1] + vels[i][1] * (f - 1)
                score = 0.9 if f == 1 else float(rng.uniform(0.15, 0.95))
                dets.append(det(f, cx - 15, cy - 30, 30, 60, score))
            stream.append(dets)
        return stream

    def test_byte_emits_at_least_as_many_as_single(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            stream = self.random_recoverable_stream(rng)
            _, byte_results = run_stream(stream, mode="byte")
            _, single_results = run_stream(stream, mode="single")
            for b, s in zip(byte_results, single_results):
                assert len(b.outputs) >= len(s.outputs)

    def test_ids_never_reused_and_outputs_pure(self):
        rng = np.random.default_rng(78)
        stream = self.random_recoverable_stream(rng, frames=40)
        # drop random frames entirely to force losses and rebirths
        stream = [dets if rng.random() > 0.2 else [] for dets in stream]
        tracker = ByteTracker()
        seen_ids = set()
        max_id = 0
        for frame, dets in enumerate(stream, start=1):
            result = tracker.step(frame, dets)
            live_states = {t.id: t.state for t in tracker.tracks}
            for out in result.outputs:
                assert live_states[out.track_id] is TrackState.TRACKED
            new_ids = {o.track_id for o in result.outputs} - seen_ids
            for nid in new_ids:
                assert nid > max_id
                max_id = max(max_id, nid)
            seen_ids |= new_ids

    def test_detection_partition(self):
        rng = np.random.default_rng(79)
        stream = self.random_recoverable_stream(rng, frames=30)
        for dets in stream:
            # sprinkle sub-floor and background detections
            f = dets[0].frame
            dets.append(det(f, 900, 400, 10, 10, 0.05))
            dets.append(det(f, 950, 400, 10, 10, 0.3))
        tracker = ByteTracker()
        for frame, dets in enumerate(stream, start=1):
            tracker.step(frame, dets)
            s = tracker.last_stats
            assert s.n_high + s.n_low + s.n_below_floor == s.n_dets
            assert (
                s.n_first_matches
                + s.n_new_tracks
                + s.n_births_suppressed
                == s.n_high
            )
            assert s.n_second_matches + s.n_low_discarded == s.n_low

    def test_deterministic_under_input_shuffling(self):
        rng = np.random.default_rng(80)
        stream = self.random_recoverable_stream(rng, frames=20)

        def run(order_rng):
            tracker = ByteTracker()
            trace = []
            for frame, dets in enumerate(stream, start=1):
                shuffled = list(dets)
                order_rng.shuffle(shuffled)
                result = tracker.step(frame, shuffled)
                trace.append([(o.track_id, o.box, o.score) for o in result.outputs])
            return trace

        baseline = run(np.random.default_rng(1))
        for seed in (2, 3, 4):
            assert run(np.random.default_rng(seed)) == baseline

    def test_track_records_first_and_last_matched_frame(self):
        stream = [
            [det(1, 10, 10, 20, 40, 0.9)],
            [det(2, 12, 10, 20, 40, 0.7)],
            [],
        ]
        tracker, _ = run_stream(stream)
        (track,) = tracker.tracks
        assert (track.id, track.start_frame, track.last_frame) == (1, 1, 2)
        assert track.state is TrackState.LOST
        assert track.score == 0.7


class TestSecondStageTrackedOnly:
    def test_lost_tracks_excluded_when_enabled(self):
        # track goes lost on frame 2; on frame 3 a low-score box appears at
        # its prediction and may only match when lost tracks are eligible
        stream = [
            [det(1, 100, 100, 40, 80, 0.9)],
            [],
            [det(3, 100, 100, 40, 80, 0.4)],
        ]
        _, results = run_stream(stream, second_stage_tracked_only=True)
        assert results[2].outputs == []
        _, results = run_stream(stream, second_stage_tracked_only=False)
        assert [o.track_id for o in results[2].outputs] == [1]


@st.composite
def detection_streams(draw):
    """A random detection stream as (frame, detections) pairs with gaps and
    empty frames, plus tracker options covering every lifecycle switch."""
    cfg = dict(
        mode=draw(st.sampled_from(["byte", "single"])),
        second_stage_tracked_only=draw(st.booleans()),
        emit_on_birth=draw(st.booleans()),
        init_score_margin=draw(st.sampled_from([0.0, 0.0, 0.1, 0.3])),
        lost_ttl=draw(st.sampled_from([0, 1, 2, 5, 30])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_objects = draw(st.integers(0, 8))
    n_frames = draw(st.integers(1, 30))
    miss = draw(st.sampled_from([0.0, 0.2, 0.5]))
    clutter = draw(st.sampled_from([0.0, 0.5, 2.0]))
    pos = rng.uniform(0, 300, (n_objects, 2))
    vel = rng.uniform(-6, 6, (n_objects, 2))
    size = rng.uniform(10, 60, (n_objects, 2))
    scores = [0.05, 0.1, 0.3, 0.5, 0.6, 0.65, 0.7, 0.9, 1.0]
    frame, stream = 0, []
    for _ in range(n_frames):
        frame += int(rng.choice([1, 1, 1, 2, 4]))
        dets = []
        if rng.random() > 0.15:  # otherwise an empty frame
            for (x, y), (vx, vy), (w, h) in zip(pos, vel, size):
                if rng.random() >= miss:
                    jitter = rng.normal(0, 2, 2)
                    dets.append(Detection(frame, BBox(
                        x + vx * frame + jitter[0], y + vy * frame + jitter[1], w, h,
                    ), float(rng.choice(scores))))
            for _ in range(rng.poisson(clutter)):
                l, t = rng.uniform(0, 400, 2)
                dets.append(Detection(frame, BBox(l, t, *rng.uniform(5, 60, 2)),
                                      float(rng.choice(scores))))
        stream.append((frame, dets))
    return cfg, stream


class TestTableEquivalence:
    """The track table against the object-per-track tracker it replaced
    (tests/oracles.py): same results, statistics, snapshots and Kalman
    beliefs, bit for bit, on every frame. The table keeps the per-axis
    covariance blocks, compared with the reference's 8x8 at the block
    positions; cov_blocks asserts the rest of it is exactly 0.0."""

    @settings(max_examples=150, deadline=None)
    @given(detection_streams())
    def test_matches_object_tracker(self, case):
        cfg, stream = case
        tracker = ByteTracker(TrackerConfig(**cfg))
        ref = RefByteTracker(TrackerConfig(**cfg))
        for frame, dets in stream:
            assert tracker.step(frame, dets) == ref.step(frame, dets)
            assert tracker.last_stats == ref.last_stats
            assert [
                (t.id, t.state.value, t.score, t.start_frame, t.last_frame)
                for t in tracker.tracks
            ] == [
                (t.id, t.state.value, t.score, t.start_frame, t.last_frame)
                for t in ref.tracks
            ]
            live = ref.tracks
            mean = np.stack([t.motion.mean for t in live]) if live else np.empty((0, 8))
            cov = np.stack([t.motion.cov for t in live]) if live else np.empty((0, 8, 8))
            assert tracker._motion.mean.tobytes() == mean.tobytes()
            assert tracker._motion.cov.tobytes() == cov_blocks(cov).tobytes()

    def test_emitted_boxes_are_the_detections_own(self):
        d1 = det(1, 10, 10, 20, 40, 0.9)
        d2 = det(2, 12, 10, 20, 40, 0.7)
        tracker, results = run_stream([[d1], [d2]])
        assert results[0].outputs[0].box is d1.box
        assert results[1].outputs[0].box is d2.box


def transformed(dets, scale=1.0, dx=0.0, dy=0.0):
    """The detections with every box scaled about the origin, then shifted."""
    return [
        Detection(d.frame, BBox(
            d.box.left * scale + dx, d.box.top * scale + dy,
            d.box.width * scale, d.box.height * scale,
        ), d.score)
        for d in dets
    ]


def identities(dump):
    return sorted((e.frame, track_id) for track_id, entries in dump.items() for e in entries)


@pytest.fixture(scope="module")
def corpus_runs():
    """Each ablation corpus sequence's detections with its identities in
    both modes at the default thresholds."""
    runs = []
    for _, scenario in ablation_corpus():
        _, dets = generate(scenario)
        ids = {mode: identities(run_tracker(dets, TrackerConfig(mode=mode))[0])
               for mode in Mode}
        runs.append((dets, ids))
    return runs


class TestMetamorphic:
    """Emitted identities do not depend on the image's scale or origin."""

    @settings(max_examples=60, deadline=None)
    @given(detection_streams(), st.sampled_from([2.0, 0.5, 4.0]))
    def test_power_of_two_scale_keeps_identities(self, case, scale):
        # power-of-two scales are exact through IoU, the sort key and the
        # filter, so every decision is the same
        cfg, stream = case
        plain, scaled = ByteTracker(TrackerConfig(**cfg)), ByteTracker(TrackerConfig(**cfg))
        for frame, dets in stream:
            want = [o.track_id for o in plain.step(frame, dets).outputs]
            got = [o.track_id for o in scaled.step(frame, transformed(dets, scale)).outputs]
            assert got == want

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "scale, dx, dy",
        [(3.0, 0.0, 0.0), (1.7, 13.1, 5.3), (1.0, 1024.0, -512.0), (1.0, 0.3, 0.7)],
    )
    def test_corpus_identities_survive_inexact_transforms(self, corpus_runs, mode, scale, dx, dy):
        # these transforms round, so this pins the ten corpus sequences as
        # examples rather than claiming a property
        for dets, ids in corpus_runs:
            dump, _ = run_tracker(transformed(dets, scale, dx, dy), TrackerConfig(mode=mode))
            assert identities(dump) == ids[mode]


@st.composite
def extreme_streams(draw):
    """A stream at the edges of what the API accepts: a few boxes at
    +-BOX_LIMIT and BOX_MIN (and ordinary ones), seen again with small shifts
    so tracks form and update, scores at tau_low and tau_high, frame gaps up
    to past lost_ttl, and empty frames."""
    tau_low = draw(st.sampled_from([0.0, 0.1, 0.5]))
    tau_high = draw(st.sampled_from([tau_low + 0.1, 0.6, 1.0]))
    cfg = dict(tau_low=tau_low, tau_high=tau_high,
               mode=draw(st.sampled_from(["byte", "single"])),
               lost_ttl=draw(st.sampled_from([0, 2, 30])))
    edge = st.sampled_from([-BOX_LIMIT, -1e6, -1.0, 0.0, 1.0, 1e6, BOX_LIMIT])
    coord = st.one_of(edge, st.floats(-BOX_LIMIT, BOX_LIMIT))
    size = st.one_of(st.sampled_from([BOX_MIN, 2 * BOX_MIN, 1.0, 30.0, 1e6, BOX_LIMIT]),
                     st.floats(BOX_MIN, BOX_LIMIT))
    pool = draw(st.lists(st.tuples(coord, coord, size, size), min_size=1, max_size=4))
    score = st.one_of(st.sampled_from([0.0, tau_low, tau_high, 1.0]), st.floats(0.0, 1.0))
    shift = st.sampled_from([0.0, 0.0, BOX_MIN, -BOX_MIN, 1.0, -3.0])
    frame, stream = 0, []
    for gap, picks in draw(st.lists(st.tuples(
            st.sampled_from([1, 1, 1, 2, 40]),
            st.lists(st.tuples(st.integers(0, len(pool) - 1), score, shift), max_size=5)),
            min_size=1, max_size=12)):
        frame += gap
        dets = []
        for i, s, dx in picks:
            left, top, width, height = pool[i]
            left = min(max(left + dx, -BOX_LIMIT), BOX_LIMIT)
            dets.append(Detection(frame, BBox(left, top, width, height), s))
        stream.append((frame, dets))
    return cfg, stream


class TestStepContract:
    """For every input the API accepts, step raises no floating-point error,
    and its outputs honour the contract."""

    @settings(max_examples=200, deadline=None)
    @given(extreme_streams())
    def test_accepted_input_gives_finite_unique_partitioned_output(self, case):
        cfg, stream = case
        tracker = ByteTracker(TrackerConfig(**cfg))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for frame, dets in stream:
                result = tracker.step(frame, dets)
                ids = [o.track_id for o in result.outputs]
                assert len(set(ids)) == len(ids)
                for out in result.outputs:
                    assert np.isfinite([*out.box.tlwh(), out.score]).all()
                assert np.isfinite(tracker._motion.mean).all()
                assert np.isfinite(tracker._motion.cov).all()
                s = tracker.last_stats
                assert s.n_dets == len(dets)
                assert s.n_high + s.n_low + s.n_below_floor == s.n_dets
                assert s.n_first_matches + s.n_new_tracks + s.n_births_suppressed == s.n_high
                assert s.n_second_matches + s.n_low_discarded == s.n_low


class TestKalmanCallCounts:
    """Each step predicts the live tracks in one call, updates both stages'
    matches in one call and initiates its births in one call, spied through
    the class as the benchmark's tracer does."""

    def test_one_call_per_frame_for_each_operation(self):
        calls = []

        def spy(name):
            method = getattr(KalmanFilter, name)

            def wrapper(self, *args):
                result = method(self, *args)
                calls.append((name, len(result)))
                return result
            return wrapper

        rng = np.random.default_rng(81)
        stream = TestInvariants.random_recoverable_stream(rng, frames=40, objects=6)
        both_stages = 0
        with mock.patch.object(KalmanFilter, "predict_many", spy("predict_many")), \
                mock.patch.object(KalmanFilter, "update_many", spy("update_many")), \
                mock.patch.object(KalmanFilter, "initiate", spy("initiate")):
            tracker = ByteTracker()
            for frame, dets in enumerate(stream, start=1):
                live = len(tracker.tracks)
                calls.clear()
                tracker.step(frame, dets)
                s = tracker.last_stats
                by_name = {}
                for name, rows in calls:
                    by_name.setdefault(name, []).append(rows)
                assert by_name.get("predict_many") == [live]
                matched = s.n_first_matches + s.n_second_matches
                assert by_name.get("update_many", []) == ([matched] if matched else [])
                born = s.n_new_tracks
                assert by_name.get("initiate", []) == ([born] if born else [])
                both_stages += s.n_first_matches > 0 and s.n_second_matches > 0
        assert both_stages > 5


class TestFrameRead:
    """Each frame's detections are read once into one float64 array whose
    columns are BBox's own tlbr and cxcyah values, bit for bit."""

    EDGES = [-BOX_LIMIT, -(BOX_LIMIT - BOX_MIN), -1.5, -0.0, 0.0, 1 / 3, BOX_LIMIT - BOX_MIN,
             BOX_LIMIT]
    SIZES = [BOX_MIN, 2 * BOX_MIN, 1 / 3, 7.0, BOX_LIMIT]

    @staticmethod
    def assert_columns_are_the_boxes(dets):
        v = tracker_module._read(dets)
        assert v.dtype == np.float64 and v.shape == (len(dets), 9)
        tlbr = np.array([d.box.tlbr() for d in dets], dtype=float).reshape(-1, 4)
        cxcyah = np.array([d.box.cxcyah() for d in dets], dtype=float).reshape(-1, 4)
        assert v[:, :4].tobytes() == tlbr.tobytes()
        assert v[:, 4:8].tobytes() == cxcyah.tobytes()
        assert v[:, 8].tobytes() == np.array([float(d.score) for d in dets]).tobytes()

    def test_columns_at_the_box_limits(self):
        dets = [
            Detection(1, BBox(left, top, width, height), 0.5)
            for left in self.EDGES for top in (-BOX_LIMIT, -0.0, 0.0, BOX_LIMIT)
            for width in self.SIZES for height in self.SIZES
        ]
        self.assert_columns_are_the_boxes(dets)
        self.assert_columns_are_the_boxes([])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(-BOX_LIMIT, BOX_LIMIT), st.floats(-BOX_LIMIT, BOX_LIMIT),
        st.floats(BOX_MIN, BOX_LIMIT), st.floats(BOX_MIN, BOX_LIMIT), st.floats(0.0, 1.0),
    ), max_size=12))
    def test_columns_on_random_boxes(self, rows):
        self.assert_columns_are_the_boxes(
            [Detection(1, BBox(l, t, w, h), s) for l, t, w, h, s in rows])

    def test_crowd_step_reads_no_box_method_and_feeds_the_filter_arrays(self):
        grid = [(40.0 * (i % 20), 90.0 * (i // 20)) for i in range(200)]
        frame1 = [det(1, x, y, 30, 80, 0.9) for x, y in grid]
        # every other box drops into the low band: both stages match
        frame2 = [det(2, x + 1, y + 1, 30, 80, 0.9 if i % 2 else 0.4)
                  for i, (x, y) in enumerate(grid)]
        calls, measured = [], []

        def spy(cls, name, record):
            method = getattr(cls, name)

            def wrapper(*args):
                record.append((name, args))
                return method(*args)
            return mock.patch.object(cls, name, wrapper)

        tracker = ByteTracker()
        with spy(BBox, "tlbr", calls), spy(BBox, "cxcyah", calls), \
                spy(KalmanFilter, "update_many", measured), \
                spy(KalmanFilter, "initiate", measured):
            tracker.step(1, frame1)
            out = tracker.step(2, frame2)
        assert calls == []
        assert [(name, args[-1].shape) for name, args in measured] == [
            ("initiate", (200, 4)), ("update_many", (200, 4))]
        for _, args in measured:
            assert type(args[-1]) is np.ndarray and args[-1].dtype == np.float64
        s = tracker.last_stats
        assert (s.n_first_matches, s.n_second_matches) == (100, 100)
        assert {id(o.box) for o in out.outputs} == {id(d.box) for d in frame2}

    def test_output_is_an_immutable_triple(self):
        d = det(1, 10, 10, 20, 40, 0.9)
        out = ByteTracker().step(1, [d]).outputs[0]
        track_id, box, score = out
        assert (track_id, box, score) == (out.track_id, out.box, out.score) == (1, d.box, 0.9)
        assert isinstance(out, TrackOutput) and box is d.box
        with pytest.raises(AttributeError):
            out.score = 0.1


@st.composite
def tied_streams(draw):
    """Streams whose detections tie exactly on (score, left, top) with
    different sizes, so only the stable canonical sort orders them, with
    scores on both band edges and a step either side of them."""
    tau_low = draw(st.sampled_from([0.0, 0.1, 0.3]))
    tau_high = draw(st.sampled_from([0.5, 0.6, 1.0]))
    cfg = dict(tau_low=tau_low, tau_high=tau_high,
               mode=draw(st.sampled_from(["byte", "single"])),
               second_stage_tracked_only=draw(st.booleans()),
               lost_ttl=draw(st.sampled_from([0, 2, 30])))
    edges = [tau_low, tau_high, np.nextafter(tau_low, 2.0), np.nextafter(tau_high, 2.0),
             np.nextafter(tau_low, -1.0), np.nextafter(tau_high, -1.0), 0.0, 1.0]
    score = st.sampled_from([float(e) for e in edges if 0.0 <= e <= 1.0] + [1.0, 1.0])
    corner = st.sampled_from([(0.0, 0.0), (0.0, 10.0), (0.0, -10.0), (10.0, 0.0), (100.0, 50.0)])
    size = st.sampled_from([20.0, 24.0, 30.0, 60.0])
    frame, stream = 0, []
    for gap, dx, picks in draw(st.lists(st.tuples(
            st.sampled_from([1, 1, 1, 2, 5]), st.sampled_from([0.0, 1.0, 2.5]),
            st.lists(st.tuples(corner, size, size, score), max_size=8)),
            min_size=1, max_size=10)):
        frame += gap
        stream.append((frame, [
            Detection(frame, BBox(left + frame * dx, top, width, height), s)
            for (left, top), width, height, s in picks
        ]))
    return cfg, stream


class TestTiedStreamEquivalence:
    """Exact ties on the canonical sort key and scores on the band edges
    give the reference tracker's results and statistics, frame by frame."""

    @settings(max_examples=150, deadline=None)
    @given(tied_streams())
    def test_matches_reference_tracker(self, case):
        cfg, stream = case
        tracker = ByteTracker(TrackerConfig(**cfg))
        ref = RefByteTracker(TrackerConfig(**cfg))
        for frame, dets in stream:
            got = tracker.step(frame, dets)
            want = ref.step(frame, dets)
            assert got == want
            assert all(a.box is b.box for a, b in zip(got.outputs, want.outputs))
            assert tracker.last_stats == ref.last_stats
            assert tracker._motion.mean.tobytes() == (
                np.stack([t.motion.mean for t in ref.tracks]) if ref.tracks
                else np.empty((0, 8))).tobytes()
