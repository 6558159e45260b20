"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the module needs no network access and finishes in well under ten
minutes on a single core.
"""

import csv
import io
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bytemot.assignment import min_cost_assignment, solve
from bytemot.cli import main, run_tracker
from bytemot.geometry import BBox, Detection
from bytemot.kalman import KalmanFilter, MotionState
from bytemot.metrics import GtEntry, clear_mot, evaluate, idf1
from bytemot.mot_io import (
    ParseError,
    dump_from_rows,
    group_by_frame,
    read_detections,
    read_gt,
    read_results,
    write_results,
)
from bytemot.postprocess import TrackEntry, interpolate
from bytemot.synth import ScenarioConfig, crossing_preset, generate
from bytemot.tracker import ByteTracker, Mode, TrackerConfig
from oracles import (
    RefKalmanFilter,
    dp_assignment,
    full_cov,
    iou,
    linear_interp_scalar,
    max_weight_matching_enum,
    read_manifest,
    total_cost,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--preset", "ablation", "--out-dir", str(out)]) == 0
    return out


def run_dump(detections, cfg):
    dump, _ = run_tracker(detections, cfg)
    return dump


def test_criterion_1_assignment_oracle():
    with criterion(1, "assignment equals brute force on 1000 random matrices"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for trial in range(1000):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            feasible = rng.random((n, m)) < rng.uniform(0.4, 1.0)
            if trial % 2:
                # arbitrary mask through the general entry point
                cost = rng.uniform(0.0, 1.0, size=(n, m))
                result = solve(cost, feasible)
            else:
                # same mask realized through the IoU rejection bound: with
                # min_iou 0.2 entries above cost 0.8 are infeasible
                cost = np.where(
                    feasible,
                    rng.uniform(0.0, 0.8, size=(n, m)),
                    rng.uniform(0.8001, 1.0, size=(n, m)),
                )
                result = min_cost_assignment(cost, min_iou=0.2)
            card, total = dp_assignment(cost, feasible)
            assert len(result.matches) == card
            assert total_cost(result, cost) == pytest.approx(total, abs=1e-9)
            assert all(feasible[r, c] for r, c in result.matches)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_2_kalman_invariants():
    with criterion(2, "kalman symmetry, innovation, trace and tracking properties"):
        kf = KalmanFilter()
        rng = np.random.default_rng(2002)
        # the library keeps each axis's 2x2 (component, velocity) block, so
        # its covariance is symmetric by construction; check that every block
        # stays positive definite over 10,000 random five-step sequences, run
        # as one batch (a row's result does not depend on the others)
        m = rng.uniform([0, 0, 0.3, 10], [800, 600, 2.5, 120], size=(10_000, 4))
        state = kf.initiate(m)
        blocks = [state.cov]
        for _ in range(5):
            predict = rng.random(len(m)) < 0.5
            z = m + rng.normal(0, 1, m.shape) * [2, 2, 0.02, 2]
            z[:, 3] = np.maximum(z[:, 3], 1.0)
            mean, cov = state.mean.copy(), state.cov.copy()
            moved = kf.predict_many(state[predict])
            mean[predict], cov[predict] = moved.mean, moved.cov
            seen = kf.update_many(state[~predict], z[~predict])
            mean[~predict], cov[~predict] = seen.mean, seen.cov
            state = MotionState(mean, cov)
            blocks.append(cov)
        p_xx, p_xv, p_vv = np.concatenate(blocks).swapaxes(0, 1)
        assert np.all(p_xx > 0.0) and np.all(p_vv > 0.0)
        assert np.all(p_xv * p_xv <= p_xx * p_vv * (1.0 + 1e-9))
        # the 8x8 reference filter is where symmetry can fail
        ref = RefKalmanFilter()
        for row in m[:200]:
            ref_state = ref.initiate(row)
            for _ in range(5):
                if rng.random() < 0.5:
                    ref_state = ref.predict(ref_state)
                else:
                    ref_state = ref.update(ref_state, row + rng.normal(0, 1, 4) * [2, 2, 0.02, 0])
                assert np.array_equal(ref_state.cov, ref_state.cov.T)
                assert np.all(np.linalg.eigvalsh(ref_state.cov) > 0.0)

        state = kf.predict(kf.initiate([50, 60, 0.8, 40]))
        updated = kf.update(state, state.mean[:4])
        assert np.allclose(updated.mean, state.mean, atol=1e-12)
        assert np.trace(full_cov(updated.cov)) < np.trace(full_cov(state.cov))

        state = kf.initiate([50, 60, 0.8, 40])
        prev_var = full_cov(state.cov)[0, 0]
        for _ in range(10):
            state = kf.predict(state)
            assert full_cov(state.cov)[0, 0] > prev_var
            prev_var = full_cov(state.cov)[0, 0]

        vx, vy, w, h = 3.0, 2.0, 30.0, 60.0
        state = kf.initiate([100.0, 100.0, w / h, h])
        for frame in range(2, 21):
            truth = (100.0 + vx * (frame - 1), 100.0 + vy * (frame - 1))
            state = kf.predict(state)
            err = float(np.hypot(state.mean[0] - truth[0], state.mean[1] - truth[1]))
            if frame >= 10:
                assert err < 0.5
            state = kf.update(state, [truth[0], truth[1], w / h, h])


def fragmentation_events(dump, n_truth_identities):
    events = max(0, len(dump) - n_truth_identities)
    for entries in dump.values():
        frames = [e.frame for e in entries]
        events += sum(1 for a, b in zip(frames, frames[1:]) if b - a > 1)
    return events


def test_criterion_3_hand_traces():
    with criterion(3, "two-frame trace and crossing preset, byte vs single"):
        # two frames: confident box, then the same box at score 0.4
        stream = [
            [Detection(1, BBox(100, 100, 40, 80), 0.9)],
            [Detection(2, BBox(100, 100, 40, 80), 0.4)],
        ]
        byte_tracker = ByteTracker(TrackerConfig(mode=Mode.BYTE))
        assert len(byte_tracker.step(1, stream[0]).outputs) == 1
        second = byte_tracker.step(2, stream[1]).outputs
        assert [o.track_id for o in second] == [1]

        single_tracker = ByteTracker(TrackerConfig(mode=Mode.SINGLE))
        single_tracker.step(1, stream[0])
        assert single_tracker.step(2, stream[1]).outputs == []

        sc = crossing_preset()
        dets_by_frame = group_by_frame(sc.detections)

        def run(mode):
            tracker = ByteTracker(TrackerConfig(mode=mode))
            rows = []
            for frame in range(1, sc.config.frames + 1):
                result = tracker.step(frame, dets_by_frame.get(frame, []))
                rows.extend((frame, o.track_id, o.box, o.score) for o in result.outputs)
            return dump_from_rows(rows)

        byte_dump = run(Mode.BYTE)
        assert fragmentation_events(byte_dump, 3) == 0
        assert clear_mot(sc.gt, byte_dump).ids == 0
        for entries in byte_dump.values():
            for e in entries:
                assert iou(e.box, sc.background_box) == 0.0

        single_dump = run(Mode.SINGLE)
        assert fragmentation_events(single_dump, 3) >= 1


def test_criterion_4_threshold_robustness(corpus_dir, capsys):
    with criterion(4, "byte flatter and never below single across the tau sweep"):
        start = time.perf_counter()
        out_csv = corpus_dir / "sweep.csv"
        assert main([
            "sweep", "--corpus", str(corpus_dir), "--out", str(out_csv),
            "--taus", "0.2,0.3,0.4,0.5,0.6,0.7,0.8",
            "--modes", "byte,single",
        ]) == 0
        captured = capsys.readouterr().out
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        byte_mota = {r["tau"]: float(r["mota"]) for r in rows if r["mode"] == "byte"}
        single_mota = {r["tau"]: float(r["mota"]) for r in rows if r["mode"] == "single"}
        assert len(byte_mota) == len(single_mota) == 7
        for tau in byte_mota:
            assert byte_mota[tau] >= single_mota[tau], f"byte below single at tau={tau}"
        byte_spread = max(byte_mota.values()) - min(byte_mota.values())
        single_spread = max(single_mota.values()) - min(single_mota.values())
        assert byte_spread < single_spread
        reported = dict(
            line.split()[1:3] for line in captured.splitlines()
            if line.startswith("spread ")
        )
        assert float(reported["byte"]) == pytest.approx(byte_spread, abs=1e-6)
        assert float(reported["single"]) == pytest.approx(single_spread, abs=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_5_low_score_analysis(corpus_dir, capsys):
    with criterion(5, "tracked low-score boxes are mostly true positives"):
        winners = 0
        sequences = sorted(p for p in corpus_dir.iterdir() if p.is_dir())
        assert len(sequences) == 10
        for seq in sequences:
            res = seq / "res.txt"
            assert main(["track", str(seq / "det.txt"), str(res)]) == 0
            assert main([
                "lowscore-report", "--det", str(seq / "det.txt"),
                "--gt", str(seq / "gt.txt"), "--res", str(res),
                "--name", seq.name,
            ]) == 0
            row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            if int(row["kept_low_tp"]) > int(row["kept_low_fp"]):
                winners += 1
        assert winners >= 9, f"only {winners}/10 sequences had TP > FP"


def test_criterion_6_interpolation():
    with criterion(6, "interpolation exactness, idempotence and FN reduction"):
        rng = np.random.default_rng(6006)
        for _ in range(1000):
            t1 = int(rng.integers(1, 100))
            t2 = t1 + int(rng.integers(2, 21))
            corners1 = np.sort(rng.uniform(0, 500, 4).reshape(2, 2), axis=1).T.ravel()
            corners2 = np.sort(rng.uniform(0, 500, 4).reshape(2, 2), axis=1).T.ravel()
            corners1[2:] += 1.0
            corners2[2:] += 1.0
            dump = {
                1: [
                    TrackEntry(t1, BBox.from_tlbr(*corners1), 0.9),
                    TrackEntry(t2, BBox.from_tlbr(*corners2), 0.3),
                ]
            }
            out = interpolate(dump, sigma=20)
            assert len(out[1]) == t2 - t1 + 1
            for e in out[1]:
                if not e.interpolated:
                    continue
                expected = [
                    linear_interp_scalar(t1, v1, t2, v2, e.frame)
                    for v1, v2 in zip(corners1, corners2)
                ]
                assert list(e.box.tlbr()) == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert interpolate(out, sigma=20) == out

        # gap-injected corpus: straight-line motion so the filled boxes are exact
        frames, agents = 100, 5
        boxes = np.empty((frames, agents, 4))
        for i in range(agents):
            for f in range(frames):
                boxes[f, i] = (40.0 + 3.0 * f, 40.0 + 100.0 * i + 0.5 * f, 24.0, 48.0)
        cfg = ScenarioConfig(
            seed=60, frames=frames, field_size=(400.0, 600.0), agents=agents,
            occlusion_decay=0.0, base_score=0.9, score_noise_std=0.0,
            miss_prob=0.0, fp_per_frame=0.0, jitter_std=0.0,
        )
        gt, dets = generate(cfg, trajectories=boxes)
        dump = run_dump(dets, TrackerConfig())
        injected = {
            tid: [e for e in entries if not (20 <= e.frame <= 30 or 50 <= e.frame <= 62)]
            for tid, entries in dump.items()
        }
        plain = evaluate(gt, interpolate(injected, sigma=0))
        filled = evaluate(gt, interpolate(injected, sigma=20))
        assert filled.fn < plain.fn
        assert filled.mota > plain.mota


def test_criterion_7_metric_oracles():
    with criterion(7, "CLEAR and IDF1 match hand traces and enumeration"):
        box = BBox(0, 0, 10, 10)
        gt = [GtEntry(f, 1, box) for f in range(1, 11)]

        perfect = {1: [TrackEntry(f, box, 0.9) for f in range(1, 11)]}
        result = evaluate(gt, perfect)
        assert result.mota == 1.0 and result.idf1 == 1.0 and result.ids == 0

        empty = evaluate([GtEntry(f, 1, box) for f in range(1, 51)], {})
        assert empty.fn == 50 and empty.mota == 0.0

        split = {
            1: [TrackEntry(f, box, 0.9) for f in range(1, 6)],
            2: [TrackEntry(f, box, 0.9) for f in range(6, 11)],
        }
        result = evaluate(gt, split)
        assert result.mota == pytest.approx(0.9)
        assert result.idf1 == pytest.approx(0.5)
        assert result.ids == 1

        rng = np.random.default_rng(7007)
        for _ in range(150):
            n_gt = int(rng.integers(1, 5))
            n_pred = int(rng.integers(1, 5))
            weights = rng.integers(0, 4, size=(n_gt, n_pred))
            entries, dump, frame = [], {}, 1
            for i in range(n_gt):
                for j in range(n_pred):
                    for _ in range(int(weights[i, j])):
                        entries.append(GtEntry(frame, i + 1, box))
                        dump.setdefault(j + 1, []).append(TrackEntry(frame, box, 0.9))
                        frame += 1
            for v in dump.values():
                v.sort(key=lambda e: e.frame)
            assert idf1(entries, dump).idtp == max_weight_matching_enum(weights)


def test_criterion_8_association_time(tmp_path):
    with criterion(8, "mean association time at 100x100 stays within 5 ms"):
        out_dir = tmp_path / "timing"
        assert main(["synth", "--preset", "timing", "--out-dir", str(out_dir)]) == 0
        res = tmp_path / "res.txt"
        assert main(["track", str(out_dir / "det.txt"), str(res)]) == 0
        manifest = read_manifest(str(res) + ".manifest")
        assert manifest["frames"] == "1000"
        assert manifest["detections"] == "100000"
        mean_ms = float(manifest["assoc_ms_mean"])
        assert mean_ms <= 5.0, f"mean association time {mean_ms:.2f} ms"


def test_criterion_9_format_round_trips(tmp_path):
    with criterion(9, "file formats round-trip and malformed lines are located"):
        dump = {
            4: [TrackEntry(1, BBox(10.127, 20.343, 30.996, 40.004), 0.8125)],
            2: [
                TrackEntry(1, BBox(50, 60, 20, 30), 0.93),
                TrackEntry(3, BBox(52.5, 61.25, 20, 30), 0.41),
            ],
        }
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_results(first, dump)
        write_results(second, read_results(first))
        assert first.read_bytes() == second.read_bytes()

        det_path = tmp_path / "det.txt"
        det_path.write_text("1,-1,10,20,30,40,0.85,-1,-1,-1\n")
        dets = read_detections(det_path)
        assert dets[0].box.tlwh() == (10, 20, 30, 40)

        bad = tmp_path / "bad.txt"
        bad.write_text("1,-1,10,20,30,40,0.85,-1,-1,-1\n1,2,3\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_detections(bad)
        bad_gt = tmp_path / "bad_gt.txt"
        bad_gt.write_text("1,1,x,20,30,40\n")
        with pytest.raises(ParseError, match=r":1:"):
            read_gt(bad_gt)
