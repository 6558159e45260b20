import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytemot import cli, synth
from bytemot.cli import lowscore_counts, main, run_sweep, run_tracker
from bytemot.geometry import BBox, Detection
from bytemot.metrics import GtEntry
from bytemot.mot_io import read_gt, read_results, write_detections, write_results
from bytemot.postprocess import TrackEntry
from bytemot.tracker import ByteTracker, Mode, TrackerConfig
from oracles import read_manifest, ref_lowscore_counts, ref_run_tracker


@pytest.fixture(scope="module")
def crossing_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("crossing")
    assert main(["synth", "--preset", "crossing", "--out-dir", str(out)]) == 0
    return out


def track_ids_with_gaps(dump):
    gappy = set()
    for tid, entries in dump.items():
        frames = [e.frame for e in entries]
        if any(b - a > 1 for a, b in zip(frames, frames[1:])):
            gappy.add(tid)
    return gappy


class TestTrack:
    def test_byte_mode_keeps_identity_continuous(self, crossing_dir, tmp_path):
        res = tmp_path / "res.txt"
        assert main(["track", str(crossing_dir / "det.txt"), str(res)]) == 0
        dump = read_results(res)
        assert len(dump) == 3
        assert track_ids_with_gaps(dump) == set()
        manifest = read_manifest(str(res) + ".manifest")
        assert manifest["mode"] == "byte"
        assert manifest["frames"] == "70"
        assert float(manifest["assoc_ms_mean"]) > 0

    def test_manifest_percentiles(self, crossing_dir, tmp_path, monkeypatch):
        # step times 1..100 ms: numpy's linear percentiles are 50.5 and 99.01
        times = [float(t) for t in range(100, 0, -1)]
        monkeypatch.setattr(cli, "run_tracker", lambda dets, cfg: ({}, times))
        res = tmp_path / "res.txt"
        assert main(["track", str(crossing_dir / "det.txt"), str(res)]) == 0
        manifest = read_manifest(str(res) + ".manifest")
        assert [manifest[f"assoc_ms_{k}"] for k in ("mean", "p50", "p99", "max")] == [
            "50.5000", "50.5000", "99.0100", "100.0000"]

    def test_manifest_percentiles_ordered_on_a_real_run(self, crossing_dir, tmp_path):
        res = tmp_path / "res.txt"
        assert main(["track", str(crossing_dir / "det.txt"), str(res)]) == 0
        manifest = read_manifest(str(res) + ".manifest")
        p50, p99, top = (float(manifest[f"assoc_ms_{k}"]) for k in ("p50", "p99", "max"))
        assert 0 < p50 <= p99 <= top

    def test_single_mode_fragments(self, crossing_dir, tmp_path):
        res = tmp_path / "res.txt"
        assert main([
            "track", str(crossing_dir / "det.txt"), str(res), "--mode", "single",
        ]) == 0
        dump = read_results(res)
        assert len(dump) > 3 or track_ids_with_gaps(dump)

    def test_empty_detection_file(self, tmp_path):
        det = tmp_path / "det.txt"
        det.write_text("")
        res = tmp_path / "res.txt"
        assert main(["track", str(det), str(res)]) == 0
        assert res.read_text() == ""

    def test_missing_input_fails(self, tmp_path, capsys):
        res = tmp_path / "res.txt"
        assert main(["track", str(tmp_path / "none.txt"), str(res)]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_fails(self, tmp_path, capsys):
        det = tmp_path / "det.txt"
        det.write_text("1,2,3\n")
        assert main(["track", str(det), str(tmp_path / "res.txt")]) == 1
        err = capsys.readouterr().err
        assert ":1:" in err

    def test_deterministic_output_bytes(self, crossing_dir, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["track", str(crossing_dir / "det.txt"), str(a)])
        main(["track", str(crossing_dir / "det.txt"), str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestRunTracker:
    """run_tracker steps only the frames that hold detections; the tracker
    advances each gap as the empty frames would have."""

    @pytest.fixture(scope="class")
    def corpus(self):
        configs = dict(synth.ablation_corpus())
        return [synth.generate(configs[name])[1] for name in ("synth-01", "synth-05", "synth-10")]

    @pytest.mark.parametrize("keep", [0.7, 0.3])
    @pytest.mark.parametrize("mode", [Mode.BYTE, Mode.SINGLE])
    @pytest.mark.parametrize("lost_ttl", [0, 3, 30])
    def test_equals_every_frame_stepping_on_thinned_frames(self, corpus, keep, mode, lost_ttl):
        cfg = TrackerConfig(mode=mode, lost_ttl=lost_ttl)
        rng = np.random.default_rng(int(keep * 10) + lost_ttl)
        for dets in corpus:
            frames = sorted({d.frame for d in dets})
            kept = set(rng.choice(frames, size=int(len(frames) * keep), replace=False).tolist())
            thinned = [d for d in dets if d.frame in kept]
            dump, timings = run_tracker(thinned, cfg)
            assert dump == ref_run_tracker(thinned, cfg)
            assert len(timings) == len(kept)

    def test_far_frame_is_two_steps(self, monkeypatch):
        calls = []
        step = ByteTracker.step

        def counted(self, frame, detections):
            calls.append(frame)
            return step(self, frame, detections)

        monkeypatch.setattr(ByteTracker, "step", counted)
        far = 10**12
        dets = [Detection(1, BBox(0, 0, 10, 20), 0.9), Detection(far, BBox(5, 5, 10, 20), 0.9)]
        dump, timings = run_tracker(dets, TrackerConfig())
        assert calls == [1, far]
        assert len(timings) == 2
        assert [(tid, [e.frame for e in entries]) for tid, entries in dump.items()] == [
            (1, [1]), (2, [far])]

    def test_manifest_frames_is_the_last_frame(self, tmp_path):
        det, res = tmp_path / "det.txt", tmp_path / "res.txt"
        write_detections(det, [Detection(1, BBox(0, 0, 10, 20), 0.9),
                               Detection(10**12, BBox(0, 0, 10, 20), 0.9)])
        assert main(["track", str(det), str(res)]) == 0
        assert read_manifest(str(res) + ".manifest")["frames"] == str(10**12)
        assert sorted(read_results(res)) == [1, 2]


class TestEval:
    def test_truth_against_itself(self, crossing_dir, tmp_path, capsys):
        gt = read_gt(crossing_dir / "gt.txt")
        res = tmp_path / "res.txt"
        dump = {}
        for g in gt:
            dump.setdefault(g.identity, []).append(TrackEntry(g.frame, g.box, 1.0))
        for v in dump.values():
            v.sort(key=lambda e: e.frame)
        write_results(res, dump)
        csv_path = tmp_path / "eval.csv"
        assert main([
            "eval", str(crossing_dir / "gt.txt"), str(res), "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "MOTA 1.0000" in out
        assert "IDF1 1.0000" in out
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["sequence"] for r in rows] == ["seq", "ALL"]
        assert rows[0]["mota"] == "1.000000"
        assert rows[0]["version"] == "1"

    def test_iou_min_out_of_range_fails(self, crossing_dir, tmp_path, capsys):
        res = tmp_path / "res.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res)])
        capsys.readouterr()
        assert main(["eval", str(crossing_dir / "gt.txt"), str(res), "--iou-min", "1.5"]) == 1
        assert "iou_min" in capsys.readouterr().err

    def test_frame_outside_int64_fails(self, crossing_dir, tmp_path, capsys):
        res = tmp_path / "res.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res)])
        gt = tmp_path / "gt.txt"
        gt.write_text((crossing_dir / "gt.txt").read_text() + "1e19,1,10,20,30,40,1,1,1\n")
        capsys.readouterr()
        assert main(["eval", str(gt), str(res)]) == 1
        assert "int64" in capsys.readouterr().err

    def test_tracked_crossing_scores_perfectly(self, crossing_dir, tmp_path, capsys):
        res = tmp_path / "res.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res)])
        assert main(["eval", str(crossing_dir / "gt.txt"), str(res)]) == 0
        out = capsys.readouterr().out
        assert "MOTA 1.0000" in out
        assert "IDs 0" in out

    def test_absent_mota_reported(self, crossing_dir, tmp_path, capsys):
        # no considered ground truth: MOTA is undefined, FP still counted
        gt = tmp_path / "gt.txt"
        gt.write_text("")
        res = tmp_path / "res.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res)])
        assert main(["eval", str(gt), str(res)]) == 0
        out = capsys.readouterr().out
        assert "MOTA n/a" in out
        assert "FP 210" in out


class TestSweep:
    def test_single_cell(self, crossing_dir, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--det", str(crossing_dir / "det.txt"),
            "--gt", str(crossing_dir / "gt.txt"),
            "--taus", "0.6", "--modes", "byte", "--out", str(out_csv),
        ]) == 0
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["mode"] == "byte" and rows[0]["tau"] == "0.60"
        assert "spread byte 0.000000" in capsys.readouterr().out

    def test_spread_matches_rows(self, crossing_dir, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--det", str(crossing_dir / "det.txt"),
            "--gt", str(crossing_dir / "gt.txt"),
            "--taus", "0.3,0.5,0.7", "--modes", "byte,single",
            "--out", str(out_csv),
        ]) == 0
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["mode"], r["tau"]) for r in rows] == [
            ("byte", "0.30"), ("byte", "0.50"), ("byte", "0.70"),
            ("single", "0.30"), ("single", "0.50"), ("single", "0.70"),
        ]
        reported = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("spread "):
                _, mode, value = line.split()
                reported[mode] = float(value)
        for mode in ("byte", "single"):
            motas = [float(r["mota"]) for r in rows if r["mode"] == mode]
            assert reported[mode] == pytest.approx(max(motas) - min(motas), abs=1e-6)

    def test_tau_bounds_checked(self, crossing_dir, capsys):
        assert main([
            "sweep", "--det", str(crossing_dir / "det.txt"),
            "--gt", str(crossing_dir / "gt.txt"), "--taus", "1.0",
        ]) == 1

    def test_keeps_every_field_of_base(self, crossing_dir, monkeypatch):
        seen = []

        def spy(dets, cfg):
            seen.append(cfg)
            return {}, []

        monkeypatch.setattr(cli, "run_tracker", spy)
        base = TrackerConfig(emit_on_birth=False, init_score_margin=0.05,
                             second_stage_tracked_only=True)
        sequences = [("seq", [], read_gt(crossing_dir / "gt.txt"))]
        run_sweep(sequences, [0.7, 0.3], [Mode.SINGLE, Mode.BYTE], base)
        assert seen == [replace(base, tau_high=tau, mode=mode)
                        for mode in (Mode.BYTE, Mode.SINGLE) for tau in (0.3, 0.7)]

    def test_stdout_csv_when_no_out(self, crossing_dir, capsys):
        assert main([
            "sweep", "--det", str(crossing_dir / "det.txt"),
            "--gt", str(crossing_dir / "gt.txt"),
            "--taus", "0.6", "--modes", "byte",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("version,mode,tau")
        assert "spread byte" in out


class TestLowscoreReport:
    def test_byte_keeps_low_boxes(self, crossing_dir, tmp_path, capsys):
        res = tmp_path / "res.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res)])
        assert main([
            "lowscore-report", "--det", str(crossing_dir / "det.txt"),
            "--gt", str(crossing_dir / "gt.txt"), "--res", str(res),
        ]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert int(row["kept_low_tp"]) > 0
        assert int(row["kept_low_fp"]) == 0
        # the preset's standing background box is a low-score FP detection
        assert int(row["det_low_fp"]) > 0

    def test_single_mode_keeps_none(self, crossing_dir, tmp_path, capsys):
        res = tmp_path / "res.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res), "--mode", "single"])
        assert main([
            "lowscore-report", "--det", str(crossing_dir / "det.txt"),
            "--gt", str(crossing_dir / "gt.txt"), "--res", str(res),
        ]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert int(row["kept_low_tp"]) + int(row["kept_low_fp"]) == 0

    def test_degenerate_band_is_empty(self, crossing_dir, tmp_path, capsys):
        res = tmp_path / "res.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res)])
        assert main([
            "lowscore-report", "--det", str(crossing_dir / "det.txt"),
            "--gt", str(crossing_dir / "gt.txt"), "--res", str(res),
            "--tau-low", "0.45", "--tau-high", "0.45",
        ]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert int(row["kept_low_tp"]) + int(row["kept_low_fp"]) == 0


    @pytest.mark.parametrize("taus", [
        ("0.9", "0.1"), ("nan", "0.6"), ("0.1", "nan"), ("-0.1", "0.6"), ("0.1", "1.5"),
    ])
    def test_unusable_band_fails(self, crossing_dir, tmp_path, capsys, taus):
        res = tmp_path / "res.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res)])
        assert main([
            "lowscore-report", "--det", str(crossing_dir / "det.txt"),
            "--gt", str(crossing_dir / "gt.txt"), "--res", str(res),
            "--tau-low", taus[0], "--tau-high", taus[1],
        ]) == 1
        captured = capsys.readouterr()
        assert "--tau-low" in captured.err and "--tau-high" in captured.err
        assert captured.out == ""


# Boxes on a 5-pixel grid with sides 5 or 10 make exact IoU ties common: a
# 10x5 box inside a 10x10 one has IoU exactly 0.5, the TP threshold.
grid_box = st.builds(
    BBox,
    left=st.integers(0, 6).map(lambda v: 5.0 * v),
    top=st.integers(0, 6).map(lambda v: 5.0 * v),
    width=st.sampled_from([5.0, 10.0]),
    height=st.sampled_from([5.0, 10.0]),
)
frames = st.integers(1, 5)
scores = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0])


@st.composite
def lowscore_cases(draw):
    """Ground truth (some frames without truth, some with ignore regions
    only), detections, a result dump and a band that may be empty."""
    gt = draw(st.lists(st.builds(GtEntry, frame=frames, identity=st.integers(1, 4),
                                 box=grid_box, considered=st.booleans()), max_size=12))
    dets = draw(st.lists(st.builds(Detection, frame=frames, box=grid_box, score=scores),
                         max_size=12))
    pred = {}
    for track_id in draw(st.lists(st.integers(1, 6), unique=True, max_size=4)):
        track_frames = sorted(draw(st.sets(frames, min_size=1, max_size=5)))
        pred[track_id] = [TrackEntry(f, draw(grid_box), draw(scores)) for f in track_frames]
    tau_low, tau_high = sorted(draw(st.lists(scores, min_size=2, max_size=2)))
    return gt, dets, pred, tau_low, tau_high


class TestLowscoreCounts:
    @settings(max_examples=300)
    @given(lowscore_cases())
    def test_equals_reference(self, case):
        assert lowscore_counts(*case) == ref_lowscore_counts(*case)

    def test_exact_half_iou_is_tp(self):
        gt = [GtEntry(1, 1, BBox(0, 0, 10, 10)), GtEntry(2, 1, BBox(0, 0, 10, 10), False)]
        dets = [Detection(1, BBox(0, 0, 10, 5), 0.3), Detection(1, BBox(0, 0, 10, 4.9), 0.3),
                Detection(2, BBox(0, 0, 10, 10), 0.3), Detection(3, BBox(0, 0, 10, 10), 0.3)]
        counts = lowscore_counts(gt, dets, {}, 0.1, 0.6)
        assert counts == {"det_low_tp": 1, "det_low_fp": 3, "kept_low_tp": 0, "kept_low_fp": 0}


class TestInterp:
    def test_sigma_zero_identity(self, crossing_dir, tmp_path):
        res = tmp_path / "res.txt"
        out = tmp_path / "interp.txt"
        main(["track", str(crossing_dir / "det.txt"), str(res)])
        assert main(["interp", str(res), str(out), "--sigma", "0"]) == 0
        assert out.read_bytes() == res.read_bytes()

    def test_fills_gap(self, tmp_path):
        res = tmp_path / "res.txt"
        out = tmp_path / "interp.txt"
        dump = {
            1: [
                TrackEntry(10, BBox(0, 0, 10, 10), 0.9),
                TrackEntry(20, BBox(20, 0, 10, 10), 0.9),
            ]
        }
        write_results(res, dump)
        assert main(["interp", str(res), str(out), "--sigma", "20"]) == 0
        back = read_results(out)
        assert [e.frame for e in back[1]] == list(range(10, 21))
        mid = [e for e in back[1] if e.frame == 15][0]
        assert mid.box.tlwh() == (10.0, 0.0, 10.0, 10.0)


class TestSynthCommand:
    def test_crossing_outputs(self, crossing_dir):
        gt = read_gt(crossing_dir / "gt.txt")
        assert {g.identity for g in gt} == {1, 2, 3}
        assert (crossing_dir / "scenario.txt").exists()

    def test_deterministic_files(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["synth", "--preset", "crossing", "--out-dir", str(a)])
        main(["synth", "--preset", "crossing", "--out-dir", str(b)])
        assert (a / "det.txt").read_bytes() == (b / "det.txt").read_bytes()
        assert (a / "gt.txt").read_bytes() == (b / "gt.txt").read_bytes()

    def test_config_file_round_trip(self, tmp_path):
        src = tmp_path / "scenario.txt"
        src.write_text(
            "seed=3\nframes=12\nagents=2\nfield_size=200.0,200.0\n"
            "box_size_range=10.0,20.0\nfp_per_frame=0.0\n"
        )
        out = tmp_path / "out"
        assert main(["synth", "--config", str(src), "--out-dir", str(out)]) == 0
        gt = read_gt(out / "gt.txt")
        assert max(g.frame for g in gt) == 12
        assert {g.identity for g in gt} == {1, 2}

    def test_requires_preset_or_config(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path / "x")]) == 1
