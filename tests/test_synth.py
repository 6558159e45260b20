import numpy as np
import pytest

from bytemot.mot_io import read_detections, read_gt, write_detections, write_gt
from bytemot.synth import (
    ScenarioConfig,
    ablation_corpus,
    crossing_preset,
    generate,
    scenario_from_text,
    scenario_to_text,
    timing_config,
)
from oracles import iou


def noiseless(**overrides):
    base = dict(
        seed=1,
        frames=40,
        field_size=(300.0, 300.0),
        agents=4,
        occlusion_decay=0.0,
        base_score=0.8,
        score_noise_std=0.0,
        miss_prob=0.0,
        fp_per_frame=0.0,
        jitter_std=0.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(frames=0)
        with pytest.raises(ValueError):
            ScenarioConfig(box_size_range=(1.0, 10.0))
        with pytest.raises(ValueError):
            ScenarioConfig(fp_score_range=(0.5, 1.5))
        with pytest.raises(ValueError):
            ScenarioConfig(miss_prob=1.5)

    def test_text_round_trip(self):
        cfg = noiseless(seed=99, fp_per_frame=0.3)
        text = scenario_to_text(cfg)
        assert "prng=numpy-pcg64" in text
        assert scenario_from_text(text) == cfg

    def test_text_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            scenario_from_text("bogus=1\n")


class TestGenerate:
    def test_noiseless_detections_equal_truth(self):
        gt, dets = generate(noiseless())
        assert len(gt) == len(dets) == 40 * 4
        by_key = {(g.frame, g.box.tlwh()): g for g in gt}
        for d in dets:
            assert d.score == 0.8
            assert (d.frame, d.box.tlwh()) in by_key

    def test_same_seed_identical(self):
        cfg = noiseless(score_noise_std=0.05, miss_prob=0.1, fp_per_frame=0.5, jitter_std=0.5)
        assert generate(cfg) == generate(cfg)

    def test_different_seed_differs(self):
        a = generate(noiseless(seed=1, score_noise_std=0.05))
        b = generate(noiseless(seed=2, score_noise_std=0.05))
        assert a != b

    def test_scripted_full_overlap_score(self):
        # two agents on the same box at frame 3: the lower-index agent is
        # fully occluded, score = 0.9 - 0.5 * 1.0
        cfg = noiseless(agents=2, frames=5, occlusion_decay=0.5, base_score=0.9)
        boxes = np.zeros((5, 2, 4))
        boxes[:, 0] = (50, 50, 20, 20)
        boxes[:, 1] = (120, 50, 20, 20)
        boxes[2, 1] = (50, 50, 20, 20)
        gt, dets = generate(cfg, trajectories=boxes)
        frame3 = [d for d in dets if d.frame == 3]
        scores = sorted(d.score for d in frame3)
        assert scores[0] == pytest.approx(0.4, abs=1e-12)
        assert scores[1] == pytest.approx(0.9, abs=1e-12)
        occluded = [g for g in gt if g.frame == 3 and g.identity == 1][0]
        assert occluded.visibility == pytest.approx(0.0, abs=1e-12)

    def test_occlusion_monotone_in_overlap(self):
        # sliding agent 2 over agent 1 never raises agent 1's score; the
        # occluded agent is taller so its detections stay identifiable
        cfg = noiseless(agents=2, frames=11, occlusion_decay=0.6, base_score=0.9)
        boxes = np.zeros((11, 2, 4))
        boxes[:, 0] = (100, 50, 20, 24)
        for f in range(11):
            boxes[f, 1] = (120 - 2 * f, 50, 20, 20)
        _, dets = generate(cfg, trajectories=boxes)
        agent1_scores = [d.score for d in dets if d.box.height == 24.0]
        assert len(agent1_scores) == 11
        assert all(b <= a + 1e-12 for a, b in zip(agent1_scores, agent1_scores[1:]))

    def test_truth_boxes_never_degenerate(self):
        gt, _ = generate(ScenarioConfig(seed=5, frames=200, agents=8))
        assert all(g.box.width > 2 and g.box.height > 2 for g in gt)

    def test_agents_stay_in_field(self):
        cfg = ScenarioConfig(seed=9, frames=400, agents=6, speed_range=(2.0, 4.0))
        gt, _ = generate(cfg)
        fw, fh = cfg.field_size
        for g in gt:
            assert -1e-6 <= g.box.left and g.box.right <= fw + 1e-6
            assert -1e-6 <= g.box.top and g.box.bottom <= fh + 1e-6

    def test_false_positive_rate_statistics(self):
        lam = 0.6
        cfg = noiseless(agents=1, frames=10_000, fp_per_frame=lam)
        _, dets = generate(cfg)
        n_fp = len(dets) - 10_000
        mean = n_fp / 10_000
        tol = 3.0 * np.sqrt(lam / 10_000)
        assert abs(mean - lam) <= tol

    def test_trajectory_shape_checked(self):
        with pytest.raises(ValueError):
            generate(noiseless(agents=2, frames=5), trajectories=np.zeros((5, 3, 4)))


class TestCrossingPreset:
    def test_three_identities(self):
        sc = crossing_preset()
        assert {g.identity for g in sc.gt} == {1, 2, 3}

    def test_key_frame_scores(self):
        sc = crossing_preset()
        targets = (0.8, 0.4, 0.1)
        for frame, target in zip(sc.key_frames, targets):
            dets = [
                d for d in sc.detections
                if d.frame == frame and abs(d.box.top - 100.0) < 1e-9
                and abs(d.box.width - 30.0) < 1e-9
            ]
            assert len(dets) == 1
            assert abs(dets[0].score - target) <= 0.05

    def test_background_box_disjoint_from_truth(self):
        sc = crossing_preset()
        gt_by_frame = {}
        for g in sc.gt:
            gt_by_frame.setdefault(g.frame, []).append(g.box)
        for frame, boxes in gt_by_frame.items():
            assert all(iou(sc.background_box, b) == 0.0 for b in boxes)

    def test_background_box_present_every_frame(self):
        sc = crossing_preset()
        frames = {
            d.frame for d in sc.detections if d.score == sc.background_score
        }
        assert frames == set(range(1, sc.config.frames + 1))

    def test_deterministic(self):
        a = crossing_preset()
        b = crossing_preset()
        assert a.gt == b.gt and a.detections == b.detections


class TestCorpora:
    def test_ablation_corpus_is_fixed(self):
        corpus = ablation_corpus()
        assert len(corpus) == 10
        assert len({name for name, _ in corpus}) == 10
        assert corpus == ablation_corpus()

    def test_timing_config_counts(self):
        cfg = timing_config(agents=10, frames=50)
        gt, dets = generate(cfg)
        assert len(gt) == 500
        assert len(dets) == 500

    def test_generated_files_reparse(self, tmp_path):
        name, cfg = ablation_corpus()[0]
        gt, dets = generate(cfg)
        write_gt(tmp_path / "gt.txt", gt)
        write_detections(tmp_path / "det.txt", dets)
        assert len(read_gt(tmp_path / "gt.txt")) == len(gt)
        assert len(read_detections(tmp_path / "det.txt")) == len(dets)
