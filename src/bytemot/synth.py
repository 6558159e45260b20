"""Deterministic synthetic scenarios: paired ground truth and noisy detections.

Agents are boxes moving at constant velocity, bouncing off the field borders.
Per frame each agent yields one detection whose score models occlusion decay:

    score = clamp(base_score - occlusion_decay * o + eps, 0, 1)

where o is the agent's largest fractional overlap with any agent drawn in
front of it (higher index means nearer the camera) and eps is Gaussian score
noise. Detection boxes are the truth boxes plus per-coordinate jitter, each
detection is dropped independently with miss_prob, and a Poisson number of
background false positives is scattered uniformly per frame. Everything is
driven by one seeded generator (numpy PCG64), so equal configs give
byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import BBox, Detection
from .metrics import GtEntry

__all__ = [
    "ScenarioConfig",
    "CrossingScenario",
    "generate",
    "crossing_preset",
    "ablation_corpus",
    "timing_config",
    "scenario_to_text",
    "scenario_from_text",
]

PRNG_ID = "numpy-pcg64"


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    frames: int = 100
    field_size: tuple[float, float] = (640.0, 480.0)
    agents: int = 6
    speed_range: tuple[float, float] = (1.0, 3.0)
    box_size_range: tuple[float, float] = (16.0, 40.0)
    occlusion_decay: float = 0.7
    base_score: float = 0.9
    score_noise_std: float = 0.0
    miss_prob: float = 0.0
    fp_per_frame: float = 0.0
    fp_score_range: tuple[float, float] = (0.1, 0.5)
    jitter_std: float = 0.0

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.agents < 0:
            raise ValueError("agents must be >= 0")
        for name in ("speed_range", "box_size_range", "fp_score_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} must be ordered, got ({lo}, {hi})")
        if min(self.field_size) <= 0.0:
            raise ValueError("field_size dimensions must be positive")
        if self.box_size_range[0] <= 2.0:
            raise ValueError("box sizes must stay above 2 px")
        if self.box_size_range[1] * 2.0 >= min(self.field_size):
            raise ValueError("boxes must fit the field with room to move")
        if not 0.0 <= self.base_score <= 1.0:
            raise ValueError("base_score must be in [0, 1]")
        lo, hi = self.fp_score_range
        if not (0.0 <= lo and hi <= 1.0):
            raise ValueError("fp_score_range must lie within [0, 1]")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss_prob must be in [0, 1]")
        if self.occlusion_decay < 0.0 or self.score_noise_std < 0.0:
            raise ValueError("occlusion_decay and score_noise_std must be >= 0")
        if self.fp_per_frame < 0.0 or self.jitter_std < 0.0:
            raise ValueError("fp_per_frame and jitter_std must be >= 0")


def _simulate_boxes(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Constant-velocity motion with border bounces; (frames, agents, 4) tlwh."""
    n = cfg.agents
    fw, fh = cfg.field_size
    w = rng.uniform(*cfg.box_size_range, size=n)
    h = rng.uniform(*cfg.box_size_range, size=n)
    x = rng.uniform(0.0, fw - w)
    y = rng.uniform(0.0, fh - h)
    speed = rng.uniform(*cfg.speed_range, size=n)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    vx = speed * np.cos(angle)
    vy = speed * np.sin(angle)

    boxes = np.empty((cfg.frames, n, 4))
    for f in range(cfg.frames):
        boxes[f, :, 0] = x
        boxes[f, :, 1] = y
        boxes[f, :, 2] = w
        boxes[f, :, 3] = h
        x = x + vx
        y = y + vy
        for pos, vel, limit, size in ((x, vx, fw, w), (y, vy, fh, h)):
            over = pos > limit - size
            pos[over] = 2.0 * (limit - size)[over] - pos[over]
            vel[over] *= -1.0
            under = pos < 0.0
            pos[under] = -pos[under]
            vel[under] *= -1.0
    return boxes


def _occlusion_fractions(boxes: np.ndarray) -> np.ndarray:
    """Per-agent largest fractional overlap with a nearer agent (higher index)."""
    n = boxes.shape[0]
    if n < 2:
        return np.zeros(n)
    l, t, w, h = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    r, b = l + w, t + h
    iw = np.clip(np.minimum(r[:, None], r[None, :]) - np.maximum(l[:, None], l[None, :]), 0.0, None)
    ih = np.clip(np.minimum(b[:, None], b[None, :]) - np.maximum(t[:, None], t[None, :]), 0.0, None)
    inter = iw * ih
    frac = np.clip(inter / (w * h)[:, None], 0.0, 1.0)
    nearer = np.triu(np.ones((n, n), dtype=bool), k=1)
    return np.where(nearer, frac, 0.0).max(axis=1)


def generate(
    cfg: ScenarioConfig,
    trajectories: np.ndarray | None = None,
) -> tuple[list[GtEntry], list[Detection]]:
    """Produce (ground truth, detections) for one scenario.

    trajectories optionally scripts agent motion as a (frames, agents, 4)
    tlwh array, replacing the constant-velocity simulation; scores, noise and
    false positives are applied the same way either way.
    """
    rng = np.random.default_rng(cfg.seed)
    if trajectories is None:
        boxes = _simulate_boxes(cfg, rng)
    else:
        boxes = np.asarray(trajectories, dtype=float)
        if boxes.shape != (cfg.frames, cfg.agents, 4):
            raise ValueError(
                f"trajectories must have shape ({cfg.frames}, {cfg.agents}, 4), "
                f"got {boxes.shape}"
            )

    fw, fh = cfg.field_size
    gt: list[GtEntry] = []
    dets: list[Detection] = []
    for f in range(cfg.frames):
        frame = f + 1
        frame_boxes = boxes[f]
        occ = _occlusion_fractions(frame_boxes)
        scores = cfg.base_score - cfg.occlusion_decay * occ
        if cfg.score_noise_std > 0.0:
            scores = scores + rng.normal(0.0, cfg.score_noise_std, size=cfg.agents)
        scores = np.clip(scores, 0.0, 1.0)
        missed = (
            rng.random(cfg.agents) < cfg.miss_prob
            if cfg.miss_prob > 0.0
            else np.zeros(cfg.agents, dtype=bool)
        )
        if cfg.jitter_std > 0.0:
            jitter = rng.normal(0.0, cfg.jitter_std, size=(cfg.agents, 4))
        else:
            jitter = np.zeros((cfg.agents, 4))

        for i in range(cfg.agents):
            l, t, w, h = frame_boxes[i]
            gt.append(
                GtEntry(
                    frame=frame,
                    identity=i + 1,
                    box=BBox(l, t, w, h),
                    considered=True,
                    visibility=float(1.0 - occ[i]),
                )
            )
            if missed[i]:
                continue
            jl = l + jitter[i, 0]
            jt = t + jitter[i, 1]
            jw = max(w + jitter[i, 2], 1.0)
            jh = max(h + jitter[i, 3], 1.0)
            dets.append(
                Detection(frame=frame, box=BBox(jl, jt, jw, jh), score=float(scores[i]))
            )

        if cfg.fp_per_frame > 0.0:
            for _ in range(int(rng.poisson(cfg.fp_per_frame))):
                w = rng.uniform(*cfg.box_size_range)
                h = rng.uniform(*cfg.box_size_range)
                l = rng.uniform(0.0, fw - w)
                t = rng.uniform(0.0, fh - h)
                score = rng.uniform(*cfg.fp_score_range)
                dets.append(
                    Detection(frame=frame, box=BBox(l, t, w, h), score=float(score))
                )
    return gt, dets


@dataclass(frozen=True)
class CrossingScenario:
    """Fixed occlusion walk-through: one agent passes behind a static one and
    its detection score decays from 0.8 through roughly 0.4 down to about
    0.1, while a background box of score 0.35 sits far from everything."""

    config: ScenarioConfig
    trajectories: np.ndarray
    gt: list[GtEntry]
    detections: list[Detection]
    key_frames: tuple[int, int, int]
    occluded_identity: int
    background_box: BBox
    background_score: float


def crossing_preset() -> CrossingScenario:
    frames = 70
    cfg = ScenarioConfig(
        seed=7,
        frames=frames,
        field_size=(400.0, 300.0),
        agents=3,
        speed_range=(2.0, 3.0),
        box_size_range=(20.0, 60.0),
        occlusion_decay=1.0,
        base_score=0.8,
        score_noise_std=0.0,
        miss_prob=0.0,
        fp_per_frame=0.0,
        jitter_std=0.0,
    )
    # agent 1 (index 0) walks right behind static agent 2 (index 1); agent 3
    # (index 2) drifts along the bottom; nothing ever reaches the background
    # box. The 51 px start keeps every score clear of the band thresholds.
    boxes = np.empty((frames, 3, 4))
    for f in range(frames):
        boxes[f, 0] = (51.0 + 3.0 * f, 100.0, 30.0, 60.0)
        boxes[f, 1] = (200.0, 100.0, 20.0, 60.0)
        boxes[f, 2] = (60.0 + 2.0 * f, 220.0, 26.0, 50.0)
    gt, dets = generate(cfg, trajectories=boxes)

    background_box = BBox(330.0, 30.0, 24.0, 48.0)
    background_score = 0.35
    dets = sorted(
        dets + [
            Detection(frame=f, box=background_box, score=background_score)
            for f in range(1, frames + 1)
        ],
        key=lambda d: (d.frame, d.box.left, d.box.top),
    )
    # frame 40 is the last clear frame; overlap reaches 13 of 30 at frame 45
    # and peaks at 20 of 30 from frame 48
    return CrossingScenario(
        config=cfg,
        trajectories=boxes,
        gt=gt,
        detections=dets,
        key_frames=(40, 45, 48),
        occluded_identity=1,
        background_box=background_box,
        background_score=background_score,
    )


def ablation_corpus() -> list[tuple[str, ScenarioConfig]]:
    """Ten fixed-seed scenarios with enough crossings to exercise both the
    score-threshold sweep and the low-score box analysis."""
    corpus = []
    for i in range(10):
        cfg = ScenarioConfig(
            seed=201 + i,
            frames=160,
            field_size=(280.0, 280.0),
            agents=6 + (i % 4),
            speed_range=(1.2, 3.0),
            box_size_range=(18.0, 34.0),
            occlusion_decay=0.85,
            base_score=0.9,
            score_noise_std=0.04,
            miss_prob=0.02,
            fp_per_frame=0.25,
            fp_score_range=(0.1, 0.45),
            jitter_std=0.4,
        )
        corpus.append((f"synth-{i + 1:02d}", cfg))
    return corpus


def timing_config(agents: int = 100, frames: int = 1000) -> ScenarioConfig:
    """Large sparse scenario for throughput measurements: every agent is
    detected every frame, so the tracker holds `agents` live tracks."""
    return ScenarioConfig(
        seed=4242,
        frames=frames,
        field_size=(3000.0, 2000.0),
        agents=agents,
        speed_range=(1.0, 3.0),
        box_size_range=(20.0, 40.0),
        occlusion_decay=0.0,
        base_score=0.85,
        score_noise_std=0.02,
        miss_prob=0.0,
        fp_per_frame=0.0,
        jitter_std=0.3,
    )


def scenario_to_text(cfg: ScenarioConfig) -> str:
    """Plain key=value snapshot, including the PRNG identifier, parseable by
    :func:`scenario_from_text`."""
    lines = ["format=scenario-v1", f"prng={PRNG_ID}"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str) -> ScenarioConfig:
    known = {f.name: f for f in fields(ScenarioConfig)}
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in ("format", "prng"):
            continue
        if key not in known:
            raise ValueError(f"line {lineno}: unknown scenario key {key!r}")
        if key in ("seed", "frames", "agents"):
            kwargs[key] = int(raw)
        elif key in ("field_size", "speed_range", "box_size_range", "fp_score_range"):
            parts = raw.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: {key} needs two values")
            kwargs[key] = (float(parts[0]), float(parts[1]))
        else:
            kwargs[key] = float(raw)
    return ScenarioConfig(**kwargs)
