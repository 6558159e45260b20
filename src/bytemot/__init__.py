"""Detector-agnostic multi-object tracking toolkit.

Two-stage IoU association over high- and low-score detections with a
constant-velocity Kalman motion model, exact linear assignment, tracklet
interpolation, MOT-format file handling, CLEAR/IDF1 evaluation and a
deterministic synthetic-scenario generator.
"""

from .assignment import Assignment, min_cost_assignment, solve
from .geometry import BBox, Detection
from .kalman import KalmanFilter, MotionState
from .metrics import EvalResult, GtEntry, aggregate, clear_mot, evaluate, idf1
from .mot_io import (
    ParseError,
    group_by_frame,
    read_detections,
    read_gt,
    read_results,
    write_detections,
    write_gt,
    write_results,
)
from .postprocess import TrackEntry, interpolate
from .synth import ScenarioConfig, ablation_corpus, crossing_preset, generate
from .tracker import (
    ByteTracker,
    FrameResult,
    Mode,
    Track,
    TrackerConfig,
    TrackState,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BBox",
    "ByteTracker",
    "Detection",
    "EvalResult",
    "FrameResult",
    "GtEntry",
    "KalmanFilter",
    "Mode",
    "MotionState",
    "ParseError",
    "ScenarioConfig",
    "Track",
    "TrackEntry",
    "TrackState",
    "TrackerConfig",
    "ablation_corpus",
    "aggregate",
    "clear_mot",
    "crossing_preset",
    "evaluate",
    "generate",
    "group_by_frame",
    "idf1",
    "interpolate",
    "min_cost_assignment",
    "read_detections",
    "read_gt",
    "read_results",
    "solve",
    "write_detections",
    "write_gt",
    "write_results",
]
