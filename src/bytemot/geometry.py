"""Axis-aligned box geometry: representations, conversions and IoU similarity."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral

import numpy as np

__all__ = ["BBox", "Detection", "iou", "iou_matrix_tlbr"]


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box stored as top-left corner plus size, in pixels.

    Coordinates are real-valued and deliberately unclipped: boxes may extend
    past image borders, which is legitimate for partially visible objects.
    All four values must be finite, and width and height strictly positive.
    The tlbr (corner pair) and cxcyah (center-x, center-y, aspect w/h, height)
    encodings are derived views of the same box.
    """

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "left", float(self.left))
        object.__setattr__(self, "top", float(self.top))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        if not (isfinite(self.left) and isfinite(self.top)
                and isfinite(self.width) and isfinite(self.height)):
            raise ValueError(f"box values must be finite, got {self.tlwh()}")
        if not (self.width > 0.0 and self.height > 0.0):
            raise ValueError(
                f"box size must be positive, got {self.width} x {self.height}"
            )

    @classmethod
    def from_tlbr(cls, left: float, top: float, right: float, bottom: float) -> "BBox":
        return cls(left, top, right - left, bottom - top)

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    def tlwh(self) -> tuple[float, float, float, float]:
        return (self.left, self.top, self.width, self.height)

    def tlbr(self) -> tuple[float, float, float, float]:
        return (self.left, self.top, self.right, self.bottom)

    def cxcyah(self) -> tuple[float, float, float, float]:
        return (
            self.left + self.width / 2.0,
            self.top + self.height / 2.0,
            self.width / self.height,
            self.height,
        )


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output: a scored box on a given frame (frames are 1-based
    integers; numpy integers are accepted, bools are not)."""

    frame: int
    box: BBox
    score: float

    def __post_init__(self):
        frame = self.frame
        if type(frame) is not int and (isinstance(frame, bool) or not isinstance(frame, Integral)):
            raise ValueError(f"frame index must be an integer, got {frame!r}")
        if frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Continuous geometry (no inclusive-pixel +1 convention); symmetric, zero
    for disjoint boxes and exactly 1.0 for identical ones.
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


def iou_matrix_tlbr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) / (M, 4) tlbr arrays.

    Degenerate rows (non-positive extent) get zero similarity instead of an
    error; this lets callers feed raw motion predictions without pre-filtering.
    Cells whose union is not positive (or is NaN) are 0.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=float)
    return _iou_cells(a.T[:, :, None], b.T[:, None, :])


def _iou_cells(a, b) -> np.ndarray:
    """IoU of boxes given as (left, top, right, bottom) edge arrays that
    broadcast against each other: (N, 1) against (1, M) edges give
    iou_matrix_tlbr's matrix, equal-length rows give row-wise pairs. Cells
    whose union is not positive (or is NaN) are 0."""
    al, at, ar, ab = a
    bl, bt, br, bb = b
    # per axis max(min(right) - max(left), 0) on the broadcast planes, in
    # place; each cell sees the operations of the (N, M, 2) formula in the
    # same order, so the matrix is bit-identical to it
    iw = np.minimum(ar, br)
    iw -= np.maximum(al, bl)
    np.maximum(iw, 0.0, out=iw)
    ih = np.minimum(ab, bb)
    ih -= np.maximum(at, bt)
    np.maximum(ih, 0.0, out=ih)
    inter = np.multiply(iw, ih, out=iw)
    area_a = np.maximum(ar - al, 0.0) * np.maximum(ab - at, 0.0)
    area_b = np.maximum(br - bl, 0.0) * np.maximum(bb - bt, 0.0)
    union = np.add(area_a, area_b, out=ih)
    union -= inter
    positive = union > 0.0
    return np.divide(inter, union, out=np.zeros_like(union), where=positive)
