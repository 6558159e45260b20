"""Axis-aligned box geometry: representations, conversions and IoU similarity.

Every IoU is computed by one cell formula, ``_iou_cells``. ``_overlaps`` is
the one overlap gate: it finds the pairs of positive IoU between two box sets
by the x axis first, so its work follows the overlapping pairs rather than
every pair. ``iou_matrix_tlbr`` scores a small matrix by broadcasting and
scatters the gated pairs of a large one into zeros (see _GATE_CELLS);
``metrics`` gates each block of evaluation frames, and ``cli``'s low-score
report each score band, with the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

__all__ = ["BBox", "Detection", "iou_matrix_tlbr"]

# The largest absolute value a box coordinate or size may take, in pixels:
# far past any image, and small enough that box areas, Kalman variances and
# their sums stay finite (a 1e200 box overflows both).
BOX_LIMIT = 1e9
# The smallest width or height a box may have, in pixels. Far below any real
# detection, and large enough that the aspect width / height stays finite and
# that a box at +-BOX_LIMIT still spans many float steps (about 1.2e-7 there),
# so its edges, centre and size survive the tracker's arithmetic. A 1e-9 box
# at -1e9 is below that spacing and changes identity every frame.
BOX_MIN = 1e-3


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box stored as top-left corner plus size, in pixels.

    Coordinates are real-valued and deliberately unclipped: boxes may extend
    past image borders, which is legitimate for partially visible objects.
    All four values must be finite and at most BOX_LIMIT (1e9) in absolute
    value, and width and height at least BOX_MIN (1e-3).
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
        # abs(NaN) and abs(inf) fail the bound too
        if not (abs(self.left) <= BOX_LIMIT and abs(self.top) <= BOX_LIMIT
                and abs(self.width) <= BOX_LIMIT and abs(self.height) <= BOX_LIMIT):
            raise ValueError(
                f"box values must be finite and at most {BOX_LIMIT:g} in absolute "
                f"value, got {self.tlwh()}"
            )
        if not (self.width >= BOX_MIN and self.height >= BOX_MIN):
            raise ValueError(
                f"box size must be at least {BOX_MIN:g}, got {self.width} x {self.height}"
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


def _accepted_tlwh(left, top, width, height) -> np.ndarray:
    """BBox's rule over arrays: True where BBox(left, top, width, height)
    would accept the values (NaN fails every comparison, as it does there)."""
    return ((np.abs(left) <= BOX_LIMIT) & (np.abs(top) <= BOX_LIMIT)
            & (np.abs(width) <= BOX_LIMIT) & (np.abs(height) <= BOX_LIMIT)
            & (width >= BOX_MIN) & (height >= BOX_MIN))


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output: a scored box on a given frame (frames are 1-based
    integers; numpy integers are accepted, bools are not). The box must be a
    BBox and the score a real number in [0, 1], kept as given (bools are
    rejected); the tracker compares scores as float64 values."""

    frame: int
    box: BBox
    score: float

    def __post_init__(self):
        frame = self.frame
        if type(frame) is not int and (isinstance(frame, bool) or not isinstance(frame, Integral)):
            raise ValueError(f"frame index must be an integer, got {frame!r}")
        if frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if type(self.box) is not BBox and not isinstance(self.box, BBox):
            raise ValueError(f"box must be a BBox, got {self.box!r}")
        score = self.score
        if type(score) is not float and (isinstance(score, bool) or not isinstance(score, Real)):
            raise ValueError(f"score must be a real number, got {score!r}")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {score}")


# iou_matrix_tlbr broadcasts below this many cells (N x M) and gates at or
# above it. The gate costs about 55 us before any pair is scored, the
# broadcast about 10 us per 1,000 cells. Medians over tracker calls on
# crowd_clean and crowd_occluded scenes of k agents (2 cores, Python 3.11.7,
# numpy 2.4.6), broadcast / gate in us:
#   2,025 cells 41 / 58;  3,025 49 / 57;  4,096 60 / 62;  4,530 67 / 73;
#   5,184 69 / 64;  5,762 78 / 75;  6,400 77 / 64;  40,000 372 / 119.
# The two cross between 4,500 and 5,200 cells.
_GATE_CELLS = 5000
# Candidate pairs the gate expands and scores at a time.
_PAIR_CHUNK = 1 << 13


def iou_matrix_tlbr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) / (M, 4) tlbr arrays.

    Degenerate rows (non-positive extent) get zero similarity instead of an
    error; this lets callers feed raw motion predictions without pre-filtering.
    Cells whose union is not positive (or is NaN) are 0. Both sides of the
    _GATE_CELLS crossover give the same bytes: every cell the gate skips is
    one the broadcast scores as 0.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        return np.zeros((n, m), dtype=float)
    # contiguous edge rows: numpy's loops run faster on them than on a.T's
    a, b = a.T.copy(), b.T.copy()
    if n * m < _GATE_CELLS:
        return _iou_cells(a[:, :, None], b[:, None, :])
    out = np.zeros((n, m), dtype=float)
    rows, cols, ious = _overlaps(a, b)
    out[rows, cols] = ious
    return out


def _lex(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """(major, minor) pairs as complex numbers, which numpy orders
    lexicographically in sorts, searches and maxima."""
    out = np.empty(len(major), dtype=complex)
    out.real = major
    out.imag = minor
    return out


def _windows(lo: np.ndarray, hi: np.ndarray, chunk: int):
    """The (row, col) pairs of row i with every col in [lo[i], hi[i]), in
    batches of whole rows of at most ``chunk`` pairs (a row with more than
    ``chunk`` is a batch of its own)."""
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    a = 0
    while a < len(counts):
        base = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + chunk, "right")))
        total = int(ends[b - 1]) - base
        if total:
            n = counts[a:b]
            rows = np.repeat(np.arange(a, b), n)
            yield rows, np.arange(total) + np.repeat(lo[a:b] - (ends[a:b] - n - base), n)
        a = b


def _overlaps(a, b, a_frame=None, b_frame=None, chunk: int = _PAIR_CHUNK):
    """The pairs of positive IoU between boxes given as (4, n) and (4, m)
    (left, top, right, bottom) edge columns, as (a row, b row, IoU) columns.

    With frame columns for both sides, only pairs of the same frame count.
    A positive IoU needs overlapping x and y extents, so the x axis gates the
    candidates: b is ordered by left edge (by frame, then left edge, with
    frames), and an a box's candidates are the b boxes of its frame whose
    left edge lies before its right edge, from the first whose running
    maximum right edge (in that order) passes its left edge. Two searches
    find each window; the remaining edge tests run on the candidates, at most
    ``chunk`` at a time, before _iou_cells scores the survivors. Rows or
    edges that are NaN or inverted only widen a window or fail a test, so no
    positive pair is missed.
    """
    b_left, b_right, a_left, a_right = b[0], b[2], a[0], a[2]
    if b_frame is not None:
        b_left, b_right = _lex(b_frame, b_left), _lex(b_frame, b_right)
        a_left, a_right = _lex(a_frame, a_left), _lex(a_frame, a_right)
    order = np.argsort(b_left)
    lo = np.searchsorted(np.maximum.accumulate(b_right[order]), a_left, "right")
    hi = np.searchsorted(b_left[order], a_right, "left")
    parts = []
    for rows, cols in _windows(lo, hi, chunk):
        cols = order[cols]
        # one edge row at a time: (4, chunk) gathers would be large enough to
        # raise glibc's mmap threshold and leave heap residue behind
        near = (b[2, cols] > a[0, rows]) & (b[3, cols] > a[1, rows]) & (b[1, cols] < a[3, rows])
        rows, cols = rows[near], cols[near]
        # take gathers C-ordered edge rows, which _iou_cells runs faster on
        ious = _iou_cells(a.take(rows, axis=1), b.take(cols, axis=1))
        keep = ious > 0.0
        parts.append((rows[keep], cols[keep], ious[keep]))
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _iou_cells(a, b) -> np.ndarray:
    """IoU of boxes given as (left, top, right, bottom) edge arrays that
    broadcast against each other: (N, 1) against (1, M) edges give
    iou_matrix_tlbr's matrix, equal-length rows give row-wise pairs. Cells
    whose union is not positive (or is NaN) are 0."""
    # per axis max(min(right) - max(left), 0), x and y stacked, in place;
    # each cell sees the operations of the (N, M, 2) formula in the same
    # order, so the matrix is bit-identical to it
    overlap = np.minimum(a[2:], b[2:])
    overlap -= np.maximum(a[:2], b[:2])
    np.maximum(overlap, 0.0, out=overlap)
    inter, union = overlap
    np.multiply(inter, union, out=inter)
    size_a, size_b = np.maximum(a[2:] - a[:2], 0.0), np.maximum(b[2:] - b[:2], 0.0)
    np.add(size_a[0] * size_a[1], size_b[0] * size_b[1], out=union)
    union -= inter
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0.0)
