import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytemot import geometry
from bytemot.geometry import (
    BOX_LIMIT, BOX_MIN, BBox, Detection, _accepted_tlwh, _iou_cells, iou, iou_matrix_tlbr,
)
from oracles import iou_matrix_tlbr_dense, rasterized_iou


def tlwh(l, t, w, h):
    return BBox(l, t, w, h)


def iou_matrix(tracks, dets):
    """IoU of two box lists through iou_matrix_tlbr, one row per track box."""
    return iou_matrix_tlbr([b.tlbr() for b in tracks], [b.tlbr() for b in dets])


boxes = st.builds(
    BBox,
    left=st.floats(-500, 500),
    top=st.floats(-500, 500),
    width=st.floats(0.5, 300),
    height=st.floats(0.5, 300),
)


class TestBBox:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, -1)

    @pytest.mark.parametrize("size", [(1e9, 1e-300), (1e-9, 1e-9), (5e-4, 10.0),
                                      (10.0, math.nextafter(BOX_MIN, 0.0))])
    def test_rejects_sizes_below_minimum(self, size):
        # a 1e9 x 1e-300 box had an infinite aspect, and a stationary one
        # got a new identity every frame
        with pytest.raises(ValueError, match="at least 0.001"):
            BBox(0, 0, *size)

    def test_accepts_minimum_size(self):
        b = BBox(-BOX_LIMIT, BOX_LIMIT, BOX_MIN, BOX_MIN)
        assert math.isfinite(b.cxcyah()[2])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_rejects_non_finite_values(self, field, value):
        values = [1.0, 2.0, 3.0, 4.0]
        values[field] = value
        with pytest.raises(ValueError, match="finite"):
            BBox(*values)

    @pytest.mark.parametrize("field", range(4))
    def test_rejects_values_beyond_limit(self, field):
        # a 1e200 box overflowed the Kalman variances and the IoU areas
        beyond = math.nextafter(BOX_LIMIT, math.inf)
        for value in (1e200, beyond, -beyond):
            values = [1.0, 2.0, 3.0, 4.0]
            values[field] = value
            with pytest.raises(ValueError, match="at most 1e\\+09 in absolute value"):
                BBox(*values)

    def test_accepts_values_at_limit(self):
        b = BBox(-BOX_LIMIT, BOX_LIMIT, BOX_LIMIT, BOX_LIMIT)
        assert b.tlwh() == (-BOX_LIMIT, BOX_LIMIT, BOX_LIMIT, BOX_LIMIT)

    def test_views(self):
        b = tlwh(3, 4, 8, 8)
        assert b.tlbr() == (3, 4, 11, 12)
        assert b.cxcyah() == (7, 8, 1.0, 8)

    def test_cxcyah_example(self):
        assert tlwh(0, 0, 10, 20).cxcyah() == (5, 10, 0.5, 20)

    @given(boxes)
    def test_tlbr_round_trip(self, b):
        back = BBox.from_tlbr(*b.tlbr())
        assert math.isclose(back.left, b.left, abs_tol=1e-9)
        assert math.isclose(back.top, b.top, abs_tol=1e-9)
        assert math.isclose(back.width, b.width, abs_tol=1e-9)
        assert math.isclose(back.height, b.height, abs_tol=1e-9)

    @given(boxes)
    def test_cxcyah_round_trip(self, b):
        cx, cy, aspect, height = b.cxcyah()
        width = aspect * height
        back = BBox(cx - width / 2.0, cy - height / 2.0, width, height)
        for got, want in zip(back.tlwh(), b.tlwh()):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-9)


class TestDetection:
    def test_score_bounds(self):
        with pytest.raises(ValueError):
            Detection(1, tlwh(0, 0, 1, 1), 1.5)
        with pytest.raises(ValueError):
            Detection(0, tlwh(0, 0, 1, 1), 0.5)

    @pytest.mark.parametrize("frame", [1.5, 2.0, True, np.float64(3.0), "3", None])
    def test_rejects_non_integer_frames(self, frame):
        with pytest.raises(ValueError, match="frame index must be an integer"):
            Detection(frame, tlwh(0, 0, 1, 1), 0.5)

    def test_accepts_numpy_integer_frames(self):
        assert Detection(np.int64(3), tlwh(0, 0, 1, 1), 0.5).frame == 3

    @pytest.mark.parametrize("box", [(0, 0, 1, 1), [0.0, 0.0, 1.0, 1.0], None, "box"])
    def test_rejects_a_box_that_is_not_a_bbox(self, box):
        with pytest.raises(ValueError, match="box must be a BBox"):
            Detection(1, box, 0.5)

    @pytest.mark.parametrize("score", [True, False, np.True_, "0.5", None, 0.5j, [0.5]])
    def test_rejects_a_score_that_is_not_a_real_number(self, score):
        with pytest.raises(ValueError, match="score must be a real number"):
            Detection(1, tlwh(0, 0, 1, 1), score)

    @pytest.mark.parametrize("score", [0, 1, 0.5, np.float64(0.25), np.float32(0.75), np.int64(1)])
    def test_keeps_a_real_score_as_given(self, score):
        kept = Detection(1, tlwh(0, 0, 1, 1), score).score
        assert kept is score


class TestIou:
    def test_identity(self):
        b = tlwh(12.5, -3.0, 17.0, 40.0)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(tlwh(0, 0, 1, 1), tlwh(5, 5, 1, 1)) == 0.0

    def test_partial_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert math.isclose(iou(tlwh(0, 0, 2, 2), tlwh(1, 1, 2, 2)), 1 / 7)

    def test_touching_edges_is_zero(self):
        assert iou(tlwh(0, 0, 1, 1), tlwh(1, 0, 1, 1)) == 0.0

    @given(boxes, boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes, boxes, st.floats(-200, 200), st.floats(-200, 200))
    def test_translation_invariance(self, a, b, dx, dy):
        shifted_a = BBox(a.left + dx, a.top + dy, a.width, a.height)
        shifted_b = BBox(b.left + dx, b.top + dy, b.width, b.height)
        assert math.isclose(
            iou(shifted_a, shifted_b), iou(a, b), rel_tol=1e-9, abs_tol=1e-9
        )

    def test_one_only_for_equal_boxes(self):
        a = tlwh(0, 0, 10, 10)
        b = tlwh(0, 0, 10, 10.0001)
        assert iou(a, b) < 1.0

    def test_against_rasterization_oracle(self):
        # boxes on an eighth-pixel lattice so cell counting is exact
        rng = np.random.default_rng(12345)
        for _ in range(100):
            l1, t1, l2, t2 = rng.integers(0, 400, size=4)
            w1, h1, w2, h2 = rng.integers(1, 120, size=4)
            a = BBox(l1 / 8, t1 / 8, w1 / 8, h1 / 8)
            b = BBox(l2 / 8, t2 / 8, w2 / 8, h2 / 8)
            expected = rasterized_iou(
                (l1, t1, l1 + w1, t1 + h1), (l2, t2, l2 + w2, t2 + h2)
            )
            assert math.isclose(iou(a, b), expected, rel_tol=1e-6, abs_tol=1e-9)


class TestIouMatrix:
    def test_empty_rows(self):
        m = iou_matrix([], [tlwh(0, 0, 1, 1)])
        assert m.shape == (0, 1)

    def test_empty_cols(self):
        m = iou_matrix([tlwh(0, 0, 1, 1)], [])
        assert m.shape == (1, 0)

    def test_identity_cell(self):
        b = tlwh(2, 3, 4, 5)
        assert iou_matrix([b], [b]).tolist() == [[1.0]]

    def test_entries_match_pairwise_iou(self):
        tracks = [tlwh(0, 0, 2, 2)]
        dets = [tlwh(1, 1, 2, 2), tlwh(10, 10, 2, 2)]
        m = iou_matrix(tracks, dets)
        assert m.shape == (1, 2)
        assert math.isclose(m[0, 0], 1 / 7)
        assert m[0, 1] == 0.0

    @settings(max_examples=30)
    @given(st.lists(boxes, max_size=4), st.lists(boxes, max_size=4))
    def test_matches_scalar_iou(self, tracks, dets):
        m = iou_matrix(tracks, dets)
        assert m.shape == (len(tracks), len(dets))
        for i, a in enumerate(tracks):
            for j, b in enumerate(dets):
                assert math.isclose(m[i, j], iou(a, b), rel_tol=1e-12, abs_tol=1e-12)


# Corner values on a coarse grid make touching, identical and zero-extent
# boxes common; the special values cover non-finite and signed-zero input.
corner = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-50, 50),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
tlbr_rows = st.lists(st.tuples(corner, corner, corner, corner), max_size=6)


@st.composite
def tlbr_pairs(draw):
    """Two tlbr arrays where the second may reuse rows of the first, so
    identical boxes meet across the matrix."""
    a = draw(tlbr_rows)
    b = draw(tlbr_rows)
    if a:
        b += draw(st.lists(st.sampled_from(a), max_size=3))
    return np.array(a, dtype=float).reshape(-1, 4), np.array(b, dtype=float).reshape(-1, 4)


@st.composite
def gate_layouts(draw):
    """Prediction rows against detection rows for the overlap gate: boxes on
    a coarse grid (equal left edges, touching edges, identical boxes), a few
    rows degenerate (zero or negative extent) or carrying NaN or infinite
    corners, as motion predictions can."""
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def rows(k):
        xy = rng.integers(-6, 6, size=(k, 2)).astype(float)
        wh = rng.integers(-1, 5, size=(k, 2)).astype(float)
        out = np.hstack([xy, xy + wh])
        bad = rng.random(out.shape) < 0.05
        out[bad] = rng.choice([math.nan, math.inf, -math.inf, -0.0], size=bad.sum())
        return out

    a = rows(n)
    b = np.vstack([rows(m), a[rng.integers(0, n, size=min(n, 3))]]) if n else rows(m)
    return a, b


class TestIouMatrixEquivalence:
    """The plane-wise IoU must reproduce the dense (N, M, 2) formula bit for
    bit, NaN cells and signed zeros included, on both sides of the
    _GATE_CELLS crossover: forced through the overlap gate (crossover 0) and
    forced through the broadcast (a crossover no matrix reaches)."""

    @staticmethod
    def assert_bit_identical(a, b):
        with np.errstate(all="ignore"):
            want = iou_matrix_tlbr_dense(a, b)
            for cells in (0, 10**18):
                with mock.patch.object(geometry, "_GATE_CELLS", cells):
                    got = iou_matrix_tlbr(a, b)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300)
    @given(tlbr_pairs())
    def test_bit_identical_to_dense_formula(self, pair):
        self.assert_bit_identical(*pair)

    @settings(max_examples=300)
    @given(gate_layouts())
    def test_bit_identical_on_grid_layouts(self, pair):
        self.assert_bit_identical(*pair)

    def test_bit_identical_on_random_layouts(self):
        # arbitrary doubles, where any reordered rounding step would show
        rng = np.random.default_rng(7)
        for _ in range(100):
            n, m = rng.integers(1, 40, size=2)
            xy = rng.uniform(0, 200, size=(n + m, 2))
            boxes = np.hstack([xy, xy + rng.uniform(1, 60, size=(n + m, 2))])
            self.assert_bit_identical(boxes[:n], boxes[n:])

    def test_default_crossover_on_crowds(self):
        # crowds on both sides of the default crossover (70 x 70 broadcasts,
        # 71 x 71 gates)
        rng = np.random.default_rng(14)
        for n in (10, 70, 71, 150):
            xy = rng.uniform(0, 600, size=(2 * n, 2))
            boxes = np.hstack([xy, xy + rng.uniform(20, 60, size=(2 * n, 2))])
            a, b = boxes[:n], boxes[n:] + rng.normal(0, 3, size=(n, 4))
            got, want = iou_matrix_tlbr(a, b), iou_matrix_tlbr_dense(a, b)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_gate_skips_only_zero_cells(self):
        # touching edges, equal left edges and a NaN row through the gate
        a = np.array([[0.0, 0.0, 2.0, 2.0], [2.0, 0.0, 4.0, 2.0], [np.nan, 0.0, 1.0, 1.0]])
        b = np.array([[0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 2.0, 2.0], [2.0, 2.0, 3.0, 3.0]])
        with mock.patch.object(geometry, "_GATE_CELLS", 0):
            got = iou_matrix_tlbr(a, b)
        assert got.tolist() == [[0.5, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

    def test_degenerate_touching_and_identical(self):
        a = np.array([
            [0.0, 0.0, 1.0, 1.0],   # unit box
            [1.0, 0.0, 2.0, 1.0],   # touches the unit box on its right edge
            [3.0, 3.0, 3.0, 5.0],   # zero width
            [5.0, 5.0, 4.0, 4.0],   # inverted corners
        ])
        got = iou_matrix_tlbr(a, a)
        assert np.array_equal(got, iou_matrix_tlbr_dense(a, a))
        assert got[0, 0] == 1.0 and got[1, 1] == 1.0
        assert got[0, 1] == 0.0 and got[1, 0] == 0.0
        assert not got[2:].any() and not got[:, 2:].any()


# Boxes with corners on a coarse grid meet at shared edges, identical corners
# and exact IoU fractions; the float ones add arbitrary rounding.
grid_boxes = st.builds(
    BBox,
    left=st.integers(-4, 4).map(float),
    top=st.integers(-4, 4).map(float),
    width=st.integers(1, 6).map(float),
    height=st.integers(1, 6).map(float),
)


class TestIouCells:
    """The row-wise pair IoU metrics uses must equal iou_matrix_tlbr's cells bit for bit,
    and scalar iou for valid boxes."""

    @settings(max_examples=300)
    @given(tlbr_pairs())
    def test_bit_identical_to_matrix_cells(self, pair):
        a, b = pair
        rows = np.repeat(np.arange(len(a)), len(b))
        cols = np.tile(np.arange(len(b)), len(a))
        with np.errstate(all="ignore"):
            got = _iou_cells(a[rows].T, b[cols].T)
            want = iou_matrix_tlbr(a, b).reshape(-1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.one_of(grid_boxes, boxes), st.one_of(grid_boxes, boxes)),
                    min_size=1, max_size=8))
    def test_equals_scalar_iou(self, pairs):
        a = np.array([p.tlbr() for p, _ in pairs])
        b = np.array([q.tlbr() for _, q in pairs])
        got = _iou_cells(a.T, b.T)
        want = np.array([iou(p, q) for p, q in pairs])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty(self):
        assert _iou_cells(np.zeros((4, 0)), np.zeros((4, 0))).shape == (0,)


# every bound of BBox's rule, one float step either side of it, and values
# no rule admits
EDGE_VALUES = [
    BOX_LIMIT, -BOX_LIMIT, math.nextafter(BOX_LIMIT, math.inf),
    math.nextafter(-BOX_LIMIT, -math.inf),
    math.nextafter(BOX_LIMIT, 0.0), BOX_MIN, math.nextafter(BOX_MIN, 0.0),
    math.nextafter(BOX_MIN, 1.0), 0.0, -0.0, -BOX_MIN, 5e-324, 1.0, -1.0,
    math.inf, -math.inf, math.nan,
]
box_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-100, 100),
                       st.floats(allow_nan=True, allow_infinity=True))


class TestAcceptedMask:
    """The readers' box mask accepts exactly the values BBox accepts."""

    @staticmethod
    def accepts(values) -> bool:
        try:
            BBox(*values)
        except ValueError:
            return False
        return True

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(box_values, box_values, box_values, box_values), min_size=1,
                    max_size=20))
    def test_mask_equals_bbox_rule(self, rows):
        got = _accepted_tlwh(*np.array(rows, dtype=float).T)
        assert got.tolist() == [self.accepts(row) for row in rows]

    def test_each_edge_value_in_each_field(self):
        rows = []
        for i in range(4):
            for value in EDGE_VALUES:
                row = [10.0, 20.0, 30.0, 40.0]
                row[i] = value
                rows.append(row)
        got = _accepted_tlwh(*np.array(rows).T)
        assert got.tolist() == [self.accepts(row) for row in rows]
