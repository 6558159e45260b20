import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytemot.geometry import BOX_MIN, BBox
from bytemot.postprocess import TrackEntry, interpolate
from oracles import linear_interp_scalar


def entry(frame, tlbr, score=0.9, interpolated=False):
    return TrackEntry(frame, BBox.from_tlbr(*tlbr), score, interpolated)


class TestInterpolate:
    def test_midpoint(self):
        dump = {1: [entry(10, (0, 0, 10, 10)), entry(20, (20, 0, 30, 10))]}
        out = interpolate(dump, sigma=20)
        mid = [e for e in out[1] if e.frame == 15][0]
        assert mid.box.tlbr() == (10, 0, 20, 10)
        assert mid.interpolated

    def test_gap_above_sigma_untouched(self):
        dump = {1: [entry(10, (0, 0, 10, 10)), entry(31, (20, 0, 30, 10))]}
        out = interpolate(dump, sigma=20)
        assert [e.frame for e in out[1]] == [10, 31]

    def test_gap_exactly_sigma_filled(self):
        dump = {1: [entry(10, (0, 0, 10, 10)), entry(30, (20, 0, 30, 10))]}
        out = interpolate(dump, sigma=20)
        assert [e.frame for e in out[1]] == list(range(10, 31))

    def test_quarter_point_example(self):
        dump = {1: [entry(0, (0, 0, 4, 4)), entry(4, (4, 4, 8, 8))]}
        out = interpolate(dump, sigma=20)
        at1 = [e for e in out[1] if e.frame == 1][0]
        assert at1.box.tlbr() == (1, 1, 5, 5)

    def test_matches_per_coordinate_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t1 = int(rng.integers(1, 50))
            t2 = t1 + int(rng.integers(2, 21))
            b1 = np.sort(rng.uniform(0, 200, 4).reshape(2, 2), axis=1).T.ravel()
            b2 = np.sort(rng.uniform(0, 200, 4).reshape(2, 2), axis=1).T.ravel()
            b1[2:] += 1.0
            b2[2:] += 1.0
            dump = {1: [entry(t1, tuple(b1)), entry(t2, tuple(b2))]}
            out = interpolate(dump, sigma=25)
            for e in out[1]:
                if not e.interpolated:
                    continue
                expected = [
                    linear_interp_scalar(t1, v1, t2, v2, e.frame)
                    for v1, v2 in zip(b1, b2)
                ]
                assert list(e.box.tlbr()) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_idempotent(self):
        dump = {
            1: [entry(1, (0, 0, 10, 10)), entry(6, (10, 0, 20, 10)), entry(40, (0, 0, 10, 10))],
            2: [entry(3, (50, 50, 60, 70))],
        }
        once = interpolate(dump, sigma=10)
        twice = interpolate(once, sigma=10)
        assert once == twice

    def test_endpoints_preserved_bit_identical(self):
        e1 = entry(1, (0.123456, 0, 10, 10), score=0.77)
        e2 = entry(9, (5, 5, 15, 15), score=0.31)
        out = interpolate({4: [e1, e2]}, sigma=10)
        assert out[4][0] is e1
        assert out[4][-1] is e2

    def test_inserted_boxes_are_convex_combinations(self):
        e1 = entry(1, (0, 0, 10, 10), score=0.9)
        e2 = entry(11, (30, -5, 45, 20), score=0.3)
        out = interpolate({1: [e1, e2]}, sigma=15)
        lo = np.minimum(e1.box.tlbr(), e2.box.tlbr())
        hi = np.maximum(e1.box.tlbr(), e2.box.tlbr())
        for e in out[1]:
            assert np.all(np.asarray(e.box.tlbr()) >= lo - 1e-12)
            assert np.all(np.asarray(e.box.tlbr()) <= hi + 1e-12)
            assert min(e1.score, e2.score) - 1e-12 <= e.score <= max(e1.score, e2.score) + 1e-12

    @pytest.mark.parametrize("left", [5e8 + 0.17363, -5e8 - 0.3, -3e8 - 0.9])
    def test_minimum_size_boxes_far_from_origin(self, left):
        # right - left of a BOX_MIN box rounds to just below BOX_MIN here
        box = BBox(left, -left, BOX_MIN, BOX_MIN)
        out = interpolate({1: [TrackEntry(1, box, 0.9), TrackEntry(3, box, 0.9)]})
        mid = out[1][1].box
        assert (mid.left, mid.top) == (box.left, box.top)
        assert mid.width == pytest.approx(BOX_MIN, rel=1e-3)
        assert mid.height == pytest.approx(BOX_MIN, rel=1e-3)

    def test_sigma_zero_is_identity(self):
        dump = {1: [entry(1, (0, 0, 10, 10)), entry(5, (5, 0, 15, 10))]}
        assert interpolate(dump, sigma=0) == dump

    @pytest.mark.parametrize("sigma", [float("nan"), True, False, 2.5, 2.0, "3", None])
    def test_rejects_a_sigma_that_is_not_an_integer(self, sigma):
        dump = {1: [entry(1, (0, 0, 10, 10)), entry(3, (5, 0, 15, 10))]}
        with pytest.raises(ValueError, match=f"sigma must be an integer, got {sigma!r}"):
            interpolate(dump, sigma=sigma)

    def test_numpy_integer_sigma_accepted(self):
        dump = {1: [entry(1, (0, 0, 10, 10)), entry(3, (4, 0, 14, 10))]}
        assert interpolate(dump, sigma=np.int64(2)) == interpolate(dump, sigma=2)
        assert [e.frame for e in interpolate(dump, sigma=np.int32(2))[1]] == [1, 2, 3]

    def test_rejects_unsorted_frames(self):
        dump = {1: [entry(5, (0, 0, 10, 10)), entry(5, (1, 0, 11, 10))]}
        with pytest.raises(ValueError):
            interpolate(dump)

    @settings(max_examples=40)
    @given(
        st.dictionaries(
            st.integers(1, 5),
            st.lists(
                st.integers(1, 60).map(
                    lambda f: entry(f, (f * 1.5, 2.0, f * 1.5 + 12.0, 20.0), score=0.5)
                ),
                max_size=8,
                unique_by=lambda e: e.frame,
            ).map(lambda es: sorted(es, key=lambda e: e.frame)),
            max_size=4,
        ),
        st.integers(0, 25),
    )
    def test_idempotence_property(self, dump, sigma):
        once = interpolate(dump, sigma=sigma)
        assert interpolate(once, sigma=sigma) == once

