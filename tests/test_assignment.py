from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytemot.assignment import Assignment, min_cost_assignment, solve
from bytemot.geometry import iou_matrix_tlbr
from oracles import dp_assignment, enum_assignment, padded_full_assignment, ref_solve, total_cost


def check_partition(assign: Assignment, n: int, m: int):
    rows = [r for r, _ in assign.matches] + assign.unmatched_rows
    cols = [c for _, c in assign.matches] + assign.unmatched_cols
    assert sorted(rows) == list(range(n))
    assert sorted(cols) == list(range(m))


class TestExamples:
    def test_single_feasible_cell(self):
        a = min_cost_assignment(np.array([[0.0]]), min_iou=0.2)
        assert a.matches == [(0, 0)]
        assert a.unmatched_rows == [] and a.unmatched_cols == []

    def test_two_by_two_diagonal(self):
        cost = np.array([[0.1, 0.9], [0.9, 0.1]])
        a = min_cost_assignment(cost, min_iou=0.0)
        assert a.matches == [(0, 0), (1, 1)]
        assert total_cost(a, cost) == pytest.approx(0.2)

    def test_all_entries_infeasible(self):
        # feasibility bound is cost <= 0.8, every entry is 0.95
        a = min_cost_assignment(np.full((2, 2), 0.95), min_iou=0.2)
        assert a.matches == []
        assert a.unmatched_rows == [0, 1]
        assert a.unmatched_cols == [0, 1]

    def test_rectangular_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cost = rng.uniform(0, 1, size=(3, 2))
            a = solve(cost)
            card, total = enum_assignment(cost, np.ones((3, 2), dtype=bool))
            assert len(a.matches) == card
            assert total_cost(a, cost) == pytest.approx(total, abs=1e-12)

    def test_cardinality_beats_cost(self):
        # taking the cheap corner would block the only size-2 matching
        cost = np.array([[0.01, 0.4], [0.6, np.inf]])
        a = solve(cost)
        assert a.matches == [(0, 1), (1, 0)]

    def test_forced_pair_settled_beside_contested_block(self):
        # (0, 2) is alone in its row and column, rows 1-2 contest columns
        # 0-1, and row 3 / column 3 have no feasible cell
        inf = np.inf
        cost = np.array([
            [inf, inf, 0.3, inf],
            [0.2, 0.1, inf, inf],
            [0.4, 0.6, inf, inf],
            [inf, inf, inf, inf],
        ])
        a = solve(cost)
        assert a.matches == [(0, 2), (1, 1), (2, 0)]
        assert a.unmatched_rows == [3] and a.unmatched_cols == [3]

    def test_empty_dimensions(self):
        a = solve(np.zeros((0, 3)))
        assert a.matches == [] and a.unmatched_cols == [0, 1, 2]
        a = solve(np.zeros((3, 0)))
        assert a.matches == [] and a.unmatched_rows == [0, 1, 2]

    def test_min_iou_validation(self):
        with pytest.raises(ValueError):
            min_cost_assignment(np.zeros((1, 1)), min_iou=1.0)

    def test_threshold_is_solver_level_not_pruning(self):
        # the unconstrained optimum is (0,0)+(1,1) at cost 0.9; entry (1,1)
        # is rejected by the 0.8 bound, and pruning it afterwards would
        # strand row 1, while solving under the constraint keeps two matches
        cost = np.array([[0.05, 0.75], [0.7, 0.85]])
        a = min_cost_assignment(cost, min_iou=0.2)
        assert a.matches == [(0, 1), (1, 0)]


class TestOracleEquivalence:
    def test_dp_agrees_with_literal_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n, m = rng.integers(1, 5, size=2)
            cost = rng.uniform(0, 1, size=(n, m))
            feasible = rng.random((n, m)) < 0.75
            assert dp_assignment(cost, feasible) == enum_assignment(cost, feasible)

    def test_solver_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, m = rng.integers(1, 7, size=2)
            cost = rng.uniform(0, 1, size=(n, m))
            feasible = rng.random((n, m)) < 0.8
            a = solve(cost, feasible)
            check_partition(a, n, m)
            assert all(feasible[r, c] for r, c in a.matches)
            card, total = dp_assignment(cost, feasible)
            assert len(a.matches) == card
            assert total_cost(a, cost) == pytest.approx(total, abs=1e-9)

    def test_negative_costs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            cost = rng.uniform(-5, 5, size=(4, 4))
            a = solve(cost)
            card, total = dp_assignment(cost, np.ones((4, 4), dtype=bool))
            assert len(a.matches) == card
            assert total_cost(a, cost) == pytest.approx(total, abs=1e-9)


class TestProperties:
    def test_transpose_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n, m = rng.integers(1, 6, size=2)
            cost = rng.uniform(0, 1, size=(n, m))
            feasible = rng.random((n, m)) < 0.8
            a = solve(cost, feasible)
            b = solve(cost.T, feasible.T)
            assert len(a.matches) == len(b.matches)
            assert total_cost(a, cost) == pytest.approx(
                total_cost(b, cost.T), abs=1e-9
            )

    def test_infeasibility_never_increases_cardinality(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            n, m = rng.integers(2, 6, size=2)
            cost = rng.uniform(0, 1, size=(n, m))
            feasible = np.ones((n, m), dtype=bool)
            before = len(solve(cost, feasible).matches)
            r, c = rng.integers(0, n), rng.integers(0, m)
            feasible[r, c] = False
            after = len(solve(cost, feasible).matches)
            assert after <= before

    def test_deterministic(self):
        cost = np.array([[0.5, 0.5], [0.5, 0.5]])
        first = solve(cost)
        for _ in range(5):
            assert solve(cost).matches == first.matches


@st.composite
def box_layouts(draw):
    """(1 - IoU cost, min_iou, rng) for tracks against detections laid out so
    that forced pairs, contested blocks or all-feasible matrices dominate."""
    kind = draw(st.sampled_from(["sparse", "blocks", "dense"]))
    seed = draw(st.integers(0, 2**32 - 1))
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    min_iou = draw(st.sampled_from([0.2, 0.5, 0.0]))
    rng = np.random.default_rng(seed)
    size = 30.0
    # objects sit at far-apart sites, most detections on a track's site; a
    # site holding one track and one detection is a forced pair, a site
    # holding more is contested
    pool = {"sparse": 2 * n + 2, "blocks": rng.integers(1, 4), "dense": 1}[kind]
    t_site = rng.integers(0, pool, size=n)
    d_site = np.where(
        rng.random(m) < 0.7, rng.choice(t_site, size=m), rng.integers(0, pool, size=m)
    )
    t_xy = np.stack([t_site * 200.0, np.zeros(n)], axis=1)
    d_xy = np.stack([d_site * 200.0, np.zeros(m)], axis=1)
    t_xy = t_xy + rng.uniform(-8, 8, size=(n, 2))
    d_xy = d_xy + rng.uniform(-8, 8, size=(m, 2))
    tracks = np.hstack([t_xy, t_xy + size])
    dets = np.hstack([d_xy, d_xy + size])
    return 1.0 - iou_matrix_tlbr(tracks, dets), min_iou, rng


class TestSettledSolveEquivalence:
    """Settling forced pairs before the padded solve must keep the
    lexicographic optimum of the full-matrix solver."""

    @settings(max_examples=200, deadline=None)
    @given(box_layouts())
    def test_same_cardinality_and_cost_as_oracle(self, layout):
        cost, min_iou, _ = layout
        n, m = cost.shape
        a = min_cost_assignment(cost, min_iou=min_iou)
        check_partition(a, n, m)
        assert a.matches == sorted(a.matches)
        feasible = cost <= 1.0 - min_iou
        assert all(feasible[r, c] for r, c in a.matches)
        card, total = dp_assignment(cost, feasible)
        assert len(a.matches) == card
        assert total_cost(a, cost) == pytest.approx(total, abs=1e-9)
        # ties included, the flat pass matches the dense-mask solve exactly
        assert a == ref_solve(cost, feasible)

    @settings(max_examples=200, deadline=None)
    @given(box_layouts())
    def test_same_matches_as_full_solver_without_ties(self, layout):
        cost, min_iou, rng = layout
        feasible = cost <= 1.0 - min_iou
        # distinct jitter breaks the ties between zero-overlap cells
        cost = cost + rng.uniform(0.0, 1e-3, size=cost.shape)
        a = solve(cost, feasible)
        assert (a.matches, a.unmatched_rows, a.unmatched_cols) == (
            padded_full_assignment(cost, feasible)
        )


@st.composite
def cost_problems(draw):
    """(cost, feasible mask or None) with non-finite entries, sparse or dense
    masks, repeated costs for ties and empty dimensions."""
    n, m = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = draw(st.sampled_from(["grid", "uniform", "negative"]))
    if values == "grid":
        cost = rng.integers(0, 4, size=(n, m)) / 4.0
    elif values == "uniform":
        cost = rng.uniform(0.0, 1.0, size=(n, m))
    else:
        cost = rng.uniform(-50.0, 50.0, size=(n, m))
    special = rng.random((n, m)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    cost[special] = rng.choice([np.inf, -np.inf, np.nan], size=special.sum())
    density = draw(st.sampled_from([None, 0.05, 0.2, 0.5, 1.0]))
    feasible = None if density is None else rng.random((n, m)) < density
    return cost, feasible


class TestFlatSolveEquivalence:
    """The flat pass over feasible cells must return the dense-mask solve's
    matches, tie-breaks and leftovers exactly."""

    @settings(max_examples=400, deadline=None)
    @given(cost_problems())
    def test_solve_equals_reference(self, problem):
        cost, feasible = problem
        assert solve(cost, feasible) == ref_solve(cost, feasible)

    @settings(max_examples=300, deadline=None)
    @given(cost_problems(), st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    def test_min_cost_assignment_equals_reference(self, problem, min_iou):
        cost, _ = problem
        with np.errstate(invalid="ignore"):
            want = ref_solve(cost, feasible=cost <= 1.0 - min_iou)
        assert min_cost_assignment(cost, min_iou=min_iou) == want

    def test_non_contiguous_cost(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(0, 1, size=(7, 9))[:, ::2].T
        feasible = cost < 0.6
        assert solve(cost, feasible) == ref_solve(cost, feasible)

    @pytest.mark.parametrize("value", [0.0, 0.3, 1.0, -5.0, 1e300, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("feasible", [None, True, False])
    def test_one_by_one_equals_reference(self, value, feasible):
        cost = np.array([[value]])
        mask = None if feasible is None else np.array([[feasible]])
        assert solve(cost, mask) == ref_solve(cost, mask)
        with np.errstate(invalid="ignore"):
            want = ref_solve(cost, feasible=cost <= 0.8)
        assert min_cost_assignment(cost, min_iou=0.2) == want

    def test_one_feasible_cell_skips_the_padded_solve(self):
        with mock.patch("bytemot.assignment.linear_sum_assignment") as lsap:
            assert solve(np.array([[0.4]])).matches == [(0, 0)]
            assert min_cost_assignment(np.array([[0.1]])).matches == [(0, 0)]
            assert solve(np.array([[0.4]]), np.array([[True]])).matches == [(0, 0)]
        lsap.assert_not_called()
