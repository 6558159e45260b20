"""Exact min-cost bipartite assignment with an infeasibility threshold.

The solver is lexicographic: among matchings that use only feasible entries
it first maximizes cardinality, then minimizes total cost. Infeasibility is
enforced before solving, never by pruning an unconstrained optimum, so a
rejected pairing can never shadow a feasible alternative.

Implementation: what the feasibility mask already decides is settled first.
Rows and columns without a feasible entry stay unmatched, and a feasible
entry alone in both its row and its column is matched. Such an entry is a
component of the feasibility graph on its own, so every maximum-cardinality
matching contains it at the same cost, and the lexicographic optimum of the
rest is the optimum of the whole. Only the contested remainder (the whole
matrix when nothing was settled, e.g. when every entry is feasible) goes to
the exact solve: the rectangular problem is embedded in a square matrix with
one dummy column per row and one dummy row per column (leaving an index
unmatched costs nothing), feasible costs are shifted down by a constant large
enough that every extra match beats any cost difference, and the result is
solved with scipy's O(n^3) rectangular assignment solver. Where two matchings
tie exactly in cost, the remainder's solve may pick a different one of them
than a solve of the full matrix would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["Assignment", "solve", "min_cost_assignment"]


@dataclass(frozen=True)
class Assignment:
    """Result of a matching: matched (row, col) pairs plus leftovers.

    matches is sorted by row index; every row and column index appears
    exactly once across matches and the unmatched lists.
    """

    matches: list[tuple[int, int]] = field(default_factory=list)
    unmatched_rows: list[int] = field(default_factory=list)
    unmatched_cols: list[int] = field(default_factory=list)


def _empty(n_rows: int, n_cols: int) -> Assignment:
    return Assignment([], list(range(n_rows)), list(range(n_cols)))


def solve(cost, feasible=None) -> Assignment:
    """Maximum-cardinality, then minimum-cost matching over feasible entries.

    cost: (n, m) array of finite values (non-finite entries are treated as
    infeasible). feasible: optional boolean mask of the same shape; entries
    marked False can never be matched.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-dimensional, got shape {cost.shape}")
    n, m = cost.shape
    mask = np.isfinite(cost)
    if feasible is not None:
        feasible = np.asarray(feasible, dtype=bool)
        if feasible.shape != cost.shape:
            raise ValueError("feasible mask shape must match the cost matrix")
        mask &= feasible
    if n == 0 or m == 0 or not mask.any():
        return _empty(n, m)

    row_deg = mask.sum(axis=1)
    col_deg = mask.sum(axis=0)
    # a feasible cell alone in both its row and its column is in every
    # maximum-cardinality matching at the same cost: settle it directly
    single = np.flatnonzero(row_deg == 1)
    single_col = mask[single].argmax(axis=1)
    alone = col_deg[single_col] == 1
    forced_r, forced_c = single[alone], single_col[alone]
    contested_rows = row_deg > 0
    contested_rows[forced_r] = False
    rr = np.flatnonzero(contested_rows)
    if len(rr) == 0:
        matches = list(zip(forced_r.tolist(), forced_c.tolist()))
    else:
        contested_cols = col_deg > 0
        contested_cols[forced_c] = False
        cc = np.flatnonzero(contested_cols)
        # one shift for the whole matrix, so each shifted cost handed to the
        # solver is the value the full padded matrix would hold
        usable = cost[mask]
        span = float(usable.max() - min(0.0, usable.min()))
        big = span * min(n, m) + 1.0
        if len(rr) == n and len(cc) == m:
            matches = _padded_solve(cost, mask, big)
        else:
            sub = (rr[:, None], cc)
            row_of, col_of = rr.tolist(), cc.tolist()
            matches = sorted(
                list(zip(forced_r.tolist(), forced_c.tolist()))
                + [(row_of[r], col_of[c])
                   for r, c in _padded_solve(cost[sub], mask[sub], big)]
            )

    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return Assignment(
        matches,
        [r for r in range(n) if r not in matched_rows],
        [c for c in range(m) if c not in matched_cols],
    )


def _padded_solve(cost, mask, big) -> list[tuple[int, int]]:
    """Exact LSAP on the (n+m)^2 embedding: one dummy column per row and one
    dummy row per column, so leaving an index unmatched costs nothing.
    Returns the matched (row, col) pairs sorted by row."""
    n, m = cost.shape
    padded = np.full((n + m, n + m), np.inf)
    np.subtract(cost, big, out=padded[:n, :m], where=mask)
    np.fill_diagonal(padded[:n, m:], 0.0)
    np.fill_diagonal(padded[n:, :m], 0.0)
    padded[n:, m:] = 0.0
    rows, cols = linear_sum_assignment(padded)
    return [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if r < n and c < m]


def min_cost_assignment(cost, min_iou: float = 0.2) -> Assignment:
    """Tracking-flavoured wrapper: costs are 1 - IoU and pairings with
    IoU below min_iou are rejected (entries with cost > 1 - min_iou are
    infeasible before solving)."""
    if not 0.0 <= min_iou < 1.0:
        raise ValueError(f"min_iou must be in [0, 1), got {min_iou}")
    cost = np.asarray(cost, dtype=float)
    return solve(cost, feasible=cost <= 1.0 - min_iou)
