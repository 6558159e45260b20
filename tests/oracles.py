"""Independent reference implementations used by the tests.

Everything here is deliberately naive (enumeration, counting, scalar
recursions) and shares no code with the library paths it checks.
"""

from itertools import combinations, permutations

import numpy as np
from scipy.optimize import linear_sum_assignment


def dp_assignment(cost, feasible) -> tuple[int, float]:
    """Exhaustive search over all partial matchings via a column-set sweep.

    Returns (cardinality, total cost) of the best matching under the
    max-cardinality-first, min-cost-second order.
    """
    cost = np.asarray(cost, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    n, m = cost.shape
    states = {0: (0, 0.0)}
    for i in range(n):
        nxt = dict(states)
        for mask, (card, tot) in states.items():
            for j in range(m):
                if feasible[i, j] and not (mask >> j) & 1:
                    cand = (card + 1, tot + cost[i, j])
                    cur = nxt.get(mask | (1 << j))
                    if (
                        cur is None
                        or cand[0] > cur[0]
                        or (cand[0] == cur[0] and cand[1] < cur[1])
                    ):
                        nxt[mask | (1 << j)] = cand
        states = nxt
    return max(states.values(), key=lambda v: (v[0], -v[1]))


def enum_assignment(cost, feasible) -> tuple[int, float]:
    """Literal enumeration of every injection of rows into columns; only
    sensible for tiny matrices."""
    cost = np.asarray(cost, dtype=float)
    feasible = np.asarray(feasible, dtype=bool)
    n, m = cost.shape
    best = (0, 0.0)
    for k in range(min(n, m) + 1):
        for rows in combinations(range(n), k):
            for cols in permutations(range(m), k):
                if all(feasible[r, c] for r, c in zip(rows, cols)):
                    tot = sum(cost[r, c] for r, c in zip(rows, cols))
                    if (k, -tot) > (best[0], -best[1]):
                        best = (k, tot)
    return best


def iou_matrix_tlbr_dense(a, b) -> np.ndarray:
    """The (N, M, 2)-temporary pairwise IoU formula that the plane-wise
    ``geometry.iou_matrix_tlbr`` replaced, kept verbatim as its bit-level
    reference."""
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=float)
    lt = np.maximum(a[:, None, :2], b[None, :, :2])
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    area_a = np.clip(a[:, 2] - a[:, 0], 0.0, None) * np.clip(a[:, 3] - a[:, 1], 0.0, None)
    area_b = np.clip(b[:, 2] - b[:, 0], 0.0, None) * np.clip(b[:, 3] - b[:, 1], 0.0, None)
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0.0, inter / union, 0.0)
    return out


def padded_full_assignment(cost, feasible=None):
    """The full-matrix padded solver that ``assignment.solve`` ran before it
    settled forced pairs, kept verbatim as its reference.

    Returns (matches sorted by row, unmatched rows, unmatched cols).
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    mask = np.isfinite(cost)
    if feasible is not None:
        mask &= np.asarray(feasible, dtype=bool)
    if n == 0 or m == 0 or not mask.any():
        return [], list(range(n)), list(range(m))

    usable = cost[mask]
    span = float(usable.max() - min(0.0, usable.min()))
    big = span * min(n, m) + 1.0

    padded = np.full((n + m, n + m), np.inf)
    block = np.full((n, m), np.inf)
    block[mask] = cost[mask] - big
    padded[:n, :m] = block
    padded[np.arange(n), m + np.arange(n)] = 0.0
    padded[n + np.arange(m), np.arange(m)] = 0.0
    padded[n:, m:] = 0.0

    rows, cols = linear_sum_assignment(padded)
    matches = sorted(
        (int(r), int(c)) for r, c in zip(rows, cols) if r < n and c < m
    )
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return (
        matches,
        [r for r in range(n) if r not in matched_rows],
        [c for c in range(m) if c not in matched_cols],
    )


def max_weight_matching_enum(weights) -> float:
    """Best total weight over every partial identity matching (tiny inputs)."""
    weights = np.asarray(weights, dtype=float)
    n, m = weights.shape
    best = 0.0
    for k in range(min(n, m) + 1):
        for rows in combinations(range(n), k):
            for cols in permutations(range(m), k):
                best = max(best, sum(weights[r, c] for r, c in zip(rows, cols)))
    return best


def rasterized_iou(a8: tuple[int, int, int, int], b8: tuple[int, int, int, int]) -> float:
    """IoU by counting covered grid cells.

    Boxes are given as tlbr in eighth-pixel integer units, so a unit grid is
    exact. Returns 0.0 when the union is empty.
    """
    l = min(a8[0], b8[0])
    t = min(a8[1], b8[1])
    r = max(a8[2], b8[2])
    b = max(a8[3], b8[3])
    grid_a = np.zeros((r - l, b - t), dtype=bool)
    grid_b = np.zeros_like(grid_a)
    grid_a[a8[0] - l:a8[2] - l, a8[1] - t:a8[3] - t] = True
    grid_b[b8[0] - l:b8[2] - l, b8[1] - t:b8[3] - t] = True
    inter = int(np.logical_and(grid_a, grid_b).sum())
    union = int(np.logical_or(grid_a, grid_b).sum())
    return inter / union if union else 0.0


def linear_interp_scalar(t1: int, v1: float, t2: int, v2: float, t: int) -> float:
    """Per-coordinate linear interpolation, evaluated with plain floats."""
    return v1 + (v2 - v1) * (t - t1) / (t2 - t1)
