"""Exact min-cost bipartite assignment with an infeasibility threshold.

The solver is lexicographic: among matchings that use only feasible entries
it first maximizes cardinality, then minimizes total cost. Infeasibility is
enforced before solving, never by pruning an unconstrained optimum, so a
rejected pairing can never shadow a feasible alternative.

Implementation: one flat pass (the nonzero cells of the flattened mask, split
into rows and columns by ``np.divmod``) lists the feasible cells; finiteness is
checked on those cells only, and the degrees, the settled pairs, the cost
shift and the padded matrix are all built from that list. Beside the mask
(the caller's, or the cost's finiteness when none is given), the only dense
array is the padded matrix of the contested rows and columns. In a crowd the
list holds about one cell per row. A matrix of more than one cell whose every
cell is feasible (idf1's identity weights) has nothing to settle and skips
the list: its cost matrix goes to the padded solve whole.

What the feasibility mask already decides is settled first. Rows and
columns without a feasible entry stay unmatched, and a feasible entry alone
in both its row and its column is matched (when every row and column holds
at most one feasible entry, that is the whole answer). Such an entry is a
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

The solver is scipy's compiled ``scipy.optimize._lsap`` extension, loaded
from its file without importing the ``scipy.optimize`` package. That package
import pulls in scipy.linalg, linprog and more: on a 2-core x86_64 host
(Python 3.11.7, scipy 1.17.1) loading the extension alone took a benchmark
process's set-up from ~0.8 to ~0.3-0.4 s and its peak RSS down by ~40 MB,
and ``import bytemot`` from ~750 to ~235 ms (``python -X importtime``). The
function loaded is the very object
``scipy.optimize.linear_sum_assignment`` names, so every matching is the same,
and a later ``import scipy.optimize`` in the same process works as usual. When
scipy's directory or the extension's file cannot be found as a compiled
extension (a zipped or frozen install, a scipy that moved the module), the
public import is used instead.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import ExtensionFileLoader, PathFinder

import numpy as np

__all__ = ["Assignment", "solve", "min_cost_assignment"]

_LSAP = "scipy.optimize._lsap"


def _load_linear_sum_assignment():
    """scipy's compiled linear_sum_assignment, loaded from the extension's
    file; the public import when the file is not found as an extension."""
    scipy_spec = importlib.util.find_spec("scipy")  # imports nothing
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        path = [os.path.join(d, "optimize") for d in scipy_spec.submodule_search_locations]
        spec = PathFinder.find_spec(_LSAP, path)
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment
    # the single-phase extension enters itself in sys.modules while its
    # parent packages are absent; the entry it had before is put back (none
    # when scipy.optimize is not imported yet), so a later import of
    # scipy.optimize loads and binds it as usual
    previous = sys.modules.get(_LSAP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if previous is None:
        sys.modules.pop(_LSAP, None)
    else:
        sys.modules[_LSAP] = previous
    return module.linear_sum_assignment


linear_sum_assignment = _load_linear_sum_assignment()


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
    if feasible is not None:
        feasible = np.asarray(feasible, dtype=bool)
        if feasible.shape != cost.shape:
            raise ValueError("feasible mask shape must match the cost matrix")
    if n == 0 or m == 0:
        return _empty(n, m)

    mask = np.isfinite(cost) if feasible is None else feasible
    if n * m > 1 and np.count_nonzero(mask) == n * m and (
        feasible is None or np.isfinite(cost).all()
    ):
        # every cell is feasible (idf1's weights): nothing can be settled, so
        # the cost matrix goes to the padded solve whole; a 1 x 1 cell is
        # settled by the degree test below
        big = float(cost.max() - min(0.0, cost.min())) * min(n, m) + 1.0
        return _settled(_padded_solve(n, m, slice(0, n), slice(0, m), cost - big), n, m)
    # the feasible cells as (row, col, cost) triples in row-major order, from
    # one flat pass; finiteness is checked only on the cells found
    cells = mask.reshape(-1).nonzero()[0]
    values = cost.reshape(-1)[cells]
    if feasible is not None:
        finite = np.isfinite(values)
        if np.count_nonzero(finite) < len(cells):
            cells, values = cells[finite], values[finite]
    if not len(cells):
        return _empty(n, m)
    rows, cols = np.divmod(cells, m)

    row_deg = np.bincount(rows, minlength=n)
    col_deg = np.bincount(cols, minlength=m)
    # a feasible cell alone in both its row and its column is in every
    # maximum-cardinality matching at the same cost: settle it directly. When
    # as many rows and as many columns hold a cell as there are cells, every
    # cell is such a pair (the common case in small scenes).
    if np.count_nonzero(row_deg) == len(cells) == np.count_nonzero(col_deg):
        return _settled(list(zip(rows.tolist(), cols.tolist())), n, m)
    alone = (row_deg[rows] == 1) & (col_deg[cols] == 1)
    forced_rows, forced_cols = rows[alone], cols[alone]
    forced = list(zip(forced_rows.tolist(), forced_cols.tolist()))
    # one shift for the whole matrix, so each shifted cost handed to the
    # solver is the value the full padded matrix would hold
    span = float(values.max() - min(0.0, values.min()))
    big = span * min(n, m) + 1.0
    if forced:
        contested = ~alone
        rows, cols, values = rows[contested], cols[contested], values[contested]
        # a settled cell was its row's and its column's only one
        row_deg[forced_rows] = 0
        col_deg[forced_cols] = 0
    values -= big
    # the contested rows and columns, and each cell's index among them
    rr, cc = row_deg.nonzero()[0], col_deg.nonzero()[0]
    if len(rr) < n:
        rows = np.searchsorted(rr, rows)
    if len(cc) < m:
        cols = np.searchsorted(cc, cols)
    row_of, col_of = rr.tolist(), cc.tolist()
    matches = sorted(forced + [
        (row_of[r], col_of[c])
        for r, c in _padded_solve(len(rr), len(cc), rows, cols, values)
    ])
    return _settled(matches, n, m)


def _settled(matches: list[tuple[int, int]], n: int, m: int) -> Assignment:
    """The Assignment of matches sorted by row, with the rows and columns
    they leave unmatched."""
    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    return Assignment(
        matches,
        [r for r in range(n) if r not in matched_rows],
        [c for c in range(m) if c not in matched_cols],
    )


def _padded_solve(n, m, rows, cols, shifted) -> list[tuple[int, int]]:
    """Exact LSAP of an (n, m) problem whose feasible cells (rows, cols), as
    index arrays or as slices covering every cell, hold the shifted costs, on
    the (n+m)^2 embedding: one dummy column per row and one dummy row per
    column, so leaving an index unmatched costs nothing. Returns the matched
    (row, col) pairs sorted by row."""
    padded = np.full((n + m, n + m), np.inf)
    padded[rows, cols] = shifted
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
