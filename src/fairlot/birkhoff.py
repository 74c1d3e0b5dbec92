"""Decomposition of bistochastic matrices into convex combinations of
permutation matrices, in integers.

A matrix arrives as its rows times one integer scale L, in sparse form
(column -> positive int), as ``pslottery.re_eat`` builds them; a
permutation leaves as its holders, ``holders[column] = row``.  Each step
takes a perfect matching on the positivity graph of the residual (one
exists while the residual is a positive multiple of a bistochastic
matrix; columns are scanned in ascending order, so decompositions are
reproducible byte for byte), weighted by ``Fraction(w, L)`` for its
smallest matched entry w.  At least one entry hits zero per step and
leaves its row, so a k-by-k matrix needs at most k^2 - 2k + 2 steps.  No
step subtracts from all k matched entries: each matched row keeps the
extracted total at which its entry runs out, and only rows that die or
move to another column have an entry written back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

__all__ = ["birkhoff_decompose"]


def _balanced(rows: Sequence[Mapping[int, int]], scale: int) -> bool:
    """Every entry of the sparse rows is positive and in one of their
    ``len(rows)`` columns, and every row and every column sums to ``scale``."""
    k = len(rows)
    totals = [0] * k
    for row in rows:
        if sum(row.values()) != scale:
            return False
        for j, x in row.items():
            if x <= 0 or not 0 <= j < k:
                return False
            totals[j] += x
    return totals.count(scale) == k


def _augment(adjacency: Sequence[Sequence[int]], row: int, match_col: list[int],
             visited: list[bool], changed: list[int]) -> bool:
    """Depth-first search for an augmenting path from ``row``, columns
    scanned in adjacency order.  The stack holds, per row above the one
    being scanned, that row, the matched column it went down through and
    the rest of its scan, so paths of any length need no recursion.  On
    success the path's columns are rematched and appended to ``changed``
    from its free end back to ``row``."""
    stack: list[tuple[int, int, Iterator[int]]] = []
    scan = iter(adjacency[row])
    while True:
        for col in scan:
            if not visited[col]:
                visited[col] = True
                break
        else:
            if not stack:
                return False
            row, _, scan = stack.pop()
            continue
        if match_col[col] == -1:
            match_col[col] = row
            changed.append(col)
            for row, col, _ in reversed(stack):
                match_col[col] = row
                changed.append(col)
            return True
        stack.append((row, col, scan))
        row = match_col[col]
        scan = iter(adjacency[row])


def _complete_matching(adjacency: Sequence[Sequence[int]], match_col: list[int],
                       rows_to_match: Sequence[int]) -> list[int]:
    """Match ``rows_to_match`` too, along augmenting paths; the columns
    whose row it set, in order.  A row that cannot be matched raises
    ``ValueError``."""
    k = len(adjacency)
    changed: list[int] = []
    deferred = []
    for row in rows_to_match:
        # Greedy pass first: grab the first free column, no reassignment.
        # This keeps the scan order visible in the output matchings.
        for col in adjacency[row]:
            if match_col[col] == -1:
                match_col[col] = row
                changed.append(col)
                break
        else:
            deferred.append(row)
    for row in deferred:
        visited = [False] * k
        if not _augment(adjacency, row, match_col, visited, changed):
            raise ValueError("no perfect matching: input was not bistochastic")
    return changed


def birkhoff_decompose(rows: Sequence[Mapping[int, int]], scale: int
                       ) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Express the bistochastic matrix whose rows times ``scale`` are
    ``rows`` (column -> positive int) as a sum of weight * permutation.

    Each part is its weight and its holders: ``holders[j]`` is the row
    matched to column j.  Weights are in (0, 1] and sum to exactly 1; the
    recomposition equals the input; the number of parts is at most
    k^2 - 2k + 2.
    """
    if not _balanced(rows, scale):
        raise ValueError("matrix is not bistochastic")
    residual = [dict(row) for row in rows]
    k = len(residual)
    adjacency = [sorted(row) for row in residual]
    match_col = [-1] * k
    _complete_matching(adjacency, match_col, range(k))

    # The residual is exact except at matched cells, which run out when
    # the extracted total ``done`` reaches ``ends[row]``.
    perm = sorted(range(k), key=match_col.__getitem__)  # perm[row] = column
    ends = [residual[r][c] for r, c in enumerate(perm)]
    done = 0
    parts = []
    while True:
        end = min(ends)
        weight = end - done
        if weight <= 0:
            raise AssertionError("matched entry is not positive")
        parts.append((Fraction(weight, scale), tuple(match_col)))
        done = end
        dead_rows = []
        r = -1
        for _ in range(ends.count(done)):
            r = ends.index(done, r + 1)
            c = perm[r]
            del residual[r][c]
            adjacency[r].remove(c)
            dead_rows.append(r)
        if done == scale:
            break
        # Repair the matching instead of rebuilding it: only the rows whose
        # matched entry just vanished need a new augmenting path.
        for r in dead_rows:
            match_col[perm[r]] = -1
        changed = _complete_matching(adjacency, match_col, dead_rows)
        # A row the repair moved is the final match of a changed column.
        for c in changed:
            r = match_col[c]
            row = residual[r]
            if ends[r] != done:
                row[perm[r]] = ends[r] - done
            perm[r] = c
            ends[r] = done + row[c]

    if any(residual):
        raise AssertionError("residual nonzero after full decomposition")
    return parts
