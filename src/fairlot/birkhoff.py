"""Decomposition of bistochastic rational matrices into convex combinations
of permutation matrices.

Matrices are sequences of sequences of Fractions (another entry type
raises ``TypeError``, as in ``RandomAllocation``).  Permutations are given
as a tuple ``perm`` with ``perm[row] = column``.  Each extraction step
takes a perfect matching on the positivity graph (guaranteed to exist
while the residual is a positive multiple of a bistochastic matrix;
columns are scanned in ascending order, so decompositions are
reproducible byte for byte) weighted by its smallest matched entry; at
least one entry hits zero per step, so a k-by-k matrix needs at most
k^2 - 2k + 2 steps.  No step subtracts from all k matched entries: each
matched row keeps the extracted total at which its entry runs out, and
only rows that die or move to another column have an entry written back.

All arithmetic runs on one integer scale L: ``_extract`` takes the matrix
times L as sparse rows (column -> positive int) and checks that every row
and column sums to L.  ``birkhoff_decompose`` scales by the lcm of the
denominators (``RandomAllocation.integer_form``); ``pslottery`` re-eats
straight onto such rows.  The residual starts as a copy of the rows, and
a cell leaves its row as soon as it hits zero.  Every comparison is
scale-invariant, so the matchings are those of the rational residual,
and each part's weight is ``Fraction(w, L)`` for the smallest matched
integer w.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .model import RandomAllocation

__all__ = ["birkhoff_decompose"]

Matrix = Sequence[Sequence[Fraction]]


def _balanced(rows: Sequence[Mapping[int, int]], scale: int) -> bool:
    """Every row and every column of the sparse rows sums to ``scale``."""
    totals = [0] * len(rows)
    for row in rows:
        if sum(row.values()) != scale:
            return False
        for j, x in row.items():
            totals[j] += x
    return totals.count(scale) == len(rows)


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
                       rows_to_match: Sequence[int]) -> list[int] | None:
    """Match ``rows_to_match`` too, along augmenting paths; the columns
    whose row it set, in order, or None when some row cannot be matched."""
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
            return None
    return changed


def birkhoff_decompose(matrix: Matrix) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Express a bistochastic matrix as sum of weight * permutation.

    Weights are in (0, 1] and sum to exactly 1; the recomposition equals
    the input structurally; the number of parts is at most k^2 - 2k + 2.
    """
    labels = tuple(range(len(matrix)))
    try:  # square, entries in [0, 1], columns summing to 1; _extract checks rows
        scaled = RandomAllocation(labels, labels, tuple(map(tuple, matrix))).integer_form()
    except ValueError:
        raise ValueError("matrix is not bistochastic") from None
    return [(weight, tuple(perm)) for weight, perm, _ in _extract(*scaled)]


def _extract(rows: Sequence[Mapping[int, int]], scale: int) -> Iterator[tuple]:
    """``birkhoff_decompose`` of the matrix whose rows times ``scale``
    are ``rows`` (column -> positive int): each part as its weight, its
    permutation and the permutation's inverse (column -> row).  The two
    lists change for the next part, so a caller copies what it keeps."""
    if not _balanced(rows, scale):
        raise ValueError("matrix is not bistochastic")
    residual = [dict(row) for row in rows]
    k = len(residual)
    adjacency = [sorted(row) for row in residual]
    match_col = [-1] * k
    if _complete_matching(adjacency, match_col, range(k)) is None:
        raise ValueError("no perfect matching: input was not bistochastic")

    # The residual is exact except at matched cells, which run out when
    # the extracted total ``done`` reaches ``ends[row]``.
    perm = sorted(range(k), key=match_col.__getitem__)  # perm[row] = column
    ends = [residual[r][c] for r, c in enumerate(perm)]
    done = 0
    while True:
        end = min(ends)
        weight = end - done
        if weight <= 0:
            raise AssertionError("matched entry is not positive")
        yield Fraction(weight, scale), perm, match_col
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
        if changed is None:
            raise ValueError("no perfect matching: input was not bistochastic")
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
