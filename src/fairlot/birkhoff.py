"""Decomposition of bistochastic rational matrices into convex combinations
of permutation matrices.

Matrices are sequences of sequences of Fractions.  Permutations are given
as a tuple ``perm`` with ``perm[row] = column``.  Each extraction step
finds a perfect matching on the positivity graph (guaranteed to exist
while the residual is a positive multiple of a bistochastic matrix;
columns are scanned in ascending order, so decompositions are
reproducible byte for byte), subtracts the smallest matched entry and
repeats; at least one entry hits zero per step, so a k-by-k matrix needs
at most k^2 - 2k + 2 steps.

All arithmetic runs on one integer scale: the matrix is multiplied once by
L, the lcm of its denominators, and the residual is kept as sparse integer
rows (column -> positive int), a cell leaving its row as soon as it hits
zero.  Every comparison is scale-invariant, so the matchings are those of
the rational residual, and each part's weight is ``Fraction(w, L)`` for
the smallest matched integer w.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = [
    "is_bistochastic",
    "birkhoff_decompose",
]

Matrix = Sequence[Sequence[Fraction]]


def _scaled_rows(matrix: Matrix) -> tuple[list[dict[int, int]], int] | None:
    """The matrix times L, the lcm of its denominators, as sparse rows
    (column -> positive int) together with L; None unless the matrix is
    square with entries in [0, L] and every row and column summing to L.
    (Nonnegative entries of a row summing to L cannot exceed L.)
    """
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        return None
    nonzero = [[(j, *v.as_integer_ratio()) for j, v in enumerate(row) if v] for row in matrix]
    scale = math.lcm(*{q for row in nonzero for _, _, q in row})
    rows = []
    column_sums = [0] * k
    for row in nonzero:
        scaled = {}
        for j, p, q in row:
            if p < 0:
                return None
            x = p * (scale // q)
            scaled[j] = x
            column_sums[j] += x
        if sum(scaled.values()) != scale:
            return None
        rows.append(scaled)
    if any(total != scale for total in column_sums):
        return None
    return rows, scale


def is_bistochastic(matrix: Matrix) -> bool:
    """Square, entries in [0, 1], every row and column sums to exactly 1."""
    return _scaled_rows(matrix) is not None


def _augment(adjacency: Sequence[Sequence[int]], row: int,
             match_col: list[int], visited: list[bool]) -> bool:
    for col in adjacency[row]:
        if visited[col]:
            continue
        visited[col] = True
        if match_col[col] == -1 or _augment(adjacency, match_col[col], match_col, visited):
            match_col[col] = row
            return True
    return False


def _complete_matching(adjacency: Sequence[Sequence[int]], match_col: list[int],
                       rows_to_match: Sequence[int]) -> bool:
    k = len(adjacency)
    deferred = []
    for row in rows_to_match:
        # Greedy pass first: grab the first free column, no reassignment.
        # This keeps the scan order visible in the output matchings.
        for col in adjacency[row]:
            if match_col[col] == -1:
                match_col[col] = row
                break
        else:
            deferred.append(row)
    for row in deferred:
        visited = [False] * k
        if not _augment(adjacency, row, match_col, visited):
            return False
    return True


def birkhoff_decompose(matrix: Matrix) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Express a bistochastic matrix as sum of weight * permutation.

    Weights are in (0, 1] and sum to exactly 1; the recomposition equals
    the input structurally; the number of parts is at most k^2 - 2k + 2.
    """
    scaled = _scaled_rows(matrix)
    if scaled is None:
        raise ValueError("matrix is not bistochastic")
    residual, scale = scaled
    k = len(residual)
    adjacency = [sorted(row) for row in residual]
    parts: list[tuple[Fraction, tuple[int, ...]]] = []
    match_col = [-1] * k
    if not _complete_matching(adjacency, match_col, range(k)):
        raise ValueError("no perfect matching: input was not bistochastic")

    remaining = scale
    while remaining > 0:
        perm = [-1] * k
        for col, row in enumerate(match_col):
            perm[row] = col
        perm = tuple(perm)

        weight = min(residual[r][perm[r]] for r in range(k))
        if weight <= 0:
            raise AssertionError("matched entry is not positive")
        dead_rows = []
        for r in range(k):
            c = perm[r]
            left = residual[r][c] - weight
            if left:
                residual[r][c] = left
            else:
                del residual[r][c]
                adjacency[r].remove(c)
                dead_rows.append(r)
        parts.append((Fraction(weight, scale), perm))
        remaining -= weight
        if remaining == 0:
            break
        # Repair the matching instead of rebuilding it: only the rows whose
        # matched entry just vanished need a new augmenting path.
        for r in dead_rows:
            match_col[perm[r]] = -1
        if not _complete_matching(adjacency, match_col, dead_rows):
            raise ValueError("no perfect matching: input was not bistochastic")

    if any(residual):
        raise AssertionError("residual nonzero after full decomposition")
    return parts
