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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = [
    "is_bistochastic",
    "require_bistochastic",
    "birkhoff_decompose",
]

Matrix = Sequence[Sequence[Fraction]]


def is_bistochastic(matrix: Matrix) -> bool:
    """Square, entries in [0, 1], every row and column sums to exactly 1."""
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        return False
    for row in matrix:
        if any(v < 0 or v > 1 for v in row):
            return False
        if sum(row) != 1:
            return False
    for j in range(k):
        if sum(row[j] for row in matrix) != 1:
            return False
    return True


def require_bistochastic(matrix: Matrix) -> None:
    if not is_bistochastic(matrix):
        raise ValueError("matrix is not bistochastic")


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
    require_bistochastic(matrix)
    residual = [list(row) for row in matrix]
    k = len(residual)
    adjacency = [sorted(j for j, v in enumerate(row) if v > 0) for row in residual]
    parts: list[tuple[Fraction, tuple[int, ...]]] = []
    match_col = [-1] * k
    if not _complete_matching(adjacency, match_col, range(k)):
        raise ValueError("no perfect matching: input was not bistochastic")

    remaining = Fraction(1)
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
            residual[r][c] -= weight
            if residual[r][c] == 0:
                adjacency[r].remove(c)
                dead_rows.append(r)
        parts.append((weight, perm))
        remaining -= weight
        if remaining == 0:
            break
        # Repair the matching instead of rebuilding it: only the rows whose
        # matched entry just vanished need a new augmenting path.
        for r in dead_rows:
            match_col[perm[r]] = -1
        if not _complete_matching(adjacency, match_col, dead_rows):
            raise ValueError("no perfect matching: input was not bistochastic")

    if any(v != 0 for row in residual for v in row):
        raise AssertionError("residual nonzero after full decomposition")
    return parts
