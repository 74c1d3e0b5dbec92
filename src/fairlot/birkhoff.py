"""Decomposition of bistochastic rational matrices into convex combinations
of permutation matrices.

Matrices are sequences of sequences of Fractions (another entry type
raises ``TypeError``, as in ``RandomAllocation``).  Permutations are given
as a tuple ``perm`` with ``perm[row] = column``.  Each extraction step
finds a perfect matching on the positivity graph (guaranteed to exist
while the residual is a positive multiple of a bistochastic matrix;
columns are scanned in ascending order, so decompositions are
reproducible byte for byte), subtracts the smallest matched entry and
repeats; at least one entry hits zero per step, so a k-by-k matrix needs
at most k^2 - 2k + 2 steps.

All arithmetic runs on one integer scale.  A bistochastic matrix is a
square random allocation whose rows sum to 1 as well, so the matrix is
checked and scaled as a ``RandomAllocation``: its integer form holds the
matrix times L, the lcm of its denominators, as sparse rows (column ->
positive int).  The residual starts as a copy of those rows, and a cell
leaves its row as soon as it hits zero.  Every comparison is
scale-invariant, so the matchings are those of the rational residual,
and each part's weight is ``Fraction(w, L)`` for the smallest matched
integer w.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .model import RandomAllocation

__all__ = [
    "is_bistochastic",
    "birkhoff_decompose",
]

Matrix = Sequence[Sequence[Fraction]]


def _residual(matrix: Matrix) -> tuple[list[dict[int, int]], int] | None:
    """The matrix's integer form as a random allocation, rows to mutate
    and L (``RandomAllocation.integer_form``); None unless it is square,
    its columns sum to 1 and its rows sum to 1 too."""
    labels = tuple(range(len(matrix)))
    try:
        rows, scale = RandomAllocation(labels, labels, tuple(map(tuple, matrix))).integer_form()
    except ValueError:
        return None
    if any(sum(row.values()) != scale for row in rows):
        return None
    return [dict(row) for row in rows], scale


def is_bistochastic(matrix: Matrix) -> bool:
    """Square, entries in [0, 1], every row and column sums to exactly 1."""
    return _residual(matrix) is not None


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
    scaled = _residual(matrix)
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
