"""Textbook two-phase simplex over exact rationals with Bland's rule.

Solves min c.x subject to A x = b, x >= 0.  Bland's pivoting rule makes
termination unconditional, and exactness makes infeasibility checkable:
when phase one ends above zero, the dual values form a Farkas vector y
with y.A <= 0 and y.b > 0, which callers can replay independently.
Problem sizes here are tiny (reference LPs), so the tableau is dense and
no revised-form updates are made; a pivot touches only the columns where
the pivot row is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .model import _Frozen

__all__ = ["LpResult", "solve_lp", "verify_farkas"]


class LpResult(_Frozen):
    """``status`` is "optimal", "infeasible" or "unbounded"; an optimum
    carries ``x`` and ``objective``, an infeasible system ``farkas``."""

    _fields = ("status", "x", "objective", "farkas")
    _defaults = (None, None, None)


def verify_farkas(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], y: Sequence[Fraction]
) -> bool:
    """Check y.A <= 0 componentwise and y.b > 0: a proof that
    {A x = b, x >= 0} is empty."""
    ncols = len(rows[0]) if rows else 0
    for j in range(ncols):
        if sum(y[i] * rows[i][j] for i in range(len(rows))) > 0:
            return False
    return sum(y[i] * rhs[i] for i in range(len(rows))) > 0


def _pivot(tableau: list[list[Fraction]], cost: list[Fraction], row: int, col: int,
           basis: list[int]) -> None:
    # A column where the pivot row is zero keeps its value in every row.
    pivot_row = tableau[row]
    pivot_value = pivot_row[col]
    nonzero = [j for j, v in enumerate(pivot_row) if v]
    for j in nonzero:
        pivot_row[j] /= pivot_value
    for other in (*tableau, cost):
        factor = other[col]
        if factor and other is not pivot_row:
            for j in nonzero:
                other[j] -= factor * pivot_row[j]
    basis[row] = col


def _bland(tableau: list[list[Fraction]], cost: list[Fraction], basis: list[int],
           nvars: int) -> str:
    while True:
        entering = -1
        for j in range(nvars):
            if cost[j] < 0:
                entering = j
                break
        if entering == -1:
            return "optimal"
        leaving = -1
        best = None
        for r, row in enumerate(tableau):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving == -1:
            return "unbounded"
        _pivot(tableau, cost, leaving, entering, basis)


def solve_lp(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LpResult:
    """Minimize objective.x over {A x = b, x >= 0}; everything exact."""
    nvars = len(objective)
    m = len(rows)
    sign = [1] * m
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if len(row) != nvars:
            raise ValueError("constraint width does not match the variable count")
        if b < 0:
            row = [-v for v in row]
            b = -b
            sign[i] = -1
        tableau.append(row + [Fraction(0)] * m + [b])
    art = list(range(nvars, nvars + m))
    for i in range(m):
        tableau[i][art[i]] = Fraction(1)
    basis = art[:]

    # Phase one: minimize the artificial mass.
    cost = [Fraction(0)] * (nvars + m + 1)
    for j in art:
        cost[j] = Fraction(1)
    for i in range(m):
        for j in range(nvars + m + 1):
            cost[j] -= tableau[i][j]
    status = _bland(tableau, cost, basis, nvars + m)
    if status != "optimal":
        raise AssertionError("phase one cannot be unbounded")
    infeasibility = -cost[-1]
    if infeasibility > 0:
        # Dual values off the artificial columns give the Farkas vector in
        # the sign-flipped system; undo the flips for the original one.
        y = tuple(sign[i] * (Fraction(1) - cost[art[i]]) for i in range(m))
        return LpResult(status="infeasible", farkas=y)

    # Drive leftover artificials out of the basis (they sit at zero).
    for r in range(m):
        if basis[r] >= nvars:
            entering = next((j for j in range(nvars) if tableau[r][j] != 0), None)
            if entering is not None:
                _pivot(tableau, cost, r, entering, basis)
    keep = [r for r in range(m) if basis[r] < nvars]
    tableau = [
        [tableau[r][j] for j in range(nvars)] + [tableau[r][-1]] for r in keep
    ]
    basis = [basis[r] for r in keep]

    # Phase two with the real objective.
    cost = [Fraction(v) for v in objective] + [Fraction(0)]
    for r, row in enumerate(tableau):
        if cost[basis[r]] != 0:
            factor = cost[basis[r]]
            for j in range(nvars + 1):
                cost[j] -= factor * row[j]
    status = _bland(tableau, cost, basis, nvars)
    if status == "unbounded":
        return LpResult(status="unbounded")
    x = [Fraction(0)] * nvars
    for r, row in enumerate(tableau):
        x[basis[r]] = row[-1]
    return LpResult(status="optimal", x=tuple(x), objective=-cost[-1])
