"""Brute-force and exact-LP reference machinery: full enumeration of
deterministic allocations, lottery implementability over a restricted
allocation set (with Farkas-certified infeasibility), and the SD
improvement search.

Everything here is a desk-scale oracle: enumeration refuses (rather than
samples) past its budget, and the LPs run on the exact simplex so
infeasibility answers are proof objects.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from .model import (
    BudgetExceeded,
    DeterministicAllocation,
    Lottery,
    OrdinalProfile,
    RandomAllocation,
    _check_budget,
    _Frozen,
)
from .simplex import solve_lp, verify_farkas

__all__ = [
    "enumerate_allocations",
    "InfeasibilityCertificate",
    "implementable_by",
    "sd_improvement_exists",
]


def enumerate_allocations(
    agents: Sequence[str], items: Sequence[str]
) -> list[DeterministicAllocation]:
    """All item->agent maps (n^m of them), in deterministic owner-tuple
    order; refuses beyond the configured budget."""
    agents = tuple(agents)
    items = tuple(items)
    _check_budget(len(agents), len(items))
    return [
        DeterministicAllocation(agents, items, owners)
        for owners in product(agents, repeat=len(items))
    ]


class InfeasibilityCertificate(_Frozen):
    """Farkas proof that no lottery over the allowed allocations hits the
    target: y with y.A <= 0 on every allowed column and y.b > 0."""

    _fields = ("farkas", "rows", "rhs")

    def verify(self) -> bool:
        return verify_farkas(self.rows, self.rhs, self.farkas)


def _implementability_system(
    p: RandomAllocation, allowed: Sequence[DeterministicAllocation]
) -> tuple[list[list[Fraction]], list[Fraction]]:
    agents, items = tuple(p.rows), p.items
    for allocation in allowed:
        if allocation.agents != agents or allocation.items != items:
            raise ValueError("allowed allocations live on a different universe")
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for a in agents:
        row_p = p.row(a)
        for o in items:
            rows.append([alloc.row(a)[o] for alloc in allowed])
            rhs.append(row_p[o])
    rows.append([Fraction(1)] * len(allowed))
    rhs.append(Fraction(1))
    return rows, rhs


def implementable_by(
    p: RandomAllocation, allowed: Sequence[DeterministicAllocation]
) -> Lottery | InfeasibilityCertificate:
    """Exact decision: can p be written as a convex combination of the
    allowed deterministic allocations?  Returns a witness lottery (which
    recomposes to p exactly) or a Farkas-certified infeasibility."""
    rows, rhs = _implementability_system(p, allowed)
    result = solve_lp([Fraction(0)] * len(allowed), rows, rhs)
    if result.status == "infeasible":
        cert = InfeasibilityCertificate(
            farkas=result.farkas,
            rows=tuple(tuple(r) for r in rows),
            rhs=tuple(rhs),
        )
        if not cert.verify():
            raise AssertionError("Farkas certificate failed self-verification")
        return cert
    entries = tuple(
        (weight, allocation)
        for weight, allocation in zip(result.x, allowed)
        if weight > 0
    )
    return Lottery(entries).merged()


def _cells(agents: Sequence[str], items: Sequence[str]) -> list[tuple[str, str]]:
    """LP variables of an allocation matrix, agent-major."""
    return [(a, o) for a in agents for o in items]


def _item_sum_rows(
    items: Sequence[str], cells: list[tuple[str, str]], extra_vars: int
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Every item's column sums to one; ``extra_vars`` trailing variables
    stay out of these rows."""
    rows = []
    for o in items:
        row = [Fraction(1) if cell_o == o else Fraction(0) for _, cell_o in cells]
        rows.append(row + [Fraction(0)] * extra_vars)
    return rows, [Fraction(1)] * len(items)


def _allocation_from_x(
    agents: Sequence[str], items: Sequence[str], x: Sequence[Fraction]
) -> RandomAllocation:
    """The allocation whose agent-major cells (see ``_cells``) lead x."""
    m = len(items)
    entries = tuple(tuple(x[i * m:(i + 1) * m]) for i in range(len(agents)))
    return RandomAllocation(tuple(agents), tuple(items), entries)


def sd_improvement_exists(
    p: RandomAllocation, prefs: OrdinalProfile
) -> RandomAllocation | None:
    """Search for an allocation SD-dominating p: every tier-prefix sum at
    least as large for every agent, some strictly larger.  None means p
    is SD-efficient.  Exact LP maximizing the total prefix surplus."""
    agents = tuple(p.rows)
    items = p.items
    cells = _cells(agents, items)
    prefix_ids = [(a, level) for a in agents for level in range(len(prefs.tiers[a]))]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for k, (a, level) in enumerate(prefix_ids):
        prefix_items = {o for tier in prefs.tiers[a][: level + 1] for o in tier}
        row = [
            Fraction(1) if cell_a == a and cell_o in prefix_items else Fraction(0)
            for (cell_a, cell_o) in cells
        ]
        slack = [Fraction(0)] * len(prefix_ids)
        slack[k] = Fraction(-1)
        rows.append(row + slack)
        p_row = p.row(a)
        rhs.append(sum((p_row[o] for o in prefix_items), Fraction(0)))
    col_rows, col_rhs = _item_sum_rows(items, cells, len(prefix_ids))
    rows.extend(col_rows)
    rhs.extend(col_rhs)
    objective = [Fraction(0)] * len(cells) + [Fraction(-1)] * len(prefix_ids)
    result = solve_lp(objective, rows, rhs)
    if result.status != "optimal":
        raise AssertionError(f"SD improvement LP ended {result.status}")
    if result.objective == 0:
        return None
    return _allocation_from_x(agents, items, result.x)
