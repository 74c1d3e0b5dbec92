"""Brute-force and exact-LP reference machinery: full enumeration of
deterministic allocations, lottery implementability over a restricted
allocation set (with Farkas-certified infeasibility), a leximin reference
for binary utilities, and Pareto/SD improvement searches.

Everything here is a desk-scale oracle: enumeration refuses (rather than
samples) past its budget, and the LPs run on the exact simplex so
infeasibility answers are proof objects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .model import (
    BudgetExceeded,
    DeterministicAllocation,
    Instance,
    Lottery,
    OrdinalProfile,
    RandomAllocation,
    utility_of_bundle,
)
from .simplex import LpResult, solve_lp, verify_farkas

__all__ = [
    "DEFAULT_BUDGET",
    "BUDGET_ENV_VAR",
    "configured_budget",
    "enumerate_allocations",
    "InfeasibilityCertificate",
    "implementable_by",
    "leximin_bruteforce",
    "pareto_improvement_exists",
    "sd_improvement_exists",
]

DEFAULT_BUDGET = 65536
BUDGET_ENV_VAR = "FAIRLOT_BUDGET"


def configured_budget() -> int:
    """The FAIRLOT_BUDGET environment variable, else the built-in default.
    The variable must hold a nonnegative integer; anything else raises
    ValueError naming it."""
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
        if value < 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"{BUDGET_ENV_VAR} must be a nonnegative integer, got {env!r}"
        ) from None
    return value


def _check_budget(n: int, m: int) -> None:
    """Refuse (raise BudgetExceeded) when the n^m allocations of n agents
    and m items exceed the configured budget."""
    limit = configured_budget()
    count = n ** m
    if count > limit:
        raise BudgetExceeded(f"{n}^{m} = {count} allocations exceed the budget {limit}")


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


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Farkas proof that no lottery over the allowed allocations hits the
    target: y with y.A <= 0 on every allowed column and y.b > 0."""

    farkas: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

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


def pareto_improvement_exists(
    p: RandomAllocation, instance: Instance
) -> RandomAllocation | None:
    """Search for a fractional allocation that gives every agent at least
    its utility under p and someone strictly more; exact LP, maximizing
    the total surplus.  None means p is fractionally Pareto optimal."""
    cells = _cells(instance.agents, instance.items)
    n = instance.n  # variables: q cells, then one surplus per agent
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for idx, a in enumerate(instance.agents):
        row = [
            instance.utility(cell_a, cell_o) if cell_a == a else Fraction(0)
            for (cell_a, cell_o) in cells
        ]
        surplus = [Fraction(0)] * n
        surplus[idx] = Fraction(-1)
        rows.append(row + surplus)
        rhs.append(utility_of_bundle(instance, a, p.row(a)))
    col_rows, col_rhs = _item_sum_rows(instance.items, cells, n)
    rows.extend(col_rows)
    rhs.extend(col_rhs)
    objective = [Fraction(0)] * len(cells) + [Fraction(-1)] * n  # maximize surplus
    result = solve_lp(objective, rows, rhs)
    if result.status != "optimal":
        raise AssertionError(f"improvement LP ended {result.status}")
    if result.objective == 0:
        return None
    return _allocation_from_x(instance.agents, instance.items, result.x)


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


def leximin_bruteforce(
    instance: Instance,
) -> tuple[tuple[Fraction, ...], RandomAllocation]:
    """Leximin-optimal utility vector over fractional allocations of a
    binary instance, with a witnessing allocation.

    Iterative max-min: maximize the common floor of the still-free agents,
    pin every agent that cannot rise above it, repeat.  The resulting
    ascending vector is unique.
    """
    if not instance.is_binary():
        raise ValueError("leximin reference requires binary (0/1) utilities")
    agents = instance.agents
    cells = _cells(agents, instance.items)

    def utility_row(a: str, t_coeff: Fraction, slack_pos: int | None,
                    nslack: int) -> list[Fraction]:
        row = [
            instance.utility(cell_a, cell_o) if cell_a == a else Fraction(0)
            for (cell_a, cell_o) in cells
        ]
        row.append(t_coeff)
        slack = [Fraction(0)] * nslack
        if slack_pos is not None:
            slack[slack_pos] = Fraction(-1)
        return row + slack

    fixed: dict[str, Fraction] = {}
    free = list(agents)
    last_x: Sequence[Fraction] | None = None

    def solve(maximize_agent: str | None, floor: Fraction | None) -> LpResult:
        # Variables: cells, t, one slack per agent-bound constraint.
        nslack = len(agents)
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for k, a in enumerate(agents):
            if a in fixed:
                rows.append(utility_row(a, Fraction(0), k, nslack))
                rhs.append(fixed[a])
            elif floor is not None:
                rows.append(utility_row(a, Fraction(0), k, nslack))
                rhs.append(floor)
            else:
                rows.append(utility_row(a, Fraction(-1), k, nslack))
                rhs.append(Fraction(0))
        width = len(cells) + 1 + nslack
        col_rows, col_rhs = _item_sum_rows(instance.items, cells, 1 + nslack)
        rows.extend(col_rows)
        rhs.extend(col_rhs)
        objective = [Fraction(0)] * width
        if maximize_agent is None:
            objective[len(cells)] = Fraction(-1)  # maximize t
        else:
            for j, (cell_a, cell_o) in enumerate(cells):
                if cell_a == maximize_agent:
                    objective[j] = -instance.utility(cell_a, cell_o)
        result = solve_lp(objective, rows, rhs)
        if result.status != "optimal":
            raise AssertionError(f"leximin LP ended {result.status}")
        return result

    while free:
        best = solve(None, None)
        t_star = -best.objective
        last_x = best.x
        stuck = []
        for a in free:
            cap = solve(a, t_star)
            if -cap.objective == t_star:
                stuck.append(a)
        if not stuck:
            raise AssertionError("max-min step pinned no agent")
        for a in stuck:
            fixed[a] = t_star
        free = [a for a in free if a not in stuck]

    witness = _allocation_from_x(agents, instance.items, last_x)
    vector = tuple(sorted(fixed[a] for a in agents))
    return vector, witness
