"""Reference oracles that only tests use: the exact utility of a
fractional bundle, the fractional Pareto-improvement LP and the leximin
optimum of a binary instance, all over the package's exact simplex; the
stochastic-dominance relation of two ``Fraction`` rows; and the
re-eating loop on a dense ``Fraction`` matrix, as the library ran it
before it re-ate on one integer scale.  Also views the library does not
need: an allocation's 0/1 matrix, a trace's totals per agent, a
``Fraction`` matrix on one integer scale, and the bistochastic test.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction
from typing import Any, Mapping, Sequence

from fairlot import (DeterministicAllocation, EatingTrace, Instance, Lottery, OrdinalProfile,
                     RandomAllocation, expected_allocation, rational)
from fairlot.birkhoff import _balanced
from fairlot.oracle import _allocation_from_x, _cells, _item_sum_rows
from fairlot.pslottery import PaddedInstance
from fairlot.simplex import LpResult, solve_lp


def utility_of_bundle(instance: Instance, agent: str, row: Mapping[str, Fraction]) -> Fraction:
    """Exact additive utility of a fractional bundle (item -> amount) for
    one agent."""
    values = instance.values[instance.agent_index(agent)]
    item_idx = instance._index_maps()[1]
    total = Fraction(0)
    for o, amount in row.items():
        if amount:
            total += values[item_idx[o]] * rational(amount)
    return total


class SdRelation(enum.Enum):
    """Outcome of comparing two allocation rows under stochastic dominance."""

    DOMINATES = "dominates"
    DOMINATED = "dominated"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def sd_compare(
    prefs: OrdinalProfile, agent: str, x: Mapping[str, Any], y: Mapping[str, Any]
) -> SdRelation:
    """Relate two rows (item -> exact amount or rational literal; a
    missing item counts as 0) under the agent's stochastic-dominance order.

    Row x weakly dominates row y when, for every item, x places at least
    as much mass on the upper contour set (all items weakly preferred to
    it) as y does.  With a weak order, upper contour sets are the tier
    prefixes, ties included.
    """
    tiers = prefs.tiers[agent]
    return sd_relation(
        tier_prefixes(tiers, {o: rational(x.get(o, 0)) for o in prefs.items}),
        tier_prefixes(tiers, {o: rational(y.get(o, 0)) for o in prefs.items}),
    )


def tier_prefixes(tiers: Sequence[Sequence[str]], row: Mapping[str, Any]) -> list:
    """Mass of ``row`` on each upper contour set: cumulative sums over the
    tiers, best first."""
    prefixes = []
    total = 0
    for tier in tiers:
        for o in tier:
            total += row[o]
        prefixes.append(total)
    return prefixes


def sd_relation(x: Sequence, y: Sequence) -> SdRelation:
    """Relate two rows from their tier prefix sums (see sd_compare)."""
    ge = all(map(operator.ge, x, y))
    le = all(map(operator.le, x, y))
    if ge and le:
        return SdRelation.EQUIVALENT
    if ge:
        return SdRelation.DOMINATES
    if le:
        return SdRelation.DOMINATED
    return SdRelation.INCOMPARABLE


def matrix_of(allocation: DeterministicAllocation) -> RandomAllocation:
    """The 0/1 matrix of a deterministic allocation: the expected
    allocation of the lottery that picks it for sure."""
    return expected_allocation(Lottery(((Fraction(1), allocation),)))


def integrate(trace: EatingTrace) -> dict[str, dict[str, Fraction]]:
    """Total amount of each item per agent, summed over all segments."""
    rows: dict[str, dict[str, Fraction]] = {}
    for agent in trace.agents:
        row: dict[str, Fraction] = {}
        for seg in trace.segments.get(agent, ()):
            row[seg.item] = row.get(seg.item, Fraction(0)) + seg.amount
        rows[agent] = row
    return rows


def scaled_rows(matrix: Sequence[Sequence[Fraction]]) -> tuple[tuple[dict[int, int], ...], int]:
    """A square ``Fraction`` matrix as ``birkhoff_decompose`` takes it: its
    rows times L, the lcm of its denominators, in sparse form, and L.  A
    matrix that is not square, or has an entry outside [0, 1] or a column
    that does not sum to 1, raises ``ValueError``."""
    labels = tuple(range(len(matrix)))
    return RandomAllocation(labels, labels, tuple(map(tuple, matrix))).integer_form()


def is_bistochastic(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Square, entries in [0, 1], every row and column sums to exactly 1:
    the matrix's ``scaled_rows`` pass the check that ``birkhoff_decompose``
    runs on its integer rows."""
    try:
        return _balanced(*scaled_rows(matrix))
    except ValueError:
        return False


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
        values = instance.utility_row(a)
        row = [values[cell_o] if cell_a == a else Fraction(0) for (cell_a, cell_o) in cells]
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
        values = instance.utility_row(a)
        row = [values[cell_o] if cell_a == a else Fraction(0) for (cell_a, cell_o) in cells]
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
            values = instance.utility_row(maximize_agent)
            for j, (cell_a, cell_o) in enumerate(cells):
                if cell_a == maximize_agent:
                    objective[j] = -values[cell_o]
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


def fraction_re_eat(
    bundles: Mapping[str, Mapping[str, Fraction]], padded: PaddedInstance
) -> list[list[Fraction]]:
    """Each agent re-eats its bundle at unit speed in its re-eating order;
    representative k receives what was eaten during [k-1, k].  A dense
    (cn) x (cn) matrix, every bite in ``Fraction`` arithmetic."""
    c = padded.c
    col = {o: j for j, o in enumerate(padded.items)}
    size = c * len(padded.instance.agents)
    matrix: list[list[Fraction]] = [[Fraction(0)] * size for _ in range(size)]
    rep_base = 0
    for agent in padded.instance.agents:
        row = {o: v for o, v in bundles[agent].items() if v}
        total = sum(row.values(), Fraction(0))
        if total != c:
            raise ValueError(f"bundle of {agent!r} has mass {total}, expected {c}")
        clock = Fraction(0)
        for o in padded.orders[agent]:
            amount = row.get(o)
            if amount is None:
                continue
            if amount < 0:
                raise ValueError("negative bundle entry")
            while amount > 0:
                window = int(clock) + 1  # mass at time (w-1, w] feeds representative w
                bite = min(amount, Fraction(window) - clock)
                matrix[rep_base + window - 1][col[o]] += bite
                clock += bite
                amount -= bite
        rep_base += c
    return matrix
