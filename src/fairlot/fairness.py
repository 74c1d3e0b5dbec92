"""Verifiers for the fairness and efficiency notions used by the lottery
pipeline.  Every checker returns a report carrying a machine-readable
certificate: a witness of satisfaction or a concrete violating pair/set
that re-fails when replayed in isolation.

The ex-ante checkers take a ``RandomAllocation``, the ex-post ones a
``DeterministicAllocation``.  All compare exact integers or ranks; none
solves an LP (SD-efficiency is a cycle test on a trade graph of items).
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping

from .fileio import matrix_to_obj
from .model import (
    DeterministicAllocation,
    Instance,
    OrdinalProfile,
    RandomAllocation,
    SdRelation,
    _sd_relation,
    _tier_prefixes,
    format_rational,
)

__all__ = [
    "Report",
    "BudgetExceeded",
    "check_ef",
    "check_sd_ef",
    "check_ef1",
    "check_efk",
    "check_sd_ef1",
    "check_strong_ef1",
    "check_rb",
    "check_sd_efficient",
    "check_po_bruteforce",
    "utility_vectors",
]


class BudgetExceeded(RuntimeError):
    """Raised when a brute-force check would exceed its enumeration budget."""


@dataclass(frozen=True)
class Report:
    """Outcome of one property check.

    ``ok`` is True/False for a decided check; ``witness`` documents why it
    passed, ``violation`` why it failed.  Both are plain dict/list/str
    payloads, except that a ``RandomAllocation`` in them serializes as a
    matrix document.
    """

    prop: str
    ok: bool
    witness: Any = None
    violation: Any = None

    def to_json(self) -> dict:
        def encode(value):
            if isinstance(value, Fraction):
                return format_rational(value)
            if isinstance(value, RandomAllocation):
                return matrix_to_obj(value)
            if isinstance(value, dict):
                return {str(k): encode(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [encode(v) for v in value]
            return value

        payload = {"property": self.prop, "verdict": "PASS" if self.ok else "FAIL"}
        if self.witness is not None:
            payload["witness"] = encode(self.witness)
        if self.violation is not None:
            payload["violation"] = encode(self.violation)
        return payload


def _scaled_rows(p: RandomAllocation) -> tuple[dict[Any, dict[str, int]], int]:
    """p's rows as item -> int maps on one scale L, the lcm of all its
    denominators: entry v becomes v * L."""
    scale = math.lcm(*(v.denominator for row in p.entries for v in row))
    rows = {
        a: {o: v.numerator * (scale // v.denominator) for o, v in zip(p.items, row)}
        for a, row in zip(p.rows, p.entries)
    }
    return rows, scale


def check_ef(p: RandomAllocation, instance: Instance) -> Report:
    """Envy-freeness: every agent values its own row at least as much as
    anyone else's.  Agent i sums its integer utilities (``integer_rows``,
    scale s) over entries scaled by one lcm L (``_scaled_rows``), so a
    scaled gap g is the utility gap g / (L * s)."""
    rows, scale = _scaled_rows(p)
    item_idx = instance._index_maps()[1]
    for i in p.rows:
        values, own_scale = instance.integer_rows()[instance.agent_index(i)]
        totals = {a: sum(values[item_idx[o]] * v for o, v in row.items()) for a, row in rows.items()}
        for j, other in totals.items():
            if other > totals[i]:
                gap = Fraction(other - totals[i], scale * own_scale)
                return Report("ef", False, violation={"envious": i, "envied": j, "gap": gap})
    return Report("ef", True, witness={"pairs_checked": len(p.rows) * (len(p.rows) - 1)})


def check_sd_ef(p: RandomAllocation, prefs: OrdinalProfile) -> Report:
    """Stochastic-dominance envy-freeness: own row weakly SD-dominates
    every other row, agent by agent.

    Entries are scaled to integers by one common positive factor, which
    preserves every comparison of prefix sums; each envier then computes
    the prefix sums of every row once, in its own tier order.
    """
    agents = p.rows
    scaled, _ = _scaled_rows(p)
    for i in agents:
        tiers = prefs.tiers[i]
        prefixes = {a: _tier_prefixes(tiers, scaled[a]) for a in agents}
        for j in agents:
            rel = _sd_relation(prefixes[i], prefixes[j])
            if rel not in (SdRelation.DOMINATES, SdRelation.EQUIVALENT):
                return Report(
                    "sdef",
                    False,
                    violation={"envious": i, "envied": j, "relation": rel.value},
                )
    return Report("sdef", True, witness={"pairs_checked": len(agents) * (len(agents) - 1)})


def _bundles(allocation: DeterministicAllocation) -> dict[str, list[str]]:
    """Every agent's bundle, in item order, from one pass over the owners."""
    bundles: dict[str, list[str]] = {a: [] for a in allocation.agents}
    for o, owner in zip(allocation.items, allocation.owners):
        bundles[owner].append(o)
    return bundles


def _scores(
    allocation: DeterministicAllocation, instance: Instance
) -> dict[str, dict[str, int]]:
    """``score[i][j]``: agent i's utility for j's bundle, in i's integer
    scale (see ``Instance.integer_rows``)."""
    rows = instance.integer_rows()
    item_idx = instance._index_maps()[1]
    cells = [(item_idx[o], owner) for o, owner in zip(allocation.items, allocation.owners)]
    score = {}
    for i in allocation.agents:
        values = rows[instance.agent_index(i)][0]
        totals = score[i] = dict.fromkeys(allocation.agents, 0)
        for c, owner in cells:
            totals[owner] += values[c]
    return score


def check_efk(allocation: DeterministicAllocation, instance: Instance, k: int) -> Report:
    """Envy-freeness up to k items: for every ordered pair some removal
    set of at most k items kills the envy.

    Items live in exactly one bundle, so the best removal drops the k
    items of the envied bundle the envier likes most.  Sums and
    comparisons run on the envier's integer-scaled utilities.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    prop = f"ef{k}"
    agents = allocation.agents
    rows = instance.integer_rows()
    item_idx = instance._index_maps()[1]
    score = _scores(allocation, instance)
    bundles = _bundles(allocation)
    positions = {a: [item_idx[o] for o in bundle] for a, bundle in bundles.items()}
    for i in agents:
        values, scale = rows[instance.agent_index(i)]
        value = values.__getitem__
        mine = score[i]
        own = mine[i]
        for j in agents:
            if i == j or own >= mine[j]:
                continue
            removed = sum(sorted(map(value, positions[j]), reverse=True)[:k])
            if own < mine[j] - removed:
                chosen = sorted(bundles[j], key=lambda o: (-values[item_idx[o]], o))[:k]
                return Report(
                    prop,
                    False,
                    violation={
                        "envious": i,
                        "envied": j,
                        "best_removal": chosen,
                        "gap": Fraction(mine[j] - removed - own, scale),
                    },
                )
    return Report(prop, True, witness={"k": k, "removal": "both"})


def check_ef1(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Envy-freeness up to one item."""
    return check_efk(allocation, instance, 1)


def check_sd_ef1(allocation: DeterministicAllocation, prefs: OrdinalProfile) -> Report:
    """SD envy-freeness up to one item: own bundle SD-dominates the other
    bundle, or does so after zeroing a single item of the other bundle.

    Works on the envier's ranks of the two bundles, each sorted best
    first.  Own SD-dominates other iff own is at least as large and its
    r-th best item is ranked at or above other's r-th best, for every r.
    Removing an item of rank t lowers other's tier counts from tier t on,
    so the best removal is other's best item (by rank, then id): the pair
    passes with one removal iff own dominates other without it.
    """
    bundles = _bundles(allocation)
    witness = {}
    for i in allocation.agents:
        rank = prefs.tier_rank(i)
        ranks = {a: sorted(map(rank.__getitem__, bundle)) for a, bundle in bundles.items()}
        own = ranks.pop(i)
        size = len(own)
        for j, other in ranks.items():
            if size >= len(other) and all(map(operator.le, own, other)):
                continue
            if size + 1 >= len(other) and all(map(operator.le, own, other[1:])):
                witness[f"{i}->{j}"] = min(bundles[j], key=lambda o: (rank[o], o))
                continue
            return Report("sdef1", False, violation={"envious": i, "envied": j})
    return Report("sdef1", True, witness={"removals": witness})


def check_strong_ef1(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Strong EF1: for each agent i, one common item of i's bundle can be
    removed so that nobody envies i.  Each agent's comparisons run on its
    integer-scaled utilities."""
    agents = allocation.agents
    rows = instance.integer_rows()
    item_idx = instance._index_maps()[1]
    values = {a: rows[instance.agent_index(a)][0] for a in agents}
    score = _scores(allocation, instance)
    witness = {}
    for i, bundle in _bundles(allocation).items():
        enviers = [j for j in agents if j != i and score[j][j] < score[j][i]]
        if not enviers:
            continue
        found = None
        for o in bundle:
            c = item_idx[o]
            if all(score[j][j] >= score[j][i] - values[j][c] for j in enviers):
                found = o
                break
        if found is None:
            return Report(
                "strong-ef1",
                False,
                violation={"envied": i, "enviers": enviers},
            )
        witness[i] = found
    return Report("strong-ef1", True, witness={"common_removals": witness})


def _rb_round_items(
    allocation: DeterministicAllocation, prefs: OrdinalProfile
) -> dict[str, list[str]]:
    """Each agent's bundle sorted best-first (bundle-internal ties broken
    lexicographically); position r-1 is the agent's round-r item."""
    ordered = {}
    for agent, bundle in _bundles(allocation).items():
        rank = prefs.tier_rank(agent)
        ordered[agent] = sorted(bundle, key=lambda o: (rank[o], o))
    return ordered


def check_rb(
    allocation: DeterministicAllocation, prefs: OrdinalProfile, c: int
) -> Report:
    """Decide whether the allocation is the outcome of sequential picking
    under some recursively balanced turn sequence.

    Bundle sizes must be c or c-1.  Round r pins each participant's r-th
    best owned item; the allocation is reconstructible iff no agent
    strictly prefers a later round's item to its own round item, and the
    within-round "wants the other's item" digraph is acyclic (a
    topological order of it is a valid picking order).  The witness is the
    full picking sequence, replayable by greedy picks.
    """
    sizes = {a: len(allocation.bundle(a)) for a in allocation.agents}
    if any(size not in (c, c - 1) for size in sizes.values()):
        return Report(
            "rb",
            False,
            violation={"reason": "bundle sizes incompatible with balanced rounds", "sizes": sizes},
        )
    ordered = _rb_round_items(allocation, prefs)
    ranks = {a: prefs.tier_rank(a) for a in allocation.agents}
    sequence: list[str] = []
    picks: list[str] = []
    for r in range(c):
        participants = [a for a in allocation.agents if sizes[a] > r]
        later = [
            ordered[a][r2]
            for a in allocation.agents
            for r2 in range(r + 1, sizes[a])
        ]
        for a in participants:
            mine = ranks[a][ordered[a][r]]
            for z in later:
                if ranks[a][z] < mine:
                    return Report(
                        "rb",
                        False,
                        violation={
                            "agent": a,
                            "round": r + 1,
                            "own_item": ordered[a][r],
                            "preferred_later_item": z,
                        },
                    )
        # j must pick before i when i strictly prefers j's round item.
        succ = {a: [] for a in participants}
        for i in participants:
            rank_i = ranks[i]
            mine = rank_i[ordered[i][r]]
            for j in participants:
                if rank_i[ordered[j][r]] < mine:
                    succ[j].append(i)
        order = _topological_order(succ)
        if len(order) != len(participants):
            cycle = sorted(set(participants) - set(order))
            return Report(
                "rb",
                False,
                violation={"round": r + 1, "trading_cycle_agents": cycle},
            )
        sequence.extend(order)
        picks.extend(ordered[a][r] for a in order)
    return Report("rb", True, witness={"sequence": sequence, "picks": picks})


def _topological_order(succ: Mapping[Any, Iterable[Any]]) -> list:
    """Kahn's algorithm that always takes the smallest available node.
    The nodes missing from the result are exactly those on a cycle or
    behind one."""
    indeg = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for v in targets:
            indeg[v] += 1
    heap = [u for u, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    return order


def check_sd_efficient(p: RandomAllocation, prefs: OrdinalProfile) -> Report:
    """SD-efficiency of a fractional allocation, ties or not.

    The trade graph on items has an edge x -> y (x != y) when an agent
    holding part of y ranks x at or above y; the edge is strict when it
    ranks x strictly above y.  p is SD-efficient iff no strict edge lies
    on a cycle.  Such a cycle is an SD-improvement: each edge's backer
    swaps epsilon of the item it holds for the one it ranks at or above,
    every item is given and received once, no backer's tier prefix sum
    falls and the strict backer's rises.  Conversely, if q SD-dominates
    p, each agent's change from p to q moves mass to weakly better items;
    summed over agents this is a circulation along reversed edges, and
    one of its cycles holds the strict step of an agent q improves.

    PASS lists the items class by class (strongly connected classes in
    smallest-first topological order, sorted within), naming the classes
    of more than one item under ``classes``.  FAIL gives the cycle
    ``[x, y, ..., x]`` through the smallest such strict edge x -> y and
    the allocation that trading along it by the smallest holding yields.
    """
    items = p.items
    index = {o: k for k, o in enumerate(items)}
    # edges[x][y] = (backing agent, whether it ranks x strictly above y)
    edges: dict[str, dict[str, tuple[Any, bool]]] = {o: {} for o in items}
    for a, row in zip(p.rows, p.entries):
        rank = prefs.tier_rank(a)
        for y, amount in zip(items, row):
            if not amount:
                continue
            held = rank[y]
            for x in items:
                if x != y and rank[x] <= held:
                    backer = edges[x].get(y)
                    if backer is None or (rank[x] < held and not backer[1]):
                        edges[x][y] = (a, rank[x] < held)
    # reach[k] has bit j set iff items[j] is reachable from items[k]
    # (Warshall's transitive closure, one int per row).
    reach = [sum(1 << index[y] for y in edges[x]) for x in items]
    for k, through in enumerate(reach):
        for i, row in enumerate(reach):
            if row >> k & 1:
                reach[i] = row | through

    def reaches(u: str, v: str) -> int:
        return reach[index[u]] >> index[v] & 1

    on_cycle = [(x, y) for x in items for y, (_, strict) in edges[x].items()
                if strict and reaches(y, x)]
    if not on_cycle:
        cls: dict[str, tuple[str, ...]] = {}
        ordered = sorted(items)
        for o in ordered:
            if o not in cls:
                members = tuple(v for v in ordered if v == o or reaches(o, v) and reaches(v, o))
                cls.update(dict.fromkeys(members, members))
        condensed = {
            c: {cls[y] for x in c for y in edges[x]} - {c} for c in dict.fromkeys(cls.values())
        }
        order = _topological_order(condensed)
        witness: dict[str, Any] = {"topological_order": [o for c in order for o in c]}
        if len(order) < len(items):
            witness["classes"] = [list(c) for c in order if len(c) > 1]
        return Report("sdeff", True, witness=witness)

    x, y = min(on_cycle)
    parent = {y: y}
    queue = [y]
    for u in queue:  # breadth first: parent[] spans shortest paths from y
        for v in sorted(edges[u]):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    path = [x]
    while path[-1] != y:
        path.append(parent[path[-1]])
    cycle = [x] + path[::-1]
    rows = {a: p.row(a) for a in p.rows}
    trades = [(edges[u][v][0], u, v) for u, v in zip(cycle, cycle[1:])]
    eps = min(rows[b][v] for b, _, v in trades)
    for b, u, v in trades:
        rows[b][u] += eps
        rows[b][v] -= eps
    better = RandomAllocation(p.rows, items, tuple(tuple(r.values()) for r in rows.values()))
    return Report(
        "sdeff",
        False,
        violation={"trading_cycle": cycle, "dominating_allocation": better},
    )


def utility_vectors(
    instance: Instance, allocations: Iterable[DeterministicAllocation]
) -> Iterator[tuple[int, ...]]:
    """Per allocation, every agent's utility of its bundle in instance
    agent order, each in that agent's integer scale (``integer_rows``).
    Pareto dominance between these vectors is dominance between the
    utility vectors themselves."""
    agent_idx, item_idx = instance._index_maps()
    rows = instance.integer_rows()
    cells = {
        o: {a: (i, rows[i][0][j]) for a, i in agent_idx.items()}
        for o, j in item_idx.items()
    }
    for allocation in allocations:
        totals = [0] * instance.n
        for o, owner in zip(allocation.items, allocation.owners):
            i, value = cells[o][owner]
            totals[i] += value
        yield tuple(totals)


def check_po_bruteforce(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Pareto optimality among deterministic allocations, by enumeration.

    Refuses (raises BudgetExceeded) when n^m exceeds the enumeration
    budget rather than silently sampling.
    """
    from .oracle import enumerate_allocations  # local import to avoid a cycle

    candidates = enumerate_allocations(instance.agents, instance.items)
    (base,) = utility_vectors(instance, [allocation])
    for candidate, values in zip(candidates, utility_vectors(instance, candidates)):
        if values != base and all(map(operator.ge, values, base)):
            scales = [scale for _, scale in instance.integer_rows()]
            return Report(
                "po",
                False,
                violation={
                    "improving_allocation": candidate.owner_map(),
                    "utilities": {
                        a: Fraction(v, scale)
                        for a, v, scale in zip(instance.agents, values, scales)
                    },
                },
            )
    return Report("po", True, witness={"searched": len(instance.agents) ** len(instance.items)})
