"""Verifiers for the fairness and efficiency notions used by the lottery
pipeline.  Every checker returns a report carrying a machine-readable
certificate: a witness of satisfaction or a concrete violating pair/set
that re-fails when replayed in isolation.

The ex-ante checkers take a ``RandomAllocation``, the ex-post ones a
``DeterministicAllocation``.  All compare exact integers or ranks; none
solves an LP (SD-efficiency is a cycle test on a trade graph of items).
The ex-ante checkers read sparse integer rows (nonzero cells on one lcm
scale, ``RandomAllocation.integer_form``), not all n * m cells.
The ex-post checkers keep what they learn about a bundle (every agent's
value of it, an agent's best-first order of it) and their ``sdef1``
verdict on an (envier, own bundle, other bundle) triple on the
``Instance`` or ``OrdinalProfile`` they are given: a lottery's support
allocations share most of their bundles, so each is worked out once.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping

from .fileio import matrix_to_obj
from .model import (
    BudgetExceeded,
    DeterministicAllocation,
    Instance,
    OrdinalProfile,
    RandomAllocation,
    format_rational,
    sd_compare,
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
    "pareto_front",
    "utility_vectors",
]


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
            if type(value) is str:  # most witness entries are item or agent ids
                return value
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


def check_ef(p: RandomAllocation, instance: Instance) -> Report:
    """Envy-freeness: every agent values its own row at least as much as
    anyone else's.  Agent i sums its integer utilities (``integer_rows``,
    scale s) over the nonzero cells of p's integer form (scale L), so a
    scaled gap g is the utility gap g / (L * s)."""
    rows, scale = p.integer_form()
    item_idx = instance._index_maps()[1]
    columns = [item_idx[o] for o in p.items]
    for i, row_i in zip(p.rows, rows):
        values, own_scale = instance.integer_rows()[instance.agent_index(i)]
        values = [values[c] for c in columns]
        mine = sum(values[c] * x for c, x in row_i.items())
        for j, row in zip(p.rows, rows):
            other = sum(values[c] * x for c, x in row.items())
            if other > mine:
                gap = Fraction(other - mine, scale * own_scale)
                return Report("ef", False, violation={"envious": i, "envied": j, "gap": gap})
    return Report("ef", True, witness={"pairs_checked": len(p.rows) * (len(p.rows) - 1)})


def check_sd_ef(p: RandomAllocation, prefs: OrdinalProfile) -> Report:
    """Stochastic-dominance envy-freeness: own row weakly SD-dominates
    every other row, agent by agent.

    Runs on p's integer form, each nonzero cell at the envier's tier rank.
    Another row's mass on the upper contour sets rises only at the ranks
    where it has mass, and the own row's never falls, so own dominates
    other iff it holds at least as much at those ranks.  ``sd_compare``
    names the relation of a failing pair.
    """
    agents = p.rows
    rows, _ = p.integer_form()
    for i, own in zip(agents, rows):
        rank = prefs.tier_rank(i)
        ranks = [rank[o] for o in p.items]
        masses = [0] * len(prefs.tiers[i])
        for c, x in own.items():
            masses[ranks[c]] += x
        ceiling = list(itertools.accumulate(masses))
        for j, row in zip(agents, rows):
            cells = sorted(zip(map(ranks.__getitem__, row), row.values()))
            if not all(map(operator.le, itertools.accumulate(x for _, x in cells),
                           (ceiling[t] for t, _ in cells))):
                rel = sd_compare(prefs, i, p.row(i), p.row(j))
                return Report("sdef", False,
                              violation={"envious": i, "envied": j, "relation": rel.value})
    return Report("sdef", True, witness={"pairs_checked": len(agents) * (len(agents) - 1)})


def _memo(owner: Instance | OrdinalProfile, name: str) -> dict:
    """A dict kept on a frozen ``Instance`` or ``OrdinalProfile``, as
    ``Instance.integer_rows`` is.  It lives as long as that object, so a
    bundle, or an (envier, own bundle, other bundle) triple, is decided
    once for every allocation checked against it."""
    return owner.__dict__.setdefault(name, {})


def _bundles(allocation: DeterministicAllocation) -> dict[str, tuple[str, ...]]:
    """Every agent's bundle as an item tuple in item order, from one pass
    over the owners."""
    bundles: dict[str, list[str]] = {a: [] for a in allocation.agents}
    for o, owner in zip(allocation.items, allocation.owners):
        bundles[owner].append(o)
    return {a: tuple(bundle) for a, bundle in bundles.items()}


def _bundle_values(
    instance: Instance, bundles: dict[str, tuple[str, ...]]
) -> dict[str, tuple[int, ...]]:
    """Per agent of ``bundles``, every agent's integer value of its bundle
    (``integer_rows`` scales), in the order of ``bundles``.  A bundle's
    values are summed once per instance, from its items' columns."""
    cache = _memo(instance, "_bundle_values")
    if not cache:  # seeded with the empty bundle and every single item
        cache[()] = (0,) * instance.n
        columns = zip(*(row for row, _ in instance.integer_rows()))
        cache.update(((o,), column) for o, column in zip(instance.items, columns))
    values = {}
    for a, bundle in bundles.items():
        row = cache.get(bundle)
        if row is None:
            row = cache[bundle] = tuple(map(sum, zip(*(cache[o,] for o in bundle))))
        values[a] = row
    if tuple(bundles) != instance.agents:
        order = [instance.agent_index(a) for a in bundles]
        values = {a: tuple(row[t] for t in order) for a, row in values.items()}
    return values


def _best_first(prefs: OrdinalProfile, agent: str, bundle: tuple[str, ...]) -> tuple[str, ...]:
    """``bundle`` sorted best-first for ``agent``, ties broken by item id;
    sorted once per profile."""
    if len(bundle) < 2:
        return bundle
    orders = _memo(prefs, "_best_first")
    order = orders.get((agent, bundle))
    if order is None:
        rank = prefs.tier_rank(agent)
        order = orders[agent, bundle] = tuple(sorted(bundle, key=lambda o: (rank[o], o)))
    return order


def check_efk(allocation: DeterministicAllocation, instance: Instance, k: int) -> Report:
    """Envy-freeness up to k items: for every ordered pair some removal
    set of at most k items kills the envy.

    Items live in exactly one bundle, so the best removal drops the k
    items of the envied bundle the envier likes most, and a bundle of at
    most k items is never envied after it.  Sums and comparisons run on
    the envier's integer-scaled utilities, from bundle values summed
    once per instance.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    prop = f"ef{k}"
    bundles = _bundles(allocation)
    large = [(j, bundle) for j, bundle in bundles.items() if len(bundle) > k]
    if large:
        values = _bundle_values(instance, bundles)
        large_values = [values[j] for j, _ in large]
        item_idx = instance._index_maps()[1]
        for s, i in enumerate(bundles):
            mine = values[i][s]
            envies = map(mine.__lt__, map(operator.itemgetter(s), large_values))
            for j, other in itertools.compress(large, envies):
                row, scale = instance.integer_rows()[instance.agent_index(i)]
                chosen = sorted(other, key=lambda o: (-row[item_idx[o]], o))[:k]
                left = values[j][s] - sum(row[item_idx[o]] for o in chosen)
                if mine < left:
                    return Report(
                        prop,
                        False,
                        violation={"envious": i, "envied": j, "best_removal": chosen,
                                   "gap": Fraction(left - mine, scale)},
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
    passes with one removal iff own dominates other without it.  Against
    a single item that is one rank comparison; a larger other bundle is
    decided once per (envier, own, other) triple and profile.
    """
    bundles = _bundles(allocation)
    single_holder = {bundle[0]: j for j, bundle in bundles.items() if len(bundle) == 1}
    larger = [(j, bundle) for j, bundle in bundles.items() if len(bundle) > 1]
    verdicts = _memo(prefs, "_sdef1")
    witness = {}
    for i, own in bundles.items():
        rank = prefs.tier_rank(i)
        if single_holder:
            # A single item goes iff i ranks it above its own best item
            # (an empty bundle ranks below every item).
            best = min(map(rank.__getitem__, own), default=len(rank))
            for tier in prefs.tiers[i][:best]:
                for o in tier:
                    j = single_holder.get(o)
                    if j is not None:
                        witness[f"{i}->{j}"] = o
        for j, other in larger:
            if j == i:
                continue
            key = (i, own, other)
            removal = verdicts.get(key)
            if removal is None:
                removal = verdicts[key] = _sd_ef1_verdict(prefs, i, own, other)
            if removal is False:
                return Report("sdef1", False, violation={"envious": i, "envied": j})
            if removal is not True:
                witness[f"{i}->{j}"] = removal
    return Report("sdef1", True, witness={"removals": witness})


def _sd_ef1_verdict(
    prefs: OrdinalProfile, i: str, own: tuple[str, ...], other: tuple[str, ...]
) -> bool | str:
    """True if i's ``own`` SD-dominates ``other``, other's best item if
    it does once that item goes, else False."""
    rank = prefs.tier_rank(i)
    mine = sorted(map(rank.__getitem__, own))
    order = _best_first(prefs, i, other)
    theirs = [rank[o] for o in order]
    if len(mine) >= len(theirs) and all(map(operator.le, mine, theirs)):
        return True
    if len(mine) + 1 >= len(theirs) and all(map(operator.le, mine, theirs[1:])):
        return order[0]
    return False


def check_strong_ef1(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Strong EF1: for each agent i, one common item of i's bundle can be
    removed so that nobody envies i.  Each agent's comparisons run on its
    integer-scaled utilities: every agent's value of a bundle is summed
    once per instance, so i's enviers take one comparison per agent, and
    a single item is always a common removal."""
    agents = allocation.agents
    bundles = _bundles(allocation)
    values = _bundle_values(instance, bundles)
    own = [row[s] for s, row in enumerate(values.values())]
    witness = {}
    for i, bundle in bundles.items():
        theirs = values[i]
        if not any(map(operator.lt, own, theirs)):
            continue
        found = bundle[0]
        if len(bundle) > 1:
            envious = list(itertools.compress(range(len(agents)), map(operator.lt, own, theirs)))
            rows = instance.integer_rows()
            item_idx = instance._index_maps()[1]
            held = [rows[instance.agent_index(agents[s])][0] for s in envious]
            found = next(
                (o for o in bundle
                 if all(own[s] >= theirs[s] - row[item_idx[o]] for s, row in zip(envious, held))),
                None,
            )
            if found is None:
                return Report(
                    "strong-ef1",
                    False,
                    violation={"envied": i, "enviers": [agents[s] for s in envious]},
                )
        witness[i] = found
    return Report("strong-ef1", True, witness={"common_removals": witness})


def check_rb(
    allocation: DeterministicAllocation, prefs: OrdinalProfile, c: int
) -> Report:
    """Decide whether the allocation is the outcome of sequential picking
    under some recursively balanced turn sequence.

    Bundle sizes must be c or c-1.  Round r pins each participant's r-th
    best owned item (bundle-internal ties broken by item id); the
    allocation is reconstructible iff no agent strictly prefers a later
    round's item to its own round item, and the within-round "wants the
    other's item" digraph is acyclic (a topological order of it is a
    valid picking order).  The witness is the full picking sequence,
    replayable by greedy picks.
    """
    agents = allocation.agents
    bundles = _bundles(allocation)
    sizes = {a: len(bundle) for a, bundle in bundles.items()}
    if any(size not in (c, c - 1) for size in sizes.values()):
        return Report(
            "rb",
            False,
            violation={"reason": "bundle sizes incompatible with balanced rounds", "sizes": sizes},
        )
    ordered = {a: _best_first(prefs, a, bundle) for a, bundle in bundles.items()}
    ranks = {a: prefs.tier_rank(a) for a in agents}
    sequence: list[str] = []
    picks: list[str] = []
    for r in range(c):
        participants = [a for a in agents if sizes[a] > r]
        later = [z for a in agents for z in ordered[a][r + 1:]]
        for a in participants:
            rank = ranks[a]
            mine = rank[ordered[a][r]]
            if later and min(map(rank.__getitem__, later)) < mine:
                z = next(z for z in later if rank[z] < mine)
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
        holder = {ordered[a][r]: a for a in participants}
        succ = {a: [] for a in participants}
        for i in participants:
            for tier in prefs.tiers[i][:ranks[i][ordered[i][r]]]:
                for o in tier:
                    j = holder.get(o)
                    if j is not None:
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
    for a, row in zip(p.rows, p.integer_form()[0]):
        rank = prefs.tier_rank(a)
        for y in map(items.__getitem__, row):
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


def pareto_front(
    instance: Instance,
) -> tuple[list[DeterministicAllocation], list[tuple[int, ...]], set[tuple[int, ...]]]:
    """Every deterministic allocation of the instance (``enumerate_allocations``
    order), their ``utility_vectors``, and the set of Pareto-maximal ones.
    Enumerated once per instance; the budget is checked on every call.
    """
    # Imported here: only ``po`` enumerates, so the other checks never load the oracle.
    from .oracle import _check_budget, enumerate_allocations

    _check_budget(instance.n, instance.m)
    cache = _memo(instance, "_pareto")
    if "front" not in cache:
        allocations = enumerate_allocations(instance.agents, instance.items)
        vectors = list(utility_vectors(instance, allocations))
        # A dominator has a strictly larger sum, so in descending-sum order
        # every maximal vector is met before the vectors it dominates; and a
        # dominated vector is always dominated by a maximal one, so each
        # vector is tested against the maxima found so far alone.
        maxima: list[tuple[int, ...]] = []
        for v in sorted(set(vectors), key=sum, reverse=True):
            if not any(all(map(operator.ge, w, v)) for w in maxima):
                maxima.append(v)
        cache["front"] = (allocations, vectors, set(maxima))
    return cache["front"]


def check_po_bruteforce(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Pareto optimality among deterministic allocations, by enumeration
    (``pareto_front``); a violation names the first dominating allocation.

    Refuses (raises BudgetExceeded) when n^m exceeds the enumeration
    budget rather than silently sampling.
    """
    candidates, vectors, maximal = pareto_front(instance)
    (base,) = utility_vectors(instance, [allocation])
    if base not in maximal:
        for candidate, values in zip(candidates, vectors):
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
