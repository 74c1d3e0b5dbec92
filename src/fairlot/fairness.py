"""Verifiers for the fairness and efficiency notions used by the lottery
pipeline.  Every checker returns a report carrying a machine-readable
certificate: a witness of satisfaction or a concrete violating pair/set
that re-fails when replayed in isolation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

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
    utility_of_bundle,
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
    detail: str = ""

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
        if self.detail:
            payload["detail"] = self.detail
        return payload


def _rows_of(p: RandomAllocation | DeterministicAllocation) -> tuple[tuple[str, ...], dict]:
    if isinstance(p, DeterministicAllocation):
        return p.agents, {a: p.row(a) for a in p.agents}
    return tuple(p.rows), {a: p.row(a) for a in p.rows}


def check_ef(p: RandomAllocation | DeterministicAllocation, instance: Instance) -> Report:
    """Envy-freeness: every agent values its own row at least as much as
    anyone else's."""
    agents, rows = _rows_of(p)
    for i in agents:
        own = utility_of_bundle(instance, i, rows[i])
        for j in agents:
            if i == j:
                continue
            other = utility_of_bundle(instance, i, rows[j])
            if own < other:
                return Report(
                    "ef",
                    False,
                    violation={"envious": i, "envied": j, "gap": other - own},
                )
    return Report("ef", True, witness={"pairs_checked": len(agents) * (len(agents) - 1)})


def check_sd_ef(p: RandomAllocation | DeterministicAllocation, prefs: OrdinalProfile) -> Report:
    """Stochastic-dominance envy-freeness: own row weakly SD-dominates
    every other row, agent by agent.

    Entries are scaled to integers by one common positive factor, which
    preserves every comparison of prefix sums; each envier then computes
    the prefix sums of every row once, in its own tier order.
    """
    agents, rows = _rows_of(p)
    scale = math.lcm(*(v.denominator for row in rows.values() for v in row.values()))
    scaled = {a: {o: int(row.get(o, 0) * scale) for o in prefs.items} for a, row in rows.items()}
    for i in agents:
        tiers = prefs.tiers[i]
        prefixes = {a: _tier_prefixes(tiers, scaled[a]) for a in agents}
        for j in agents:
            if i == j:
                continue
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
        indeg = {a: 0 for a in participants}
        for i in participants:
            rank_i = ranks[i]
            mine = rank_i[ordered[i][r]]
            for j in participants:
                if i == j:
                    continue
                if rank_i[ordered[j][r]] < mine:
                    succ[j].append(i)
                    indeg[i] += 1
        queue = sorted(a for a in participants if indeg[a] == 0)
        order = []
        while queue:
            a = queue.pop(0)
            order.append(a)
            for b in succ[a]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    queue.append(b)
            queue.sort()
        if len(order) != len(participants):
            cycle = sorted(a for a in participants if indeg[a] > 0)
            return Report(
                "rb",
                False,
                violation={"round": r + 1, "trading_cycle_agents": cycle},
            )
        sequence.extend(order)
        picks.extend(ordered[a][r] for a in order)
    return Report("rb", True, witness={"sequence": sequence, "picks": picks})


def check_sd_efficient(
    p: RandomAllocation,
    prefs: OrdinalProfile,
    oracle: Callable[[RandomAllocation, OrdinalProfile], Any] | None = None,
) -> Report:
    """SD-efficiency of a fractional allocation.

    For strict profiles: build the relation "o is strictly preferred to o'
    by someone holding o'" and check it is acyclic (a topological order is
    the witness; a cycle is an improving trade).  Profiles with ties need
    the LP search for an SD-dominating allocation, injected as ``oracle``
    (returning None or an improving allocation); without it the check is
    refused.
    """
    if not prefs.is_strict():
        if oracle is None:
            return Report(
                "sdeff",
                False,
                detail="requires oracle: profile has ties and no LP fallback was supplied",
            )
        improvement = oracle(p, prefs)
        if improvement is None:
            return Report("sdeff", True, witness={"method": "lp"})
        return Report(
            "sdeff", False, violation={"dominating_allocation": improvement}
        )

    items = p.items
    holders: dict[str, list] = {o: [] for o in items}
    for a in p.rows:
        row = p.row(a)
        for o in items:
            if row[o] > 0:
                holders[o].append(a)
    ranks = {a: prefs.tier_rank(a) for a in p.rows}
    better: dict[str, set[str]] = {o: set() for o in items}  # o -> strictly worse o' held
    for o_prime in items:
        for a in holders[o_prime]:
            rank_a = ranks[a]
            held = rank_a[o_prime]
            for o in items:
                if rank_a[o] < held:
                    better[o].add(o_prime)

    indeg = {o: 0 for o in items}
    for o in items:
        for o_prime in better[o]:
            indeg[o_prime] += 1
    queue = sorted(o for o in items if indeg[o] == 0)
    topo = []
    while queue:
        o = queue.pop(0)
        topo.append(o)
        for o_prime in sorted(better[o]):
            indeg[o_prime] -= 1
            if indeg[o_prime] == 0:
                queue.append(o_prime)
        queue.sort()
    if len(topo) == len(items):
        return Report("sdeff", True, witness={"topological_order": topo})
    # Recover one cycle for the certificate: every unprocessed node still
    # has an unprocessed predecessor, so walking backward must revisit.
    remaining = {o for o in items if o not in set(topo)}
    preds = {
        o: sorted(u for u in remaining if o in better[u]) for o in remaining
    }
    node = sorted(remaining)[0]
    path = [node]
    seen = {node}
    while True:
        node = preds[node][0]
        if node in seen:
            cycle = path[path.index(node):]
            cycle.reverse()
            return Report("sdeff", False, violation={"trading_cycle": cycle + [cycle[0]]})
        path.append(node)
        seen.add(node)


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
