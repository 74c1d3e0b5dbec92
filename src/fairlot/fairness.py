"""Verifiers for the fairness and efficiency notions used by the lottery
pipeline.  Every checker returns a report carrying a machine-readable
certificate: a witness of satisfaction or a concrete violating pair/set
that re-fails when replayed in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping

from .model import (
    DeterministicAllocation,
    Instance,
    OrdinalProfile,
    RandomAllocation,
    SdRelation,
    format_rational,
    sd_compare,
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
]


class BudgetExceeded(RuntimeError):
    """Raised when a brute-force check would exceed its enumeration budget."""


@dataclass(frozen=True)
class Report:
    """Outcome of one property check.

    ``ok`` is True/False for a decided check; ``witness`` documents why it
    passed, ``violation`` why it failed.  Both are plain dict/list/str
    payloads so they serialize as-is.
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
    every other row, agent by agent."""
    agents, rows = _rows_of(p)
    for i in agents:
        for j in agents:
            if i == j:
                continue
            rel = sd_compare(prefs, i, rows[i], rows[j])
            if rel not in (SdRelation.DOMINATES, SdRelation.EQUIVALENT):
                return Report(
                    "sdef",
                    False,
                    violation={"envious": i, "envied": j, "relation": rel.value},
                )
    return Report("sdef", True, witness={"pairs_checked": len(agents) * (len(agents) - 1)})


def _best_removal(
    instance: Instance,
    agent: str,
    own: Mapping[str, Fraction],
    other: Mapping[str, Fraction],
    k: int,
    removal: str,
) -> tuple[list[str], Fraction, Fraction]:
    """Remove up to k items to help ``agent``; returns (set, own', other').

    Removal semantics "both" zeroes the chosen items in both rows (per-item
    gain u(o)*(other[o]-own[o])); "envied-only" zeroes them in the other
    row alone.  For deterministic rows the two coincide.
    """
    gains = []
    for o in instance.items:
        if removal == "both":
            gain = instance.utility(agent, o) * (other.get(o, Fraction(0)) - own.get(o, Fraction(0)))
        else:
            gain = instance.utility(agent, o) * other.get(o, Fraction(0))
        if gain > 0:
            gains.append((gain, o))
    gains.sort(key=lambda t: (-t[0], t[1]))
    chosen = [o for _, o in gains[:k]]
    own_value = utility_of_bundle(instance, agent, own)
    other_value = utility_of_bundle(instance, agent, other)
    for o in chosen:
        if removal == "both":
            own_value -= instance.utility(agent, o) * own.get(o, Fraction(0))
        other_value -= instance.utility(agent, o) * other.get(o, Fraction(0))
    return chosen, own_value, other_value


def _check_efk_deterministic(
    allocation: DeterministicAllocation, instance: Instance, k: int, prop: str
) -> Report:
    # Items live in exactly one bundle, so both removal semantics reduce
    # to dropping the k items of the envied bundle the envier likes most.
    agents = allocation.agents
    item_idx = instance._index_maps()[1]
    bundles = {a: allocation.bundle(a) for a in agents}
    for i in agents:
        values = instance.values[instance.agent_index(i)]
        own = sum(values[item_idx[o]] for o in bundles[i])
        for j in agents:
            if i == j:
                continue
            other_values = sorted((values[item_idx[o]] for o in bundles[j]), reverse=True)
            other = sum(other_values)
            if own >= other:
                continue
            if own < other - sum(other_values[:k]):
                chosen = sorted(
                    bundles[j], key=lambda o: (-values[item_idx[o]], o)
                )[:k]
                return Report(
                    prop,
                    False,
                    violation={
                        "envious": i,
                        "envied": j,
                        "best_removal": chosen,
                        "gap": other - sum(other_values[:k]) - own,
                    },
                )
    return Report(prop, True, witness={"k": k, "removal": "both"})


def check_efk(
    allocation: DeterministicAllocation | RandomAllocation,
    instance: Instance,
    k: int,
    removal: str = "both",
) -> Report:
    """Envy-freeness up to k items: for every ordered pair some removal
    set of at most k items kills the envy.  The default semantics removes
    the set from both bundles; ``removal="envied-only"`` removes it only
    from the envied bundle (the two agree on deterministic allocations).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if removal not in ("both", "envied-only"):
        raise ValueError(f"unknown removal semantics {removal!r}")
    if isinstance(allocation, DeterministicAllocation):
        return _check_efk_deterministic(allocation, instance, k, f"ef{k}")
    agents, rows = _rows_of(allocation)
    prop = f"ef{k}"
    for i in agents:
        for j in agents:
            if i == j:
                continue
            chosen, own_value, other_value = _best_removal(
                instance, i, rows[i], rows[j], k, removal
            )
            if own_value < other_value:
                return Report(
                    prop,
                    False,
                    violation={
                        "envious": i,
                        "envied": j,
                        "best_removal": chosen,
                        "gap": other_value - own_value,
                    },
                )
    return Report(prop, True, witness={"k": k, "removal": removal})


def check_ef1(
    allocation: DeterministicAllocation | RandomAllocation,
    instance: Instance,
    removal: str = "both",
) -> Report:
    """Envy-freeness up to one item."""
    return check_efk(allocation, instance, 1, removal)


def check_sd_ef1(allocation: DeterministicAllocation, prefs: OrdinalProfile) -> Report:
    """SD envy-freeness up to one item: own bundle SD-dominates the other
    bundle, or does so after zeroing a single item of the other bundle.

    Works on tier-count prefixes: the pair passes outright when the
    envier's cumulative tier counts never fall behind; removing one item
    of rank r fixes a deficit of one from tier r onward, so a single
    removal suffices iff the deficit never exceeds one and the other
    bundle holds an item ranked at or above the first deficit.
    """
    agents = allocation.agents
    bundles = {a: allocation.bundle(a) for a in agents}
    removals: dict = {}
    for i in agents:
        rank = prefs.tier_rank(i)
        ntiers = len(prefs.tiers[i])
        own_counts = [0] * ntiers
        for o in bundles[i]:
            own_counts[rank[o]] += 1
        for j in agents:
            if i == j:
                continue
            other_counts = [0] * ntiers
            for o in bundles[j]:
                other_counts[rank[o]] += 1
            own_cum = other_cum = worst = 0
            first_deficit = None
            for t in range(ntiers):
                own_cum += own_counts[t]
                other_cum += other_counts[t]
                deficit = other_cum - own_cum
                if deficit > 0 and first_deficit is None:
                    first_deficit = t
                if deficit > worst:
                    worst = deficit
            if worst <= 0:
                removals[(i, j)] = None
                continue
            fixed = None
            if worst == 1:
                candidates = [o for o in bundles[j] if rank[o] <= first_deficit]
                if candidates:
                    fixed = min(candidates, key=lambda o: (rank[o], o))
            if fixed is None:
                return Report(
                    "sdef1", False, violation={"envious": i, "envied": j}
                )
            removals[(i, j)] = fixed
    witness = {f"{i}->{j}": o for (i, j), o in removals.items() if o is not None}
    return Report("sdef1", True, witness={"removals": witness})


def check_strong_ef1(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Strong EF1: for each agent i, one common item of i's bundle can be
    removed so that nobody envies i."""
    agents = allocation.agents
    item_idx = instance._index_maps()[1]
    bundles = {a: allocation.bundle(a) for a in agents}
    values = {a: instance.values[instance.agent_index(a)] for a in agents}
    score = {
        (i, j): sum(values[i][item_idx[o]] for o in bundles[j])
        for i in agents
        for j in agents
    }
    witness = {}
    for i in agents:
        enviers = [j for j in agents if j != i and score[(j, j)] < score[(j, i)]]
        if not enviers:
            continue
        found = None
        for o in bundles[i]:
            if all(
                score[(j, j)] >= score[(j, i)] - values[j][item_idx[o]]
                for j in enviers
            ):
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
    for agent in allocation.agents:
        rank = prefs.tier_rank(agent)
        ordered[agent] = sorted(allocation.bundle(agent), key=lambda o: (rank[o], o))
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


def check_po_bruteforce(
    allocation: DeterministicAllocation,
    instance: Instance,
    budget: int | None = None,
) -> Report:
    """Pareto optimality among deterministic allocations, by enumeration.

    Refuses (raises BudgetExceeded) when n^m exceeds the budget rather
    than silently sampling.
    """
    from .oracle import enumerate_allocations  # local import to avoid a cycle

    base = {a: utility_of_bundle(instance, a, allocation.row(a)) for a in instance.agents}
    for candidate in enumerate_allocations(instance.agents, instance.items, budget=budget):
        values = {
            a: utility_of_bundle(instance, a, candidate.row(a)) for a in instance.agents
        }
        if all(values[a] >= base[a] for a in instance.agents) and any(
            values[a] > base[a] for a in instance.agents
        ):
            return Report(
                "po",
                False,
                violation={
                    "improving_allocation": candidate.owner_map(),
                    "utilities": values,
                },
            )
    return Report("po", True, witness={"searched": len(instance.agents) ** len(instance.items)})
