"""Coordinated eating for weak preference orders, plus the binary-utility
mode in which agents never touch items they value at zero.

Agents eat from their best tier of remaining items, but the split of an
agent's consumption across a tier is kept *fluid*: only the total eaten is
tracked until a bottleneck event pins it down.  A bottleneck is a set of
agents whose eligible items run out exactly when their accumulated demand
meets the items' remaining capacity; at that moment the group's
consumption is fixed by a witness max-flow, the items leave the market,
and everyone else keeps eating.  This realizes the parametric-flow
computation of the eating outcome with plain max-flow calls: the duration
of each step is found by a Dinkelbach iteration (guess the full-set
ratio, test by max-flow, tighten the guess with the min-cut's violating
set) that needs at most one round per agent.  Each round's network lives
on one integer scale, the lcm of the denominators of its capacities, so
the max-flow adds and compares plain ints; one search from the source
per failing round yields the violating set.

On strict preference profiles every tier is a singleton, all splits are
forced, and the outcome coincides exactly with the serial eating rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping, Sequence

from .model import (
    EatingTrace,
    Instance,
    OrdinalProfile,
    RandomAllocation,
    TraceSegment,
    ordinal_from_utilities,
)

__all__ = [
    "EatingNetwork",
    "DurationResult",
    "max_eating_duration",
    "eps_outcome",
    "globally_unwanted",
]


_ZERO = Fraction(0)


class _Flow:
    """Max-flow on a small graph with exact capacities.

    Arithmetic is whatever the capacities bring (``int`` on the eating
    path; ``Fraction`` works too), and reverse edges start at ``0``.
    Edges are stored in pairs (forward at even index, its reverse right
    after), so ``edge ^ 1`` flips direction.  Deterministic: BFS follows
    insertion order.
    """

    def __init__(self, n_nodes: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list = []

    def add(self, u: int, v: int, cap) -> int:
        e = len(self.to)
        self.adj[u].append(e)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(e + 1)
        self.to.append(u)
        self.cap.append(0)
        return e

    def flow_on(self, e: int):
        return self.cap[e ^ 1]

    def maxflow(self, s: int, t: int):
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        n = len(adj)
        while True:
            prev = [-1] * n
            prev[s] = -2
            queue = deque([s])
            while queue:
                u = queue.popleft()
                if u == t:
                    break
                for e in adj[u]:
                    v = to[e]
                    if prev[v] == -1 and cap[e] > 0:
                        prev[v] = e
                        queue.append(v)
            if prev[t] == -1:
                return total
            path = []
            v = t
            while v != s:
                e = prev[v]
                path.append(e)
                v = to[e ^ 1]
            bottleneck = min(cap[e] for e in path)
            for e in path:
                cap[e] -= bottleneck
                cap[e ^ 1] += bottleneck
            total += bottleneck

    def reachable_from(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if v not in seen and self.cap[e] > 0:
                    seen.add(v)
                    queue.append(v)
        return seen

    def cannot_reach(self, t: int) -> set[int]:
        """Nodes with no residual path to t (the largest min-cut source side)."""
        can = {t}
        queue = deque([t])
        while queue:
            v = queue.popleft()
            for e in self.adj[v]:
                u = self.to[e]
                # residual edge u -> v exists iff the paired edge has capacity
                if u not in can and self.cap[e ^ 1] > 0:
                    can.add(u)
                    queue.append(u)
        return set(range(len(self.adj))) - can


@dataclass(frozen=True)
class EatingNetwork:
    """Feasibility network for one eating step.

    Each eater draws from its eligible items (its current best tier);
    ``demands`` holds consumption already accumulated but not yet pinned,
    and every eater additionally eats for the whole step duration.
    ``capacity`` is the remaining amount of each item.
    """

    eaters: tuple[Hashable, ...]
    eligible: Mapping[Hashable, frozenset[str]]
    capacity: Mapping[str, Fraction]
    demands: Mapping[Hashable, Fraction] = field(default_factory=dict)

    def demand_of(self, eater: Hashable) -> Fraction:
        return self.demands.get(eater, _ZERO)

    def live_eligible(self, eater: Hashable) -> frozenset[str]:
        return frozenset(o for o in self.eligible[eater] if self.capacity.get(o, 0) > 0)


@dataclass(frozen=True)
class DurationResult:
    duration: Fraction
    tight_eaters: tuple[Hashable, ...]
    tight_items: tuple[str, ...]
    flow: Mapping[Hashable, Mapping[str, Fraction]]


def max_eating_duration(network: EatingNetwork) -> DurationResult:
    """Longest duration every eater can keep eating before some group
    exhausts its eligible items.

    The duration is the Hall-type bottleneck ratio, minimized over eater
    sets S: (capacity of items eligible to S minus S's prior demand)
    divided by the number of eaters in S.  Returns the maximal
    tight set, the items it exhausts, and a witness flow at the optimum
    (used to pin the tight eaters' consumption).
    """
    eaters = tuple(network.eaters)
    if not eaters:
        raise ValueError("no eaters")
    eligible: dict[Hashable, frozenset[str]] = {}
    for e in eaters:
        live = network.live_eligible(e)
        if not live:
            raise ValueError(f"eater {e!r} has no eligible items left")
        eligible[e] = live
    if all(len(live) == 1 for live in eligible.values()):
        return _forced_duration(network, eaters, eligible)
    items = sorted({o for live in eligible.values() for o in live})
    cap = {o: network.capacity[o] for o in items}

    # node ids: 0 = source, 1 = sink, then eaters, then items
    eater_node = {e: 2 + i for i, e in enumerate(eaters)}
    item_node = {o: 2 + len(eaters) + j for j, o in enumerate(items)}
    pairs = [(eater_node[e], item_node[o]) for e in eaters for o in sorted(eligible[e])]
    cap_scale = lcm(*(c.denominator for c in cap.values()))

    def build(duration: Fraction) -> tuple[_Flow, int, int]:
        """The round's network on one integer scale L: the lcm of the
        denominators of every source capacity (demand + duration) and
        every item capacity.  Returns the network, L and the total
        demand on that scale."""
        demand = [network.demand_of(e) + duration for e in eaters]
        scale = lcm(cap_scale, *(d.denominator for d in demand))
        net = _Flow(2 + len(eaters) + len(items))
        want = 0
        for e, d in zip(eaters, demand):
            units = d.numerator * (scale // d.denominator)
            want += units
            net.add(0, eater_node[e], units)
        sink = [cap[o].numerator * (scale // cap[o].denominator) for o in items]
        # No augmenting path can fill an edge of more than the whole sink
        # capacity, so eater-item edges never bound or cut a flow.
        big = sum(sink) + 1
        for u, v in pairs:
            net.add(u, v, big)
        for o, c in zip(items, sink):
            net.add(item_node[o], 1, c)
        return net, scale, want

    total_fixed = sum(network.demand_of(e) for e in eaters)
    full_cap = sum(cap.values())
    if full_cap < total_fixed:
        raise ValueError("prior demands already exceed the available capacity")
    delta = Fraction(full_cap - total_fixed, len(eaters))

    while True:
        net, scale, want = build(delta)
        if net.maxflow(0, 1) == want:
            break
        reach = net.reachable_from(0)
        violator = [e for e in eaters if eater_node[e] in reach]
        vio_cap = sum(cap[o] for o in sorted({o for e in violator for o in eligible[e]}))
        vio_fixed = sum(network.demand_of(e) for e in violator)
        new_delta = Fraction(vio_cap - vio_fixed, len(violator))
        if new_delta < 0:
            raise ValueError("prior demands are infeasible")
        if new_delta >= delta:
            raise AssertionError("bottleneck iteration failed to tighten")
        delta = new_delta

    blocked = net.cannot_reach(1)
    tight = [e for e in eaters if eater_node[e] in blocked]
    tight_items = sorted({o for e in tight for o in eligible[e]})

    flows: dict[Hashable, dict[str, Fraction]] = {e: {} for e in eaters}
    for e in eaters:
        node = eater_node[e]
        for edge in net.adj[node]:
            if edge % 2 == 0 and net.to[edge] != 0:
                amount = net.flow_on(edge)
                if amount > 0:
                    o = items[net.to[edge] - 2 - len(eaters)]
                    flows[e][o] = Fraction(amount, scale)

    # Prefer the even split for the tight group whenever it exactly
    # saturates the tight items: symmetric situations then yield the
    # symmetric outcome instead of an arbitrary vertex of the flow
    # polytope.  (Only tight eaters are pinned by callers, and their
    # eligible items are exactly the tight ones, so swapping their rows
    # keeps the witness valid.)
    fill = {o: Fraction(0) for o in tight_items}
    uniform: dict[Hashable, dict[str, Fraction]] = {}
    for e in tight:
        total = network.demand_of(e) + delta
        share = total / len(eligible[e])
        uniform[e] = {o: share for o in sorted(eligible[e])} if share > 0 else {}
        for o in eligible[e]:
            fill[o] += share
    if all(fill[o] == cap[o] for o in tight_items):
        for e in tight:
            flows[e] = uniform[e]

    for o in tight_items:
        inflow = sum(flows[e].get(o, Fraction(0)) for e in tight)
        if inflow != cap[o]:
            raise AssertionError(f"tight item {o!r} not exactly exhausted")

    return DurationResult(
        duration=delta,
        tight_eaters=tuple(sorted(tight, key=str)),
        tight_items=tuple(tight_items),
        flow=flows,
    )


def _forced_duration(
    network: EatingNetwork,
    eaters: tuple[Hashable, ...],
    eligible: Mapping[Hashable, frozenset[str]],
) -> DurationResult:
    """``max_eating_duration`` when every eater has a single live item.

    Each eater's flow is forced onto its item, so the bottleneck ratio is
    taken item by item: (capacity - prior demand of its eaters) / number of
    its eaters.  The items the minimum exhausts are the tight ones and
    their eaters the maximal tight set, as the min-cut would find.
    """
    item_of: dict[Hashable, str] = {}
    fixed: dict[str, Fraction] = {}
    rate: dict[str, int] = {}
    for e in eaters:
        (o,) = eligible[e]
        item_of[e] = o
        fixed[o] = fixed.get(o, _ZERO) + network.demand_of(e)
        rate[o] = rate.get(o, 0) + 1
    cap = network.capacity
    slack = {o: cap[o] - fixed[o] for o in fixed}
    if any(v < 0 for v in slack.values()):
        if sum(cap[o] for o in sorted(fixed)) < sum(fixed.values()):
            raise ValueError("prior demands already exceed the available capacity")
        raise ValueError("prior demands are infeasible")
    ratio = {o: Fraction(slack[o], rate[o]) for o in fixed}
    delta = min(ratio.values())
    exhausted = {o for o in fixed if ratio[o] == delta}
    flows: dict[Hashable, dict[str, Fraction]] = {}
    for e in eaters:
        amount = network.demand_of(e) + delta
        flows[e] = {item_of[e]: amount} if amount > 0 else {}
    return DurationResult(
        duration=delta,
        tight_eaters=tuple(sorted((e for e in eaters if item_of[e] in exhausted), key=str)),
        tight_items=tuple(sorted(exhausted)),
        flow=flows,
    )


@dataclass
class _Epoch:
    start: Fraction
    duration: Fraction
    eligible: frozenset[str]


def _run_fluid(
    agents: Sequence[str],
    items: Sequence[str],
    tiers: Mapping[str, Sequence[frozenset[str]]],
) -> tuple[
    dict[str, dict[str, Fraction]],
    list[tuple[str, Fraction, Fraction, dict[str, Fraction]]],
    dict[str, Fraction],
]:
    """Drive the fluid eating process until no agent can eat.

    Returns per-agent consumption rows, the pinned fluid windows (for the
    trace), and whatever items were left over (nonempty only when agents
    may run out of acceptable items).
    """
    live = {o: Fraction(1) for o in items}
    rows: dict[str, dict[str, Fraction]] = {a: {} for a in agents}
    windows: list[tuple[str, Fraction, Fraction, dict[str, Fraction]]] = []
    epoch: dict[str, _Epoch] = {}
    # Items only ever leave the market, so a tier found empty stays empty:
    # each agent's search resumes at the first tier that was still alive.
    first = {a: 0 for a in agents}
    active = [a for a in agents]
    t = Fraction(0)

    while True:
        still_active = []
        for a in active:
            current: frozenset[str] | None = None
            for k in range(first[a], len(tiers[a])):
                alive = frozenset(o for o in tiers[a][k] if o in live)
                if alive:
                    current = alive
                    first[a] = k
                    break
            if current is None:
                old = epoch.pop(a, None)
                if old is not None and old.duration != 0:
                    raise AssertionError(f"agent {a!r} ran dry with unpinned demand")
                continue
            still_active.append(a)
            if a in epoch:
                ep = epoch[a]
                alive_part = frozenset(o for o in ep.eligible if o in live)
                if alive_part != current:
                    if ep.duration != 0:
                        raise AssertionError(f"agent {a!r} switched tiers with unpinned demand")
                    epoch[a] = _Epoch(t, Fraction(0), current)
                else:
                    ep.eligible = alive_part
            else:
                epoch[a] = _Epoch(t, Fraction(0), current)
        active = still_active
        if not active:
            break

        network = EatingNetwork(
            eaters=tuple(active),
            eligible={a: epoch[a].eligible for a in active},
            capacity=live,
            demands={a: epoch[a].duration for a in active},
        )
        step = max_eating_duration(network)
        if step.duration <= 0:
            raise AssertionError("eating step of zero length")
        t += step.duration
        for a in active:
            epoch[a].duration += step.duration
        for a in step.tight_eaters:
            ep = epoch.pop(a)
            amounts = {o: v for o, v in sorted(step.flow[a].items()) if v > 0}
            if sum(amounts.values()) != ep.duration:
                raise AssertionError("pinned window does not match its duration")
            row = rows[a]
            for o, v in amounts.items():
                row[o] = row.get(o, Fraction(0)) + v
            windows.append((a, ep.start, ep.duration, amounts))
        for o in step.tight_items:
            del live[o]

    return rows, windows, live


def _trace_from_windows(
    agents: Sequence[str],
    items: Sequence[str],
    windows: list[tuple[str, Fraction, Fraction, dict[str, Fraction]]],
    horizon: Fraction,
    padding: Mapping[str, Sequence[tuple[str, Fraction]]] | None = None,
) -> EatingTrace:
    """Lay each pinned fluid window out as consecutive segments (items in
    lexicographic order inside a window) and merge adjacent same-item runs.
    """
    per_agent: dict[str, list[TraceSegment]] = {a: [] for a in agents}
    for a, start, _duration, amounts in sorted(windows, key=lambda w: (str(w[0]), w[1])):
        clock = start
        for o in sorted(amounts):
            v = amounts[o]
            segs = per_agent[a]
            if segs and segs[-1].item == o and segs[-1].end == clock:
                segs[-1] = TraceSegment(o, segs[-1].start, clock + v, segs[-1].amount + v)
            else:
                segs.append(TraceSegment(o, clock, clock + v, v))
            clock += v
    if padding:
        for a, slices in padding.items():
            clock = max(horizon, per_agent[a][-1].end if per_agent[a] else Fraction(0))
            for o, v in slices:
                per_agent[a].append(TraceSegment(o, clock, clock + v, v))
                clock += v
    return EatingTrace(
        agents=tuple(agents),
        items=tuple(items),
        segments={a: tuple(per_agent[a]) for a in agents},
        horizon=horizon,
    )


def globally_unwanted(instance: Instance) -> tuple[str, ...]:
    """Items every agent values at zero (the uniformly padded set)."""
    return tuple(
        o
        for j, o in enumerate(instance.items)
        if all(row[j] == 0 for row in instance.values)
    )


def eps_outcome(
    instance: Instance,
    mode: str = "standard",
    profile: OrdinalProfile | None = None,
) -> tuple[RandomAllocation, EatingTrace]:
    """Coordinated-eating outcome of an instance.

    In ``standard`` mode agents eat their way down the weak order derived
    from the utilities (or an explicitly supplied ``profile``, whose
    agents and items then define the outcome's universe) until everything
    is consumed; the result is an SD-efficient fractional allocation that
    coincides exactly with the serial eating rule whenever the profile is
    strict.

    In ``skip_zero`` mode (binary utilities only) an agent eats only items
    it values at 1 and stops when those run out.  Items nobody values are
    split uniformly across all agents so the returned matrix still
    allocates every item; their trace segments sit after the horizon, and
    ``globally_unwanted`` recovers the padded set.
    """
    if mode not in ("standard", "skip_zero"):
        raise ValueError(f"unknown mode {mode!r}")
    source = instance if profile is None else profile
    agents, items = source.agents, source.items

    if mode == "skip_zero":
        if not instance.is_binary():
            raise ValueError("skip_zero mode requires binary (0/1) utilities")
        liked = {
            a: frozenset(o for j, o in enumerate(items) if instance.values[i][j] == 1)
            for i, a in enumerate(agents)
        }
        tiers: dict[str, Sequence[frozenset[str]]] = {
            a: ((liked[a],) if liked[a] else ()) for a in agents
        }
    else:
        if profile is None:
            profile = ordinal_from_utilities(instance)
        tiers = {a: tuple(frozenset(t) for t in profile.tiers[a]) for a in agents}

    rows, windows, leftovers = _run_fluid(agents, items, tiers)

    padding: dict[str, list[tuple[str, Fraction]]] = {}
    if mode == "standard":
        if leftovers:
            raise AssertionError("standard mode must consume every item")
    else:
        # Items nobody wants are split uniformly.  Handing any single agent
        # a whole leftover would let it profit from dropping an item it
        # alone likes (it would come straight back), breaking truthfulness;
        # a 1/n sliver cannot outweigh the forfeited eating share.
        share = Fraction(1, len(agents))
        for o in sorted(leftovers):
            for a in agents:
                rows[a][o] = share
                padding.setdefault(a, []).append((o, share))

    if mode == "skip_zero":
        horizon = Fraction(-(-len(items) // len(agents)))  # ceil(m/n)
    else:
        horizon = Fraction(len(items), len(agents))
    trace = _trace_from_windows(agents, items, windows, horizon, padding)
    entries = tuple(
        tuple(rows[a].get(o, Fraction(0)) for o in items) for a in agents
    )
    return RandomAllocation(agents, items, entries), trace
