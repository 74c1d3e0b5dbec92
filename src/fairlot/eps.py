"""The eating loop: the serial rule for strict orders, coordinated eating
for weak ones, and the binary-utility mode in which agents never touch
items they value at zero.

Agents eat at unit speed from their best tier of live items, but the
split of an agent's consumption across a tier is kept *fluid*: only the
total eaten is tracked until a bottleneck event pins it down.  Agents
linked through the live items they eat form a group, and each group runs
out at its own time, computed when the group forms or changes.  A
bottleneck is a set of agents whose eligible items run out exactly when
their accumulated demand meets the items' capacity; at that moment their
consumption is fixed by a witness max-flow, the items leave the market,
and everyone else keeps eating.

A group eating one item is the serial rule: its k eaters empty the item
at (1 + the sum of their start times) / k, with no max-flow.  On strict
profiles every group is such a group, so ``ps_outcome`` runs this loop and
there is no second engine or fast path.  For a group of more items the
time comes from the parametric-flow computation of the eating outcome
with plain max-flow calls (``_bottleneck``): a Dinkelbach iteration
(guess the full-set ratio, test by max-flow, tighten the guess with the
min-cut's violating set) that needs at most one round per agent.  Every
live item is one whole unit, so each round's network lives on one
integer scale L, the lcm of the denominators of the eaters' demands,
with L at every item; the max-flow adds and compares plain ints, and its
last search from the source yields a failing round's violating set.
Most of the flow runs on shortest paths, which ``_network`` pushes in
one pass with no search; Edmonds–Karp then finds only the longer ones.

When a multi-item group finishes, tight eaters with the same items and
the same window start share their witness rows equally.  The class
average keeps each item's inflow and each eater's total, and agents with
equal tiers always land in one class, so equal agents get equal rows.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count, repeat
from math import lcm
from typing import Mapping, Sequence

from .model import (
    EatingTrace,
    Instance,
    RandomAllocation,
    TraceSegment,
    ordinal_from_utilities,
)

__all__ = [
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
    insertion order.  After ``maxflow``, ``reached[v]`` tells whether its
    last search, which found no path to the sink, reached node v: those
    nodes are the smallest min-cut source side.
    """

    def __init__(self, n_nodes: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list = []

    def add(self, u: int, v: int, cap, flow=0) -> int:
        """An edge u -> v of capacity ``cap`` that already carries ``flow``."""
        e = len(self.to)
        self.adj[u].append(e)
        self.to.append(v)
        self.cap.append(cap - flow)
        self.adj[v].append(e + 1)
        self.to.append(u)
        self.cap.append(flow)
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
                self.reached = [label != -1 for label in prev]
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


def _network(
    links: Sequence[Sequence[int]], width: int, totals: Sequence[Fraction]
) -> tuple[_Flow, int, int, int]:
    """A Dinkelbach round's network on one integer scale L, the lcm of the
    denominators of ``totals``: source 0 gives eater i (node 2 + i) its
    total, it reaches the items ``links[i]`` (ascending; item j is node
    2 + len(links) + j), and each item holds L towards sink 1.  Returns
    the network, L, the total supply and the flow already pushed, which
    is Edmonds–Karp's first phase: its searches pop the eaters in source
    order, so each path source -> eater -> item -> sink takes the first
    eater with supply left that reaches an item with room left, and its
    first such item; no supply or room grows while paths have length 3.
    """
    scale = lcm(*(d.denominator for d in totals))
    n = len(links)
    net = _Flow(2 + n + width)
    # No augmenting path can fill an edge of more than the whole sink
    # capacity, so eater-item edges never bound or cut a flow.
    big = width * scale + 1
    room = [scale] * width
    supply = [d.numerator * (scale // d.denominator) for d in totals]
    pushed = 0
    for i, (units, columns) in enumerate(zip(supply, links)):
        left = units
        for j in columns:
            bite = min(left, room[j])
            room[j] -= bite
            left -= bite
            net.add(2 + i, 2 + n + j, big, bite)
        net.add(0, 2 + i, units, units - left)
        pushed += units - left
    for j, left in enumerate(room):
        net.add(2 + n + j, 1, scale, scale - left)
    return net, scale, sum(supply), pushed


def _bottleneck(
    eaters: Sequence[str],
    eligible: Mapping[str, Sequence[str]],
    demand: Mapping[str, Fraction],
) -> tuple[Fraction, tuple[str, ...], tuple[str, ...], dict[str, dict[str, Fraction]]]:
    """How long a group's eaters can keep eating before some of them
    exhaust the items they eat from.

    Every item is one whole unit.  ``eligible[a]`` holds the live items
    eater a eats from, and ``demand[a]`` what it has eaten of them so far
    without being pinned to any.  The duration is the Hall-type
    bottleneck ratio, minimized over eater sets S: (the number of items S
    eats from minus S's demand) divided by |S|.  Returns the duration,
    the maximal tight set, the items it exhausts and the max-flow witness
    at the optimum, one row per eater.
    """
    items = sorted({o for e in eaters for o in eligible[e]})
    column = {o: j for j, o in enumerate(items)}
    links = [[column[o] for o in sorted(eligible[e])] for e in eaters]

    total_fixed = sum(demand[e] for e in eaters)
    if len(items) < total_fixed:
        raise ValueError("prior demands already exceed the available capacity")
    delta = Fraction(len(items) - total_fixed, len(eaters))

    while True:
        net, scale, want, pushed = _network(links, len(items),
                                            [demand[e] + delta for e in eaters])
        if pushed + net.maxflow(0, 1) == want:
            break
        violator = [e for i, e in enumerate(eaters) if net.reached[2 + i]]
        vio_items = len({o for e in violator for o in eligible[e]})
        new_delta = Fraction(vio_items - sum(demand[e] for e in violator), len(violator))
        if new_delta < 0:
            raise ValueError("prior demands are infeasible")
        if new_delta >= delta:
            raise AssertionError("bottleneck iteration failed to tighten")
        delta = new_delta

    blocked = net.cannot_reach(1)
    tight = tuple(sorted(e for i, e in enumerate(eaters) if 2 + i in blocked))
    tight_items = tuple(sorted({o for e in tight for o in eligible[e]}))
    flow: dict[str, dict[str, Fraction]] = {}
    for i, e in enumerate(eaters):
        row = flow[e] = {}
        for edge in net.adj[2 + i]:
            # forward edges sit at even indices: the eater's edges to items
            if edge % 2 == 0 and net.flow_on(edge) > 0:
                row[items[net.to[edge] - 2 - len(eaters)]] = Fraction(net.flow_on(edge), scale)
    return delta, tight, tight_items, flow


class _Group:
    """Agents linked through the live items they eat: a connected
    component of the eligibility graph, and its entry in the loop's heap."""

    __slots__ = ("eaters", "items", "starts", "seq", "plan")

    def __init__(self) -> None:
        self.eaters: list[str] = []
        self.items: list[str] = []
        self.starts = _ZERO  # the sum of the eaters' window starts
        self.seq: int | None = None  # of its live heap entry
        # a group of more than one item: its eaters' live items, and its
        # ``_bottleneck`` step from them
        self.plan: tuple[dict[str, list[str]], tuple] | None = None


def _eat(
    agents: tuple[str, ...],
    items: tuple[str, ...],
    tiers: Mapping[str, Sequence[Sequence[str]]],
    skip_zero: bool = False,
) -> tuple[RandomAllocation, EatingTrace]:
    """The eating loop behind ``eps_outcome`` and ``ps_outcome``.

    Each agent eats at unit speed from the live items of its best tier
    that has any (``tiers[a]``, best first), in a window that opened at
    s_a, when it last sat down.  A live item still has all of its unit:
    whatever was eaten of it is unpinned window time.  So a group finishes
    at T = min over eater sets S of (|N(S)| + sum of s_a over S) / |S|,
    N(S) being the items S eats from, and T does not depend on the clock:
    it is computed once, when the group forms or changes.  For one item
    it is (1 + sum of s_a) / k, the serial rule; for more, the bottleneck
    of the group's own network.  Each step takes the earliest T off a
    heap, pins the tight eaters of every group finishing then, removes
    their items and seats them again; other groups keep their T.

    With ``skip_zero`` an agent whose tiers run dry stops, and the items
    left over are split evenly after the horizon.
    """
    index = {a: i for i, a in enumerate(agents)}
    live = set(items)
    first = dict.fromkeys(agents, 0)  # tier cursor: emptied tiers stay empty
    start: dict[str, Fraction] = {}
    rows: dict[str, dict[str, Fraction]] = {a: {} for a in agents}
    segments: dict[str, list[TraceSegment]] = {a: [] for a in agents}
    owner: dict[str, _Group] = {}
    dirty: dict[_Group, None] = {}
    # Entries lead with float(T), whose order never contradicts T's, so
    # most heap comparisons are of floats; T decides when they tie.
    heap: list[tuple[float, Fraction, int, _Group]] = []
    seqs = count()

    def join(a: str, eligible: list[str]) -> None:
        """Put agent a in the group of the items it eats, merging every
        group those items link."""
        touched: list[_Group] = []
        fresh = []
        for o in eligible:
            other = owner.get(o)
            if other is None:
                fresh.append(o)
            elif other not in touched:
                touched.append(other)
        if not touched:
            group = _Group()
        else:
            group = max(touched, key=lambda g: len(g.eaters))
            for other in touched:
                if other is not group:
                    group.eaters += other.eaters
                    group.items += other.items
                    group.starts += other.starts
                    for o in other.items:
                        owner[o] = group
                    other.seq = None
                    dirty.pop(other, None)
        for o in fresh:
            owner[o] = group
        group.items += fresh
        group.eaters.append(a)
        group.starts += start[a]
        dirty[group] = None

    def seat(a: str, t: Fraction) -> None:
        start[a] = t
        own, k = tiers[a], first[a]
        while k < len(own) and live.isdisjoint(own[k]):
            k += 1
        if k < len(own):
            first[a] = k
            join(a, [o for o in own[k] if o in live])

    def refresh(t: Fraction) -> None:
        for group in dirty:
            if len(group.items) == 1:
                finish = (1 + group.starts) / len(group.eaters)
            else:
                eaters = sorted(group.eaters, key=index.__getitem__)
                eligible = {a: [o for o in tiers[a][first[a]] if o in live] for a in eaters}
                step = _bottleneck(eaters, eligible, {a: t - start[a] for a in eaters})
                group.plan = eligible, step
                finish = t + step[0]
            group.seq = next(seqs)
            heappush(heap, (float(finish), finish, group.seq, group))
        dirty.clear()

    t = _ZERO
    for a in agents:
        seat(a, t)
    refresh(t)
    while heap:
        _, finish, seq, group = heappop(heap)
        if seq != group.seq:
            continue
        if finish <= t:
            raise AssertionError("eating step of zero length")
        t = finish
        done = [group]
        while heap and heap[0][1] == t:
            _, _, seq, group = heappop(heap)
            if seq == group.seq:
                done.append(group)
        movers: list[str] = []
        rest: list[str] = []
        for group in done:
            for o in group.items:
                del owner[o]
            if len(group.items) == 1:
                tight, gone = group.eaters, group.items
                flow = {a: {gone[0]: t - start[a]} for a in tight}
            else:
                eligible, (_, tight, gone, flow) = group.plan
                # Tight eaters with the same items and window start share
                # their rows equally; equal agents always form one class.
                classes: dict[tuple, list[str]] = {}
                for a in tight:
                    classes.setdefault((start[a], *sorted(eligible[a])), []).append(a)
                for members in classes.values():
                    pooled: dict[str, Fraction] = {}
                    for a in members:
                        for o, v in flow[a].items():
                            pooled[o] = pooled.get(o, _ZERO) + v
                    for a in members:
                        flow[a] = {o: v / len(members) for o, v in pooled.items()}
                # A tight eater's shares all lie on the items it exhausts.
                eaten = dict.fromkeys(gone, _ZERO)
                for a in tight:
                    for o, v in flow[a].items():
                        eaten[o] += v
                for o in gone:
                    if eaten[o] != 1:
                        raise AssertionError(f"tight item {o!r} not exactly exhausted")
            for a in tight:
                clock = start[a]
                for o, v in sorted(flow[a].items()):
                    rows[a][o] = v
                    segments[a].append(TraceSegment(o, clock, clock := clock + v, v))
                if clock != t:
                    raise AssertionError("pinned window does not match its duration")
            live.difference_update(gone)
            movers += tight
            pinned = set(tight)
            rest += [a for a in group.eaters if a not in pinned]
        for a in rest:
            eligible = [o for o in tiers[a][first[a]] if o in live]
            if not eligible:
                raise AssertionError(f"agent {a!r} ran dry with unpinned demand")
            join(a, eligible)
        for a in movers:
            seat(a, t)
        refresh(t)

    if skip_zero:
        horizon = Fraction(-(-len(items) // len(agents)))  # ceil(m/n)
        # Items nobody wants are split uniformly.  Handing any single agent
        # a whole leftover would let it profit from dropping an item it
        # alone likes (it would come straight back), breaking truthfulness;
        # a 1/n sliver cannot outweigh the forfeited eating share.
        share = Fraction(1, len(agents))
        leftovers = sorted(live)
        for a in agents:
            segs = segments[a]
            clock = max(horizon, segs[-1].end if segs else _ZERO)
            for o in leftovers:
                rows[a][o] = share
                segs.append(TraceSegment(o, clock, clock := clock + share, share))
    else:
        if live:
            raise AssertionError("standard mode must consume every item")
        horizon = Fraction(len(items), len(agents))
    entries = tuple(tuple(map(rows[a].get, items, repeat(_ZERO))) for a in agents)
    trace = EatingTrace(agents, items, {a: tuple(segments[a]) for a in agents}, horizon)
    return RandomAllocation(agents, items, entries), trace


def globally_unwanted(instance: Instance) -> tuple[str, ...]:
    """Items every agent values at zero (the uniformly padded set)."""
    return tuple(
        o
        for j, o in enumerate(instance.items)
        if all(row[j] == 0 for row in instance.values)
    )


def eps_outcome(
    instance: Instance, mode: str = "standard"
) -> tuple[RandomAllocation, EatingTrace]:
    """Coordinated-eating outcome of an instance.

    In ``standard`` mode agents eat their way down the weak order derived
    from the utilities until everything is consumed; the result is an
    SD-efficient fractional allocation that coincides exactly with the
    serial eating rule whenever the profile is strict.

    In ``skip_zero`` mode (binary utilities only) an agent eats only items
    it values at 1 and stops when those run out.  Items nobody values are
    split uniformly across all agents so the returned matrix still
    allocates every item; their trace segments sit after the horizon, and
    ``globally_unwanted`` recovers the padded set.
    """
    if mode not in ("standard", "skip_zero"):
        raise ValueError(f"unknown mode {mode!r}")
    agents, items = instance.agents, instance.items

    if mode == "skip_zero":
        if not instance.is_binary():
            raise ValueError("skip_zero mode requires binary (0/1) utilities")
        tiers: Mapping[str, Sequence[Sequence[str]]] = {}
        for a, row in zip(agents, instance.values):
            liked = tuple(o for o, v in zip(items, row) if v == 1)
            tiers[a] = (liked,) if liked else ()
    else:
        tiers = ordinal_from_utilities(instance).tiers
    return _eat(agents, items, tiers, mode == "skip_zero")
