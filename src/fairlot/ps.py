"""Simultaneous eating with strict preferences (the probabilistic serial
rule, multi-unit variant).

All agents eat their single most-preferred remaining item at unit speed;
when items run out they move on, until nothing is left.  The simulation is
discrete: it jumps from one item-finishing time to the next.  An agent
eats one item without a break until the item runs out, so its share is
the length of that one interval, finish - start, and the trace holds
exactly one segment per (agent, item) pair eaten.  An item's eaten mass
and finishing time are recomputed only when agents join its group, so the
rational arithmetic of a run is one update per pair, not one per agent per
stage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .model import EatingTrace, OrdinalProfile, RandomAllocation, TraceSegment

__all__ = ["ps_outcome"]


def ps_outcome(
    agents: Sequence[str],
    items: Sequence[str],
    strict_prefs: OrdinalProfile,
) -> tuple[RandomAllocation, EatingTrace]:
    """Run the eating simulation and return the fractional outcome plus
    the full consumption trace.

    Preferences must be strict total orders (ties go through the
    coordinated-eating solver or get broken beforehand).  Every agent eats
    at every instant, so each row sums to exactly m/n and the trace
    covers [0, m/n] per agent without gaps.
    """
    agents = tuple(agents)
    items = tuple(items)
    if set(strict_prefs.items) != set(items):
        raise ValueError("the preference profile ranks other items than the ones to eat")
    orders = {a: strict_prefs.strict_order(a) for a in agents}

    remaining = set(items)
    shares: dict[str, dict[str, Fraction]] = {a: {} for a in agents}
    segments: dict[str, list[TraceSegment]] = {a: [] for a in agents}
    # Each item being eaten has a group of eaters; its mass is exact as of
    # ``since``, when the group last grew.
    groups: dict[str, list[str]] = {}
    start: dict[str, Fraction] = {}
    mass: dict[str, Fraction] = {}
    since: dict[str, Fraction] = {}
    finish_of: dict[str, Fraction] = {}
    # cursor[a] scans the agent's order left to right; preferences are
    # consumed monotonically so the total scan cost is O(nm).
    cursor = {a: 0 for a in agents}

    def sit(movers: list[str], time: Fraction) -> None:
        """Seat each mover at its best remaining item from ``time`` on."""
        joined: dict[str, list[str]] = {}
        for a in movers:
            order = orders[a]
            k = cursor[a]
            while order[k] not in remaining:
                k += 1
            cursor[a] = k
            item = order[k]
            if item not in joined:
                if item in groups:
                    mass[item] += (time - since[item]) * len(groups[item])
                else:
                    groups[item], mass[item] = [], Fraction(0)
                since[item] = time
                joined[item] = groups[item]
            joined[item].append(a)
            start[a] = time
        for item, group in joined.items():
            finish_of[item] = time + (1 - mass[item]) / len(group)

    sit(list(agents), Fraction(0))
    while remaining:
        # The stage ends when the first item being eaten runs out; every
        # item finishing at that moment leaves together.
        finish = min(finish_of.values())
        finishing = [item for item, t in finish_of.items() if t == finish]
        movers = []
        for item in finishing:
            group = groups.pop(item)
            eaten = mass.pop(item) + (finish - since.pop(item)) * len(group)
            if eaten != 1:
                raise AssertionError(f"item {item!r} finished with mass {eaten}")
            del finish_of[item]
            remaining.discard(item)
            for a in group:
                share = finish - start[a]
                shares[a][item] = share
                segments[a].append(TraceSegment(item, start[a], finish, share))
            movers += group
        if remaining:
            sit(movers, finish)

    horizon = Fraction(len(items), len(agents))
    entries = tuple(
        tuple(shares[a].get(o, Fraction(0)) for o in items) for a in agents
    )
    outcome = RandomAllocation(agents, items, entries)
    trace = EatingTrace(
        agents=agents,
        items=items,
        segments={a: tuple(segments[a]) for a in agents},
        horizon=horizon,
    )
    return outcome, trace
