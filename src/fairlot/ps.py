"""Simultaneous eating with strict preferences (the probabilistic serial
rule, multi-unit variant).

All agents eat their single most-preferred remaining item at unit speed;
when items run out they move on, until nothing is left.  The simulation is
discrete: it jumps from one item-finishing time to the next, so the whole
run takes at most n*m stage updates.
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
    eaten: dict[str, Fraction] = {o: Fraction(0) for o in items}
    shares: dict[str, dict[str, Fraction]] = {a: {} for a in agents}
    segments: dict[str, list[TraceSegment]] = {a: [] for a in agents}
    # cursor[a] scans the agent's order left to right; preferences are
    # consumed monotonically so the total scan cost is O(nm).
    cursor = {a: 0 for a in agents}
    time = Fraction(0)

    while remaining:
        eaters: dict[str, list[str]] = {}
        for a in agents:
            order = orders[a]
            k = cursor[a]
            while order[k] not in remaining:
                k += 1
            cursor[a] = k
            eaters.setdefault(order[k], []).append(a)

        # The stage ends when the first item being eaten runs out; every
        # item finishing at that moment leaves together.
        finish_of = {
            item: time + (1 - eaten[item]) / len(group) for item, group in eaters.items()
        }
        finish = min(finish_of.values())
        finishing = [item for item, t in finish_of.items() if t == finish]
        span = finish - time
        for item, group in eaters.items():
            for a in group:
                shares[a][item] = shares[a].get(item, Fraction(0)) + span
                segs = segments[a]
                if segs and segs[-1].item == item and segs[-1].end == time:
                    segs[-1] = TraceSegment(item, segs[-1].start, finish, segs[-1].amount + span)
                else:
                    segs.append(TraceSegment(item, time, finish, span))
            eaten[item] += span * len(group)
        for item in finishing:
            if eaten[item] != 1:
                raise AssertionError(f"item {item!r} finished with mass {eaten[item]}")
            remaining.discard(item)
        time = finish

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
