"""Simultaneous eating with strict preferences (the probabilistic serial
rule, multi-unit variant).

All agents eat their single most-preferred remaining item at unit speed;
when items run out they move on, until nothing is left.  This is the
one-item case of the eating loop in ``eps``: with one item per tier every
group eats a single item, and its finishing time is (1 + the sum of its
eaters' start times) / its size, with no max-flow.  An agent eats one item
without a break until the item runs out, so the trace holds exactly one
segment per (agent, item) pair eaten.
"""

from __future__ import annotations

from typing import Sequence

from .eps import _eat
from .model import EatingTrace, OrdinalProfile, RandomAllocation

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
    for a in agents:  # the tiers partition the items: one per item is strict
        if len(strict_prefs.tiers[a]) != len(strict_prefs.items):
            raise ValueError(f"preferences of {a!r} contain ties")
    return _eat(agents, items, strict_prefs.tiers)
