import random

import pytest

from fairlot import EatingNetwork, Instance, ordinal_from_utilities
from fairlot.eps import DurationResult, _bottleneck, _split_evenly


@pytest.fixture
def example_instance() -> Instance:
    """Two agents, four items, utilities 4/3/2/1 vs 4/2/3/1."""
    return Instance.from_utilities(
        {
            "1": {"a": 4, "b": 3, "c": 2, "d": 1},
            "2": {"a": 4, "b": 2, "c": 3, "d": 1},
        },
        agents=["1", "2"],
        items=["a", "b", "c", "d"],
    )


def max_eating_duration(network: EatingNetwork) -> DurationResult:
    """One eating step of a group on its own: the bottleneck duration, the
    maximal tight set, the items it exhausts and its flow, split evenly
    when that exhausts the tight items exactly.  The eating loop runs the
    same two halves, deciding the even split over every group that
    finishes at one instant."""
    step = _bottleneck(network)
    _split_evenly([(network, step)])
    return step


def strict_instance(rng: random.Random, n: int, m: int) -> Instance:
    """Random instance with strict preferences (distinct positive ints)."""
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j:02d}" for j in range(1, m + 1)]
    table = {a: dict(zip(items, rng.sample(range(1, 10 * m + 1), m))) for a in agents}
    return Instance.from_utilities(table, agents=agents, items=items)


def weak_instance(rng: random.Random, n: int, m: int, levels: int = 3) -> Instance:
    """Random instance with ties (utilities from a small positive range)."""
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j:02d}" for j in range(1, m + 1)]
    table = {a: {o: rng.randint(1, levels) for o in items} for a in agents}
    return Instance.from_utilities(table, agents=agents, items=items)


def binary_instance(rng: random.Random, n: int, m: int) -> Instance:
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j:02d}" for j in range(1, m + 1)]
    table = {a: {o: rng.randint(0, 1) for o in items} for a in agents}
    return Instance.from_utilities(table, agents=agents, items=items)


def consistent_utilities(rng: random.Random, instance: Instance) -> Instance:
    """Fresh positive utilities consistent with the instance's weak order."""
    prof = ordinal_from_utilities(instance)
    table = {}
    for a in instance.agents:
        tiers = prof.tiers[a]
        cuts = sorted(rng.sample(range(1, 100 * len(tiers) + 1), len(tiers)), reverse=True)
        table[a] = {o: cuts[k] for k, tier in enumerate(tiers) for o in tier}
    return Instance.from_utilities(table, agents=instance.agents, items=instance.items)
