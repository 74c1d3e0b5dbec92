"""Seeded instance generator for the benchmark.

The program under test only ever sees the JSON documents written here.
Strict instances use the same scheme as ``fairlot gen`` (so
``strict(s, n, m)`` is byte-identical to ``fairlot gen --agents n --items m
--seed s``); tied and binary instances add what ``gen`` cannot make.
Everything is a pure function of its integer seed.
"""

from __future__ import annotations

import json
import random


def _names(n: int, m: int) -> tuple[list[str], list[str]]:
    return [f"a{i}" for i in range(1, n + 1)], [f"o{j:02d}" for j in range(1, m + 1)]


def _document(agents: list[str], items: list[str], utilities: dict) -> str:
    """The instance format of ``fairlot.fileio`` (integers as strings,
    sorted keys, two-space indent, trailing newline)."""
    obj = {
        "agents": agents,
        "items": items,
        "utilities": {a: {o: str(utilities[a][o]) for o in items} for a in agents},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def strict(seed: int, n: int, m: int) -> str:
    """Distinct positive integer utilities per agent, as ``fairlot gen``."""
    rng = random.Random(seed)
    agents, items = _names(n, m)
    utilities = {a: dict(zip(items, rng.sample(range(1, 10 * m + 1), m))) for a in agents}
    return _document(agents, items, utilities)


def tied(seed: int, n: int, m: int, levels: int) -> str:
    """Utilities drawn uniformly from 1..levels, so preferences have ties."""
    rng = random.Random(seed)
    agents, items = _names(n, m)
    utilities = {a: {o: rng.randint(1, levels) for o in items} for a in agents}
    return _document(agents, items, utilities)


def binary(seed: int, n: int, m: int) -> str:
    """0/1 utilities, as ``fairlot gen --binary``."""
    rng = random.Random(seed)
    agents, items = _names(n, m)
    utilities = {a: {o: rng.randint(0, 1) for o in items} for a in agents}
    return _document(agents, items, utilities)
