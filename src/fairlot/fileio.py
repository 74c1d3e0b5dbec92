"""Stable machine-readable file formats: instances, allocation matrices
and lotteries as JSON with rationals written as strings ("3/2", "1"),
never floats.  Serialization is deterministic (sorted keys, fixed
indentation) and loading validates the documents' internal invariants, so
round trips are lossless: parse(serialize(x)) == x.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from .model import (
    DeterministicAllocation,
    Instance,
    Lottery,
    RandomAllocation,
    _support_totals,
    expected_allocation,
    format_rational,
    rational,
)

__all__ = [
    "FormatError",
    "dumps",
    "instance_to_obj",
    "instance_from_obj",
    "matrix_to_obj",
    "matrix_from_obj",
    "lottery_to_obj",
    "lottery_from_obj",
]


class FormatError(ValueError):
    """Malformed document; the message carries the offending location."""


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require(obj: Mapping, key: str, where: str):
    if not isinstance(obj, Mapping) or key not in obj:
        raise FormatError(f"{where}: missing required key {key!r}")
    return obj[key]


def _strings(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FormatError(f"{where}: expected a list of strings")
    return value


def _shown(value) -> str:
    """A value as error messages echo it: its repr, cut after 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _rational_at(value, where: str) -> Fraction:
    try:
        return rational(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise FormatError(f"{where}: bad rational literal {_shown(value)} ({exc})") from None


def instance_to_obj(instance: Instance) -> dict:
    return {
        "agents": list(instance.agents),
        "items": list(instance.items),
        "utilities": {
            a: {o: format_rational(v) for o, v in instance.utility_row(a).items()}
            for a in instance.agents
        },
    }


def instance_from_obj(obj: Mapping) -> Instance:
    agents = _require(obj, "agents", "instance")
    items = _require(obj, "items", "instance")
    utilities = _require(obj, "utilities", "instance")
    _strings(agents, "instance.agents")
    _strings(items, "instance.items")
    table = {}
    for a in agents:
        row = _require(utilities, a, "instance.utilities")
        table[a] = {
            o: _rational_at(_require(row, o, f"instance.utilities[{a!r}]"),
                            f"instance.utilities[{a!r}][{o!r}]")
            for o in items
        }
    try:
        return Instance.from_utilities(table, agents=agents, items=items)
    except ValueError as exc:
        raise FormatError(f"instance: {exc}") from None


def matrix_to_obj(p: RandomAllocation, extra: Mapping | None = None) -> dict:
    obj = {
        "rows": [str(r) if not isinstance(r, str) else r for r in p.rows],
        "items": list(p.items),
        "entries": [[format_rational(v) for v in row] for row in p.entries],
    }
    if extra:
        obj.update(extra)
    return obj


def matrix_from_obj(obj: Mapping) -> RandomAllocation:
    rows = _strings(_require(obj, "rows", "matrix"), "matrix.rows")
    items = _strings(_require(obj, "items", "matrix"), "matrix.items")
    entries = _require(obj, "entries", "matrix")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise FormatError("matrix.entries: expected a list of lists")
    parsed = []
    for i, row in enumerate(entries):
        parsed.append(tuple(_rational_at(v, f"matrix.entries[{i}][{j}]")
                            for j, v in enumerate(row)))
    try:
        return RandomAllocation(tuple(rows), tuple(items), tuple(parsed))
    except ValueError as exc:
        raise FormatError(f"matrix: {exc}") from None


def lottery_to_obj(
    lottery: Lottery,
    expected: RandomAllocation | None = None,
    metadata: Mapping | None = None,
) -> dict:
    if expected is None:
        expected = expected_allocation(lottery)
    return {
        "agents": list(lottery.agents),
        "items": list(lottery.items),
        "expected": [[format_rational(v) for v in row] for row in expected.entries],
        "support": [
            {
                "weight": format_rational(weight),
                "assignment": {o: a for o, a in zip(alloc.items, alloc.owners)},
            }
            for weight, alloc in lottery.entries
        ],
        "metadata": dict(metadata) if metadata else {},
    }


def lottery_from_obj(obj: Mapping) -> tuple[Lottery, RandomAllocation, dict]:
    agents = tuple(_strings(_require(obj, "agents", "lottery"), "lottery.agents"))
    items = tuple(_strings(_require(obj, "items", "lottery"), "lottery.items"))
    support = _require(obj, "support", "lottery")
    if not isinstance(support, list):
        raise FormatError("lottery.support: expected a list")
    entries = []
    for k, element in enumerate(support):
        weight = _rational_at(_require(element, "weight", f"lottery.support[{k}]"),
                              f"lottery.support[{k}].weight")
        assignment = _require(element, "assignment", f"lottery.support[{k}]")
        if not isinstance(assignment, Mapping) or not all(
            isinstance(o, str) and isinstance(a, str) for o, a in assignment.items()
        ):
            raise FormatError(
                f"lottery.support[{k}].assignment: expected a mapping of item id "
                "to agent id string"
            )
        try:
            alloc = DeterministicAllocation.from_mapping(agents, items, assignment)
        except (KeyError, ValueError) as exc:
            raise FormatError(f"lottery.support[{k}].assignment: {exc}") from None
        entries.append((weight, alloc))
    try:
        lottery = Lottery(tuple(entries))
    except ValueError as exc:
        raise FormatError(f"lottery: {exc}") from None
    raw = _require(obj, "expected", "lottery")
    expected = matrix_from_obj({"rows": list(agents), "items": list(items), "entries": raw})
    totals, scale = _support_totals(lottery)  # entry v must equal t / L
    if any(v.numerator * scale != t * v.denominator
           for row, total in zip(expected.entries, totals.values())
           for v, t in zip(row, total)):
        raise FormatError("lottery: expected matrix does not equal the recomposed support")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, Mapping):
        raise FormatError("lottery.metadata: expected a mapping")
    metadata = dict(metadata)
    return lottery, expected, metadata
