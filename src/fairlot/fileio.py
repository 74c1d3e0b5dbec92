"""Stable machine-readable file formats: instances, allocation matrices,
lotteries and reports as JSON with rationals written as strings ("3/2",
"1"), never floats; no other module reads or writes JSON text.
Serialization is deterministic (sorted keys, fixed indentation) and
loading validates the documents' internal invariants, so round trips are
lossless: parse(serialize(x)) == x.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from operator import add, itemgetter
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
    "load_json",
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
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``
    writes it, byte for byte, without json's pure-Python indented encoder.

    It writes str, int, bool, None, lists, tuples and str-keyed dicts,
    a ``Fraction`` as ``format_rational`` does and a ``RandomAllocation``
    as its ``matrix_to_obj`` document; anything else raises ``TypeError``.
    """
    return _encode(obj, "\n", {}, _Quoted()) + "\n"


_string = json.encoder.encode_basestring_ascii  # the C escaper json uses


class _Quoted(dict):
    """Strings and their JSON text, each escaped once; only str keys."""

    def __missing__(self, text: str) -> str:
        self[text] = quoted = _string(text)
        return quoted


def _encode(value: Any, newline: str, layouts: dict, quoted: _Quoted) -> str:
    """One JSON value, whose own line starts with ``newline`` (a newline
    and its indent).  A container whose members are all strings is one
    C-level join or format; only other members recurse.  For one ``dumps``
    call, ``quoted`` holds each string's text and ``layouts``, per indent
    and key tuple, a getter of the values in key order and their template."""
    if isinstance(value, str):
        return quoted[value]
    inner = newline + "  "
    if isinstance(value, dict) and value:
        layout = layouts.get(shape := (inner, *value))
        if layout is None:
            keys = sorted(value)
            # A value's place is "\0" until the keys' "%" are doubled; an
            # escaped key holds no NUL.
            text = ("\0," + inner).join(map(add, map(_string, keys), repeat(": ")))
            template = f"{{{inner}{text}\0{newline}}}".replace("%", "%%").replace("\0", "%s")
            layout = layouts[shape] = itemgetter(*keys), template
        get, template = layout
        members = get(value) if len(value) > 1 else (get(value),)
    elif isinstance(value, (list, tuple)) and value:
        template, members = None, value
    elif isinstance(value, (dict, list, tuple)):
        return "{}" if isinstance(value, dict) else "[]"
    elif value is None:
        return "null"
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    # Never through ``quoted``: Fraction(1), 1 and True are one dict key.
    elif isinstance(value, Fraction):
        return _string(format_rational(value))
    elif isinstance(value, RandomAllocation):
        return _encode(matrix_to_obj(value), newline, layouts, quoted)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    try:
        "".join(members)  # a C-level test that every member is a str; hashes none
    except TypeError:
        parts = tuple(_encode(v, inner, layouts, quoted) for v in members)
    else:
        parts = tuple(map(quoted.__getitem__, members))
    if template is None:
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    return template % parts


def load_json(path: str, what: str) -> dict:
    """The JSON document in file ``path``; every fault is a ``FormatError``
    that names ``what`` and the path, and a duplicate key is one."""
    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise FormatError(f"{what} {path}: duplicate key {key!r}")
                seen.add(key)
        return obj

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique_keys)
    except FormatError:
        raise
    except OSError as exc:
        raise FormatError(f"{what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{what} {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} {path}: {exc}") from None
    except RecursionError:
        # json's decoder recurses once per nested array or object.
        raise FormatError(f"{what} {path}: JSON nested too deeply to read") from None
    except ValueError:
        # json.load converts integer literals with int(), which refuses more
        # digits than Python's limit and names no position.
        raise FormatError(
            f"{what} {path}: a JSON number has more than "
            f"{sys.get_int_max_str_digits()} digits; write it as a string"
        ) from None


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


def _rationals(rows: list) -> tuple[tuple[Fraction, ...], ...]:
    """``rational`` of every cell.  Cells repeat a few literals ("0" most
    of all), so each distinct one is converted once; only when all are
    strings, since 1, 1.0 and True are one dict key."""
    literals = dict.fromkeys(chain.from_iterable(rows))
    convert = rational
    if all(type(v) is str for v in literals):
        convert = {v: rational(v) for v in literals}.__getitem__
    return tuple(tuple(map(convert, row)) for row in rows)


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
    if not agents:
        raise FormatError("instance: no agents given")
    try:
        values = _rationals([tuple(map(utilities[a].__getitem__, items)) for a in agents])
    except (AttributeError, LookupError, TypeError, ValueError, ZeroDivisionError):
        # Name the first bad cell, in the order of the lists.
        for a in agents:
            row = _require(utilities, a, "instance.utilities")
            for o in items:
                _rational_at(_require(row, o, f"instance.utilities[{a!r}]"),
                             f"instance.utilities[{a!r}][{o!r}]")
        raise
    try:
        return Instance(tuple(agents), tuple(items), values)
    except ValueError as exc:
        raise FormatError(f"instance: {exc}") from None


def matrix_to_obj(p: RandomAllocation, extra: Mapping | None = None) -> dict:
    # Only the cells of the integer form are formatted; the rest are "0".
    entries = [["0"] * len(p.items) for _ in p.rows]
    for text, row, cells in zip(entries, p.integer_form()[0], p.entries):
        for j in row:
            text[j] = format_rational(cells[j])
    obj = {
        "rows": [str(r) if not isinstance(r, str) else r for r in p.rows],
        "items": list(p.items),
        "entries": entries,
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
    try:
        parsed = _rationals(entries)
    except (TypeError, ValueError, ZeroDivisionError):
        # Name the first bad entry.
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                _rational_at(v, f"matrix.entries[{i}][{j}]")
        raise
    try:
        return RandomAllocation(tuple(rows), tuple(items), parsed)
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
        "expected": matrix_to_obj(expected)["entries"],
        "support": [
            {
                "weight": format_rational(weight),
                "assignment": dict(zip(alloc.items, alloc.owners)),
            }
            for weight, alloc in lottery.entries
        ],
        "metadata": dict(metadata) if metadata else {},
    }


def lottery_from_obj(obj: Mapping) -> tuple[Lottery, RandomAllocation, dict]:
    agents = tuple(_strings(_require(obj, "agents", "lottery"), "lottery.agents"))
    items = tuple(_strings(_require(obj, "items", "lottery"), "lottery.items"))
    if len(set(agents)) < len(agents):
        raise FormatError("lottery: duplicate agent ids")
    item_set = set(items)
    if len(item_set) < len(items):
        raise FormatError("lottery: duplicate item ids")
    support = _require(obj, "support", "lottery")
    if not isinstance(support, list):
        raise FormatError("lottery.support: expected a list")
    entries = []
    for k, element in enumerate(support):
        # Locations are formatted only once an entry has failed.
        try:
            weight = rational(element["weight"])
            assignment = element["assignment"]
        except (LookupError, TypeError, ValueError, ZeroDivisionError):
            where = f"lottery.support[{k}]"
            _rational_at(_require(element, "weight", where), f"{where}.weight")
            _require(element, "assignment", where)
            raise
        if not isinstance(assignment, Mapping) or not all(
            map(isinstance, chain(assignment, assignment.values()), repeat(str))
        ):
            raise FormatError(
                f"lottery.support[{k}].assignment: expected a mapping of item id "
                "to agent id string"
            )
        try:
            alloc = DeterministicAllocation.from_mapping(agents, items, assignment)
        except KeyError as exc:
            raise FormatError(f"lottery.support[{k}].assignment: "
                              f"item {exc.args[0]!r} has no owner") from None
        except ValueError as exc:
            raise FormatError(f"lottery.support[{k}].assignment: {exc}") from None
        # Every item has an owner, so any further key is not an item.
        if len(assignment) > len(item_set):
            unknown = next(o for o in assignment if o not in item_set)
            raise FormatError(f"lottery.support[{k}].assignment: unknown item {unknown!r}")
        entries.append((weight, alloc))
    try:
        lottery = Lottery(tuple(entries))
    except ValueError as exc:
        raise FormatError(f"lottery: {exc}") from None
    raw = _require(obj, "expected", "lottery")
    try:
        expected = matrix_from_obj({"rows": list(agents), "items": list(items), "entries": raw})
    except FormatError as exc:  # a fault of the lottery document, not of a matrix file
        raise FormatError(re.sub(r"\Amatrix(\.entries)?", "lottery.expected", str(exc))) from None
    # x / L must equal t / T; columns sum to L and to T, so L divides T.
    rows, scale = expected.integer_form()
    totals, total_scale = _support_totals(lottery)
    step = total_scale // scale
    if list(totals.values()) != [
            [row.get(j, 0) * step for j in range(len(items))] for row in rows]:
        raise FormatError("lottery: expected matrix does not equal the recomposed support")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, Mapping):
        raise FormatError("lottery.metadata: expected a mapping")
    metadata = dict(metadata)
    return lottery, expected, metadata
