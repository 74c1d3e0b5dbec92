"""Core domain types for fair random assignment: instances, preference
profiles, allocation matrices, lotteries and eating traces.

Everything is exact: probabilities, eating times and decomposition weights
are ``fractions.Fraction`` values, never floats.  Equality of allocations is
structural equality of canonical rationals.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
import operator
import os
import re
from fractions import Fraction
from itertools import chain, repeat
from typing import Any, Hashable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "rational",
    "format_rational",
    "Instance",
    "OrdinalProfile",
    "RandomAllocation",
    "DeterministicAllocation",
    "Lottery",
    "EatingTrace",
    "TraceSegment",
    "SdRelation",
    "ordinal_from_utilities",
    "sd_compare",
    "expected_allocation",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "BUDGET_ENV_VAR",
    "configured_budget",
]


class BudgetExceeded(RuntimeError):
    """Raised when a brute-force check would exceed its enumeration budget."""


DEFAULT_BUDGET = 65536
BUDGET_ENV_VAR = "FAIRLOT_BUDGET"


def configured_budget() -> int:
    """The FAIRLOT_BUDGET environment variable, else the built-in default.
    The variable must hold a nonnegative integer; anything else raises
    ValueError naming it."""
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a nonnegative integer, got {env!r}")
    return value


def _check_budget(n: int, m: int) -> None:
    """Refuse (raise BudgetExceeded) when the n^m allocations of n agents
    and m items exceed the configured budget."""
    limit = configured_budget()
    # n^m is compared in full, not written: past 4300 digits str() raises.
    if n ** m > limit:
        raise BudgetExceeded(f"{n}^{m} allocations exceed the budget {limit}")


# The grammar of ``Fraction``'s string form: "p", "p/q", decimals and
# exponents, with underscores between digits.
_LITERAL = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)
    (?:/(?P<den>\d+(?:_\d+)*)
    |(?:\.(?P<dec>\d*|\d+(?:_\d+)*))?(?:E(?P<exp>[-+]?\d+(?:_\d+)*))?)
    \s*\Z
""", re.VERBOSE | re.IGNORECASE)
# A literal like "1e10000000" is 11 bytes, but expands into a
# 33-million-bit integer.  Exponents are capped at Python's own limit of
# 4300 digits for a decimal integer string, and the numerator and
# denominator a literal writes (before reduction) at twice that many
# digits, so what is read can be written and read back.  Text longer
# than the longest such "-p/q" is refused before any digit is converted.
_MAX_EXPONENT = 4300
_MAX_DIGITS = 2 * _MAX_EXPONENT
_DIGITS_BOUND = 10 ** _MAX_DIGITS
_MAX_LITERAL = 2 * _MAX_DIGITS + 2


def rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings or Fractions to an exact Fraction.

    Strings follow ``Fraction``'s grammar (decimals, exponents and
    underscores too), past Python's digit limit for ``int``, within the
    caps above.  Floats are rejected: they have no place in an exact
    pipeline.
    """
    if not isinstance(value, str):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool):
            raise TypeError("booleans are not rationals")
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot interpret a {type(value).__name__} as an exact rational")
    if len(value) <= 600 and value.isascii():
        # "p" and "p/q" in ASCII digits ("²".isdigit() holds, but int
        # refuses it), below int's digit limit (at least 640) and the caps
        # below; anything else, a zero denominator too, takes the grammar.
        if value.isdigit():
            return Fraction(int(value))
        num, _, den = value.partition("/")
        if num.isdigit() and den.isdigit() and den.strip("0"):
            return Fraction(int(num), int(den))
    if len(value) > _MAX_LITERAL:
        raise ValueError(f"longer than {_MAX_LITERAL} characters")
    match = _LITERAL.match(value)
    if match is None:
        raise ValueError("not a rational literal")
    num = _integer(match["num"])
    den = _integer(match["den"]) if match["den"] else 1
    if match["dec"]:
        decimals = match["dec"].replace("_", "")
        num, den = num * 10 ** len(decimals) + _integer(decimals), den * 10 ** len(decimals)
    if match["exp"]:
        digits = match["exp"].lstrip("+-").replace("_", "").lstrip("0") or "0"
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT} in magnitude")
        if match["exp"].startswith("-"):
            den *= 10 ** int(digits)
        else:
            num *= 10 ** int(digits)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if num >= _DIGITS_BOUND or den >= _DIGITS_BOUND:
        raise ValueError(f"more than {_MAX_DIGITS} digits in its numerator or denominator")
    return Fraction(-num if match["sign"] == "-" else num, den)


def _integer(digits: str) -> int:
    """The int a decimal digit string (underscores allowed) writes, of
    any length: the inverse of ``_decimal``.  ``int`` refuses more than
    ``sys.get_int_max_str_digits()`` digits (at least 640), so long
    strings are split into halves converted on their own."""
    digits = digits.replace("_", "")
    if len(digits) <= 600:
        return int(digits or "0")
    half = len(digits) // 2
    return _integer(digits[:-half]) * 10 ** half + _integer(digits[-half:])


def _decimal(n: int) -> str:
    """Decimal digits of an int of any length.

    ``str`` refuses ints past ``sys.get_int_max_str_digits()`` digits (at
    least 640), so long ints are split at a power of ten into halves that
    are converted on their own, the low half padded with zeros.
    """
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits (log10 2 > 0.3)
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).rjust(half, "0")


def format_rational(value: Fraction) -> str:
    """Canonical text form: "3" for integers, "p/q" otherwise."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _on_one_scale(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The values times L, the lcm of their denominators, and L."""
    denominators = tuple(map(operator.attrgetter("denominator"), values))
    scale = math.lcm(*denominators)
    ints = tuple(map(operator.attrgetter("numerator"), values))
    if scale > 1:
        ints = tuple(map(operator.mul, ints, map(scale.__floordiv__, denominators)))
    return ints, scale


class SdRelation(enum.Enum):
    """Outcome of comparing two allocation rows under stochastic dominance."""

    DOMINATES = "dominates"
    DOMINATED = "dominated"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


class _Frozen:
    """Base of the package's immutable value types (``TraceSegment``, a
    named tuple, is the one that is not a subclass).

    ``_fields`` names a subclass's fields in constructor order; its
    ``__init__`` checks them and binds them in the instance ``__dict__``.
    Objects are equal when they are of one class with equal field values,
    and hash as those values.  Assigning or deleting any attribute raises
    ``AttributeError``.  Derived data that is not a field (the integer
    forms, ``integer_columns``, the index maps, the tier ranks, the
    ordinal profile, the Pareto front) is kept in the ``__dict__`` too and
    takes no part in equality, hashing or ``repr``.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # the field values, read in C: a tuple, or the value of a lone field
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Instance(_Frozen):
    """An allocation problem: agents, items and additive utilities.

    ``values[i][j]`` is the utility of ``items[j]`` to ``agents[i]``.  All
    utilities must be nonnegative rationals and the table must be complete.
    """

    _fields = ("agents", "items", "values")

    def __init__(
        self,
        agents: tuple[str, ...],
        items: tuple[str, ...],
        values: tuple[tuple[Fraction, ...], ...],
    ) -> None:
        if len(agents) < 1 or len(items) < 1:
            raise ValueError("an instance needs at least one agent and one item")
        if len(set(agents)) != len(agents):
            raise ValueError("duplicate agent ids")
        if len(set(items)) != len(items):
            raise ValueError("duplicate item ids")
        if len(values) != len(agents):
            raise ValueError("one utility row per agent required")
        scaled = []
        for row in values:
            if len(row) != len(items):
                raise ValueError("one utility per item required in every row")
            if not all(map(isinstance, row, repeat(Fraction))):
                raise TypeError("utilities must be Fractions; use Instance.from_utilities")
            ints, scale = _on_one_scale(row)
            if min(ints) < 0:
                raise ValueError("utilities must be nonnegative")
            scaled.append((ints, scale))
        d = self.__dict__
        d["agents"], d["items"], d["values"], d["_int"] = agents, items, values, tuple(scaled)

    @classmethod
    def from_utilities(
        cls,
        utilities: Mapping[str, Mapping[str, RationalLike]],
        agents: Sequence[str] | None = None,
        items: Sequence[str] | None = None,
    ) -> "Instance":
        """Build an instance from a nested agent -> item -> utility mapping."""
        agent_list = tuple(agents) if agents is not None else tuple(utilities)
        if not agent_list:
            raise ValueError("no agents given")
        if items is not None:
            item_list = tuple(items)
        else:
            item_list = tuple(utilities[agent_list[0]])
        rows = []
        for a in agent_list:
            try:
                row = tuple(rational(utilities[a][o]) for o in item_list)
            except KeyError as missing:
                raise ValueError(f"utility table incomplete: agent {a!r} misses {missing}") from None
            rows.append(row)
        return cls(agent_list, item_list, tuple(rows))

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.items)

    def _index_maps(self) -> tuple[dict[str, int], dict[str, int]]:
        cached = self.__dict__.get("_idx")
        if cached is None:
            cached = (
                {a: i for i, a in enumerate(self.agents)},
                {o: j for j, o in enumerate(self.items)},
            )
            self.__dict__["_idx"] = cached
        return cached

    def integer_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per agent, in agent order: (its utility row times ``scale``,
        ``scale``), where ``scale`` is the lcm of the row's denominators.

        A positive per-agent scale preserves every comparison that agent
        makes, and Pareto dominance coordinate by coordinate, so checkers
        can work on these exact integers; a scaled total ``t`` is the
        utility ``Fraction(t, scale)``.  Built once, by ``__init__``,
        which tests the signs on them.
        """
        return self._int

    def integer_columns(self) -> dict[str, tuple[int, ...]]:
        """Per item, every agent's ``integer_rows`` value of it, in agent
        order.  Built on first use."""
        cached = self.__dict__.get("_cols")
        if cached is None:
            cached = dict(zip(self.items, zip(*(row for row, _ in self._int))))
            self.__dict__["_cols"] = cached
        return cached

    def agent_index(self, agent: str) -> int:
        return self._index_maps()[0][agent]

    def utility_row(self, agent: str) -> dict[str, Fraction]:
        row = self.values[self._index_maps()[0][agent]]
        return dict(zip(self.items, row))

    def is_binary(self) -> bool:
        """True when every utility is 0 or 1."""
        return all(v == 0 or v == 1 for row in self.values for v in row)


class OrdinalProfile(_Frozen):
    """Weak order per agent, stored as descending indifference tiers.

    ``tiers[agent]`` is a tuple of tiers, each a tuple of item ids sorted
    lexicographically; earlier tiers are strictly preferred to later ones.
    """

    _fields = ("agents", "items", "tiers")

    def __init__(
        self,
        agents: tuple[str, ...],
        items: tuple[str, ...],
        tiers: Mapping[str, tuple[tuple[str, ...], ...]],
    ) -> None:
        item_set = set(items)
        for agent in agents:
            if agent not in tiers:
                raise ValueError(f"no preference tiers for agent {agent!r}")
            ranked = list(chain.from_iterable(tiers[agent]))
            if len(ranked) == len(item_set) and set(ranked) == item_set and all(tiers[agent]):
                continue  # nonempty tiers that partition the items; else name the fault
            seen: set[str] = set()
            for tier in tiers[agent]:
                if not tier:
                    raise ValueError("empty preference tier")
                for o in tier:
                    if o in seen or o not in item_set:
                        raise ValueError(f"tiers of {agent!r} do not partition the item set")
                    seen.add(o)
            if seen != item_set:
                raise ValueError(f"tiers of {agent!r} do not cover the item set")
        d = self.__dict__
        d["agents"], d["items"], d["tiers"] = agents, items, tiers

    def tier_rank(self, agent: str) -> dict[str, int]:
        """Item -> tier position map for one agent (0 = best).  Cached per
        agent: callers must not mutate it."""
        cache = self.__dict__.setdefault("_ranks", {})
        rank = cache.get(agent)
        if rank is None:
            rank = {o: k for k, tier in enumerate(self.tiers[agent]) for o in tier}
            cache[agent] = rank
        return rank

    def strictified(self) -> "OrdinalProfile":
        """Break every tie lexicographically on item id (smaller id preferred).

        The transformation is explicit and recorded by the caller where it
        matters; the result is a strict total order consistent with the
        weak order.  The tiers partition the items, so a profile with one
        tier per item is strict, and is its own strictification.
        """
        if all(len(self.tiers[a]) == len(self.items) for a in self.agents):
            return self
        new_tiers = {
            agent: tuple((o,) for tier in self.tiers[agent] for o in sorted(tier))
            for agent in self.agents
        }
        return OrdinalProfile(self.agents, self.items, new_tiers)


def ordinal_from_utilities(instance: Instance) -> OrdinalProfile:
    """Derive the weak-order profile: x is weakly preferred to y iff its
    utility is at least y's.  Equal utilities share a tier.

    Tiers come from each agent's integer-scaled row (``integer_rows``);
    a positive per-agent scale keeps the order and the ties.  Built once
    per instance and kept on it, as ``integer_rows`` is.
    """
    profile = instance.__dict__.get("_ordinal")
    if profile is not None:
        return profile
    tiers = {}
    for agent, (row, _scale) in zip(instance.agents, instance.integer_rows()):
        if len(set(row)) == len(row):  # strict: one item per tier
            best_first = sorted(range(len(row)), key=row.__getitem__, reverse=True)
            tiers[agent] = tuple(zip(map(instance.items.__getitem__, best_first)))
            continue
        by_value: dict[int, list[str]] = {}
        for item, value in zip(instance.items, row):
            by_value.setdefault(value, []).append(item)
        tiers[agent] = tuple(
            tuple(sorted(by_value[value])) for value in sorted(by_value, reverse=True)
        )
    profile = OrdinalProfile(instance.agents, instance.items, tiers)
    instance.__dict__["_ordinal"] = profile
    return profile


Row = Mapping[str, Fraction]


def _as_row(items: Sequence[str], row: Row) -> dict[str, Fraction]:
    """Complete an item->value mapping over ``items`` with exact entries."""
    return {o: rational(row.get(o, 0)) for o in items}


class RandomAllocation(_Frozen):
    """Fractional allocation matrix: rows are agents (or representatives),
    columns are items; every column sums to exactly one.
    """

    _fields = ("rows", "items", "entries")

    def __init__(
        self,
        rows: tuple[Hashable, ...],
        items: tuple[str, ...],
        entries: tuple[tuple[Fraction, ...], ...],
    ) -> None:
        if len(set(rows)) != len(rows):
            raise ValueError("duplicate row labels")
        if len(entries) != len(rows):
            raise ValueError("one entry row per row label required")
        ratios = []
        for row in entries:
            if len(row) != len(items):
                raise ValueError("row length must match the item count")
            cells = []
            for j, v in enumerate(row):
                if not isinstance(v, Fraction):
                    raise TypeError("entries must be Fractions")
                if v:
                    p, q = v.as_integer_ratio()
                    if p < 0 or p > q:
                        raise ValueError("entries must lie in [0, 1]")
                    cells.append((j, p, q))
            ratios.append(cells)
        scale = math.lcm(*{q for cells in ratios for _, _, q in cells})
        scaled = tuple({j: p * (scale // q) for j, p, q in cells} for cells in ratios)
        totals = [0] * len(items)
        for row in scaled:
            for j, x in row.items():
                totals[j] += x
        for j, item in enumerate(items):
            if totals[j] != scale:
                total = sum(row[j] for row in entries)
                raise ValueError(f"column {item!r} sums to {total}, expected 1")
        d = self.__dict__
        d["rows"], d["items"], d["entries"], d["_int"] = rows, items, entries, (scaled, scale)

    def integer_form(self) -> tuple[tuple[dict[int, int], ...], int]:
        """Per row, its nonzero cells as column index -> entry times L, and
        L, the lcm of their denominators (1 if none); built once, by
        ``__init__``.  Callers must not mutate the rows."""
        return self._int

    def row(self, label: Hashable) -> dict[str, Fraction]:
        values = self.entries[self.rows.index(label)]
        return dict(zip(self.items, values))


# A lottery's support allocations share one agents tuple: its set is
# built once, not once per allocation.
_agent_set = functools.lru_cache(maxsize=16)(frozenset)


class DeterministicAllocation(_Frozen):
    """Total assignment of items to agents; ``owners[j]`` owns ``items[j]``."""

    _fields = ("agents", "items", "owners")

    def __init__(
        self, agents: tuple[str, ...], items: tuple[str, ...], owners: tuple[str, ...]
    ) -> None:
        if len(owners) != len(items):
            raise ValueError("every item needs exactly one owner")
        agent_set = _agent_set(agents)
        if not agent_set.issuperset(owners):
            unknown = next(a for a in owners if a not in agent_set)
            raise ValueError(f"unknown owner {unknown!r}")
        d = self.__dict__
        d["agents"], d["items"], d["owners"] = agents, items, owners

    @classmethod
    def from_mapping(
        cls, agents: Sequence[str], items: Sequence[str], owner: Mapping[str, str]
    ) -> "DeterministicAllocation":
        return cls(tuple(agents), tuple(items), tuple(map(owner.__getitem__, items)))

    def owner_map(self) -> dict[str, str]:
        return dict(zip(self.items, self.owners))

    def bundle(self, agent: str) -> tuple[str, ...]:
        return tuple(o for o, a in zip(self.items, self.owners) if a == agent)

    def row(self, agent: str) -> dict[str, Fraction]:
        one, zero = Fraction(1), Fraction(0)
        return {o: (one if a == agent else zero) for o, a in zip(self.items, self.owners)}


class Lottery(_Frozen):
    """Finite list of (weight, deterministic allocation); weights sum to one."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, DeterministicAllocation], ...]) -> None:
        if not entries:
            raise ValueError("a lottery needs at least one outcome")
        universe = (entries[0][1].agents, entries[0][1].items)
        for weight, allocation in entries:
            if not isinstance(weight, Fraction):
                raise TypeError("weights must be Fractions")
            if not 0 < weight.numerator <= weight.denominator:
                raise ValueError("weights must lie in (0, 1]")
            if (allocation.agents, allocation.items) != universe:
                raise ValueError("all support allocations must share one universe")
        weights, scale = _on_one_scale(tuple(map(operator.itemgetter(0), entries)))
        total = Fraction(sum(weights), scale)
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected 1")
        self.__dict__["entries"] = entries

    @property
    def agents(self) -> tuple[str, ...]:
        return self.entries[0][1].agents

    @property
    def items(self) -> tuple[str, ...]:
        return self.entries[0][1].items

    def merged(self) -> "Lottery":
        """Combine repeated support allocations by adding their weights;
        a lottery with no repeats is its own merge."""
        if len({allocation.owners for _, allocation in self.entries}) == len(self.entries):
            return self
        weights: dict[tuple[str, ...], Fraction] = {}
        order: list[DeterministicAllocation] = []
        for weight, allocation in self.entries:
            key = allocation.owners
            if key not in weights:
                weights[key] = Fraction(0)
                order.append(allocation)
            weights[key] += weight
        return Lottery(tuple((weights[a.owners], a) for a in order))


# One consumption interval: ``amount`` of ``item`` eaten over [start, end].
TraceSegment = collections.namedtuple("TraceSegment", "item start end amount")


class EatingTrace(_Frozen):
    """Per-agent, time-ordered record of what was eaten when.

    For the simultaneous-eating algorithms each agent's segments are
    contiguous and cover [0, horizon]; zero-length segments are never
    recorded.  Padding entries (see the zero-utility eating mode) may sit
    after the horizon.
    """

    _fields = ("agents", "items", "segments", "horizon")

    def __init__(
        self,
        agents: tuple[str, ...],
        items: tuple[str, ...],
        segments: Mapping[str, tuple[TraceSegment, ...]],
        horizon: Fraction,
    ) -> None:
        d = self.__dict__
        d["agents"], d["items"], d["segments"], d["horizon"] = agents, items, segments, horizon


def sd_compare(
    prefs: OrdinalProfile,
    agent: str,
    x: Row,
    y: Row,
) -> SdRelation:
    """Relate two rows (item -> amount; a missing item counts as 0) under
    the agent's stochastic-dominance order.

    Row x weakly dominates row y when, for every item, x places at least
    as much mass on the upper contour set (all items weakly preferred to
    it) as y does.  With a weak order, upper contour sets are the tier
    prefixes, ties included.
    """
    tiers = prefs.tiers[agent]
    return _sd_relation(
        _tier_prefixes(tiers, _as_row(prefs.items, x)),
        _tier_prefixes(tiers, _as_row(prefs.items, y)),
    )


def _tier_prefixes(tiers: Sequence[Sequence[str]], row: Mapping[str, Any]) -> list:
    """Mass of ``row`` on each upper contour set: cumulative sums over the
    tiers, best first."""
    prefixes = []
    total = 0
    for tier in tiers:
        for o in tier:
            total += row[o]
        prefixes.append(total)
    return prefixes


def _sd_relation(x: Sequence, y: Sequence) -> SdRelation:
    """Relate two rows from their tier prefix sums (see sd_compare)."""
    ge = all(map(operator.ge, x, y))
    le = all(map(operator.le, x, y))
    if ge and le:
        return SdRelation.EQUIVALENT
    if ge:
        return SdRelation.DOMINATES
    if le:
        return SdRelation.DOMINATED
    return SdRelation.INCOMPARABLE


def _support_totals(lottery: Lottery) -> tuple[dict[str, list[int]], int]:
    """The weighted sum of the support's 0/1 matrices on one integer
    scale: per agent, its row of totals t over L, the lcm of the weight
    denominators, so entry (a, o) is t / L."""
    weights, scale = _on_one_scale(tuple(map(operator.itemgetter(0), lottery.entries)))
    totals = {a: [0] * len(lottery.items) for a in lottery.agents}
    for w, (_, allocation) in zip(weights, lottery.entries):
        for j, owner in enumerate(allocation.owners):
            totals[owner][j] += w
    return totals, scale


def expected_allocation(lottery: Lottery) -> RandomAllocation:
    """Weight-average the 0/1 matrix views of the support; exact."""
    totals, scale = _support_totals(lottery)
    entries = tuple(tuple(Fraction(t, scale) for t in row) for row in totals.values())
    return RandomAllocation(lottery.agents, lottery.items, entries)
