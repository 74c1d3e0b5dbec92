"""Core domain types for fair random assignment: instances, preference
profiles, allocation matrices, lotteries and eating traces.

Everything is exact: probabilities, eating times and decomposition weights
are ``fractions.Fraction`` values, never floats.  Equality of allocations is
structural equality of canonical rationals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

__all__ = [
    "Rational",
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
    "utility_of_bundle",
    "sd_compare",
    "expected_allocation",
]


def rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings or Fractions to an exact Fraction.

    Floats are rejected: they have no place in an exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Canonical text form: "3" for integers, "p/q" otherwise."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class SdRelation(enum.Enum):
    """Outcome of comparing two allocation rows under stochastic dominance."""

    DOMINATES = "dominates"
    DOMINATED = "dominated"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Instance:
    """An allocation problem: agents, items and additive utilities.

    ``values[i][j]`` is the utility of ``items[j]`` to ``agents[i]``.  All
    utilities must be nonnegative rationals and the table must be complete.
    """

    agents: tuple[str, ...]
    items: tuple[str, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.agents) < 1 or len(self.items) < 1:
            raise ValueError("an instance needs at least one agent and one item")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent ids")
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate item ids")
        if len(self.values) != len(self.agents):
            raise ValueError("one utility row per agent required")
        for row in self.values:
            if len(row) != len(self.items):
                raise ValueError("one utility per item required in every row")
            for v in row:
                if not isinstance(v, Fraction):
                    raise TypeError("utilities must be Fractions; use Instance.from_utilities")
                if v < 0:
                    raise ValueError("utilities must be nonnegative")

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
            object.__setattr__(self, "_idx", cached)
        return cached

    def agent_index(self, agent: str) -> int:
        return self._index_maps()[0][agent]

    def utility(self, agent: str, item: str) -> Fraction:
        agent_idx, item_idx = self._index_maps()
        return self.values[agent_idx[agent]][item_idx[item]]

    def utility_row(self, agent: str) -> dict[str, Fraction]:
        row = self.values[self._index_maps()[0][agent]]
        return dict(zip(self.items, row))

    def is_binary(self) -> bool:
        """True when every utility is 0 or 1."""
        return all(v == 0 or v == 1 for row in self.values for v in row)


@dataclass(frozen=True)
class OrdinalProfile:
    """Weak order per agent, stored as descending indifference tiers.

    ``tiers[agent]`` is a tuple of tiers, each a tuple of item ids sorted
    lexicographically; earlier tiers are strictly preferred to later ones.
    """

    agents: tuple[str, ...]
    items: tuple[str, ...]
    tiers: Mapping[str, tuple[tuple[str, ...], ...]]

    def __post_init__(self) -> None:
        item_set = set(self.items)
        for agent in self.agents:
            if agent not in self.tiers:
                raise ValueError(f"no preference tiers for agent {agent!r}")
            seen: set[str] = set()
            for tier in self.tiers[agent]:
                if not tier:
                    raise ValueError("empty preference tier")
                for o in tier:
                    if o in seen or o not in item_set:
                        raise ValueError(f"tiers of {agent!r} do not partition the item set")
                    seen.add(o)
            if seen != item_set:
                raise ValueError(f"tiers of {agent!r} do not cover the item set")

    def tier_rank(self, agent: str) -> dict[str, int]:
        """Item -> tier position map for one agent (0 = best)."""
        return {o: k for k, tier in enumerate(self.tiers[agent]) for o in tier}

    def is_strict(self, agent: str | None = None) -> bool:
        """True when every tier is a singleton (for one agent or all)."""
        agents = [agent] if agent is not None else list(self.agents)
        return all(len(t) == 1 for a in agents for t in self.tiers[a])

    def strict_order(self, agent: str) -> tuple[str, ...]:
        """Descending item order; requires the agent's order to be strict."""
        order = []
        for tier in self.tiers[agent]:
            if len(tier) != 1:
                raise ValueError(f"preferences of {agent!r} contain ties")
            order.append(tier[0])
        return tuple(order)

    def strictified(self) -> "OrdinalProfile":
        """Break every tie lexicographically on item id (smaller id preferred).

        The transformation is explicit and recorded by the caller where it
        matters; the result is a strict total order consistent with the
        weak order.
        """
        new_tiers = {
            agent: tuple((o,) for tier in self.tiers[agent] for o in sorted(tier))
            for agent in self.agents
        }
        return OrdinalProfile(self.agents, self.items, new_tiers)


def ordinal_from_utilities(instance: Instance) -> OrdinalProfile:
    """Derive the weak-order profile: x is weakly preferred to y iff its
    utility is at least y's.  Equal utilities share a tier.
    """
    tiers = {}
    for i, agent in enumerate(instance.agents):
        by_value: dict[Fraction, list[str]] = {}
        for j, item in enumerate(instance.items):
            by_value.setdefault(instance.values[i][j], []).append(item)
        ordered = sorted(by_value.items(), key=lambda kv: kv[0], reverse=True)
        tiers[agent] = tuple(tuple(sorted(items)) for _, items in ordered)
    return OrdinalProfile(instance.agents, instance.items, tiers)


Row = Mapping[str, Fraction]


def _as_row(items: Sequence[str], row: Union[Row, Sequence[RationalLike]]) -> dict[str, Fraction]:
    """Accept a row either as item->value mapping or as a vector aligned
    with ``items``; return a complete mapping with exact entries.
    """
    if isinstance(row, Mapping):
        return {o: rational(row.get(o, 0)) for o in items}
    values = list(row)
    if len(values) != len(items):
        raise ValueError(f"row has {len(values)} entries, expected {len(items)}")
    return {o: rational(v) for o, v in zip(items, values)}


@dataclass(frozen=True)
class RandomAllocation:
    """Fractional allocation matrix: rows are agents (or representatives),
    columns are items; every column sums to exactly one.
    """

    rows: tuple[Hashable, ...]
    items: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("duplicate row labels")
        if len(self.entries) != len(self.rows):
            raise ValueError("one entry row per row label required")
        for row in self.entries:
            if len(row) != len(self.items):
                raise ValueError("row length must match the item count")
            for v in row:
                if not isinstance(v, Fraction):
                    raise TypeError("entries must be Fractions")
                if v < 0 or v > 1:
                    raise ValueError("entries must lie in [0, 1]")
        for j, item in enumerate(self.items):
            total = sum(row[j] for row in self.entries)
            if total != 1:
                raise ValueError(f"column {item!r} sums to {total}, expected 1")

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Hashable],
        items: Sequence[str],
        data: Mapping[Hashable, Union[Row, Sequence[RationalLike]]],
    ) -> "RandomAllocation":
        entries = []
        for r in rows:
            row = _as_row(tuple(items), data.get(r, {}))
            entries.append(tuple(row[o] for o in items))
        return cls(tuple(rows), tuple(items), tuple(entries))

    def entry(self, row: Hashable, item: str) -> Fraction:
        return self.entries[self.rows.index(row)][self.items.index(item)]

    def row(self, label: Hashable) -> dict[str, Fraction]:
        values = self.entries[self.rows.index(label)]
        return dict(zip(self.items, values))

    def restrict_items(self, keep: Sequence[str]) -> "RandomAllocation":
        """Project onto a subset of columns (they must still sum to one)."""
        idx = [self.items.index(o) for o in keep]
        return RandomAllocation(
            self.rows,
            tuple(keep),
            tuple(tuple(row[j] for j in idx) for row in self.entries),
        )


@dataclass(frozen=True)
class DeterministicAllocation:
    """Total assignment of items to agents; ``owners[j]`` owns ``items[j]``."""

    agents: tuple[str, ...]
    items: tuple[str, ...]
    owners: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.owners) != len(self.items):
            raise ValueError("every item needs exactly one owner")
        agent_set = set(self.agents)
        for a in self.owners:
            if a not in agent_set:
                raise ValueError(f"unknown owner {a!r}")

    @classmethod
    def from_mapping(
        cls, agents: Sequence[str], items: Sequence[str], owner: Mapping[str, str]
    ) -> "DeterministicAllocation":
        return cls(tuple(agents), tuple(items), tuple(owner[o] for o in items))

    def owner_of(self, item: str) -> str:
        return self.owners[self.items.index(item)]

    def owner_map(self) -> dict[str, str]:
        return dict(zip(self.items, self.owners))

    def bundle(self, agent: str) -> tuple[str, ...]:
        return tuple(o for o, a in zip(self.items, self.owners) if a == agent)

    def row(self, agent: str) -> dict[str, Fraction]:
        one, zero = Fraction(1), Fraction(0)
        return {o: (one if a == agent else zero) for o, a in zip(self.items, self.owners)}

    def matrix(self) -> RandomAllocation:
        """0/1 matrix view (a valid RandomAllocation)."""
        one, zero = Fraction(1), Fraction(0)
        entries = tuple(
            tuple(one if owner == agent else zero for owner in self.owners)
            for agent in self.agents
        )
        return RandomAllocation(self.agents, self.items, entries)


@dataclass(frozen=True)
class Lottery:
    """Finite list of (weight, deterministic allocation); weights sum to one."""

    entries: tuple[tuple[Fraction, DeterministicAllocation], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a lottery needs at least one outcome")
        universe = (self.entries[0][1].agents, self.entries[0][1].items)
        total = Fraction(0)
        for weight, allocation in self.entries:
            if not isinstance(weight, Fraction):
                raise TypeError("weights must be Fractions")
            if weight <= 0 or weight > 1:
                raise ValueError("weights must lie in (0, 1]")
            if (allocation.agents, allocation.items) != universe:
                raise ValueError("all support allocations must share one universe")
            total += weight
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected 1")

    @property
    def agents(self) -> tuple[str, ...]:
        return self.entries[0][1].agents

    @property
    def items(self) -> tuple[str, ...]:
        return self.entries[0][1].items

    @property
    def support(self) -> tuple[DeterministicAllocation, ...]:
        return tuple(allocation for _, allocation in self.entries)

    def merged(self) -> "Lottery":
        """Combine repeated support allocations by adding their weights."""
        weights: dict[tuple[str, ...], Fraction] = {}
        order: list[DeterministicAllocation] = []
        by_key: dict[tuple[str, ...], DeterministicAllocation] = {}
        for weight, allocation in self.entries:
            key = allocation.owners
            if key not in weights:
                weights[key] = Fraction(0)
                order.append(allocation)
                by_key[key] = allocation
            weights[key] += weight
        return Lottery(tuple((weights[a.owners], a) for a in order))


class TraceSegment(tuple):
    """One consumption interval: (item, start, end, amount)."""

    __slots__ = ()

    def __new__(cls, item: str, start: Fraction, end: Fraction, amount: Fraction):
        return super().__new__(cls, (item, start, end, amount))

    @property
    def item(self) -> str:
        return self[0]

    @property
    def start(self) -> Fraction:
        return self[1]

    @property
    def end(self) -> Fraction:
        return self[2]

    @property
    def amount(self) -> Fraction:
        return self[3]


@dataclass(frozen=True)
class EatingTrace:
    """Per-agent, time-ordered record of what was eaten when.

    For the simultaneous-eating algorithms each agent's segments are
    contiguous and cover [0, horizon]; zero-length segments are never
    recorded.  Padding entries (see the zero-utility eating mode) may sit
    after the horizon.
    """

    agents: tuple[str, ...]
    items: tuple[str, ...]
    segments: Mapping[str, tuple[TraceSegment, ...]]
    horizon: Fraction

    def integrate(self) -> dict[str, dict[str, Fraction]]:
        """Total amount of each item per agent, summed over all segments."""
        rows: dict[str, dict[str, Fraction]] = {}
        for agent in self.agents:
            row: dict[str, Fraction] = {}
            for seg in self.segments.get(agent, ()):
                row[seg.item] = row.get(seg.item, Fraction(0)) + seg.amount
            rows[agent] = row
        return rows


def utility_of_bundle(
    instance: Instance, agent: str, row: Union[Row, Sequence[RationalLike]]
) -> Fraction:
    """Exact additive utility of a fractional bundle for one agent."""
    values = instance.values[instance.agent_index(agent)]
    if isinstance(row, Mapping):
        item_idx = instance._index_maps()[1]
        total = Fraction(0)
        for o, amount in row.items():
            if amount:
                total += values[item_idx[o]] * rational(amount)
        return total
    amounts = _as_row(instance.items, row)
    return sum(
        (values[j] * amounts[o] for j, o in enumerate(instance.items)),
        Fraction(0),
    )


def sd_compare(
    prefs: OrdinalProfile,
    agent: str,
    x: Union[Row, Sequence[RationalLike]],
    y: Union[Row, Sequence[RationalLike]],
) -> SdRelation:
    """Relate two rows under the agent's stochastic-dominance order.

    Row x weakly dominates row y when, for every item, x places at least
    as much mass on the upper contour set (all items weakly preferred to
    it) as y does.  With a weak order, upper contour sets are the tier
    prefixes, ties included.
    """
    rx = _as_row(prefs.items, x)
    ry = _as_row(prefs.items, y)
    ge = True  # x's prefix sums all >= y's
    le = True
    cx = cy = Fraction(0)
    for tier in prefs.tiers[agent]:
        for o in tier:
            cx += rx[o]
            cy += ry[o]
        if cx < cy:
            ge = False
        if cx > cy:
            le = False
    if ge and le:
        return SdRelation.EQUIVALENT
    if ge:
        return SdRelation.DOMINATES
    if le:
        return SdRelation.DOMINATED
    return SdRelation.INCOMPARABLE


def expected_allocation(lottery: Lottery) -> RandomAllocation:
    """Weight-average the 0/1 matrix views of the support; exact."""
    agents, items = lottery.agents, lottery.items
    totals = {a: {o: Fraction(0) for o in items} for a in agents}
    for weight, allocation in lottery.entries:
        for o, owner in zip(allocation.items, allocation.owners):
            totals[owner][o] += weight
    entries = tuple(tuple(totals[a][o] for o in items) for a in agents)
    return RandomAllocation(agents, items, entries)
