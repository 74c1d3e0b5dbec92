"""End-to-end lottery construction: pad the instance with dummy items,
run an eating rule, re-eat each bundle into a square bistochastic matrix
over agent representatives, decompose it into permutations, and project
the permutations back to deterministic allocations of the real items.

The lottery's expectation reproduces the eating outcome exactly, and every
support allocation is a picking-sequence outcome under a recursively
balanced turn order, hence envy-free up to one item in the strong and
stochastic-dominance senses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .birkhoff import birkhoff_decompose
from .eps import eps_outcome
from .model import (
    DeterministicAllocation,
    Instance,
    Lottery,
    OrdinalProfile,
    RandomAllocation,
    ordinal_from_utilities,
)
from .ps import ps_outcome

__all__ = [
    "PaddedInstance",
    "Plan",
    "plan",
    "implement",
    "pad_with_dummies",
    "re_eat",
    "project",
    "ps_lottery",
    "reduce_support",
    "support_bound",
]


def _fresh_dummy_ids(items: Sequence[str], count: int) -> tuple[str, ...]:
    """Dummy ids that collide with nothing and sort in creation order."""
    taken = set(items)
    prefix = "zz-dummy-"
    while any(o.startswith(prefix) for o in taken):
        prefix = "z" + prefix
    width = max(3, len(str(count)))
    return tuple(f"{prefix}{k:0{width}d}" for k in range(1, count + 1))


class PaddedInstance:
    """An instance expanded to c*n items and c representatives per agent.

    ``prefs_strict`` breaks every tie lexicographically (smaller item id
    preferred) with dummies strictly last; ``prefs_weak`` keeps the real
    ties and only orders the dummies.  Representatives are (agent, k)
    pairs with k in 1..c.
    """

    def __init__(self, instance: Instance, c: int | None = None) -> None:
        n, m = instance.n, instance.m
        base = -(-m // n)  # ceil(m/n)
        if c is None:
            c = base
        elif c < base:
            raise ValueError("c must be at least ceil(m/n)")
        self.instance = instance
        self.c = c
        self.dummies = _fresh_dummy_ids(instance.items, c * n - m)
        self.items = instance.items + self.dummies
        self.representatives = tuple(
            (agent, k) for agent in instance.agents for k in range(1, c + 1)
        )
        profile = ordinal_from_utilities(instance)
        dummy_tail = tuple((d,) for d in self.dummies)
        weak_tiers = {a: profile.tiers[a] + dummy_tail for a in instance.agents}
        self.prefs_weak = OrdinalProfile(instance.agents, self.items, weak_tiers)
        self.prefs_strict = self.prefs_weak.strictified()


def pad_with_dummies(instance: Instance, c: int | None = None) -> PaddedInstance:
    """Add fresh dummy items (ranked below everything) until the item
    count is a multiple of the agent count; no-op padding when it already
    is.  ``c`` may be raised above ceil(m/n) when bundles are larger.
    """
    return PaddedInstance(instance, c)


def re_eat(
    bundles: Mapping[str, Mapping[str, Fraction]], padded: PaddedInstance
) -> list[list[Fraction]]:
    """Let each agent re-eat its bundle at unit speed in its strict
    preference order; representative k receives what was eaten during
    [k-1, k].  The result is a (cn) x (cn) bistochastic matrix indexed by
    ``padded.representatives`` and ``padded.items``.
    """
    c = padded.c
    items = padded.items
    col = {o: j for j, o in enumerate(items)}
    size = c * len(padded.instance.agents)
    matrix: list[list[Fraction]] = [[Fraction(0)] * size for _ in range(size)]

    rep_base = 0
    for agent in padded.instance.agents:
        row = bundles[agent]
        total = sum(row.values(), Fraction(0))
        if total != c:
            raise ValueError(f"bundle of {agent!r} has mass {total}, expected {c}")
        clock = Fraction(0)
        for o in padded.prefs_strict.strict_order(agent):
            amount = row.get(o, Fraction(0))
            if amount < 0:
                raise ValueError("negative bundle entry")
            while amount > 0:
                window = int(clock) + 1  # mass at time (w-1, w] feeds representative w
                bite = min(amount, Fraction(window) - clock)
                matrix[rep_base + window - 1][col[o]] += bite
                clock += bite
                amount -= bite
        rep_base += c
    return matrix


def project(
    permutation: Sequence[int], padded: PaddedInstance
) -> DeterministicAllocation:
    """Turn a permutation of the padded universe into an allocation of the
    real items: agent i owns whatever its representatives were matched to,
    dummy items are dropped.
    """
    instance = padded.instance
    owner: dict[str, str] = {}
    for idx, (agent, _k) in enumerate(padded.representatives):
        item = padded.items[permutation[idx]]
        if item not in padded.dummies:
            owner[item] = agent
    if set(owner) != set(instance.items):
        raise ValueError("permutation does not cover every real item")
    return DeterministicAllocation.from_mapping(instance.agents, instance.items, owner)


def support_bound(c: int, n: int) -> int:
    """Largest possible support size of the decomposition: k^2 - 2k + 2
    for k = cn (each extraction zeroes an entry, the last zeroes k).
    """
    k = c * n
    return k * k - 2 * k + 2


@dataclass(frozen=True)
class Plan:
    """One eating run, ready to be implemented as a lottery.

    ``expected`` is the eating outcome over the real items, ``padded`` the
    instance padded with the c the bundles actually fill, and ``bundles``
    what each agent re-eats (real items plus dummy mass, c in total).
    """

    expected: RandomAllocation
    padded: PaddedInstance
    bundles: Mapping[str, Mapping[str, Fraction]]


def _skip_zero_plan(instance: Instance) -> Plan:
    """Pad binary-mode bundles (which include the uniform slivers of
    unwanted items) with dummy mass up to a common size c, enlarging c when
    some agent ate more than ceil(m/n).  Dummy mass is dealt out in one
    sweep over agents so dummy columns still sum to one.
    """
    outcome, _trace = eps_outcome(instance, mode="skip_zero")
    n, m = instance.n, instance.m
    rows = {a: {o: v for o, v in outcome.row(a).items() if v > 0} for a in instance.agents}
    loads = {a: sum(rows[a].values(), Fraction(0)) for a in instance.agents}
    c = max(-(-m // n), max(-(-load.numerator // load.denominator) for load in loads.values()))
    padded = pad_with_dummies(instance, c)
    pos = 0  # index into the concatenated unit-mass dummy line
    offset = Fraction(0)
    for agent in instance.agents:
        need = c - loads[agent]
        while need > 0:
            bite = min(need, 1 - offset)
            dummy = padded.dummies[pos]
            rows[agent][dummy] = rows[agent].get(dummy, Fraction(0)) + bite
            need -= bite
            offset += bite
            if offset == 1:
                offset = Fraction(0)
                pos += 1
    return Plan(outcome, padded, rows)


def plan(instance: Instance, rule: str = "ps", skip_zero: bool = False) -> Plan:
    """Run the eating rule once and pad the instance to match.

    rule="ps" breaks all preference ties lexicographically and runs the
    serial eating rule; rule="eps" keeps real ties and runs coordinated
    eating (the outcome is then SD-efficient).  ``skip_zero`` (binary
    utilities, rule="eps" only) makes agents ignore zero-valued items.
    Dummies sit below every real item, so eating the padded instance
    leaves the outcome over the real items unchanged.
    """
    if rule not in ("ps", "eps"):
        raise ValueError(f"unknown rule {rule!r}")
    if skip_zero and rule != "eps":
        raise ValueError("skip_zero is only available with rule='eps'")
    if skip_zero:
        return _skip_zero_plan(instance)
    padded = pad_with_dummies(instance)
    if rule == "ps":
        outcome, _trace = ps_outcome(instance.agents, padded.items, padded.prefs_strict)
    else:
        outcome, _trace = eps_outcome(instance, profile=padded.prefs_weak)
    bundles = {a: outcome.row(a) for a in instance.agents}
    return Plan(outcome.restrict_items(instance.items), padded, bundles)


def implement(planned: Plan) -> Lottery:
    """Re-eat the planned bundles, decompose, project and merge: a lottery
    whose expectation is exactly ``planned.expected``."""
    padded = planned.padded
    parts = birkhoff_decompose(re_eat(planned.bundles, padded))
    entries = tuple((weight, project(perm, padded)) for weight, perm in parts)
    return Lottery(entries).merged()


def ps_lottery(
    instance: Instance,
    rule: str = "ps",
    skip_zero: bool = False,
) -> tuple[Lottery, RandomAllocation]:
    """Compute a lottery over deterministic allocations whose expectation
    equals, exactly, the eating outcome of the instance (see ``plan`` for
    the rules).

    Returns the lottery (duplicate support allocations merged) and the
    expected allocation over the original agents and items.
    """
    planned = plan(instance, rule, skip_zero)
    return implement(planned), planned.expected


def _find_affine_dependency(masks: list[int], dim: int) -> list[int] | None:
    """Nonzero integer coefficients summing a set of 0/1 vectors (with an
    affine trailing 1) to zero, or None when they are affinely independent.
    Each vector is a bitmask over ``dim`` coordinates, bit b holding
    coordinate b.

    A bitmask elimination over GF(2) runs first: 0/1 vectors that are
    independent mod 2 are independent over the rationals, which settles
    the common case without exact arithmetic.
    """
    pivots: list[int] = []
    for mask in masks:
        for p in pivots:
            low = p & -p
            if mask & low:
                mask ^= p
        if mask == 0:
            break
        pivots.append(mask)
    else:
        return None

    # Exact integer elimination; ``expr`` holds the integer combination of
    # the input vectors that equals ``row``, so dividing both by one gcd
    # keeps it exact.  A kernel vector matters only up to a positive scale.
    basis: list[tuple[int, list[int], list[int]]] = []  # (pivot, row, expr)
    for t, mask in enumerate(masks):
        row = [(mask >> b) & 1 for b in range(dim)]
        expr = [0] * len(masks)
        expr[t] = 1
        for pivot, brow, bexpr in basis:
            q = row[pivot]
            if q == 0:
                continue
            p = brow[pivot]
            row = [p * x - q * y for x, y in zip(row, brow)]
            expr = [p * x - q * y for x, y in zip(expr, bexpr)]
        if not any(row):
            return expr
        g = gcd(*row, *expr)
        if g > 1:
            row = [v // g for v in row]
            expr = [v // g for v in expr]
        basis.append((next(i for i, v in enumerate(row) if v), row, expr))
    return None


def reduce_support(lottery: Lottery) -> Lottery:
    """Shrink a lottery's support without changing its expectation.

    Duplicates merge first; then, while the support allocations'
    vectorizations are affinely dependent, weights are shifted along a
    kernel vector until one hits zero exactly and that allocation is
    dropped.  An affinely independent support over an n x m universe has
    at most nm + 1 elements.
    """
    lottery = lottery.merged()
    agents, items = lottery.agents, lottery.items
    agent_index = {a: i for i, a in enumerate(agents)}
    m = len(items)
    coords = [
        [agent_index[owner] * m + j for j, owner in enumerate(alloc.owners)]
        for _, alloc in lottery.entries
    ]
    # A coordinate no support allocation uses is zero in every vector and
    # cannot affect affine dependence, so the vectors keep only the used
    # ones, in their original order, followed by the affine 1.
    column = {x: b for b, x in enumerate(sorted({x for xs in coords for x in xs}))}
    affine = 1 << len(column)
    entries = [
        (weight, alloc, sum((1 << column[x] for x in xs), affine))
        for (weight, alloc), xs in zip(lottery.entries, coords)
    ]
    while True:
        gamma = _find_affine_dependency([mask for _, _, mask in entries], len(column) + 1)
        if gamma is None:
            break
        if all(g <= 0 for g in gamma):
            gamma = [-g for g in gamma]
        step = min(
            (Fraction(w) / g for (w, _, _), g in zip(entries, gamma) if g > 0),
        )
        entries = [
            (w - step * g, alloc, mask)
            for (w, alloc, mask), g in zip(entries, gamma)
            if w - step * g != 0
        ]
    reduced = Lottery(tuple((w, alloc) for w, alloc, _ in entries))
    if len(reduced.entries) > len(agents) * len(items) + 1:
        raise AssertionError("independent support exceeds the Caratheodory bound")
    return reduced
