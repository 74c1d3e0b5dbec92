"""End-to-end lottery construction, in the stages ``implement`` calls:
``plan`` runs an eating rule on the instance, pads it with dummy items
and fills every bundle up with dummy mass; ``re_eat`` turns the bundles
into a square bistochastic matrix over agent representatives, on one
integer scale; ``birkhoff_decompose`` splits it into permutations; and
``project`` maps each permutation back to a deterministic allocation of
the real items.

The lottery's expectation reproduces the eating outcome exactly, and every
support allocation is a picking-sequence outcome under a recursively
balanced turn order, hence envy-free up to one item in the strong and
stochastic-dominance senses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import ceil, gcd, lcm
from operator import itemgetter
from typing import Mapping, Sequence

from .birkhoff import birkhoff_decompose
from .eps import eps_outcome
from .model import (
    DeterministicAllocation,
    Instance,
    Lottery,
    RandomAllocation,
    _Frozen,
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

    ``orders[agent]`` is the agent's re-eating order: the real items best
    first, ties broken lexicographically (smaller item id preferred), then
    the dummies.  Representatives are (agent, k) pairs with k in 1..c, and
    ``agent_of[r]`` is the agent of representative r.
    """

    def __init__(self, instance: Instance, c: int) -> None:
        if c * instance.n < instance.m:
            raise ValueError("c must be at least ceil(m/n)")
        self.instance = instance
        self.c = c
        self.dummies = _fresh_dummy_ids(instance.items, c * instance.n - instance.m)
        self.items = instance.items + self.dummies
        self.representatives = tuple(
            (agent, k) for agent in instance.agents for k in range(1, c + 1)
        )
        # One None per representative follows, so a negative index names no agent.
        self.agent_of = tuple(a for a, _ in self.representatives) + (None,) * c * instance.n
        tiers = ordinal_from_utilities(instance).tiers
        self.orders = {
            a: tuple(chain.from_iterable(tiers[a])) + self.dummies for a in instance.agents
        }


def pad_with_dummies(instance: Instance, c: int) -> PaddedInstance:
    """Add c*n - m fresh dummy items, ranked below everything, so that
    every agent's bundle can hold c units (c at least ceil(m/n)).
    """
    return PaddedInstance(instance, c)


def re_eat(
    bundles: Mapping[str, Mapping[str, Fraction]], padded: PaddedInstance
) -> tuple[list[dict[int, int]], int]:
    """Let each agent re-eat its bundle at unit speed in its re-eating
    order; representative k receives what was eaten during [k-1, k].  The
    (cn) x (cn) bistochastic matrix this gives, indexed by
    ``padded.representatives`` and ``padded.items``, comes as its rows
    times L, the lcm of the bundle denominators, in sparse form (column ->
    positive int), and L: a window of L units feeds one representative."""
    c = padded.c
    col = {o: j for j, o in enumerate(padded.items)}
    scale = lcm(*(v.denominator for bundle in bundles.values() for v in bundle.values()))
    rows: list[dict[int, int]] = []
    for agent in padded.instance.agents:
        # Zero entries add nothing and are not eaten.
        row = {o: v.numerator * (scale // v.denominator)
               for o, v in bundles[agent].items() if v}
        mass = sum(row.values())
        if mass != c * scale:
            raise ValueError(f"bundle of {agent!r} has mass {Fraction(mass, scale)}, expected {c}")
        if min(row.values()) < 0:
            raise ValueError("negative bundle entry")
        reps: list[dict[int, int]] = [{} for _ in range(c)]
        window, room = 0, scale  # the window being fed, and what it still takes
        for o in filter(row.__contains__, padded.orders[agent]):
            j, amount = col[o], row[o]
            # An item is eaten in one stretch: one bite per window.
            while amount >= room:
                reps[window][j] = room
                window, room, amount = window + 1, scale, amount - room
            if amount:
                reps[window][j] = amount
                room -= amount
        rows += reps
    return rows, scale


def project(holders: Sequence[int], padded: PaddedInstance) -> DeterministicAllocation:
    """Turn a permutation of the padded universe, given by the
    representative that holds each padded item, into an allocation of the
    real items: each goes to its holder's agent, and the dummies, which
    follow them, are dropped.  The holders are not checked to form a
    permutation, only to be representatives."""
    instance = padded.instance
    m = instance.m
    try:  # an index past agent_of, or one of its Nones as an owner
        owners = itemgetter(*holders[:m])(padded.agent_of)
        return DeterministicAllocation(instance.agents, instance.items,
                                       owners if m > 1 else (owners,))
    except (IndexError, ValueError):
        raise ValueError("holder is not a representative") from None


def support_bound(c: int, n: int) -> int:
    """Largest possible support size of the decomposition: k^2 - 2k + 2
    for k = cn (each extraction zeroes an entry, the last zeroes k).
    """
    k = c * n
    return k * k - 2 * k + 2


class Plan(_Frozen):
    """One eating run, ready to be implemented as a lottery.

    ``expected`` is the eating outcome over the real items, ``padded`` the
    instance padded with the c the bundles actually fill, and ``bundles``
    what each agent re-eats (real items plus dummy mass, c in total).
    """

    _fields = ("expected", "padded", "bundles")


def plan(instance: Instance, rule: str = "ps", skip_zero: bool = False) -> Plan:
    """Run the eating rule on the instance, then pad it to match.

    rule="ps" breaks all preference ties lexicographically and runs the
    serial eating rule; rule="eps" keeps real ties and runs coordinated
    eating (the outcome is then SD-efficient).  ``skip_zero`` (binary
    utilities, rule="eps" only) makes agents ignore zero-valued items.

    Each bundle is then filled up with dummy mass to c units, the largest
    load rounded up (at least ceil(m/n), as the loads add up to m).
    Without ``skip_zero`` every agent eats m/n and gets 1/n of every
    dummy: the bundles of eating the padded instance, where the dummies
    rank below every real item and all n agents eat each one together.
    With ``skip_zero`` the loads differ, and dummy mass is dealt out in
    one sweep over the agents so that dummy columns still sum to one.
    """
    if rule not in ("ps", "eps"):
        raise ValueError(f"unknown rule {rule!r}")
    if skip_zero and rule != "eps":
        raise ValueError("skip_zero is only available with rule='eps'")
    if rule == "ps":
        strict = ordinal_from_utilities(instance).strictified()
        outcome, _trace = ps_outcome(instance.agents, instance.items, strict)
    else:
        outcome, _trace = eps_outcome(instance, "skip_zero" if skip_zero else "standard")
    int_rows, scale = outcome.integer_form()
    rows = {a: {instance.items[j]: cells[j] for j in row}
            for a, row, cells in zip(instance.agents, int_rows, outcome.entries)}
    loads = {a: Fraction(sum(row.values()), scale) for a, row in zip(instance.agents, int_rows)}
    c = max(map(ceil, loads.values()))
    padded = pad_with_dummies(instance, c)
    if not skip_zero:
        share = Fraction(1, instance.n)
        for row in rows.values():
            row.update(dict.fromkeys(padded.dummies, share))
    else:
        pos, offset = 0, Fraction(0)  # a point on the line of unit-mass dummies
        for agent in instance.agents:
            need = c - loads[agent]
            while need > 0:
                bite = min(need, 1 - offset)
                rows[agent][padded.dummies[pos]] = bite
                need -= bite
                offset += bite
                if offset == 1:
                    pos, offset = pos + 1, Fraction(0)
    return Plan(outcome, padded, rows)


def implement(planned: Plan) -> Lottery:
    """Re-eat the planned bundles, decompose, project and merge: a lottery
    whose expectation is exactly ``planned.expected``."""
    padded = planned.padded
    parts = birkhoff_decompose(*re_eat(planned.bundles, padded))
    return Lottery(tuple((weight, project(holders, padded)) for weight, holders in parts)).merged()


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


def _independent_mod2(masks: list[int]) -> bool:
    """True when the bitmasks are linearly independent over GF(2).

    The basis is keyed by top bit: a mask is reduced by the pivot of its
    top bit until that bit has no pivot (the mask joins the basis) or the
    mask is zero (it depends on the earlier ones).
    """
    pivots: dict[int, int] = {}  # bit_length() -> basis mask
    for mask in masks:
        while (top := mask.bit_length()) in pivots:
            mask ^= pivots[top]
        if not mask:
            return False
        pivots[top] = mask
    return True


def _find_affine_dependency(masks: list[int], dim: int) -> list[int] | None:
    """Nonzero integer coefficients summing a set of 0/1 vectors (with an
    affine trailing 1) to zero, or None when they are affinely independent.
    Each vector is a bitmask over ``dim`` coordinates, bit b holding
    coordinate b.

    A bitmask elimination over GF(2) runs first: 0/1 vectors that are
    independent mod 2 are independent over the rationals, which settles
    the common case without exact arithmetic.
    """
    if _independent_mod2(masks):
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


def _last_users_cover(lottery: Lottery) -> bool:
    """True when every support allocation is the last to give some item
    to some agent, which proves the support linearly, hence affinely,
    independent: in a vanishing combination, the first allocation with a
    nonzero coefficient would be alone at that cell.  False proves nothing.
    """
    indices = range(len(lottery.entries))
    last: set[int] = set()
    for item_owners in zip(*(allocation.owners for _, allocation in lottery.entries)):
        last.update(dict(zip(item_owners, indices)).values())
    return len(last) == len(indices)


def reduce_support(lottery: Lottery) -> Lottery:
    """Shrink a lottery's support without changing its expectation.

    Duplicates merge first.  A support that ``_last_users_cover`` proves
    independent stays as it is; otherwise, while the allocations'
    vectorizations are affinely dependent, weights are shifted along a
    kernel vector until one hits zero exactly and that allocation is
    dropped.  An affinely independent support over an n x m universe has
    at most nm + 1 elements.
    """
    lottery = lottery.merged()
    if not _last_users_cover(lottery):
        lottery = _eliminate(lottery)
    if len(lottery.entries) > len(lottery.agents) * len(lottery.items) + 1:
        raise AssertionError("independent support exceeds the Caratheodory bound")
    return lottery


def _eliminate(lottery: Lottery) -> Lottery:
    """``reduce_support``'s elimination, on a merged lottery."""
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
    return Lottery(tuple((w, alloc) for w, alloc, _ in entries))
