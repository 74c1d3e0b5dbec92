"""The exact LP layer against an independent solver.  ``solve_lp``, and
the LPs that ``implementable_by`` and ``sd_improvement_exists`` hand it,
are solved again by HiGHS (``scipy.optimize.linprog``); status and
objective must agree.  Floats, and their tolerance, live in this file
alone.  Every ``solve_lp`` answer is first replayed exactly (its point,
or its Farkas vector), and where HiGHS disagrees, that certificate
decides."""

import contextlib
import io
import json
import random
from fractions import Fraction as F
from operator import mul
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from fairlot import (RandomAllocation, enumerate_allocations, eps_outcome, expected_allocation,
                     implementable_by, ordinal_from_utilities, pareto_front,
                     sd_improvement_exists)
from fairlot import oracle
from fairlot.cli import main
from fairlot.simplex import solve_lp, verify_farkas
from conftest import weak_instance
from test_cli import EXAMPLE

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
TOLERANCE = 1e-7


def replayed(objective, rows, rhs, result) -> str:
    """``result.status``, once ``result``'s certificate holds exactly."""
    if result.status == "optimal":
        assert min(result.x) >= 0
        assert [sum(map(mul, row, result.x)) for row in rows] == list(rhs)
        assert result.objective == sum(map(mul, objective, result.x))
    elif result.status == "infeasible":
        assert verify_farkas(rows, rhs, result.farkas)
    return result.status


def agrees_with_highs(objective, rows, rhs, result) -> None:
    ours = replayed(objective, rows, rhs, result)
    highs = linprog([float(c) for c in objective], A_eq=[[float(v) for v in row] for row in rows],
                    b_eq=[float(b) for b in rhs], bounds=(0, None), method="highs")
    theirs = HIGHS_STATUS.get(highs.status, highs.message)
    if theirs != ours:
        # Only an exact certificate outweighs a float answer: a Farkas
        # vector refutes any feasible one, a feasible point an infeasible one.
        assert ours == "infeasible" or (ours, theirs) == ("optimal", "infeasible"), (ours, theirs)
        event("HiGHS refuted by the exact certificate")
    elif ours == "optimal":
        assert abs(float(result.objective) - highs.fun) <= TOLERANCE * (1 + abs(highs.fun))


def lps_of(call, *args):
    """``call(*args)``, and every (objective, rows, rhs, result) that it
    hands ``solve_lp`` on the way."""
    seen = []

    def solve(objective, rows, rhs):
        result = solve_lp(objective, rows, rhs)
        seen.append((objective, rows, rhs, result))
        return result

    with mock.patch.object(oracle, "solve_lp", solve):
        return call(*args), seen


small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def lps(draw):
    """Equality-form LPs of up to 5 rows and 7 columns, small rationals."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    line = st.lists(small, min_size=cols, max_size=cols)
    return (draw(line), draw(st.lists(line, min_size=rows, max_size=rows)),
            draw(st.lists(small, min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lps())
def test_solve_lp_agrees_with_highs(lp):
    result = solve_lp(*lp)
    event(result.status)
    agrees_with_highs(*lp, result)


IMPOSSIBLE = {
    "agents": ["1", "2"],
    "items": ["a", "b1", "b2", "b3"],
    "utilities": {"1": {"a": "7", "b1": "1", "b2": "1", "b3": "1"},
                  "2": {"a": "4", "b1": "2", "b2": "2", "b3": "2"}},
}


# The oracle cases of tests/test_cli.py: instance, target, filter, exit code.
@pytest.mark.parametrize("instance, entries, filter_, code", [
    (EXAMPLE, [["1/2", "1", "0", "1/2"], ["1/2", "0", "1", "1/2"]], "none", 0),
    (EXAMPLE, [["1", "1", "0", "0"], ["0", "0", "1", "1"]], "balanced-po", 0),
    (IMPOSSIBLE, [["1/2"] * 4, ["1/2"] * 4], "ef1-po", 1),
], ids=["feasible", "unit-target", "impossibility"])
def test_oracle_cases_agree_with_highs(tmp_path, instance, entries, filter_, code):
    i_path, m_path = tmp_path / "i.json", tmp_path / "m.json"
    i_path.write_text(json.dumps(instance))
    m_path.write_text(json.dumps({"rows": instance["agents"], "items": instance["items"],
                                  "entries": entries}))
    argv = ["oracle", "--filter", filter_, "--input", str(i_path), "--allocation", str(m_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        got, seen = lps_of(main, argv)
    assert got == code and len(seen) == 1
    agrees_with_highs(*seen[0])


def random_target(rng, n, m):
    """A random allocation matrix: each item's column a random split of
    one unit into quarters."""
    columns = []
    for _ in range(m):
        cuts = sorted(rng.randint(0, 4) for _ in range(n - 1))
        columns.append([F(b - a, 4) for a, b in zip([0, *cuts], [*cuts, 4])])
    return tuple(zip(*columns))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_implementable_by_agrees_with_highs(seed):
    # Over every allocation a matrix is implementable; over the Pareto
    # optima of a weak-order instance often not.
    rng = random.Random(seed)
    inst = weak_instance(rng, rng.randint(2, 3), rng.randint(2, 4))
    target = RandomAllocation(inst.agents, inst.items, random_target(rng, inst.n, inst.m))
    for allowed in (enumerate_allocations(inst.agents, inst.items), pareto_front(inst)[0]):
        answer, seen = lps_of(implementable_by, target, allowed)
        event("implementable" if seen[0][3].status == "optimal" else "not implementable")
        if seen[0][3].status == "optimal":
            assert expected_allocation(answer) == target
        agrees_with_highs(*seen[0])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_sd_improvement_lp_agrees_with_highs(seed):
    # A random matrix is rarely SD-efficient; the eating outcome always is.
    rng = random.Random(seed)
    inst = weak_instance(rng, rng.randint(2, 3), rng.randint(2, 4))
    prefs = ordinal_from_utilities(inst)
    random_p = RandomAllocation(inst.agents, inst.items, random_target(rng, inst.n, inst.m))
    for p in (random_p, eps_outcome(inst)[0]):
        better, seen = lps_of(sd_improvement_exists, p, prefs)
        event("improvable" if better is not None else "SD-efficient")
        agrees_with_highs(*seen[0])
