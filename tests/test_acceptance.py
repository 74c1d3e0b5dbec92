"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is exact (structural rational equality) unless the
criterion itself is about wall-clock time.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction as F

from fairlot import (
    DeterministicAllocation,
    Instance,
    Lottery,
    RandomAllocation,
    birkhoff_decompose,
    check_ef1,
    check_po_bruteforce,
    check_rb,
    check_sd_ef,
    check_sd_ef1,
    check_sd_efficient,
    check_strong_ef1,
    eps_outcome,
    expected_allocation,
    ordinal_from_utilities,
    ps_lottery,
    ps_outcome,
    reduce_support,
    support_bound,
)
from fairlot.cli import main
from fairlot.fairness import pareto_front
from fairlot.oracle import (
    InfeasibilityCertificate,
    enumerate_allocations,
    implementable_by,
    sd_improvement_exists,
)
from conftest import binary_instance, consistent_utilities, strict_instance, weak_instance
from references import is_bistochastic, leximin_bruteforce, scaled_rows, utility_of_bundle

EXAMPLE = {
    "agents": ["1", "2"],
    "items": ["a", "b", "c", "d"],
    "utilities": {
        "1": {"a": "4", "b": "3", "c": "2", "d": "1"},
        "2": {"a": "4", "b": "2", "c": "3", "d": "1"},
    },
}

IMPOSSIBILITY_INSTANCE = Instance.from_utilities(
    {
        "1": {"a": 7, "b1": 1, "b2": 1, "b3": 1},
        "2": {"a": 4, "b1": 2, "b2": 2, "b3": 2},
    },
    agents=["1", "2"],
    items=["a", "b1", "b2", "b3"],
)


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def report(number, title, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {title}: PASS{suffix}")


def test_criterion_01_worked_example(tmp_path):
    started = time.perf_counter()
    instance_path = tmp_path / "example.json"
    instance_path.write_text(json.dumps(EXAMPLE))
    code, out = run_cli(["solve", "--rule", "ps", "--input", str(instance_path)])
    assert code == 0
    assert json.loads(out)["entries"] == [
        ["1/2", "1", "0", "1/2"],
        ["1/2", "0", "1", "1/2"],
    ]
    lottery_path = tmp_path / "lottery.json"
    code, _ = run_cli(
        ["lottery", "--rule", "ps", "--input", str(instance_path), "--out", str(lottery_path)]
    )
    assert code == 0
    doc = json.loads(lottery_path.read_text())
    support = {
        tuple(sorted(entry["assignment"].items())): entry["weight"]
        for entry in doc["support"]
    }
    assert support == {
        (("a", "1"), ("b", "1"), ("c", "2"), ("d", "2")): "1/2",
        (("a", "2"), ("b", "1"), ("c", "2"), ("d", "1")): "1/2",
    }
    assert doc["expected"] == [["1/2", "1", "0", "1/2"], ["1/2", "0", "1", "1/2"]]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "worked-example reproduction", f"{elapsed:.3f}s")


def test_criterion_02_strict_fuzz_1000():
    rng = random.Random(20240)
    started = time.perf_counter()
    max_support = 0
    for _ in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 12)
        inst = strict_instance(rng, n, m)
        prefs = ordinal_from_utilities(inst)
        lottery, expected = ps_lottery(inst, rule="ps")
        serial, _ = ps_outcome(inst.agents, inst.items, prefs)
        assert expected == serial
        assert expected_allocation(lottery) == serial
        c = -(-m // n)
        assert len(lottery.entries) <= support_bound(c, n)
        max_support = max(max_support, len(lottery.entries))
        for _weight, alloc in lottery.entries:
            assert check_sd_ef1(alloc, prefs).ok
            assert check_strong_ef1(alloc, inst).ok
            assert check_rb(alloc, prefs, c).ok
        for _ in range(20):
            redraw = consistent_utilities(rng, inst)
            for _weight, alloc in lottery.entries:
                assert check_ef1(
                    DeterministicAllocation(redraw.agents, redraw.items, alloc.owners),
                    redraw,
                ).ok
        reduced = reduce_support(lottery)
        assert len(reduced.entries) <= n * m + 1
        assert expected_allocation(reduced) == serial
        assert {al.owners for _, al in reduced.entries} <= {
            al.owners for _, al in lottery.entries
        }
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(2, "1000-instance strict fuzz", f"{elapsed:.1f}s, max support {max_support}")


def test_criterion_03_runtime_scaling(tmp_path):
    times = {}
    for size in (32, 50, 64):
        code, out = run_cli(
            ["gen", "--agents", str(size), "--items", str(size), "--seed", "7"]
        )
        assert code == 0
        instance_path = tmp_path / f"i{size}.json"
        instance_path.write_text(out)
        out_path = tmp_path / f"l{size}.json"
        started = time.perf_counter()
        code, _ = run_cli(
            ["lottery", "--rule", "ps", "--input", str(instance_path), "--out", str(out_path)]
        )
        times[size] = time.perf_counter() - started
        assert code == 0
    assert times[50] < 10.0
    ratio = times[64] / max(times[32], 0.01)
    assert ratio <= 32.0
    report(
        3,
        "runtime bound",
        f"n=m=50 in {times[50]:.2f}s; 64/32 ratio {ratio:.1f} <= 32",
    )


def test_criterion_04_weak_order_eps_suite():
    rng = random.Random(20244)
    started = time.perf_counter()
    tied = 0
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 8)
        inst = weak_instance(rng, n, m)
        prefs = ordinal_from_utilities(inst)
        if not all(len(t) == 1 for a in prefs.agents for t in prefs.tiers[a]):
            tied += 1
        lottery, expected = ps_lottery(inst, rule="eps")
        out, _ = eps_outcome(inst, mode="standard")
        assert expected == out
        assert expected_allocation(lottery) == out
        verdict = check_sd_efficient(out, prefs)
        assert verdict.ok
        assert sd_improvement_exists(out, prefs) is None
        for _weight, alloc in lottery.entries:
            assert check_sd_ef1(alloc, prefs).ok
    elapsed = time.perf_counter() - started
    report(4, "weak-order eps suite (200)", f"{elapsed:.1f}s, {tied} tied profiles")


def test_criterion_05_oracle_desk_scale(tmp_path):
    rng = random.Random(20245)
    started = time.perf_counter()
    outcomes = []
    for n, m in [(2, 4), (2, 8), (2, 12), (3, 7), (4, 6)]:
        assert n ** m <= 4096
        inst = strict_instance(rng, n, m)
        optima = pareto_front(inst)[0]
        allowed = [alloc for alloc in optima if check_ef1(alloc, inst).ok]
        _, target = ps_lottery(inst, rule="ps")
        result = implementable_by(target, allowed)
        if isinstance(result, Lottery):
            assert expected_allocation(result) == target
            outcomes.append("witness")
        else:
            assert isinstance(result, InfeasibilityCertificate)
            assert result.verify()
            outcomes.append("certificate")
    # exercise the command-line surface on the impossibility instance
    instance_path = tmp_path / "impossible.json"
    instance_path.write_text(json.dumps({
        "agents": ["1", "2"],
        "items": ["a", "b1", "b2", "b3"],
        "utilities": {
            "1": {"a": "7", "b1": "1", "b2": "1", "b3": "1"},
            "2": {"a": "4", "b1": "2", "b2": "2", "b3": "2"},
        },
    }))
    matrix_path = tmp_path / "impossible-target.json"
    matrix_path.write_text(json.dumps({
        "rows": ["1", "2"],
        "items": ["a", "b1", "b2", "b3"],
        "entries": [["1/2"] * 4, ["1/2"] * 4],
    }))
    code, out = run_cli([
        "oracle", "--filter", "ef1-po",
        "--input", str(instance_path), "--allocation", str(matrix_path),
    ])
    doc = json.loads(out)
    assert code == 1 and doc["feasible"] is False and doc["certificate_verified"]
    elapsed = time.perf_counter() - started
    report(5, "oracle at desk scale", f"{elapsed:.1f}s, outcomes {outcomes}")


def test_criterion_06_impossibility_regression():
    allocations = enumerate_allocations(IMPOSSIBILITY_INSTANCE.agents,
                                        IMPOSSIBILITY_INSTANCE.items)
    assert len(allocations) == 16
    optima = pareto_front(IMPOSSIBILITY_INSTANCE)[0]
    allowed = [alloc for alloc in optima if check_ef1(alloc, IMPOSSIBILITY_INSTANCE).ok]
    assert allowed, "the EF1-and-PO set must be nonempty"
    assert all(alloc.owner_map()["a"] == "1" for alloc in allowed)
    half = F(1, 2)
    sd_ef_matrix = RandomAllocation(
        IMPOSSIBILITY_INSTANCE.agents, IMPOSSIBILITY_INSTANCE.items, ((half,) * 4, (half,) * 4)
    )
    assert check_sd_ef(sd_ef_matrix, ordinal_from_utilities(IMPOSSIBILITY_INSTANCE)).ok
    result = implementable_by(sd_ef_matrix, allowed)
    assert isinstance(result, InfeasibilityCertificate)
    assert result.verify()
    report(6, "ex-post EF1+PO impossibility regression",
           f"{len(allowed)} EF1&PO allocations, all give item a to agent 1")


def test_criterion_07_fractional_efficiency_impossibility():
    inst = Instance.from_utilities(
        {"1": {"a": 4, "b": 1}, "2": {"a": 3, "b": 2}},
        agents=["1", "2"], items=["a", "b"],
    )
    half = F(1, 2)
    uniform = RandomAllocation(inst.agents, inst.items, ((half, half), (half, half)))
    assert check_sd_ef(uniform, ordinal_from_utilities(inst)).ok
    from references import pareto_improvement_exists

    witness = pareto_improvement_exists(uniform, inst)
    assert witness is not None
    for agent in inst.agents:
        assert utility_of_bundle(inst, agent, witness.row(agent)) >= utility_of_bundle(
            inst, agent, uniform.row(agent)
        )
    total_before = sum(
        utility_of_bundle(inst, a, uniform.row(a)) for a in inst.agents
    )
    total_after = sum(
        utility_of_bundle(inst, a, witness.row(a)) for a in inst.agents
    )
    assert total_after > total_before
    assert witness.row("1")["b"] == 0 or witness.row("2")["a"] == 1
    report(7, "ex-ante fPO vs SD-EF impossibility regression",
           f"improving witness {[ [str(v) for v in row] for row in witness.entries]}")


def test_criterion_08_binary_suite():
    rng = random.Random(20248)
    started = time.perf_counter()
    misreports = 0
    for trial in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        inst = binary_instance(rng, n, m)
        outcome, _ = eps_outcome(inst, mode="skip_zero")
        vector, _witness = leximin_bruteforce(inst)
        got = tuple(
            sorted(utility_of_bundle(inst, a, outcome.row(a)) for a in inst.agents)
        )
        assert got == vector
        lottery, expected = ps_lottery(inst, rule="eps", skip_zero=True)
        assert expected == outcome
        assert expected_allocation(lottery) == outcome
        seen = set()
        for _weight, alloc in lottery.entries:
            if alloc.owners in seen:
                continue
            seen.add(alloc.owners)
            assert check_po_bruteforce(alloc, inst).ok
        truthful = {
            a: utility_of_bundle(inst, a, outcome.row(a)) for a in inst.agents
        }
        table = {a: inst.utility_row(a) for a in inst.agents}
        for liar in inst.agents:
            for mask in range(1, 2 ** m):
                misreport = {
                    o: (mask >> j) & 1 for j, o in enumerate(inst.items)
                }
                lied = Instance.from_utilities(
                    {a: (misreport if a == liar else table[a]) for a in inst.agents},
                    agents=inst.agents, items=inst.items,
                )
                out2, _ = eps_outcome(lied, mode="skip_zero")
                misreports += 1
                assert utility_of_bundle(inst, liar, out2.row(liar)) <= truthful[liar]
        # small random coalitions: joint misreports must not make every
        # member weakly better with someone strictly better
        if n >= 2 and trial % 10 == 0:
            agents = list(inst.agents)
            for _ in range(3):
                pair = rng.sample(agents, 2)
                lied_table = dict(table)
                for member in pair:
                    lied_table[member] = {
                        o: rng.randint(0, 1) for o in inst.items
                    }
                lied = Instance.from_utilities(
                    lied_table, agents=inst.agents, items=inst.items
                )
                out2, _ = eps_outcome(lied, mode="skip_zero")
                gains = [
                    utility_of_bundle(inst, member, out2.row(member))
                    - truthful[member]
                    for member in pair
                ]
                assert not (min(gains) >= 0 and max(gains) > 0)
    elapsed = time.perf_counter() - started
    report(8, "binary-utility suite (200)",
           f"{elapsed:.1f}s, {misreports} exhaustive misreports")


def test_criterion_09_birkhoff_suite():
    rng = random.Random(20249)
    started = time.perf_counter()
    for _ in range(500):
        k = rng.randint(1, 12)
        permutations = []
        for _ in range(rng.randint(1, 2 * k)):
            perm = list(range(k))
            rng.shuffle(perm)
            permutations.append(tuple(perm))
        weights = [F(rng.randint(1, 6)) for _ in permutations]
        total = sum(weights)
        weights = [w / total for w in weights]
        matrix = [[F(0)] * k for _ in range(k)]
        for w, perm in zip(weights, permutations):
            for r in range(k):
                matrix[r][perm[r]] += w
        parts = birkhoff_decompose(*scaled_rows(matrix))
        assert len(parts) <= max(1, k * k - 2 * k + 2)
        residual = [list(row) for row in matrix]
        left = F(1)
        recomposed = [[F(0)] * k for _ in range(k)]
        for w, holders in parts:
            for c, r in enumerate(holders):
                residual[r][c] -= w
                recomposed[r][c] += w
            left -= w
            if left > 0:
                scaled = tuple(tuple(v / left for v in row) for row in residual)
                assert is_bistochastic(scaled)
        assert left == 0
        assert all(v == 0 for row in residual for v in row)
        assert [tuple(row) for row in recomposed] == [tuple(row) for row in matrix]
    elapsed = time.perf_counter() - started
    report(9, "Birkhoff property suite (500)", f"{elapsed:.1f}s")


def test_criterion_10_not_every_implementation_is_fair():
    inst = Instance.from_utilities(
        {"1": {"a": 2, "b": 1}, "2": {"a": 2, "b": 1}},
        agents=["1", "2"], items=["a", "b"],
    )
    prefs = ordinal_from_utilities(inst)
    serial, _ = ps_outcome(inst.agents, inst.items, prefs)
    all_to_1 = DeterministicAllocation(inst.agents, inst.items, ("1", "1"))
    all_to_2 = DeterministicAllocation(inst.agents, inst.items, ("2", "2"))
    half = F(1, 2)
    coin_toss = Lottery(((half, all_to_1), (half, all_to_2)))
    assert expected_allocation(coin_toss) == serial
    verdicts = [check_ef1(alloc, inst) for _, alloc in coin_toss.entries]
    assert all(not v.ok for v in verdicts)
    lottery, expected = ps_lottery(inst, rule="ps")
    assert expected == serial
    for _weight, alloc in lottery.entries:
        assert check_ef1(alloc, inst).ok
    report(10, "PS implementation counterexample",
           "coin-toss lottery fails EF1, pipeline lottery passes")
