import contextlib
import io
import json
import random
import sys
from fractions import Fraction as F

import pytest

from fairlot import birkhoff_decompose, expected_allocation, fileio, is_bistochastic
from fairlot.birkhoff import _complete_matching
from fairlot.cli import _load_instance, main
from fairlot.pslottery import plan

IDENTITY_3 = tuple(
    tuple(F(1) if i == j else F(0) for j in range(3)) for i in range(3)
)
HALVES_2 = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

# Representative-matrix of the worked example: rows 1_1, 1_2, 2_1, 2_2
# over columns a, b, c, d.
EXAMPLE_Q = (
    (F(1, 2), F(1, 2), F(0), F(0)),
    (F(0), F(1, 2), F(0), F(1, 2)),
    (F(1, 2), F(0), F(1, 2), F(0)),
    (F(0), F(0), F(1, 2), F(1, 2)),
)


def recompose(parts, k):
    out = [[F(0)] * k for _ in range(k)]
    for weight, perm in parts:
        for r in range(k):
            out[r][perm[r]] += weight
    return tuple(tuple(row) for row in out)


def test_is_bistochastic():
    assert is_bistochastic(IDENTITY_3)
    assert is_bistochastic(HALVES_2)
    assert not is_bistochastic(((F(1), F(0)), (F(1), F(0))))
    assert not is_bistochastic(((F(1), F(0)),))


def test_decompose_identity():
    parts = birkhoff_decompose(IDENTITY_3)
    assert parts == [(F(1), (0, 1, 2))]


def test_decompose_halves():
    parts = birkhoff_decompose(HALVES_2)
    assert parts == [(F(1, 2), (0, 1)), (F(1, 2), (1, 0))]


def test_decompose_example_matrix():
    parts = birkhoff_decompose(EXAMPLE_Q)
    assert parts == [(F(1, 2), (0, 1, 2, 3)), (F(1, 2), (1, 3, 0, 2))]
    assert recompose(parts, 4) == EXAMPLE_Q


def test_decompose_rejects_non_bistochastic():
    with pytest.raises(ValueError):
        birkhoff_decompose(((F(1), F(0)), (F(1), F(0))))


def test_residual_invariant_stepwise():
    # After extracting each part, the residual scaled by the remaining
    # weight must still be bistochastic.
    rng = random.Random(7)
    k = 6
    perms = []
    for _ in range(8):
        p = list(range(k))
        rng.shuffle(p)
        perms.append(tuple(p))
    weights = [F(rng.randint(1, 5)) for _ in perms]
    total = sum(weights)
    weights = [w / total for w in weights]
    matrix = [[F(0)] * k for _ in range(k)]
    for w, p in zip(weights, perms):
        for r in range(k):
            matrix[r][p[r]] += w
    parts = birkhoff_decompose(matrix)
    residual = [list(row) for row in matrix]
    left = F(1)
    for w, perm in parts[:-1]:
        for r in range(k):
            residual[r][perm[r]] -= w
        left -= w
        scaled = tuple(tuple(v / left for v in row) for row in residual)
        assert is_bistochastic(scaled)


def test_decompose_recompose_fuzz():
    rng = random.Random(8)
    for _ in range(80):
        k = rng.randint(1, 12)
        perms = []
        for _ in range(rng.randint(1, 2 * k)):
            p = list(range(k))
            rng.shuffle(p)
            perms.append(tuple(p))
        weights = [F(rng.randint(1, 6)) for _ in perms]
        total = sum(weights)
        weights = [w / total for w in weights]
        matrix = [[F(0)] * k for _ in range(k)]
        for w, p in zip(weights, perms):
            for r in range(k):
                matrix[r][p[r]] += w
        parts = birkhoff_decompose(matrix)
        assert sum(w for w, _ in parts) == 1
        assert all(0 < w <= 1 for w, _ in parts)
        assert len(parts) <= max(1, k * k - 2 * k + 2)
        assert recompose(parts, k) == tuple(tuple(row) for row in matrix)


def test_decompose_on_the_lcm_scale():
    # Entry denominators 6, 10 and 15: the common scale is their lcm 30,
    # not the largest denominator.
    w = (F(1, 6), F(1, 10), F(11, 15))
    matrix = (w, (w[1], w[2], w[0]), (w[2], w[0], w[1]))
    assert is_bistochastic(matrix)
    parts = birkhoff_decompose(matrix)
    assert parts == [(F(1, 10), (0, 1, 2)), (F(1, 10), (1, 2, 0)), (F(1, 15), (0, 2, 1)),
                     (F(1, 10), (2, 0, 1)), (F(19, 30), (2, 1, 0))]
    assert recompose(parts, 3) == matrix


def test_augmenting_path_longer_than_the_recursion_limit():
    # Row r + 1 holds column r, and row r is adjacent to columns r - 1 and
    # r: matching row 0 shifts every row, along one path through all k
    # rows, far deeper than the interpreter's recursion limit.
    k = 3 * sys.getrecursionlimit()
    adjacency = [[0]] + [[r - 1, r] for r in range(1, k)]
    match_col = list(range(1, k)) + [-1]
    assert _complete_matching(adjacency, match_col, [0]) == list(range(k - 1, -1, -1))
    assert match_col == list(range(k))


def test_lottery_at_20x4000_builds_and_recomposes_its_outcome(tmp_path):
    # 20 agents, c = 200: an augmenting path runs through more rows than
    # the recursion limit allows frames.
    instance, lottery = tmp_path / "instance.json", tmp_path / "lottery.json"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["gen", "--agents", "20", "--items", "4000", "--seed", "7"]) == 0
    instance.write_text(out.getvalue())
    assert main(["lottery", "--rule", "ps", "--input", str(instance),
                 "--out", str(lottery)]) == 0
    built, _, _ = fileio.lottery_from_obj(json.loads(lottery.read_text()))
    planned = plan(_load_instance(str(instance)), "ps", False)
    assert expected_allocation(built) == planned.expected
