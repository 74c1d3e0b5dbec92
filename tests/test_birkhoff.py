import contextlib
import io
import json
import random
import sys
from fractions import Fraction as F

import pytest

from fairlot import birkhoff_decompose, expected_allocation, fileio
from fairlot.birkhoff import _complete_matching
from fairlot.cli import _load_instance, main
from fairlot.pslottery import plan
from references import is_bistochastic

# Matrices as sparse integer rows (column -> entry times the scale).
IDENTITY_3 = ([{0: 1}, {1: 1}, {2: 1}], 1)
HALVES_2 = ([{0: 1, 1: 1}, {0: 1, 1: 1}], 2)

# Representative-matrix of the worked example: rows 1_1, 1_2, 2_1, 2_2
# over columns a, b, c, d, each entry 1/2.
EXAMPLE_Q = ([{0: 1, 1: 1}, {1: 1, 3: 1}, {0: 1, 2: 1}, {2: 1, 3: 1}], 2)


def dense(rows, scale):
    return tuple(tuple(F(row.get(j, 0), scale) for j in range(len(rows))) for row in rows)


def recompose(parts, k):
    out = [[F(0)] * k for _ in range(k)]
    for weight, holders in parts:
        for c, r in enumerate(holders):
            out[r][c] += weight
    return tuple(tuple(row) for row in out)


def mixture(rng, k, count):
    """Sparse rows of a random mixture of ``count`` permutation matrices
    with integer weights, on the scale of their total."""
    rows = [{} for _ in range(k)]
    weights = [rng.randint(1, 6) for _ in range(count)]
    for w in weights:
        perm = list(range(k))
        rng.shuffle(perm)
        for r, c in enumerate(perm):
            rows[r][c] = rows[r].get(c, 0) + w
    return rows, sum(weights)


def test_is_bistochastic():
    assert is_bistochastic(dense(*IDENTITY_3))
    assert is_bistochastic(dense(*HALVES_2))
    assert not is_bistochastic(((F(1), F(0)), (F(1), F(0))))
    assert not is_bistochastic(((F(1), F(0)),))


def test_decompose_identity():
    parts = birkhoff_decompose(*IDENTITY_3)
    assert parts == [(F(1), (0, 1, 2))]


def test_decompose_halves():
    parts = birkhoff_decompose(*HALVES_2)
    assert parts == [(F(1, 2), (0, 1)), (F(1, 2), (1, 0))]


def test_decompose_example_matrix():
    parts = birkhoff_decompose(*EXAMPLE_Q)
    assert parts == [(F(1, 2), (0, 1, 2, 3)), (F(1, 2), (2, 0, 3, 1))]
    assert recompose(parts, 4) == dense(*EXAMPLE_Q)


@pytest.mark.parametrize("rows, scale", [
    ([{0: 1}, {0: 1}], 1),  # column 0 sums to 2, column 1 to 0
    ([{0: 1, 1: 0}, {1: 1}], 1),  # a zero entry
    ([{0: 2, 1: -1}, {0: -1, 1: 2}], 1),  # negative entries
    ([{0: 1, 2: 1}, {0: 1, 1: 1}], 2),  # column 2 of a 2 x 2 matrix
    ([{0: 1, -1: 1}, {0: 1, 1: 1}], 2),  # column -1, which would wrap to column 1
])
def test_decompose_rejects_non_bistochastic(rows, scale):
    with pytest.raises(ValueError, match="^matrix is not bistochastic$"):
        birkhoff_decompose(rows, scale)


def test_residual_invariant_stepwise():
    # After extracting each part, the residual scaled by the remaining
    # weight must still be bistochastic.
    rows, scale = mixture(random.Random(7), 6, 8)
    parts = birkhoff_decompose(rows, scale)
    residual = [list(row) for row in dense(rows, scale)]
    left = F(1)
    for w, holders in parts[:-1]:
        for c, r in enumerate(holders):
            residual[r][c] -= w
        left -= w
        scaled = tuple(tuple(v / left for v in row) for row in residual)
        assert is_bistochastic(scaled)


def test_decompose_recompose_fuzz():
    rng = random.Random(8)
    for _ in range(80):
        k = rng.randint(1, 12)
        rows, scale = mixture(rng, k, rng.randint(1, 2 * k))
        parts = birkhoff_decompose(rows, scale)
        assert sum(w for w, _ in parts) == 1
        assert all(0 < w <= 1 for w, _ in parts)
        assert all(sorted(holders) == list(range(k)) for _, holders in parts)
        assert len(parts) <= max(1, k * k - 2 * k + 2)
        assert recompose(parts, k) == dense(rows, scale)


def test_decompose_on_the_lcm_scale():
    # Entries 1/6, 1/10 and 11/15 on their lcm scale 30, not on the
    # largest denominator; each weight comes out in lowest terms.
    w = (5, 3, 22)
    rows = [dict(enumerate(w)), dict(enumerate((w[1], w[2], w[0]))),
            dict(enumerate((w[2], w[0], w[1])))]
    parts = birkhoff_decompose(rows, 30)
    assert parts == [(F(1, 10), (0, 1, 2)), (F(1, 10), (2, 0, 1)), (F(1, 15), (0, 2, 1)),
                     (F(1, 10), (1, 2, 0)), (F(19, 30), (2, 1, 0))]
    assert recompose(parts, 3) == dense(rows, 30)


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
