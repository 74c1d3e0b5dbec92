"""Byte-level pins of CLI output.

Each case writes a small seeded (or hand-written) instance, runs one
``solve``, ``lottery``, ``verify`` or ``oracle`` command and compares the
sha256 of its standard output with a recorded digest, so a refactor that
changes any byte of a document or certificate shows up here.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairlot import DeterministicAllocation, Instance, Lottery, eps_outcome, fileio
from fairlot.cli import main
from fairlot.model import format_rational
from conftest import binary_instance, strict_instance, weak_instance

SRC = str(Path(fileio.__file__).resolve().parents[1])


def repeated_rows(rng, n, m, low=1, high=3):
    """Agents that share a few utility rows, each drawn from low..high."""
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j:02d}" for j in range(1, m + 1)]
    pool = [{o: rng.randint(low, high) for o in items} for _ in range(rng.randint(1, 3))]
    table = {a: rng.choice(pool) for a in agents}
    return Instance.from_utilities(table, agents=agents, items=items)


MAKERS = {
    "strict": strict_instance,
    "tied": weak_instance,
    "binary": binary_instance,
    # Twenty utility levels leave small top tiers that overlap, so eating
    # runs many Dinkelbach rounds (45 at seed 2, 30x60) instead of one.
    "tied20": lambda rng, n, m: weak_instance(rng, n, m, 20),
    "repeated": repeated_rows,
    "repeated01": lambda rng, n, m: repeated_rows(rng, n, m, 0, 1),
    "tied30": lambda rng, n, m: weak_instance(rng, n, m, 30),
}

# (command and flags, instance kind, seed, n, m) -> sha256 of stdout
GOLDEN = {
    (("lottery", "--rule", "ps"), "strict", 1, 4, 7):
        "d09de195510f66102e69799a6bade0810c2e90427026fb892e8197c7e1da9ec7",
    (("lottery", "--rule", "ps"), "tied", 2, 3, 7):
        "f428a4b747d7ac776ab934bf25eabb8f506614efd3d9139030f8476d8ca84e5e",
    (("lottery", "--rule", "ps", "--reduce"), "strict", 1, 4, 7):
        "1eadc517fb0eafa6c2f4c5f84c7277bd7a7ab05b3e282b258e080d6421f54351",
    (("lottery", "--rule", "ps", "--reduce"), "strict", 389, 3, 7):
        "172c2c8a10a214d4f4c565fb47b71f6b282083405752e8097afcb54c9d2127ca",
    (("lottery", "--rule", "eps", "--reduce"), "tied", 529, 3, 7):
        "6f2d12b38aebe45d2dac11bb4bf2408b3c07db8b84c9460ea1228ec4f2c10044",
    (("lottery", "--rule", "eps"), "strict", 3, 3, 5):
        "2f33d32d28b93386869f52a1f460feb720fb69b06beeccd749753fcc75dd0b2d",
    (("lottery", "--rule", "eps"), "tied", 2, 3, 7):
        "ba1afcf98a21cb17cd63616bc58f8929f40adf196e6feef40bb1637c8edf5950",
    (("lottery", "--rule", "eps", "--skip-zero"), "binary", 4, 3, 7):
        "4a7d71bf37f9e0ea286a431d886fa84ef7595b07582b44df0111bafcc4b643bc",
    # Mid-size: weight denominators up to 36 bits at 30x30, and a residual
    # that empties cell by cell, unlike the nearly dense 4x9 pins.
    (("lottery", "--rule", "ps"), "strict", 11, 30, 30):
        "23eb2cd890b957dd647abd207d3987bceb82ee953824b88d492f7a644d439e5e",
    (("lottery", "--rule", "ps", "--reduce"), "strict", 11, 30, 30):
        "fe3f0098925528281845a0779a19768f4bf273fb8a0fd6d43a66bc33c1ee260e",
    (("lottery", "--rule", "eps"), "tied", 5, 12, 30):
        "a61fc7fc832568df45572cdf5dd04e4d0e94f98d8f1d32f7b94d1fa87f61c64e",
    (("lottery", "--rule", "eps", "--skip-zero"), "binary", 13, 12, 30):
        "bc3186e726f310002bd245e10ca80d2b53ce8bfe6ed5b816b44838815d318669",
    (("lottery", "--rule", "eps"), "repeated", 6, 12, 30):
        "2aa3274c1dcc92b1f7afe165a3fa1f3646c2ca84b23e24bbc2cd8515dab50626",
    (("lottery", "--rule", "eps", "--skip-zero"), "repeated01", 6, 12, 30):
        "15048fde924f3088bebcc55efa4e0fb1038b5d39a800e020cac400b52dd35faa",
    (("lottery", "--rule", "eps"), "tied20", 2, 30, 60):
        "5bab1fa4d84aad558442232a43e1d8ac048f4ae10479e75c203b29fcd5881456",
    # n does not divide m: every bundle carries dummy mass into re-eating
    # (5, 2, 5 and 5 dummies).
    (("lottery", "--rule", "ps"), "strict", 11, 7, 30):
        "1bcde92c431fdcabf1ce5e39d32457fe14c411fc10fc7fe278b0ad4bee3d0b8b",
    (("lottery", "--rule", "eps"), "tied", 3, 8, 30):
        "66b801a668eede6e7165d1d6348a23384c6c26734aad46ae1b273c1f822843cf",
    (("lottery", "--rule", "ps", "--reduce"), "tied", 4, 9, 40):
        "0da5ae24899a7da59e02e18b0401950af4a11511ed1eab349b48493c7691c3eb",
    (("lottery", "--rule", "eps", "--skip-zero"), "binary", 7, 7, 30):
        "662eb1ec66853ef507564213f8491e04f24cea597d0405fbad49361a73b4e68f",
    # c = 4 at 40x150: bundles of four units on large denominators cross
    # representative windows mid-item, which c = 1 never does.
    (("lottery", "--rule", "ps"), "strict", 7, 40, 150):
        "d6913aa8e7533a66e45c0ca2e73f36eba1050edd2b853b267be3879562898339",
    (("lottery", "--rule", "eps", "--skip-zero"), "binary", 7, 40, 150):
        "62e804670a0a3ab5ca9ccb0712131ca80a160545543e9d46796df062798e937b",
    # At the scale where the reader, strictification, the first max-flow
    # phase, Birkhoff's settling and the independence test do their work:
    # "strict" 7 at 150x150 is `fairlot gen --agents 150 --items 150
    # --seed 7`, with 760 support allocations and none dropped by reduce.
    (("lottery", "--rule", "ps"), "strict", 7, 150, 150):
        "4a61eaf7b808426f3e6d27b02d5c4a8eebad55620978951955a693411ad1b75b",
    (("lottery", "--rule", "ps", "--reduce"), "strict", 7, 150, 150):
        "92c00f0d5b9f6045cd4e26463c7dd104a76262a899f1760da94ef0adecd99ad9",
    (("lottery", "--rule", "eps"), "tied30", 901, 50, 100):
        "655bb9f5518880a55b70527daa9e2f8cd37ebc329999e153ad945d6e3c46a37f",
    (("lottery", "--rule", "eps", "--skip-zero"), "binary", 901, 50, 100):
        "eb046eaefe5fa2759fd8c3b50641599ce588fb6902cac450ec41829151e6e9a4",
    (("solve", "--rule", "ps"), "strict", 1, 4, 7):
        "49307c741bcd324d1ce31ec7b950357e9fa6ed63bec909293f9873bf457b3efa",
    (("solve", "--rule", "ps"), "tied", 5, 4, 9):
        "1e18c3c42b8a818eb77991004e28701924b88d2f4fccb5c1d353895fc1ae4e68",
    (("solve", "--rule", "eps"), "tied", 5, 4, 9):
        "374102763e384b41ea9f92040c209321b81049e0ec2a6e4c3fea92c2f53381de",
    (("solve", "--rule", "eps", "--skip-zero"), "binary", 6, 4, 9):
        "6c2106d6b5cf716dea1a5e8094334ec6a76dfe6bc17fa6ceb58937abfd4d5ae6",
}


def run(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def instance_file(tmp_path, kind, seed, n, m):
    instance = MAKERS[kind](random.Random(seed), n, m)
    path = tmp_path / f"{kind}-{seed}.json"
    path.write_text(fileio.dumps(fileio.instance_to_obj(instance)))
    return str(path)


def case_id(case):
    command, kind, seed, n, m = case
    words = [command[0]] + [w.lstrip("-") for w in command[2:]]
    return "-".join(words + [kind, str(seed), f"{n}x{m}"])


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=case_id)
def test_output_digest(tmp_path, case):
    command, kind, seed, n, m = case
    argv = [*command, "--input", instance_file(tmp_path, kind, seed, n, m)]
    if command[0] == "lottery":
        argv += ["--out", "-"]
    code, out = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]


def test_strict_instances_are_those_gen_writes(tmp_path):
    code, out = run(["gen", "--agents", "150", "--items", "150", "--seed", "7"])
    assert code == 0
    assert out == Path(instance_file(tmp_path, "strict", 7, 150, 150)).read_text()


@pytest.mark.parametrize("flags, kind, seed", [
    ((), "tied", 5), (("--skip-zero",), "binary", 13),
    ((), "repeated", 6), (("--skip-zero",), "repeated01", 6)])
def test_eps_lottery_does_not_depend_on_hash_order(tmp_path, flags, kind, seed):
    # String hashes are salted per process, so set and dict-of-set order
    # differs between interpreters; every golden pin runs under one salt.
    argv = [sys.executable, "-m", "fairlot.cli", "lottery", "--rule", "eps", *flags,
            "--input", instance_file(tmp_path, kind, seed, 12, 30), "--out", "-"]
    outs = []
    for salt in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=salt,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == GOLDEN[
        (("lottery", "--rule", "eps", *flags), kind, seed, 12, 30)]


@pytest.mark.parametrize("rule, kind, seed", [("ps", "strict", 389), ("eps", "tied", 529)])
def test_reduce_pins_reach_the_dependent_path(tmp_path, rule, kind, seed):
    # The two 3x7 --reduce pins above are affinely dependent supports:
    # reduction drops allocations (10 -> 8 and 6 -> 4), so the exact
    # elimination and the weight shift are pinned, not only the GF(2) test.
    sizes = []
    for extra in ([], ["--reduce"]):
        code, out = run(["lottery", "--rule", rule, *extra, "--input",
                         instance_file(tmp_path, kind, seed, 3, 7), "--out", "-"])
        assert code == 0
        sizes.append(len(json.loads(out)["support"]))
    assert sizes[1] < sizes[0]


def test_skip_zero_metadata_describes_the_padding_used(tmp_path):
    # Agent 1 likes a-d, agents 2 and 3 like only a: agent 1 eats more
    # than ceil(6/3) = 2 items, so the lottery is built with c = 4 and
    # 4*3 - 6 = 6 dummies.
    liked = {"1": "abcd", "2": "a", "3": "a"}
    path = tmp_path / "binary.json"
    path.write_text(json.dumps({
        "agents": ["1", "2", "3"],
        "items": list("abcdef"),
        "utilities": {a: {o: "1" if o in liked[a] else "0" for o in "abcdef"}
                      for a in liked},
    }))
    code, out = run(["lottery", "--rule", "eps", "--skip-zero",
                     "--input", str(path), "--out", "-"])
    assert code == 0
    doc = json.loads(out)
    metadata = doc["metadata"]
    assert metadata["support_bound"] == 122  # k*k - 2k + 2 for k = c*n = 12
    assert len(doc["support"]) <= metadata["support_bound"]
    orders = metadata["tie_break"]
    dummies = orders["1"][6:]
    assert len(dummies) == len(set(dummies)) == 6
    assert not set(dummies) & set("abcdef")
    assert all(order == list("abcdef") + dummies for order in orders.values())
    assert metadata["padded_items"] == ["e", "f"]


# Checking output.  Lotteries and target matrices are built by the CLI
# from the seeded instances above; the hand-written case has fractional
# utilities, ties and a zero, and its lottery fails ef1, sdef1,
# strong-ef1, rb, po and sdeff (a trading cycle and the matrix that trades
# along it), so violation certificates are pinned as well.
HAND = {
    "agents": ["1", "2", "3"],
    "items": ["a", "b", "c", "d", "e"],
    "utilities": {
        "1": {"a": "1/2", "b": "1/3", "c": "1/4", "d": "1/5", "e": "1/6"},
        "2": {"a": "2/3", "b": "1/2", "c": "3/4", "d": "1/6", "e": "5/12"},
        "3": {"a": "1", "b": "1", "c": "1/2", "d": "1/2", "e": "0"},
    },
}
# (weight, owners of a..e)
HAND_SUPPORT = (("1/3", "11111"), ("1/2", "32121"), ("1/6", "21331"))
# On the same instance: allocations that pass ef1, efk and sdef1 come
# first, then a failing one (2 envies 1's abc beyond one item), a repeat
# of a passing one, the failing one again and a second failure (3 envies
# 1's ab), so each repeat's verdict is pinned in support order.
RECUR_SUPPORT = (("1/4", "13212"), ("1/8", "23113"), ("1/8", "11123"),
                 ("1/4", "13212"), ("1/8", "11123"), ("1/8", "11223"))
# The first two fail the balanced-rounds test by a late item yet pass
# sdef1 and strong-ef1, so the removals the pairwise search names are
# pinned.  The third passes the round test, but its first round is a
# trading cycle: rb fails it, and the EF1 family passes it by rounds.
LATE_SUPPORT = (("1/2", "12233"), ("1/4", "21132"), ("1/4", "12312"))
# Agent 1 holds its two worst items, d and e, and 2 holds c and half of
# a and b: 1's expected row is SD-dominated by 2's, with equal mass on
# the whole item set, not incomparable to it.
DOMINATED_SUPPORT = (("1/2", "32211"), ("1/2", "23211"))
HAND_SUPPORTS = {"hand": HAND_SUPPORT, "recur": RECUR_SUPPORT, "late": LATE_SUPPORT,
                 "dominated": DOMINATED_SUPPORT}

# (verify flags, instance kind or a HAND_SUPPORTS key, seed, n, m) -> sha256 of stdout
VERIFY_GOLDEN = {
    (("ef",), "tied", 2, 3, 7):
        "3fea234cd0395608ee1eecd3a869617dd795889cc5f5e225cfde3b30dbdaf0f8",
    (("sdef",), "tied", 2, 3, 7):
        "3994681e34333b2a0d5092fd7d61beb82bb568baf16ee41030ae00086eb0d322",
    (("sdeff",), "tied", 2, 3, 7):
        "95c2f1147d6aa51762470ec57a7a686b776c28d8ae70410455a3f1fea84e62e0",
    (("ef1",), "tied", 2, 3, 7):
        "c45f1afad3a07cee5ae2334f55e073850702664b24777f6a5d82f7f62555babd",
    (("efk", "--k", "0"), "tied", 2, 3, 7):
        "18645f6ba842ef37be04454c86d0ae08242c17ed84f5b7d7717d16b2da9f5d52",
    (("efk", "--k", "2"), "tied", 2, 3, 7):
        "1b2671146cb9ee2f47d1dffa131e86ee3fc049c8791527f528b0de13da1f0f46",
    (("sdef1",), "tied", 2, 3, 7):
        "19ef8c369a60ca0fe5feef0ba90c43bd7a604213c1d7b4168a7f884319b72da9",
    (("strong-ef1",), "tied", 2, 3, 7):
        "04338fb036c28808f5dfdbb2ea2f1d7dec7c60a9df8a5a8d52e8cc44439487cb",
    (("rb",), "tied", 2, 3, 7):
        "410c5cbe842235b35cfc255bd2e6dd380188ccadede4d0120a072261678512bb",
    (("po",), "tied", 2, 3, 7):
        "7fa9adcb4d4ea8c36f83214f3e79ed6769b50fa51f00f6fb3c8df9915a325f5c",
    (("sdeff",), "hand", 0, 3, 5):
        "eb9d1d2561edcd47367c09e020530e4f54c00d52458a301a76815f682152af6e",
    (("ef",), "hand", 0, 3, 5):
        "256734347c2563295e4cba4b2d3d126a038f28b01e1268b5e2de628ea8fd88b0",
    (("sdef",), "hand", 0, 3, 5):
        "e385865a3b234df7bafaf8379e2598d9373d1572fcfaff79279289e4635978ca",
    (("sdef",), "dominated", 0, 3, 5):
        "563dfac8a2538a1f0fa66a786bda1b60c108eccb824c5c79cbd301eb2d073147",
    (("ef1",), "hand", 0, 3, 5):
        "24dc424a681b4ed47b19da6be676f3740a0dd51d6bef3a646c6f80942ce476a7",
    (("efk", "--k", "0"), "hand", 0, 3, 5):
        "e6cacb1c8f15d096cd06dbee9f6048f3014838d4a553a7320998ccf29b122115",
    (("efk", "--k", "2"), "hand", 0, 3, 5):
        "a45b3def1e2c03e51b0f0f03ebcc14e85737c0ed5537776f7ed98d84395c53dc",
    (("sdef1",), "hand", 0, 3, 5):
        "f5ad8bb84e3ab6c0a4c0f3efdfdb49518803ea3f05f34c0f598bc7f876117788",
    (("strong-ef1",), "hand", 0, 3, 5):
        "a39202bac421246810c388cde0607f694acdf59a4aa58096bebfec1a0dc51997",
    (("rb",), "hand", 0, 3, 5):
        "cc9e1476a1bb15d754cffcd6048edcfcfa3d35cdc4abbfae3593bddd3230dd5e",
    (("po",), "hand", 0, 3, 5):
        "1b73855b7dfb9e7ac5f3d3a29ae9dd774be64f8b7ed880b57c0a3d33aeec83e1",
    (("ef1",), "strict", 1, 4, 7):
        "6531f19bed9e4aa1044495ad333f1bcd4b2fc7644c8a556eb3b06cf0c0264b25",
    (("sdef1",), "strict", 1, 4, 7):
        "44b01ad8379fbcac133a11f4b5c1707f540ff09149796fab471c118e4e5cf3c8",
    (("strong-ef1",), "strict", 1, 4, 7):
        "662555e344d5c77d958a371450dda629b6ec79b322b908ecf49e887344096a18",
    (("rb",), "strict", 1, 4, 7):
        "f79472b181f0c07c77efb9ed2f4a81f9f78ac8a927f6fd607e162a69d4503c59",
    # Multi-item bundles, 2-3 items per bundle in both, so the
    # balanced-rounds test walks past the first round.
    (("ef1",), "tied", 5, 12, 30):
        "a131c49df26097232fa6177d635f7ce60f4cda47d10ce26fab216cf974c76c42",
    (("ef1",), "strict-ps", 5, 10, 25):
        "59a8dd170a613116321974c4a1abdf9bfd69d9e04c0295d98df71bf29b3155e8",
    (("ef1",), "recur", 0, 3, 5):
        "e38da1620d2a04c6514d85c0f652e32f45f37e3e6526203e84e2fc4c0c19de00",
    (("efk", "--k", "2"), "tied", 5, 12, 30):
        "30a05b1d4473c01da18b896b3b7159be127ffa476eea99b2f219ac117289970f",
    (("efk", "--k", "2"), "strict-ps", 5, 10, 25):
        "86dcc63088b96d0c9e91885713efcbc9cbb43d6b1e94f5df124df994dc35f5c0",
    (("efk", "--k", "2"), "recur", 0, 3, 5):
        "db0564d27970e04c8d3b3b890146f9d04a0df5bea615e65cb0aa25fe6ffbb2f5",
    (("sdef1",), "tied", 5, 12, 30):
        "7606f06e5c8c21c6076e60aebb6fcc3cf0e28c6803c4d50366fa2eeff2f674e7",
    (("sdef1",), "strict-ps", 5, 10, 25):
        "f442f758cd6cbfbd7fbf3d1626c0dde5fa91d4586efd4e65ff7ae793d6d8f216",
    (("sdef1",), "recur", 0, 3, 5):
        "91147eca20d448c7a950352fb99964cb0e45d327f28703a92eb1cf6573ad0bab",
    (("strong-ef1",), "tied", 5, 12, 30):
        "5c39c4384c7ba0c619240d985d3cb24b7065909a7216e6ef6895bcb615b10c91",
    (("strong-ef1",), "strict-ps", 5, 10, 25):
        "5f373ee093e84ca11c64d64bdcff5e3ac5c1af6d5d0a7482343a4002b97c33e2",
    (("strong-ef1",), "recur", 0, 3, 5):
        "d7d72a07c3db38e198bc54f3fd81cc115d0a6e5e2d3abcde5b5bb975625a3732",
    (("rb",), "tied", 5, 12, 30):
        "aa5b4d0fdedc17c491181e1b38c28da1b40025ad6f10409484ce4091e1a50d2b",
    (("rb",), "strict-ps", 5, 10, 25):
        "cccabfc9df679cac4a6cab3998cdd24ca5beddb8828c0f2781f6cffcff5e7dc5",
    (("rb",), "recur", 0, 3, 5):
        "541d74597c6ed225515a2a5dcd5f6bdd2e59e9d4b547f3056e38bc63df73ba68",
    # Late items: the pairwise search decides sdef1 and strong-ef1 on two
    # allocations, the round test on the third (digests of ef1 and rb
    # recorded before the round test was shared).
    (("ef1",), "late", 0, 3, 5):
        "d00cc3a75cd49e33135cfa60668dd7ca33cf11c0b0dca5a6b59fee9d190fc013",
    (("sdef1",), "late", 0, 3, 5):
        "8e1c1a9854073caf94c44a2360c98dc90f566e74b2a20ebfd33ef1eb0876cccf",
    (("strong-ef1",), "late", 0, 3, 5):
        "f53c46b5b9e01813d8b2359d2100d0007c2548901d14b2129df961a17d521111",
    (("rb",), "late", 0, 3, 5):
        "18b0a0cb296e99521cca383a7c401eba8df73abb3337e926e8f6040cb64ce873",
    # The ex-ante checkers on sparse matrices: multi-item bundles leave
    # most cells of the expected matrix zero.
    (("ef",), "tied", 5, 12, 30):
        "a9126db61835d5a626dce4d0df0dc22e7cb13933cd9b31a78025740ff938275a",
    (("ef",), "strict-ps", 5, 10, 25):
        "94295ac95e76a893a6cfbc01845cd93fa37beaf7297923f8a351b8ce1df560ff",
    (("sdef",), "tied", 5, 12, 30):
        "a3b245aa6988663d6931a8f80bda5f4cc7d7ad77d31010b912133737be38ec89",
    (("sdef",), "strict-ps", 5, 10, 25):
        "34c40411c001d8caf88218ef54d080a8738199d176a11171981e1c17c87984b6",
    (("sdeff",), "tied", 5, 12, 30):
        "d891a86ad814d9aabd1a673117292f7e6d7c888e3f1ee17f95964a27f83a5ce8",
    (("sdeff",), "strict-ps", 5, 10, 25):
        "4095f2a8b8c54038ecd862deeb246d73edf14c4d0b26fb2c13d14e8cee679e53",
}

# (filter, instance kind or "hand", seed, n, m) -> sha256 of stdout
ORACLE_GOLDEN = {
    (("ef1-po",), "tied", 2, 3, 7):
        "da03de795b44eea9fd4ce348c769712b9eb65df9fb6af1bf1f5c29301d4eb1eb",
    (("balanced-po",), "tied", 2, 3, 7):
        "e1f56f267530fee04b7ae2009611ce48c8bdf2abe66f6c6df6d9b23538acb463",
    (("ef1-po",), "binary", 4, 3, 6):
        "d8bfb3f7e45eeb5dbd099f344a8b4052348205c060f3e9cd6925467d66a30dd9",
    (("balanced-po",), "binary", 4, 3, 6):
        "b972e047e36aec2504f0749fea1b454e6d59b3c1803e7ce76957dfab2657ad7b",
    (("ef1-po",), "hand", 0, 3, 5):
        "6075c965b66fb141a45e535e0585cd426c262c03a5f889ba65badd837f8c99cd",
    (("balanced-po",), "hand", 0, 3, 5):
        "b73dbcfd7126c148af393868286ee77b406a959447eb8dcdcece6d7c1945c1ea",
}


def hand_files(tmp_path, kind="hand"):
    instance = tmp_path / "hand.json"
    instance.write_text(json.dumps(HAND))
    agents, items = tuple(HAND["agents"]), tuple(HAND["items"])
    lottery = Lottery(tuple(
        (Fraction(weight), DeterministicAllocation(agents, items, tuple(owners)))
        for weight, owners in HAND_SUPPORTS[kind]
    ))
    path = tmp_path / "hand-lottery.json"
    path.write_text(fileio.dumps(fileio.lottery_to_obj(lottery)))
    return str(instance), str(path)


def checking_inputs(tmp_path, kind, seed, n, m):
    """(instance file, lottery file, eps outcome file) of one case.  The
    lottery is built with eps, or with ps on a "strict-ps" instance."""
    if kind in HAND_SUPPORTS:
        instance, lottery = hand_files(tmp_path, kind)
    else:
        kind, rule = ("strict", "ps") if kind == "strict-ps" else (kind, "eps")
        instance = instance_file(tmp_path, kind, seed, n, m)
        lottery = str(tmp_path / "lottery.json")
        code, _ = run(["lottery", "--rule", rule, "--input", instance, "--out", lottery])
        assert code == 0
    code, out = run(["solve", "--rule", "eps", "--input", instance])
    assert code == 0
    matrix = tmp_path / "matrix.json"
    matrix.write_text(out)
    return instance, lottery, str(matrix)


def checking_id(case):
    flags, kind, seed, n, m = case
    return "-".join([*(f.lstrip("-") for f in flags), kind, str(seed), f"{n}x{m}"])


@pytest.mark.parametrize("case", sorted(VERIFY_GOLDEN), ids=checking_id)
def test_verify_digest(tmp_path, case):
    flags, kind, seed, n, m = case
    instance, lottery, _ = checking_inputs(tmp_path, kind, seed, n, m)
    code, out = run(["verify", "--property", *flags, "--input", instance,
                     "--lottery", lottery])
    assert code == (0 if json.loads(out)["verdict"] == "PASS" else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(ORACLE_GOLDEN), ids=checking_id)
def test_oracle_digest(tmp_path, case):
    flags, kind, seed, n, m = case
    instance, _, matrix = checking_inputs(tmp_path, kind, seed, n, m)
    code, out = run(["oracle", "--filter", *flags, "--input", instance,
                     "--allocation", matrix])
    assert code == (0 if json.loads(out)["feasible"] else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_GOLDEN[case]


def test_hand_lottery_fails_where_pinned(tmp_path):
    instance, lottery = hand_files(tmp_path)
    verdicts = {}
    for prop in ("ef1", "sdef1", "strong-ef1", "rb", "po"):
        code, out = run(["verify", "--property", prop, "--input", instance,
                         "--lottery", lottery])
        verdicts[prop] = [entry["verdict"] for entry in json.loads(out)["support"]]
        assert code == 1
    assert all("FAIL" in v for v in verdicts.values())


# The eating loop's own bytes: outcome matrix and trace, on sixty seeded
# instances of each kind, digest recorded when tight eaters with equal
# items and window starts began to share their rows.  At that recording,
# 12 of 98 multi-item steps averaged a class of two or more eaters on
# "tied", 4 of 64 on "binary" and 120 of 129 on "repeated", whose agents
# share a few utility rows.
EATING_GOLDEN = {
    "tied": (lambda rng, n, m: weak_instance(rng, n, m, 3), "standard",
             "299f9e2b6d87b49a53c24d87e304ba449df07c41741da5b8481e834b9e58384f"),
    "binary": (binary_instance, "skip_zero",
               "9a32f3e6af1871bd50958e5aa5169c8961d32205a500e9d5a8c31889d54b607b"),
    "repeated": (repeated_rows, "standard",
                 "2d2bad65b50bd098dd204bb84dea9bd92b5aac053b919f279a466acc75dd3a7b"),
}


@pytest.mark.parametrize("kind", sorted(EATING_GOLDEN))
def test_eating_loop_digest(kind):
    maker, mode, digest = EATING_GOLDEN[kind]
    h = hashlib.sha256()
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        matrix, trace = eps_outcome(maker(rng, n, rng.randint(n, 3 * n)), mode)
        segments = {a: [[s.item, *map(format_rational, s[1:])] for s in trace.segments[a]]
                    for a in trace.agents}
        h.update(fileio.dumps(fileio.matrix_to_obj(matrix)).encode())
        h.update(fileio.dumps({"horizon": format_rational(trace.horizon),
                               "segments": segments}).encode())
    assert h.hexdigest() == digest
