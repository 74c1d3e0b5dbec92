"""Byte-level pins of CLI output.

Each case writes a small seeded instance, runs one ``solve`` or
``lottery`` command and compares the sha256 of its standard output with
a recorded digest, so a refactor that changes any byte of a document
shows up here.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from fairlot import fileio
from fairlot.cli import main
from conftest import binary_instance, strict_instance, weak_instance

MAKERS = {"strict": strict_instance, "tied": weak_instance, "binary": binary_instance}

# (command and flags, instance kind, seed, n, m) -> sha256 of stdout
GOLDEN = {
    (("lottery", "--rule", "ps"), "strict", 1, 4, 7):
        "d09de195510f66102e69799a6bade0810c2e90427026fb892e8197c7e1da9ec7",
    (("lottery", "--rule", "ps"), "tied", 2, 3, 7):
        "f428a4b747d7ac776ab934bf25eabb8f506614efd3d9139030f8476d8ca84e5e",
    (("lottery", "--rule", "ps", "--reduce"), "strict", 1, 4, 7):
        "1eadc517fb0eafa6c2f4c5f84c7277bd7a7ab05b3e282b258e080d6421f54351",
    (("lottery", "--rule", "eps"), "strict", 3, 3, 5):
        "2f33d32d28b93386869f52a1f460feb720fb69b06beeccd749753fcc75dd0b2d",
    (("lottery", "--rule", "eps"), "tied", 2, 3, 7):
        "ba1afcf98a21cb17cd63616bc58f8929f40adf196e6feef40bb1637c8edf5950",
    (("lottery", "--rule", "eps", "--skip-zero"), "binary", 4, 3, 7):
        "4a7d71bf37f9e0ea286a431d886fa84ef7595b07582b44df0111bafcc4b643bc",
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
