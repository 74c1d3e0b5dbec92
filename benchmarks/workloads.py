"""The workloads: inputs made from the seed, the command mix of one round,
and the check of each command's output.

Each workload is two parts; a part is one input family and its commands.
Input shapes are fixed; the seed varies the data.  Instance i of a part in
input set k is generated from seed ``seed + SET_STRIDE * k + 1000 * i``,
so instance 0 of set 0 at ``--seed 7`` is ``fairlot gen --seed 7`` at that
shape.  See README.md for why each workload and part exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
from fairlot.eps import eps_outcome
from fairlot.fileio import instance_from_obj
from fairlot.model import format_rational, ordinal_from_utilities
from fairlot.ps import ps_outcome

SET_STRIDE = 1_000_000
VERIFY_PROPERTIES = ("ef", "sdef", "sdeff", "ef1", "sdef1", "strong-ef1", "rb")


@dataclass
class Command:
    kind: str                      # lottery, reduce, verify or oracle
    label: str                     # names the command in the detail record
    argv: list[str]
    check: Callable[[int, str], str | None]
    lottery: Path | None = None    # lottery document written or read
    support: int = 0               # support size of a lottery read as input
    part: str = ""                 # input family (a key of PARTS)

    def support_size(self) -> int:
        if isinstance(self.check, checks.LotteryCheck):
            return self.check.support
        return self.support


class SetupError(RuntimeError):
    """The program failed while the benchmark built its inputs."""


@dataclass
class Setup:
    """Where inputs go, and how to run the CLI while building them."""

    work: Path
    cli: Callable[[list[str]], tuple[int, str]]

    def write(self, name: str, text: str) -> Path:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return path

    def lottery(self, name: str, instance: Path, reference, rule: str) -> tuple[Path, int]:
        """Build an input lottery with the CLI and check it like any output."""
        out = self.work / name
        code, _ = self.cli(["lottery", "--rule", rule, "--input", str(instance),
                            "--out", str(out)])
        check = checks.LotteryCheck(out, reference)
        problem = check(code, "")
        if problem:
            raise SetupError(f"building {name}: {problem}")
        return out, check.support


def _instance(text: str):
    return instance_from_obj(json.loads(text))


def ps_reference(text: str):
    inst = _instance(text)
    strict = ordinal_from_utilities(inst).strictified()
    return ps_outcome(inst.agents, inst.items, strict)[0]


def eps_reference(text: str, mode: str = "standard"):
    return eps_outcome(_instance(text), mode=mode)[0]


def _lottery_cmd(kind, label, instance, out, reference, extra=(), max_support=None):
    argv = ["lottery", *extra, "--input", str(instance), "--out", str(out)]
    return Command(kind, label, argv,
                   checks.LotteryCheck(out, reference, max_support), out)


def build_strict(seed: int, s: Setup) -> list[Command]:
    """Lottery construction at 150x150: eat, pad and re-eat, Birkhoff,
    project and merge, JSON write; plus support reduction."""
    n = m = 150
    text = inputs.strict(seed, n, m)
    instance = s.write("strict150.json", text)
    ref = ps_reference(text)
    return [
        _lottery_cmd("lottery", "lottery ps", instance, s.work / "lottery.json", ref,
                     ("--rule", "ps")),
        _lottery_cmd("reduce", "lottery ps --reduce", instance, s.work / "reduced.json",
                     ref, ("--rule", "ps", "--reduce"), max_support=n * m + 1),
    ]


def verify_strict(seed: int, s: Setup) -> list[Command]:
    """Every support-wide and ex-ante check on a strict 50x50 ps lottery.
    The ps outcome is SD-envy-free and SD-efficient on strict profiles and
    every support allocation is recursively balanced, hence EF1, SD-EF1
    and strong-EF1: each verdict is PASS by theorem."""
    text = inputs.strict(seed, 50, 50)
    instance = s.write("strict50.json", text)
    lottery, support = s.lottery("strict50-lottery.json", instance, ps_reference(text), "ps")
    commands = []
    for prop in VERIFY_PROPERTIES:
        ex_post = prop not in ("ef", "sdef", "sdeff")
        check = checks.VerifyCheck(checks.Pin("PASS"), support if ex_post else None)
        argv = ["verify", "--property", prop, "--input", str(instance),
                "--lottery", str(lottery)]
        commands.append(Command("verify", f"verify {prop}", argv, check, lottery, support))
    return commands


def weak_eps(seed: int, s: Setup) -> list[Command]:
    """Coordinated eating: ties (50x100, 30 utility levels), a strict
    50x50 profile (where eps must equal ps) and binary skip-zero."""
    tied_text = inputs.tied(seed, 50, 100, 30)
    strict_text = inputs.strict(seed + 1000, 50, 50)
    binary_text = inputs.binary(seed + 2000, 50, 100)
    tied = s.write("tied50x100.json", tied_text)
    strict = s.write("strict50-eps.json", strict_text)
    binary = s.write("binary50x100.json", binary_text)
    return [
        _lottery_cmd("lottery", "lottery eps tied", tied, s.work / "tied-lottery.json",
                     eps_reference(tied_text), ("--rule", "eps")),
        _lottery_cmd("lottery", "lottery eps strict", strict, s.work / "strict-lottery.json",
                     ps_reference(strict_text), ("--rule", "eps")),
        _lottery_cmd("lottery", "lottery eps --skip-zero", binary,
                     s.work / "binary-lottery.json",
                     eps_reference(binary_text, "skip_zero"),
                     ("--rule", "eps", "--skip-zero")),
    ]


def _matrix_document(p) -> str:
    obj = {
        "rows": list(p.rows),
        "items": list(p.items),
        "entries": [[format_rational(v) for v in row] for row in p.entries],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def desk_oracle(seed: int, s: Setup) -> list[Command]:
    """Desk-scale oracles: enumeration, Pareto filtering and the exact
    simplex, on inputs small enough for the default FAIRLOT_BUDGET."""
    oracle_text = inputs.tied(seed, 4, 7, 3)
    oracle_instance = s.write("tied4x7.json", oracle_text)
    target = eps_reference(oracle_text)
    matrix = s.write("tied4x7-eps-matrix.json", _matrix_document(target))

    po_text = inputs.tied(seed + 1000, 3, 8, 3)
    po_instance = s.write("tied3x8.json", po_text)
    po_lottery, po_support = s.lottery("tied3x8-lottery.json", po_instance,
                                       eps_reference(po_text), "eps")
    po_pin = checks.Pin(checks.pareto_optimal_verdict(po_text, po_lottery.read_text()))

    lp_text = inputs.tied(seed + 2000, 10, 20, 3)
    lp_instance = s.write("tied10x20.json", lp_text)
    lp_lottery, lp_support = s.lottery("tied10x20-lottery.json", lp_instance,
                              eps_reference(lp_text), "eps")

    commands = []
    for flt in ("ef1-po", "balanced-po"):
        argv = ["oracle", "--filter", flt, "--input", str(oracle_instance),
                "--allocation", str(matrix)]
        check = checks.OracleCheck(checks.Pin(), target, oracle_text, flt)
        commands.append(Command("oracle", f"oracle {flt}", argv, check))
    commands.append(Command(
        "verify", "verify po",
        ["verify", "--property", "po", "--input", str(po_instance),
         "--lottery", str(po_lottery)],
        checks.VerifyCheck(po_pin, po_support), po_lottery, po_support))
    # eps is SD-efficient, so the LP path must answer PASS.
    commands.append(Command(
        "verify", "verify sdeff (LP)",
        ["verify", "--property", "sdeff", "--input", str(lp_instance),
         "--lottery", str(lp_lottery)],
        checks.VerifyCheck(checks.Pin("PASS")), lp_lottery, lp_support))
    return commands


PARTS = {
    "build-strict": build_strict,
    "verify-strict": verify_strict,
    "weak-eps": weak_eps,
    "desk-oracle": desk_oracle,
}

# Lottery construction (eating, padding, Birkhoff, reduction, JSON write)
# and lottery checking (fairness checkers, JSON read, oracles, simplex):
# each exercises the layers the other bypasses.
WORKLOADS = {
    "build": ("build-strict", "weak-eps"),
    "check": ("verify-strict", "desk-oracle"),
}


def prepare(workload: str, seed: int, setup: Setup) -> list[Command]:
    """The command mix of one round of ``workload``, inputs written."""
    commands = []
    for part in WORKLOADS[workload]:
        for cmd in PARTS[part](seed, setup):
            cmd.part = part
            commands.append(cmd)
    return commands
