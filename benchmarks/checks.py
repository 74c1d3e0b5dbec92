"""Output checks.  Each check takes a command's exit code and standard
output and returns ``None`` when the output is right, else a message; a
message makes the command count as failed.

The library functions used here are bound at import, before any tracing
wrapper is installed, so checks never record spans.  A document whose
sha256 was already checked in this run is not parsed again: the same bytes
give the same verdict.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from pathlib import Path

from fairlot.fairness import check_ef1
from fairlot.fileio import instance_from_obj, lottery_from_obj
from fairlot.model import RandomAllocation


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class LotteryCheck:
    """The lottery document at ``path`` reloads through
    ``fileio.lottery_from_obj`` (which checks that the support recomposes
    to the stated expectation) and that expectation equals ``reference``,
    the eating outcome the library computed at setup."""

    def __init__(self, path: Path, reference: RandomAllocation,
                 max_support: int | None = None) -> None:
        self.path = path
        self.reference = reference
        self.max_support = max_support
        self.support = 0
        self.digests: set[str] = set()
        self._checked: dict[str, int] = {}

    def __call__(self, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        data = self.path.read_bytes()
        digest = _digest(data)
        self.digests.add(digest)
        if digest not in self._checked:
            try:
                lottery, expected, _meta = lottery_from_obj(json.loads(data))
            except ValueError as exc:
                return f"lottery document rejected: {exc}"
            if expected != self.reference:
                return "expected matrix differs from the eating outcome"
            if self.max_support is not None and len(lottery.entries) > self.max_support:
                return f"support {len(lottery.entries)} exceeds {self.max_support}"
            self._checked[digest] = len(lottery.entries)
        self.support = self._checked[digest]
        return None


class Pin:
    """Expected verdict of one input.  A verdict known beforehand is
    given; otherwise the first verdict the run sees is pinned and every
    later round must reproduce it."""

    def __init__(self, expected: str | None = None) -> None:
        self.expected = expected

    def __call__(self, verdict: str) -> str | None:
        if self.expected is None:
            self.expected = verdict
        if verdict != self.expected:
            return f"verdict {verdict}, pinned {self.expected}"
        return None


def _exit_for(ok: bool) -> int:
    return 0 if ok else 1


class VerifyCheck:
    """``verify`` prints one PASS/FAIL verdict whose exit code agrees with
    it (0 PASS, 1 FAIL) and which matches the pin; an ex-post property
    reports one entry per support allocation."""

    def __init__(self, pin: Pin, support: int | None = None) -> None:
        self.pin = pin
        self.support = support

    def __call__(self, code: int, stdout: str) -> str | None:
        try:
            report = json.loads(stdout)
            verdict = report["verdict"]
        except (ValueError, KeyError, TypeError):
            return f"exit code {code}, unreadable report"
        if verdict not in ("PASS", "FAIL") or code != _exit_for(verdict == "PASS"):
            return f"verdict {verdict!r} with exit code {code}"
        if self.support is not None and len(report.get("support", ())) != self.support:
            return f"{len(report.get('support', ()))} support reports, expected {self.support}"
        return self.pin(verdict)


class OracleCheck:
    """``oracle`` answers feasible (exit 0) with a witness lottery that
    recomposes exactly to the target and uses only allocations the filter
    admits (EF1 and balance are re-checked; Pareto optimality of witness
    allocations is not), or infeasible (exit 1) with a Farkas vector the
    program reports as self-verified."""

    def __init__(self, pin: Pin, target: RandomAllocation, instance_text: str,
                 flt: str) -> None:
        self.pin = pin
        self.target = target
        self.instance = instance_from_obj(json.loads(instance_text))
        self.filter = flt
        self._checked: set[str] = set()

    def __call__(self, code: int, stdout: str) -> str | None:
        try:
            answer = json.loads(stdout)
            feasible = answer["feasible"]
        except (ValueError, KeyError, TypeError):
            return f"exit code {code}, unreadable answer"
        if not isinstance(feasible, bool) or code != _exit_for(feasible):
            return f"feasible={feasible!r} with exit code {code}"
        digest = _digest(stdout.encode())
        if digest not in self._checked:
            problem = self._witness(answer) if feasible else self._certificate(answer)
            if problem:
                return problem
            self._checked.add(digest)
        return self.pin("feasible" if feasible else "infeasible")

    def _witness(self, answer: dict) -> str | None:
        try:
            lottery, expected, _meta = lottery_from_obj(answer["lottery"])
        except (ValueError, KeyError) as exc:
            return f"witness lottery rejected: {exc}"
        if expected != self.target:
            return "witness lottery does not recompose to the target"
        inst = self.instance
        low, high = inst.m // inst.n, -(-inst.m // inst.n)
        for _weight, alloc in lottery.entries:
            if self.filter == "ef1-po" and not check_ef1(alloc, inst).ok:
                return "witness allocation is not EF1"
            if self.filter == "balanced-po" and not all(
                low <= len(alloc.bundle(a)) <= high for a in inst.agents
            ):
                return "witness allocation is not balanced"
        return None

    def _certificate(self, answer: dict) -> str | None:
        rows = self.instance.n * self.instance.m + 1
        if answer.get("certificate_verified") is not True:
            return "infeasibility certificate not verified"
        if len(answer.get("farkas", ())) != rows:
            return f"Farkas vector has {len(answer.get('farkas', ()))} entries, expected {rows}"
        return None


def pareto_optimal_verdict(instance_text: str, lottery_text: str) -> str:
    """PASS when every support allocation of the lottery is Pareto optimal
    among all deterministic allocations, by brute force over integer
    utilities; independent of the program's own checker."""
    inst = json.loads(instance_text)
    agents, items = inst["agents"], inst["items"]
    values = [[int(inst["utilities"][a][o]) for o in items] for a in agents]
    index = {a: i for i, a in enumerate(agents)}
    vectors = set()
    for owners in product(range(len(agents)), repeat=len(items)):
        vec = [0] * len(agents)
        for j, i in enumerate(owners):
            vec[i] += values[i][j]
        vectors.add(tuple(vec))
    for element in json.loads(lottery_text)["support"]:
        base = [0] * len(agents)
        for j, o in enumerate(items):
            i = index[element["assignment"][o]]
            base[i] += values[i][j]
        for vec in vectors:
            if vec != tuple(base) and all(v >= b for v, b in zip(vec, base)):
                return "FAIL"
    return "PASS"
