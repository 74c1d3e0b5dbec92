"""Command-line front end.

Commands: ``solve`` (fractional eating outcome), ``lottery`` (decompose it
into deterministic allocations), ``verify`` (property checkers with
certificates), ``oracle`` (implementability over a filtered allocation
set), ``gen`` (reproducible random instances).

Exit codes are a stable contract: 0 success/PASS/feasible, 1
FAIL/infeasible, 2 usage or input errors.  FAIRLOT_BUDGET caps the
enumeration size of the oracle-backed commands.
"""

from __future__ import annotations

import argparse
import json
import operator
import random
import sys
from typing import Sequence

from . import fileio
from .eps import globally_unwanted
from .fairness import (
    BudgetExceeded,
    check_ef,
    check_ef1,
    check_efk,
    check_po_bruteforce,
    check_rb,
    check_sd_ef,
    check_sd_ef1,
    check_sd_efficient,
    check_strong_ef1,
    utility_vectors,
)
from .fileio import FormatError, dumps
from .model import Instance, format_rational, ordinal_from_utilities
from .oracle import InfeasibilityCertificate, enumerate_allocations, implementable_by
from .pslottery import implement, plan, reduce_support, support_bound

# Not called here: bound because benchmarks/spans.py looks them up on this module.
from .eps import eps_outcome
from .oracle import sd_improvement_exists
from .ps import ps_outcome
from .pslottery import pad_with_dummies, ps_lottery

EX_OK = 0
EX_FAIL = 1
EX_USAGE = 2


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FormatError(f"{what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{what} {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} {path}: {exc}") from None
    except RecursionError:
        # json's decoder recurses once per nested array or object.
        raise FormatError(f"{what} {path}: JSON nested too deeply to read") from None
    except ValueError:
        # json.load converts integer literals with int(), which refuses more
        # digits than Python's limit and names no position.
        raise FormatError(
            f"{what} {path}: a JSON number has more than "
            f"{sys.get_int_max_str_digits()} digits; write it as a string"
        ) from None


def _load_instance(path: str) -> Instance:
    return fileio.instance_from_obj(_load_json(path, "instance file"))


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    outcome = plan(instance, args.rule, args.skip_zero).expected
    extra = {}
    if args.skip_zero:
        extra["padded_items"] = list(globally_unwanted(instance))
    sys.stdout.write(dumps(fileio.matrix_to_obj(outcome, extra)))
    return EX_OK


def cmd_lottery(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    planned = plan(instance, args.rule, args.skip_zero)
    lottery = implement(planned)
    if args.reduce:
        lottery = reduce_support(lottery)
    padded = planned.padded
    metadata = {
        "rule": args.rule,
        "skip_zero": bool(args.skip_zero),
        "reduced": bool(args.reduce),
        "tie_break": {
            a: list(padded.prefs_strict.strict_order(a)) for a in instance.agents
        },
        "support_bound": support_bound(padded.c, instance.n),
    }
    if args.skip_zero:
        metadata["padded_items"] = list(globally_unwanted(instance))
    document = dumps(fileio.lottery_to_obj(lottery, planned.expected, metadata))
    if args.out == "-":
        sys.stdout.write(document)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            raise FormatError(f"output file {args.out}: {exc}") from None
    return EX_OK


_EX_ANTE = ("ef", "sdef", "sdeff")
_EX_POST = ("ef1", "efk", "sdef1", "strong-ef1", "rb", "po")


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    prefs = ordinal_from_utilities(instance)
    prop = args.property

    if args.lottery is None:
        raise FormatError(f"--property {prop} needs --lottery FILE")
    lottery, expected, _meta = fileio.lottery_from_obj(
        _load_json(args.lottery, "lottery file")
    )
    if set(lottery.agents) != set(instance.agents) or set(lottery.items) != set(instance.items):
        raise FormatError("lottery universe does not match the instance")

    if prop in _EX_ANTE:
        if prop == "ef":
            report = check_ef(expected, instance)
        elif prop == "sdef":
            report = check_sd_ef(expected, prefs)
        else:
            report = check_sd_efficient(expected, prefs)
        payload = report.to_json()
        sys.stdout.write(dumps(payload))
        return EX_OK if report.ok else EX_FAIL

    c = -(-instance.m // instance.n)
    reports = []
    for weight, allocation in lottery.entries:
        if prop == "ef1":
            report = check_ef1(allocation, instance)
        elif prop == "efk":
            if args.k is None:
                raise FormatError("--property efk needs --k")
            report = check_efk(allocation, instance, args.k)
        elif prop == "sdef1":
            report = check_sd_ef1(allocation, prefs)
        elif prop == "strong-ef1":
            report = check_strong_ef1(allocation, instance)
        elif prop == "rb":
            report = check_rb(allocation, prefs, c)
        else:
            report = check_po_bruteforce(allocation, instance)
        entry = report.to_json()
        entry["weight"] = format_rational(weight)
        reports.append(entry)
    ok = all(r["verdict"] == "PASS" for r in reports)
    sys.stdout.write(
        dumps(
            {
                "property": prop,
                "verdict": "PASS" if ok else "FAIL",
                "support": reports,
            }
        )
    )
    return EX_OK if ok else EX_FAIL


def _pareto_flags(instance: Instance, allocations) -> list[bool]:
    """True per allocation iff no other allocation Pareto-dominates it."""
    vectors = list(utility_vectors(instance, allocations))
    # A dominator has a strictly larger sum, so in descending-sum order
    # every maximal vector is met before the vectors it dominates; and a
    # dominated vector is always dominated by a maximal one, so each
    # vector is tested against the maxima found so far alone.
    maxima: list[tuple[int, ...]] = []
    for v in sorted(set(vectors), key=sum, reverse=True):
        if not any(all(map(operator.ge, w, v)) for w in maxima):
            maxima.append(v)
    maximal = set(maxima)
    return [v in maximal for v in vectors]


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    target = fileio.matrix_from_obj(_load_json(args.allocation, "allocation file"))
    if tuple(target.rows) != instance.agents or target.items != instance.items:
        raise FormatError("allocation matrix universe does not match the instance")
    allocations = enumerate_allocations(instance.agents, instance.items)

    if args.filter == "none":
        allowed = allocations
    else:
        po_flags = _pareto_flags(instance, allocations)
        if args.filter == "ef1-po":
            allowed = [
                alloc
                for alloc, po in zip(allocations, po_flags)
                if po and check_ef1(alloc, instance).ok
            ]
        else:
            low, high = instance.m // instance.n, -(-instance.m // instance.n)
            allowed = [
                alloc
                for alloc, po in zip(allocations, po_flags)
                if po
                and all(
                    low <= len(alloc.bundle(a)) <= high for a in instance.agents
                )
            ]

    result = implementable_by(target, allowed)
    if isinstance(result, InfeasibilityCertificate):
        sys.stdout.write(
            dumps(
                {
                    "feasible": False,
                    "filter": args.filter,
                    "allowed_count": len(allowed),
                    "farkas": [format_rational(v) for v in result.farkas],
                    "certificate_verified": result.verify(),
                }
            )
        )
        return EX_FAIL
    sys.stdout.write(
        dumps(
            {
                "feasible": True,
                "filter": args.filter,
                "allowed_count": len(allowed),
                "lottery": fileio.lottery_to_obj(result),
            }
        )
    )
    return EX_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.agents < 1 or args.items < 1:
        raise FormatError("--agents and --items must be at least 1")
    rng = random.Random(args.seed)
    agents = [f"a{i}" for i in range(1, args.agents + 1)]
    items = [f"o{j:02d}" for j in range(1, args.items + 1)]
    utilities = {}
    for a in agents:
        if args.binary:
            utilities[a] = {o: rng.randint(0, 1) for o in items}
        else:
            values = rng.sample(range(1, 10 * args.items + 1), args.items)
            utilities[a] = dict(zip(items, values))
    instance = Instance.from_utilities(utilities, agents=agents, items=items)
    sys.stdout.write(dumps(fileio.instance_to_obj(instance)))
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairlot",
        description="Exact fair random assignment: eating rules, lotteries "
        "over envy-free-up-to-one-item allocations, and verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="fractional eating outcome of an instance")
    p_solve.add_argument("--rule", choices=("ps", "eps"), required=True)
    p_solve.add_argument("--skip-zero", action="store_true", dest="skip_zero",
                         help="binary utilities: agents never eat zero-value items")
    p_solve.add_argument("--input", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_lot = sub.add_parser("lottery", help="implement the outcome as a lottery")
    p_lot.add_argument("--rule", choices=("ps", "eps"), required=True)
    p_lot.add_argument("--skip-zero", action="store_true", dest="skip_zero")
    p_lot.add_argument("--reduce", action="store_true",
                       help="shrink the support to at most n*m+1 allocations")
    p_lot.add_argument("--input", required=True)
    p_lot.add_argument("--out", required=True, help="output file, or - for stdout")
    p_lot.set_defaults(func=cmd_lottery)

    p_ver = sub.add_parser("verify", help="check a property and print a certificate")
    p_ver.add_argument("--property", required=True, choices=_EX_ANTE + _EX_POST)
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--lottery")
    p_ver.add_argument("--k", type=int, help="k for --property efk")
    p_ver.set_defaults(func=cmd_verify)

    p_ora = sub.add_parser("oracle", help="implementability over a filtered allocation set")
    p_ora.add_argument("--filter", choices=("ef1-po", "balanced-po", "none"),
                       required=True)
    p_ora.add_argument("--input", required=True)
    p_ora.add_argument("--allocation", required=True,
                       help="target matrix file to implement")
    p_ora.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="reproducible pseudo-random instance")
    p_gen.add_argument("--agents", type=int, required=True)
    p_gen.add_argument("--items", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--binary", action="store_true")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"fairlot: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except BudgetExceeded as exc:
        print(f"fairlot: refused: {exc}", file=sys.stderr)
        return EX_USAGE
    except ValueError as exc:
        print(f"fairlot: error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
