"""Command-line front end.

Commands: ``solve`` (fractional eating outcome), ``lottery`` (decompose it
into deterministic allocations), ``verify`` (property checkers with
certificates), ``oracle`` (implementability over a filtered allocation
set), ``gen`` (reproducible random instances).

Exit codes are a stable contract: 0 success/PASS/feasible, 1
FAIL/infeasible, 2 usage or input errors, a failed write to standard
output included.  FAIRLOT_BUDGET caps the enumeration size of the
oracle-backed commands.  A command returns its exit code and its output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from importlib import import_module
from typing import Sequence

from . import _EXPORTS, fileio
from .fileio import FormatError, dumps, load_json as _load_json  # traced runs wrap this name
from .model import BudgetExceeded, Instance, _check_budget, ordinal_from_utilities


def _need(*modules: str) -> None:
    """Import ``modules`` and bind their public names (``__all__``) here,
    where the commands look them up.  A name already bound is kept, so a
    wrapper set on this module from outside stays the one the command
    calls."""
    namespace = globals()
    for module in modules:
        loaded = import_module(f".{module}", __package__)
        for name in loaded.__all__:
            if name not in namespace:
                namespace[name] = getattr(loaded, name)


def __getattr__(name: str):
    """A public name of the package, looked up before a command bound it."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _need(_EXPORTS[name])
    return globals()[name]


EX_OK = 0
EX_FAIL = 1
EX_USAGE = 2


def _load_instance(path: str, skip_zero: bool = False) -> Instance:
    instance = fileio.instance_from_obj(_load_json(path, "instance file"))
    if skip_zero and not instance.is_binary():
        raise FormatError(f"instance file {path}: --skip-zero needs binary (0/1) utilities")
    return instance


def cmd_solve(args: argparse.Namespace) -> tuple[int, str]:
    if args.skip_zero and args.rule != "eps":
        raise FormatError("--skip-zero needs --rule eps")
    _need("eps", "pslottery")
    instance = _load_instance(args.input, args.skip_zero)
    outcome = plan(instance, args.rule, args.skip_zero).expected
    extra = {}
    if args.skip_zero:
        extra["padded_items"] = list(globally_unwanted(instance))
    return EX_OK, dumps(fileio.matrix_to_obj(outcome, extra))


def cmd_lottery(args: argparse.Namespace) -> tuple[int, str]:
    if args.skip_zero and args.rule != "eps":
        raise FormatError("--skip-zero needs --rule eps")
    _need("eps", "pslottery")
    instance = _load_instance(args.input, args.skip_zero)
    planned = plan(instance, args.rule, args.skip_zero)
    lottery = implement(planned)
    if args.reduce:
        lottery = reduce_support(lottery)
    padded = planned.padded
    metadata = {
        "rule": args.rule,
        "skip_zero": bool(args.skip_zero),
        "reduced": bool(args.reduce),
        "tie_break": {a: list(padded.orders[a]) for a in instance.agents},
        "support_bound": support_bound(padded.c, instance.n),
    }
    if args.skip_zero:
        metadata["padded_items"] = list(globally_unwanted(instance))
    document = dumps(fileio.lottery_to_obj(lottery, planned.expected, metadata))
    if args.out == "-":
        return EX_OK, document
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
    except OSError as exc:
        raise FormatError(f"output file {args.out}: {exc}") from None
    return EX_OK, ""


# --property -> (checks the expected matrix, not each support allocation;
# reads preference orders, not the instance; the check).  Checkers are
# looked up in this module as they run: a traced run wraps them here.
_PROPERTIES = {
    "ef": (True, False, lambda p, instance, k: check_ef(p, instance)),
    "sdef": (True, True, lambda p, prefs, k: check_sd_ef(p, prefs)),
    "sdeff": (True, True, lambda p, prefs, k: check_sd_efficient(p, prefs)),
    "ef1": (False, False, lambda alloc, instance, k: check_ef1(alloc, instance)),
    "efk": (False, False, lambda alloc, instance, k: check_efk(alloc, instance, k)),
    "sdef1": (False, True, lambda alloc, prefs, k: check_sd_ef1(alloc, prefs)),
    "strong-ef1": (False, False, lambda alloc, instance, k: check_strong_ef1(alloc, instance)),
    "rb": (False, True, lambda alloc, prefs, k:
           check_rb(alloc, prefs, -(-len(prefs.items) // len(prefs.agents)))),
    "po": (False, False, lambda alloc, instance, k: check_po_bruteforce(alloc, instance)),
}


def _document(report, **extra) -> dict:
    """A report as ``verify`` writes it: a PASS with its witness, a FAIL
    with its violation, and the keys of ``extra``."""
    if report.ok:
        return {"property": report.prop, "verdict": "PASS", "witness": report.witness, **extra}
    return {"property": report.prop, "verdict": "FAIL", "violation": report.violation, **extra}


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    prop = args.property
    if prop == "efk" and (args.k is None or args.k < 0):
        raise FormatError("--property efk needs a nonnegative --k")
    if prop != "efk" and args.k is not None:
        raise FormatError("--k applies to --property efk only")
    _need("fairness")
    instance = _load_instance(args.input)
    ex_ante, ordinal, check = _PROPERTIES[prop]
    if prop == "po":  # check_po_bruteforce would refuse: do so before reading the lottery
        _check_budget(instance.n, instance.m)
    table = ordinal_from_utilities(instance) if ordinal else instance

    lottery, expected, _ = fileio.lottery_from_obj(_load_json(args.lottery, "lottery file"))
    if set(lottery.agents) != set(instance.agents) or set(lottery.items) != set(instance.items):
        raise FormatError("lottery universe does not match the instance")

    if ex_ante:
        report = check(expected, table, args.k)
        return (EX_OK if report.ok else EX_FAIL), dumps(_document(report))

    reports = [_document(check(allocation, table, args.k), weight=weight)
               for weight, allocation in lottery.entries]
    ok = all(r["verdict"] == "PASS" for r in reports)
    verdict = {"property": prop, "verdict": "PASS" if ok else "FAIL", "support": reports}
    return (EX_OK if ok else EX_FAIL), dumps(verdict)


def cmd_oracle(args: argparse.Namespace) -> tuple[int, str]:
    _need("fairness", "oracle")
    instance = _load_instance(args.input)
    _check_budget(instance.n, instance.m)  # every filter would refuse: do so before the read
    target = fileio.matrix_from_obj(_load_json(args.allocation, "allocation file"))
    if tuple(target.rows) != instance.agents or target.items != instance.items:
        raise FormatError("allocation matrix universe does not match the instance")
    if args.filter == "none":
        allowed = enumerate_allocations(instance.agents, instance.items)
    else:
        optima = pareto_front(instance)[0]
        if args.filter == "ef1-po":
            allowed = [alloc for alloc in optima if check_ef1(alloc, instance).ok]
        else:
            low, high = instance.m // instance.n, -(-instance.m // instance.n)
            allowed = [
                alloc
                for alloc in optima
                if all(low <= len(alloc.bundle(a)) <= high for a in instance.agents)
            ]

    result = implementable_by(target, allowed)
    feasible = not isinstance(result, InfeasibilityCertificate)
    answer = {"feasible": feasible, "filter": args.filter, "allowed_count": len(allowed)}
    if feasible:
        answer["lottery"] = fileio.lottery_to_obj(result)
    else:
        answer["farkas"] = result.farkas
        answer["certificate_verified"] = result.verify()
    return (EX_OK if feasible else EX_FAIL), dumps(answer)


def cmd_gen(args: argparse.Namespace) -> tuple[int, str]:
    import random

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
    return EX_OK, dumps(fileio.instance_to_obj(instance))


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
    p_ver.add_argument("--property", required=True, choices=tuple(_PROPERTIES))
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--lottery", required=True)
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
        code, text = args.func(args)
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # Else what the buffer holds fails again at exit (status 120).
            with contextlib.suppress(AttributeError, OSError, ValueError), \
                    open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise FormatError(f"standard output: {exc}") from None
        return code
    except BudgetExceeded as exc:
        print(f"fairlot: refused: {exc}", file=sys.stderr)
        return EX_USAGE
    except ValueError as exc:  # FormatError included
        print(f"fairlot: error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
