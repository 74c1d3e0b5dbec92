"""Per-layer tracing from outside the program.

Every module of ``fairlot`` imports its collaborators with
``from .x import name``, so a call goes through the name bound in the
caller's module.  ``Tracer.install`` replaces each of those bindings (the
table ``WRAPS``) with a wrapper that records a span
``[name, start_ns, end_ns, parent, round]`` and reads counts off the
arguments and the return value; ``Tracer.restore`` puts the originals back.
Nothing under ``src/`` changes.

Functions called in tight inner loops (``utility_of_bundle``,
``sd_compare``) and private helpers of a layer stay unwrapped: their time
is the self time of whichever wrapped span calls them.  ``cli._load_json``
is the one private name wrapped, because it is where the CLI parses its
input files (layer ``fileio``); ``cli._pareto_flags`` is left in the CLI's
self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _support(result) -> int:
    lottery = result[0] if isinstance(result, tuple) else result
    return len(lottery.entries)


def _den_bits(result) -> int:
    lottery = result[0] if isinstance(result, tuple) else result
    return max(w.denominator.bit_length() for w, _ in lottery.entries)


# Counters: (counter name, how to combine within a round, value from
# (args, result)).
_PARTS = ("birkhoff.parts", "sum", lambda args, res: len(res))
_MERGED = ("support.merged", "sum", lambda args, res: _support(res))
_REDUCED = ("support.after_reduce", "sum", lambda args, res: _support(res))
_DEN_BITS = ("weights.max_den_bits", "max", lambda args, res: _den_bits(res))
_WRITTEN = ("fileio.bytes_written", "sum", lambda args, res: len(res.encode()))
_READ = ("fileio.bytes_read", "sum", lambda args, res: os.path.getsize(args[0]))
_ENUMERATED = ("oracle.enumerated", "sum", lambda args, res: len(res))
_LP_ROWS = ("simplex.rows", "max", lambda args, res: len(args[1]))
_LP_COLS = ("simplex.cols", "max", lambda args, res: len(args[0]))

# (module, attribute the caller looks up, span name, counters).  A name
# imported into several modules is wrapped at each binding.
WRAPS = [
    ("fairlot.cli", "main", "cli.main", ()),
    ("fairlot.cli", "_load_json", "fileio.read", (_READ,)),
    ("fairlot.cli", "dumps", "fileio.write", (_WRITTEN,)),
    ("fairlot.cli", "ordinal_from_utilities", "model.ordinal", ()),
    ("fairlot.cli", "ps_outcome", "ps.outcome", ()),
    ("fairlot.cli", "eps_outcome", "eps.outcome", ()),
    ("fairlot.cli", "ps_lottery", "pslottery.lottery", (_MERGED, _DEN_BITS)),
    ("fairlot.cli", "reduce_support", "pslottery.reduce", (_REDUCED, _DEN_BITS)),
    ("fairlot.cli", "pad_with_dummies", "pslottery.pad", ()),
    ("fairlot.cli", "check_ef", "fairness.ef", ()),
    ("fairlot.cli", "check_sd_ef", "fairness.sdef", ()),
    ("fairlot.cli", "check_sd_efficient", "fairness.sdeff", ()),
    ("fairlot.cli", "check_ef1", "fairness.ef1", ()),
    ("fairlot.cli", "check_efk", "fairness.efk", ()),
    ("fairlot.cli", "check_sd_ef1", "fairness.sdef1", ()),
    ("fairlot.cli", "check_strong_ef1", "fairness.strong_ef1", ()),
    ("fairlot.cli", "check_rb", "fairness.rb", ()),
    ("fairlot.cli", "check_po_bruteforce", "fairness.po", ()),
    ("fairlot.cli", "enumerate_allocations", "oracle.enumerate", (_ENUMERATED,)),
    ("fairlot.cli", "implementable_by", "oracle.implementable", ()),
    ("fairlot.cli", "sd_improvement_exists", "oracle.sd_improvement", ()),
    ("fairlot.fileio", "instance_from_obj", "fileio.read", ()),
    ("fairlot.fileio", "lottery_from_obj", "fileio.read", ()),
    ("fairlot.fileio", "matrix_from_obj", "fileio.read", ()),
    ("fairlot.fileio", "lottery_to_obj", "fileio.write", ()),
    ("fairlot.fileio", "matrix_to_obj", "fileio.write", ()),
    ("fairlot.fileio", "expected_allocation", "model.expected", ()),
    ("fairlot.pslottery", "ordinal_from_utilities", "model.ordinal", ()),
    ("fairlot.pslottery", "pad_with_dummies", "pslottery.pad", ()),
    ("fairlot.pslottery", "ps_outcome", "ps.outcome", ()),
    ("fairlot.pslottery", "eps_outcome", "eps.outcome", ()),
    ("fairlot.pslottery", "re_eat", "pslottery.re_eat", ()),
    ("fairlot.pslottery", "birkhoff_decompose", "birkhoff.decompose", (_PARTS,)),
    ("fairlot.pslottery", "project", "pslottery.project", ()),
    ("fairlot.model", "Lottery.merged", "model.merge", ()),
    ("fairlot.eps", "ordinal_from_utilities", "model.ordinal", ()),
    ("fairlot.oracle", "enumerate_allocations", "oracle.enumerate", (_ENUMERATED,)),
    ("fairlot.oracle", "solve_lp", "simplex.solve", (_LP_ROWS, _LP_COLS)),
    ("fairlot.oracle", "verify_farkas", "simplex.verify_farkas", ()),
]

LAYERS = ("cli", "fileio", "model", "ps", "eps", "pslottery", "birkhoff",
          "fairness", "oracle", "simplex")

# Inclusive times reported per span name; a span nested in another span of
# the same name counts once.
TIMED = {
    "birkhoff.decompose_s": "birkhoff.decompose",
    "ps.outcome_s": "ps.outcome",
    "eps.outcome_s": "eps.outcome",
    "pslottery.pad_s": "pslottery.pad",
    "pslottery.re_eat_s": "pslottery.re_eat",
    "pslottery.project_s": "pslottery.project",
    "pslottery.reduce_s": "pslottery.reduce",
    "fileio.read_s": "fileio.read",
    "fileio.write_s": "fileio.write",
    "fairness.ef_s": "fairness.ef",
    "fairness.sdef_s": "fairness.sdef",
    "fairness.sdeff_s": "fairness.sdeff",
    "fairness.ef1_s": "fairness.ef1",
    "fairness.sdef1_s": "fairness.sdef1",
    "fairness.strong_ef1_s": "fairness.strong_ef1",
    "fairness.rb_s": "fairness.rb",
    "fairness.po_s": "fairness.po",
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.implementable_s": "oracle.implementable",
    "oracle.sd_improvement_s": "oracle.sd_improvement",
    "simplex.solve_s": "simplex.solve",
}
# Call counts per span name.
CALLS = {
    "ps.calls": "ps.outcome",
    "eps.calls": "eps.outcome",
    "pslottery.pad.calls": "pslottery.pad",
    "pslottery.project.calls": "pslottery.project",
    "fairness.ef.calls": "fairness.ef",
    "fairness.sdef.calls": "fairness.sdef",
    "fairness.sdeff.calls": "fairness.sdeff",
    "fairness.ef1.calls": "fairness.ef1",
    "fairness.sdef1.calls": "fairness.sdef1",
    "fairness.strong_ef1.calls": "fairness.strong_ef1",
    "fairness.rb.calls": "fairness.rb",
    "fairness.po.calls": "fairness.po",
    "simplex.calls": "simplex.solve",
}
COUNTERS = {spec[0]: spec[1] for spec in (
    _PARTS, _MERGED, _REDUCED, _DEN_BITS, _WRITTEN, _READ, _ENUMERATED,
    _LP_ROWS, _LP_COLS)}

# Every per-layer metric with its unit, in report order.
UNITS = {f"{layer}.self_s": "s" for layer in LAYERS}
UNITS["pslottery.lottery.self_s"] = "s"
UNITS.update({name: "s" for name in TIMED})
UNITS.update({name: "count" for name in CALLS})
UNITS.update({name: "count" for name in COUNTERS})
UNITS["fileio.bytes_written"] = UNITS["fileio.bytes_read"] = "bytes"
UNITS["weights.max_den_bits"] = "bits"
UNITS["trace.round_s"] = "s"
UNITS["trace.unaccounted_s"] = "s"
UNITS["trace.overhead_ratio"] = "ratio"


def _resolve(owner, dotted: str):
    """(object holding the attribute, attribute name) for "a.b.c"."""
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters of the rounds run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(dict)
        self.round = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, dotted, name, counters in WRAPS:
            owner, attr = _resolve(importlib.import_module(module), dotted)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counters))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, counters):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if counters:
                counts = self.counts[self.round]
                for counter, how, value in counters:
                    v = value(args, result)
                    old = counts.get(counter, 0)
                    counts[counter] = old + v if how == "sum" else max(old, v)
            return result

        return wrapper

    def round_metrics(self, round_no: int) -> dict[str, float]:
        """Per-layer metrics of one traced round (zero where a layer did
        nothing); ``trace.*`` entries are filled in by the caller."""
        spans = [(k, s) for k, s in enumerate(self.spans) if s[4] == round_no]
        duration = {k: (s[2] - s[1]) / 1e9 for k, s in spans}
        child_time = defaultdict(float)
        for k, s in spans:
            if s[3] >= 0:
                child_time[s[3]] += duration[k]
        out = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in UNITS.items()}
        for k, s in spans:
            own = duration[k] - child_time[k]
            out[s[0].split(".")[0] + ".self_s"] += own
            if s[0] == "pslottery.lottery":
                out["pslottery.lottery.self_s"] += own
        by_name = {v: m for m, v in TIMED.items()}
        calls = {v: m for m, v in CALLS.items()}
        for k, s in spans:
            if s[0] in calls:
                out[calls[s[0]]] += 1
            if s[0] in by_name and not self._nested_in_namesake(k):
                out[by_name[s[0]]] += duration[k]
        out.update(self.counts.get(round_no, {}))
        return out

    def _nested_in_namesake(self, k: int) -> bool:
        name, parent = self.spans[k][0], self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "round": s[4]}
            for s in self.spans
        ]
