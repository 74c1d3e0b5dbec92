"""fairlot benchmark: one client drives the ``fairlot`` CLI in a closed loop.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` every command is a fresh CLI process, one at a time, and
the end-to-end metrics are reported.  With ``--trace 1`` the same commands
call ``fairlot.cli.main`` in this process, alternating an untraced round
with a round traced through ``spans.Tracer``, and the per-layer metrics are
reported.  Every output is checked; the last line of standard output is the
result object.  Scratch files, the run record ``BENCH_*.json`` and the
spans go to ``.bench_work/``.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_CODE = "import sys; from fairlot.cli import main; sys.exit(main())"
SETUP_SAMPLES = 15
# Input sets per run; round r runs set r mod SETS, so a run's median
# spans several instances and depends less on one seed's data.
SETS = 3
END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB",
                    "support_size": "count"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FAIRLOT_BUDGET", None)  # the documented default budget applies
    return env


def run_process(argv: list[str], work: Path, env: dict[str, str]) -> tuple[float, int, float, str]:
    """Wall seconds, exit code, max RSS in MB and standard output of one
    child process, started and reaped here."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, out_path.read_text(encoding="utf-8")


def run_inprocess(argv: list[str]) -> tuple[float, int, str]:
    """Wall seconds, exit code and standard output of ``fairlot.cli.main``
    called here; the name is looked up at call time so a traced run goes
    through its wrapper."""
    import fairlot.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fairlot.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
    return time.perf_counter() - start, code, out.getvalue()


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile that has at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"p": 100 * (k + 1) // n, "value": sorted(samples)[k]}


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "samples": len(samples),
            "tail": tail_percentile(samples), "values": samples}


class Run:
    """Input sets, checks and tallies of one benchmark run."""

    def __init__(self, sets) -> None:
        self.sets = sets
        self.attempted = 0
        self.failures: list[str] = []

    def round_commands(self, round_no: int):
        return self.sets[round_no % len(self.sets)]

    def check(self, cmd, code: int, stdout: str) -> None:
        self.attempted += 1
        problem = cmd.check(code, stdout)
        if problem:
            self.failures.append(f"{cmd.label}: {problem}")

    def supports(self) -> list[int]:
        """Per input set, the support of the lottery documents its round
        writes or reads; 0 for a set whose outputs were never written."""
        return [sum({cmd.lottery: cmd.support_size() for cmd in commands if cmd.lottery}.values())
                for commands in self.sets]

    def digests(self) -> dict[str, list[str]]:
        return {f"set{k} {cmd.label}": sorted(cmd.check.digests)
                for k, commands in enumerate(self.sets) for cmd in commands
                if hasattr(cmd.check, "digests")}


def keep_going(start: float, seconds: float, round_walls: list[float]) -> bool:
    """Start another round only if a typical one still fits in the window."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(round_walls) <= seconds


def measure_processes(run: Run, work: Path, seconds: float) -> tuple[dict, dict]:
    env = child_env()
    setup = []
    for _ in range(SETUP_SAMPLES):
        wall, code, _rss, _out = run_process(["-c", "import fairlot.cli"], work, env)
        if code != 0:
            raise RuntimeError("importing fairlot.cli failed")
        setup.append(wall)

    first = run.sets[0]
    groups = sorted({f"{cmd.kind}_s" for cmd in first} | {f"{cmd.part}_s" for cmd in first})
    per_group: dict[str, list[float]] = {g: [] for g in groups}
    per_label: dict[str, list[float]] = {cmd.label: [] for cmd in first}
    round_sums, round_walls, rss = [], [], {}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        commands = run.round_commands(len(round_sums))
        spent = dict.fromkeys(groups, 0.0)
        for cmd in commands:
            wall, code, peak, stdout = run_process(["-c", CLI_CODE, *cmd.argv], work, env)
            spent[f"{cmd.kind}_s"] += wall
            spent[f"{cmd.part}_s"] += wall
            per_label[cmd.label].append(wall)
            rss[cmd.label] = max(rss.get(cmd.label, 0.0), peak)
            run.check(cmd, code, stdout)
        for group in groups:
            per_group[group].append(spent[group])
        round_sums.append(sum(per_label[cmd.label][-1] for cmd in commands))
        round_walls.append(time.perf_counter() - began)
        if not keep_going(start, seconds, round_walls):
            break

    metrics = {
        "setup_s": statistics.median(setup),
        "round_s": statistics.median(round_sums),
        "peak_rss_mb": max(rss.values()),
        "support_size": statistics.median_low([n for n in run.supports() if n]),
    }
    detail = {
        "rounds": len(round_sums),
        "setup_s": summary(setup),
        "round_s": summary(round_sums),
        **{group: summary(per_group[group]) for group in groups},
        "commands_s": {label: summary(v) for label, v in per_label.items()},
        "rss_mb": rss,
        "support_size": run.supports(),
    }
    return metrics, detail


def measure_traced(run: Run, work: Path, seconds: float) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    plain_walls, traced_walls, per_round, round_walls = [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        commands = run.round_commands(len(per_round))
        results = [run_inprocess(cmd.argv) for cmd in commands]
        plain_walls.append(sum(r[0] for r in results))
        for cmd, (_wall, code, stdout) in zip(commands, results):
            run.check(cmd, code, stdout)

        tracer.round = len(per_round)
        tracer.install()
        try:
            results = [run_inprocess(cmd.argv) for cmd in commands]
        finally:
            tracer.restore()
        traced_walls.append(sum(r[0] for r in results))
        for cmd, (_wall, code, stdout) in zip(commands, results):
            run.check(cmd, code, stdout)
        layer = tracer.round_metrics(tracer.round)
        layer["trace.round_s"] = traced_walls[-1]
        layer["trace.unaccounted_s"] = traced_walls[-1] - sum(
            layer[f"{name}.self_s"] for name in spans.LAYERS)
        per_round.append(layer)
        round_walls.append(time.perf_counter() - began)
        if not keep_going(start, seconds, round_walls):
            break

    metrics = {
        name: (statistics.median if unit == "s" else statistics.median_low)(
            [r[name] for r in per_round])
        for name, unit in spans.UNITS.items()
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls))
    spans_path = work.parent / f"spans-{work.name}.json"
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    detail = {
        "rounds": len(per_round),
        "untraced_round_s": summary(plain_walls),
        "traced_round_s": summary(traced_walls),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairlot" / "cli.py").is_file():
        print(f"error: no fairlot sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fairlot

    if Path(fairlot.__file__).resolve().parent != SRC / "fairlot":
        print(f"error: imported fairlot from {fairlot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def setup_cli(cli_argv: list[str]) -> tuple[int, str]:
        _wall, code, stdout = run_inprocess(cli_argv)
        return code, stdout

    sets = []
    for k in range(SETS):
        (work / f"set{k}").mkdir()
        setup = workloads.Setup(work / f"set{k}", setup_cli)
        sets.append(workloads.prepare(args.workload, args.seed + workloads.SET_STRIDE * k, setup))
    run = Run(sets)
    if args.trace:
        metrics, detail = measure_traced(run, work, args.seconds)
        units = spans.UNITS
    else:
        metrics, detail = measure_processes(run, work, args.seconds)
        units = END_TO_END_UNITS

    failed = len(run.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": run.attempted, "failed": failed,
        "failed_ratio": failed / run.attempted, "failures": run.failures[:20],
        "metrics": metrics, "detail": detail, "lottery_sha256": run.digests(),
    }
    (ROOT / ".bench_work" / f"BENCH_{work.name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed {args.seed}: {detail['rounds']} rounds, "
          f"{run.attempted} commands, {failed} failed (failed_ratio {failed / run.attempted})")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
