"""The magma-census benchmark: CLI processes timed end to end, or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Every operation is a fresh `python -m magma_census` process running the package
from this checkout's `src/`, in a closed loop: one operation at a time. The
seed fixes the plan (see workloads.py); the run repeats whole passes of that
plan until `--seconds` have elapsed, so every run measures the same mix of
work. Every operation's stdout is checked against perfbench/reference.json.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` each operation runs once under trace_shim.py and once plain, and
the last line carries the per-layer metrics, per pass of the plan. The line
before it is the run record: machine facts, the argv of every operation,
sample counts and the reason for every failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_ARGV = ("count", "--n", "1", "--k", "1", "--jobs", "1")
SETUP_RUNS = 9
# Every run must end within 180 s; no operation may outlive this budget.
RUN_BUDGET_S = 165.0
SEQUENCE_JOBS = 2

# (metric, unit, source): source is ("span", name, field), ("counter", name)
# or one of the harness's own measurements.
PER_LAYER = (
    ("cli.entry_point_s", "s", ("span", "cli.entry_point", "inclusive")),
    ("cli.self_s", "s", ("span", "cli.entry_point", "self")),
    ("cli.stdout_bytes", "bytes", ("stdout_bytes",)),
    ("arith.enumerate_cycle_types_s", "s", ("span", "arith.enumerate_cycle_types", "inclusive")),
    ("arith.cycle_types", "count", ("counter", "arith.cycle_types")),
    ("census.count_k_magmas.self_s", "s", ("span", "census.count_k_magmas", "self")),
    ("census.count_k_magmas.calls", "count", ("span", "census.count_k_magmas", "calls")),
    ("census.fixed_point_count.self_s", "s", ("span", "census.fixed_point_count", "self")),
    ("census.fixed_point_count.calls", "count", ("span", "census.fixed_point_count", "calls")),
    ("census.weighted_divisor_sum_s", "s", ("span", "census.weighted_divisor_sum", "inclusive")),
    ("census.weighted_divisor_sum.calls", "count", ("span", "census.weighted_divisor_sum", "calls")),
    ("census.result_bits", "bits", ("counter", "census.result_bits")),
    ("census.count_via_permutation_sum_s", "s",
     ("span", "census.count_via_permutation_sum", "inclusive")),
    ("census.count_via_cycle_index_s", "s", ("span", "census.count_via_cycle_index", "inclusive")),
    ("cycle_index.cycle_index_recursive_s", "s",
     ("span", "cycle_index.cycle_index_recursive", "inclusive")),
    ("cycle_index.induce_s", "s", ("span", "cycle_index.induce", "inclusive")),
    ("cycle_index.substitute_per_monomial_s", "s",
     ("span", "cycle_index.substitute_per_monomial", "inclusive")),
    ("oracle.count_orbits_bruteforce_s", "s",
     ("span", "oracle.count_orbits_bruteforce", "inclusive")),
    ("oracle.tables_scanned", "count", ("counter", "oracle.tables_scanned")),
    ("oracle.fixed_tables_structural_s", "s",
     ("span", "oracle.fixed_tables_structural", "inclusive")),
    ("oracle.fixed_tables_structural.calls", "count",
     ("span", "oracle.fixed_tables_structural", "calls")),
    ("oracle.cell_permutation.hits", "count", ("counter", "oracle.cell_permutation.hits")),
    ("oracle.cell_permutation.misses", "count", ("counter", "oracle.cell_permutation.misses")),
    ("trace.overhead_frac", "ratio", ("overhead",)),
)
SPAN_FIELDS = {"calls": 0, "inclusive": 1, "self": 2}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    wall_s: float
    peak_rss_kb: int
    exit_code: int | None  # None: killed at the timeout
    stdout: bytes
    stderr_tail: str


def child_env() -> dict[str, str]:
    # The program must see interpreter defaults and no inherited job count.
    env = dict(os.environ)
    for name in ("MAGMA_CENSUS_JOBS", "PYTHONINTMAXSTRDIGITS", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_process(cmd: list[str], timeout_s: float, tmp: Path) -> Outcome:
    """Run cmd in its own process group; peak RSS covers its reaped descendants."""
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        timed_out = threading.Event()

        def expire():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout_s, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Pool workers left behind by a killed or crashed operation.
        _kill_group(proc.pid)
        out.seek(0)
        err.seek(0)
        stderr_tail = err.read()[-300:].decode(errors="replace").strip()
        return Outcome(wall, usage.ru_maxrss, None if timed_out.is_set() else proc.returncode,
                       out.read(), stderr_tail)


def judge(op: wl.Op, outcome: Outcome, reference: dict[str, str]) -> str | None:
    """None when the operation succeeded, else why it failed."""
    if outcome.exit_code is None:
        return "timed out"
    if outcome.exit_code != 0:
        last = outcome.stderr_tail.splitlines()[-1:]
        return f"exit {outcome.exit_code}: {last[0] if last else 'no stderr'}"
    return wl.check(op, outcome.stdout, reference)


def probe_program(tmp: Path) -> dict:
    """Import the package as the timed processes will, and report what was imported."""
    code = ("import sys, magma_census; print(magma_census.__file__); "
            "print(getattr(sys, 'get_int_max_str_digits', lambda: 0)())")
    outcome = run_process([sys.executable, "-c", code], 60, tmp)
    lines = outcome.stdout.decode(errors="replace").splitlines()
    if outcome.exit_code != 0 or len(lines) != 2:
        raise HarnessError(f"cannot import magma_census from {SRC}: {outcome.stderr_tail}")
    path = Path(lines[0]).resolve()
    if SRC.resolve() not in path.parents:
        raise HarnessError(f"magma_census imported from {path}, not from {SRC}")
    return {"magma_census_file": str(path.relative_to(ROOT)),
            "int_max_str_digits_default": int(lines[1])}


def program_cmd(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "magma_census", *argv]


def traced_cmd(argv: tuple[str, ...], trace_out: Path) -> list[str]:
    return [sys.executable, str(HERE / "trace_shim.py"), str(trace_out), *argv]


def measure_setup(tmp: Path, deadline: float) -> tuple[list[float], list[str]]:
    times, failures = [], []
    for _ in range(SETUP_RUNS):
        outcome = run_process(program_cmd(SETUP_ARGV), max(1.0, deadline - time.monotonic()), tmp)
        if outcome.exit_code != 0 or outcome.stdout != b"1\n":
            failures.append(f"set-up run: exit {outcome.exit_code}, stdout {outcome.stdout[:40]!r}")
        times.append(outcome.wall_s)
    return times, failures


def _layer_values(traces: list[dict], stdout_bytes: int, overhead: float) -> dict[str, float]:
    spans: dict[str, list] = {}
    counters: dict[str, int] = {}
    for t in traces:
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
    values = {}
    for metric, _, source in PER_LAYER:
        if source[0] == "span":
            values[metric] = spans.get(source[1], [0, 0.0, 0.0])[SPAN_FIELDS[source[2]]]
        elif source[0] == "counter":
            values[metric] = counters.get(source[1], 0)
        elif source[0] == "stdout_bytes":
            values[metric] = stdout_bytes
        else:
            values[metric] = overhead
    return values


def run(workload: str, seed: int, seconds: int, trace: bool,
        reference: dict[str, str], tmp: Path, plan_ops=None) -> dict:
    """Measure one workload; returns the result line and the run record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    facts = probe_program(tmp)
    nproc = len(os.sched_getaffinity(0))
    jobs = min(SEQUENCE_JOBS, nproc)
    ops = plan_ops if plan_ops is not None else wl.plan(workload, random.Random(seed), jobs)
    failures: list[str] = []
    setup_times: list[float] = []
    if not trace:
        setup_times, failures = measure_setup(tmp, deadline)

    tally = {"attempted": 0, "ok": 0, "peak_rss_kb": 0}

    def attempt(cmd: list[str], op: wl.Op, label: str) -> Outcome | None:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            return None
        outcome = run_process(cmd, timeout, tmp)
        tally["attempted"] += 1
        reason = judge(op, outcome, reference)
        if reason is None:
            tally["ok"] += 1
        else:
            failures.append(f"{label}{' '.join(op.argv)}: {reason}")
        return outcome

    def one_pass(index: int) -> dict | None:
        """Run every op of the plan once; None when the run budget ran out."""
        traces, plain_wall, traced_wall, stdout_bytes = [], 0.0, 0.0, 0
        start, ok_before = time.perf_counter(), tally["ok"]
        for i, op in enumerate(ops):
            if trace:
                trace_out = tmp / f"trace-{index}-{i}.json"
                outcome = attempt(traced_cmd(op.argv, trace_out), op, "traced ")
                if outcome is None:
                    return None
                if outcome.exit_code == 0 and trace_out.is_file():
                    traces.append(json.loads(trace_out.read_text()))
                traced_wall += outcome.wall_s
                stdout_bytes += len(outcome.stdout)
            outcome = attempt(program_cmd(op.argv), op, "")
            if outcome is None:
                return None
            tally["peak_rss_kb"] = max(tally["peak_rss_kb"], outcome.peak_rss_kb)
            plain_wall += outcome.wall_s
        return {"traces": traces, "plain_wall": plain_wall, "traced_wall": traced_wall,
                "stdout_bytes": stdout_bytes, "ok": tally["ok"] - ok_before,
                "wall": time.perf_counter() - start}

    passes: list[dict] = []
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        done = one_pass(len(passes))
        if done is None:
            break
        passes.append(done)
    loop_wall = time.perf_counter() - loop_start
    attempted, ok, peak_rss_kb = tally["attempted"], tally["ok"], tally["peak_rss_kb"]

    failed = attempted - ok
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **facts,
        # Capped at nproc, so sequence never runs more workers than cores;
        # with nproc = 1 it runs serially and exercises no pool.
        "jobs_sequence": jobs,
        "trace_scope": ("parent process only: forked pool workers' spans are lost"
                        if any(op.argv[op.argv.index("--jobs") + 1] != "1" for op in ops)
                        else "whole process") if trace else None,
        "argv": [list(op.argv) for op in ops],
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "pass_ok": [p["ok"] for p in passes],
        "pass_wall_s": [p["wall"] for p in passes],
        "setup_samples": len(setup_times),
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures,
    }
    if trace:
        per_pass = [
            _layer_values(p["traces"], p["stdout_bytes"],
                          p["traced_wall"] / p["plain_wall"] - 1 if p["plain_wall"] else 0.0)
            for p in passes
        ]
        metrics = {
            name: {"value": statistics.median(v[name] for v in per_pass) if per_pass else 0,
                   "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            "ok_per_s": {"value": ok / loop_wall if loop_wall > 0 else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    result = {
        "correct": failed == 0 and not failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "magma_census" / "__init__.py").is_file():
        print(f"no magma_census package under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  reference.get(args.workload, {}), tmp)
    except HarnessError as e:
        print(e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in out["record"]["failures"][:5]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
