"""The benchmark's workloads: grids, seeded plans, and output checks.

Each workload is a closed loop of `magma-census` processes, one operation
(one argv) at a time. A pass is one seeded plan. Every pass of a workload
covers the same multiset of work: the seed changes the order of the grid
points and, for `sequence`, how the n-span is cut into ranges and which
small `--vary k` range runs, but not the bulk of the work a pass holds. That
keeps `ok_per_s` comparable across seeds. Why
each workload exists, and why `big-counts` fails at the commit that added
it, is in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

CLOSED_FORM_GRID = tuple(
    [(n, 2) for n in range(24, 41)] + [(n, 3) for n in range(12, 16)]
)
BIG_COUNTS_GRID = tuple(
    [(n, 3) for n in range(16, 29)]
    + [(n, 4) for n in range(9, 17)]
    + [(n, 5) for n in range(6, 13)]
)
# sequence: the k=2 n-span every pass covers exactly once, cut into
# SEQUENCE_RANGES seeded ranges, plus one `--vary k` range chosen from
# VARY_K_RANGES (n -> k span). Every count here stays under 4300 digits.
SEQUENCE_K = 2
SEQUENCE_SPAN = (0, 34)
SEQUENCE_RANGES = 4
VARY_K_RANGES = {3: (0, 7), 4: (0, 6), 5: (0, 5)}
VERIFY_SUITES = ("burnside", "structural", "cross-method", "variant", "cycle-index")

WORKLOADS = ("closed-form", "big-counts", "sequence", "verify")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def point_key(n: int, k: int) -> str:
    return f"{n},{k}"


def plain_stdout(count: int) -> str:
    return f"{count}\n"


def json_stdout(n: int, k: int, count: int) -> str:
    # Mirrors the CLI contract: counts travel as decimal strings.
    return json.dumps({"n": n, "k": k, "variant": "correct", "count": str(count)}) + "\n"


def bfile_line(index: int, count: int) -> str:
    return f"{index} {count}\n"


def sequence_points() -> list[tuple[str, int, int, int]]:
    """(reference key, n, k, bfile index) for every count a sequence pass can print."""
    lo, hi = SEQUENCE_SPAN
    points = [(f"n:{point_key(n, SEQUENCE_K)}", n, SEQUENCE_K, n) for n in range(lo, hi + 1)]
    for n, (k_lo, k_hi) in VARY_K_RANGES.items():
        points += [(f"k:{point_key(n, k)}", n, k, k) for k in range(k_lo, k_hi + 1)]
    return points


@dataclass(frozen=True)
class Op:
    """One operation: the CLI argv and how to judge its stdout.

    `expect` is a list of reference keys, one per expected output unit (the
    whole stdout for `count`, one line per term for `sequence`); for verify
    it names the suite.
    """

    workload: str
    argv: tuple[str, ...]
    expect: tuple[str, ...]


def plan(workload: str, rng: random.Random, jobs: int) -> list[Op]:
    """One pass of `workload`, drawn from `rng`."""
    if workload == "closed-form":
        points = list(CLOSED_FORM_GRID)
        rng.shuffle(points)
        return [
            Op(workload, ("count", "--n", str(n), "--k", str(k), "--jobs", "1"),
               (point_key(n, k),))
            for n, k in points
        ]
    if workload == "big-counts":
        points = list(BIG_COUNTS_GRID)
        rng.shuffle(points)
        return [
            Op(workload,
               ("count", "--n", str(n), "--k", str(k), "--format", "json", "--jobs", "1"),
               (point_key(n, k),))
            for n, k in points
        ]
    if workload == "sequence":
        lo, hi = SEQUENCE_SPAN
        cuts = sorted(rng.sample(range(lo + 1, hi + 1), SEQUENCE_RANGES - 1))
        bounds = list(zip([lo] + cuts, [c - 1 for c in cuts] + [hi]))
        ops = [
            Op(workload,
               ("sequence", "--k", str(SEQUENCE_K), "--from", str(a), "--to", str(b),
                "--format", "bfile", "--jobs", str(jobs)),
               tuple(f"n:{point_key(n, SEQUENCE_K)}" for n in range(a, b + 1)))
            for a, b in bounds
        ]
        n = rng.choice(sorted(VARY_K_RANGES))
        k_lo, k_hi = VARY_K_RANGES[n]
        ops.append(Op(
            workload,
            ("sequence", "--vary", "k", "--n", str(n), "--from", str(k_lo), "--to", str(k_hi),
             "--format", "bfile", "--jobs", str(jobs)),
            tuple(f"k:{point_key(n, k)}" for k in range(k_lo, k_hi + 1)),
        ))
        rng.shuffle(ops)
        return ops
    if workload == "verify":
        suites = list(VERIFY_SUITES)
        rng.shuffle(suites)
        return [Op(workload, ("verify", "--suite", s, "--jobs", "1"), (s,)) for s in suites]
    raise ValueError(f"unknown workload {workload!r}")


def check(op: Op, stdout: bytes, reference: dict[str, str]) -> str | None:
    """None when stdout is exactly what `op` must print, else the reason it is not."""
    try:
        text = stdout.decode()
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    if op.workload == "verify":
        suite = op.expect[0]
        lines = text.splitlines()
        if not lines or lines[0] != f"{suite}: PASS":
            return f"first line is not '{suite}: PASS'"
        if any(not line.startswith("  ") for line in lines[1:]):
            return "a line after the suite line is not an indented note"
        return None
    units = [text] if op.workload != "sequence" else text.splitlines(keepends=True)
    if len(units) != len(op.expect):
        return f"{len(units)} output units, expected {len(op.expect)}"
    for unit, key in zip(units, op.expect):
        want = reference.get(key)
        if want is None:
            return f"no reference digest for {key}"
        if digest(unit) != want:
            return f"stdout for {key} differs from the reference"
    return None
