"""Regenerate perfbench/reference.json: digests of the exact expected stdout.

Usage, from the repository root:

    python3 perfbench/make_reference.py

Each count comes from `census.count_via_cycle_index` (substitution into the
induced cycle index) and is checked against `census.count_k_magmas` before
its digest is written, so the reference rests on two routes, not on the
partition sum the benchmark times. This process alone lifts CPython's limit
on int-to-str digits; the benchmarked program always runs with interpreter
defaults. Takes several minutes: the big-counts grid is the bulk of it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from magma_census import census  # noqa: E402

import workloads as wl  # noqa: E402

DIGIT_LIMIT = 4300


def exact_count(n: int, k: int) -> int:
    count = census.count_via_cycle_index(n, k).count
    second = census.count_k_magmas(n, k).count
    if count != second:
        raise SystemExit(f"routes disagree at n={n} k={k}: {count} != {second}")
    return count


def main() -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    out: dict[str, dict[str, str]] = {"closed-form": {}, "big-counts": {}, "sequence": {}}
    digits: dict[str, int] = {}

    def note(workload: str, key: str, count: int, text: str) -> None:
        out[workload][key] = wl.digest(text)
        digits[f"{workload}/{key}"] = len(str(count))
        print(f"{workload} {key}: {len(str(count))} digits", file=sys.stderr, flush=True)

    for n, k in wl.CLOSED_FORM_GRID:
        count = exact_count(n, k)
        note("closed-form", wl.point_key(n, k), count, wl.plain_stdout(count))
    for key, n, k, index in wl.sequence_points():
        count = exact_count(n, k)
        note("sequence", key, count, wl.bfile_line(index, count))
    for n, k in wl.BIG_COUNTS_GRID:
        count = exact_count(n, k)
        note("big-counts", wl.point_key(n, k), count, wl.json_stdout(n, k, count))

    # The workloads are defined by which side of the limit they sit on.
    for name, d in digits.items():
        big = name.startswith("big-counts/")
        if big != (d > DIGIT_LIMIT):
            raise SystemExit(f"{name} has {d} digits, on the wrong side of {DIGIT_LIMIT}")
    path = HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
