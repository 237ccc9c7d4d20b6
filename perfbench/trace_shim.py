"""Run `magma_census.cli.entry_point(argv)` with per-layer spans.

Usage: python3 perfbench/trace_shim.py OUT.json ARGV...

Wraps each module's public functions on the module attributes their callers
look up (a function imported into several modules is wrapped in each, under
one name), runs the CLI, and writes per-name call counts, inclusive seconds
and self seconds (inclusive minus traced children) to OUT.json when the run
ends. Spans are aggregated in memory while the program runs; nothing is
written before the end. Stdout is left to the program.

Pool workers are forked with the wrappers in place, and their spans die with
them: under `--jobs 2` only parent-side spans are reported, so a parent span
that waits on a pool counts the wait as its own time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from magma_census import arith, census, cli, cycle_index, oracle

MODULES = (arith, cycle_index, census, oracle, cli)
TRACED = {
    arith: ("enumerate_cycle_types",),
    census: (
        "count_k_magmas",
        "fixed_point_count",
        "weighted_divisor_sum",
        "count_via_permutation_sum",
        "count_via_cycle_index",
    ),
    cycle_index: ("cycle_index_recursive", "induce", "substitute_per_monomial"),
    oracle: ("count_orbits_bruteforce", "fixed_tables_structural"),
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, int] = {}
        self._child_time = [0.0]  # one slot per open span, plus the root

    def span(self, name: str, fn, after=None):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result, args, kwargs)
                return result
            finally:
                inclusive = clock() - start
                children = stack.pop()
                stack[-1] += inclusive
                record[0] += 1
                record[1] += inclusive
                record[2] += inclusive - children

        return wrapper

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def install(tracer: Tracer) -> None:
    def consume_types(result, args, kwargs):
        # A generator does its work when consumed, so consume it inside the span.
        types = list(result)
        tracer.count("arith.cycle_types", len(types))
        return iter(types)

    def result_bits(result, args, kwargs):
        tracer.count("census.result_bits", result.count.bit_length())
        return result

    def tables_scanned(result, args, kwargs):
        # Computed from the arguments (n^(n^k) tables per call), not counted.
        bound = dict(zip(("n", "k"), args)) | kwargs
        tracer.count("oracle.tables_scanned", bound["n"] ** (bound["n"] ** bound["k"]))
        return result

    after = {
        "enumerate_cycle_types": consume_types,
        "count_k_magmas": result_bits,
        "count_orbits_bruteforce": tables_scanned,
    }
    for home, names in TRACED.items():
        for name in names:
            original = getattr(home, name)
            layer = home.__name__.rsplit(".", 1)[-1]
            wrapped = tracer.span(f"{layer}.{name}", original, after.get(name))
            for module in MODULES:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    entry = tracer.span("cli.entry_point", cli.entry_point)
    try:
        code = entry(argv)
    except SystemExit as e:  # argparse errors
        code = e.code if isinstance(e.code, int) else 2
    finally:
        sys.stdout.flush()
        info = oracle.cell_permutation.cache_info()
        tracer.count("oracle.cell_permutation.hits", info.hits)
        tracer.count("oracle.cell_permutation.misses", info.misses)
        with open(out_path, "w") as f:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
