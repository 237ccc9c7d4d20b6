"""Command-line driver: counts, sequences, cycle indices, verification sweeps.

Stdout carries data only, formatted exactly as requested; anything meant
for a human mid-run goes to stderr. Counts print as exact decimals at any
size. Exit codes are a stable contract: 0 success, 1 a verification suite
failed, 2 usage error (argument problems only, all found before any work
starts), 3 a feasibility guard refused the request, 141 the reader
closed stdout before the output was done (as shells report SIGPIPE).

A count or a sequence loads only this module, census and arith; the
oracle, the cycle index, json, decimal and random are imported by the
command or format that uses them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import census
from .arith import (
    DEFAULT_CELL_CAP,
    GuardError,
    enumerate_cycle_types,
    realize_cycle_type,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_BROKEN_PIPE = 141

DEFAULT_SEED = 1729

FORMAT_PLAIN = "plain"
FORMAT_JSON = "json"
FORMAT_BFILE = "bfile"

VERIFY_SUITES = ("burnside", "structural", "cross-method", "variant", "cycle-index")


def default_jobs() -> int:
    """The --jobs default: MAGMA_CENSUS_JOBS, else the CPU count.

    Every command runs serially; the value is validated and then unused.
    """
    env = os.environ.get("MAGMA_CENSUS_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"MAGMA_CENSUS_JOBS must be an integer, got {env!r}")
        if jobs < 1:
            raise ValueError(f"MAGMA_CENSUS_JOBS must be positive, got {jobs}")
        return jobs
    return os.cpu_count() or 1


# str() is used up to the interpreter's default digit limit. A value of at
# most d * 3.321 bits is below 2^(d * 3.321) < 10^d (log2(10) = 3.3219...),
# so it has at most d digits.
_STR_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)
_BITS_PER_DIGIT_FLOOR = 3.321
# Below this many bits a block goes to Decimal directly.
_DECIMAL_BLOCK_BITS = 128


def decimal_string(value: int) -> str:
    """The exact decimal digits of value, at any size.

    str() refuses ints past the interpreter's digit limit (4300 digits by
    default) and is quadratic in the digit count besides. Up to that limit,
    and never past its default, this is str(). Above it the value is split
    into binary halves, hi * 2^w + lo, each half converted recursively and
    recombined in exact stdlib decimal arithmetic, whose multiplication is
    subquadratic. This is the scheme of CPython 3.12's Lib/_pylong.py. The
    interpreter's limit itself is never changed.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = min(limit, _STR_DIGITS) if limit else _STR_DIGITS
    if abs(value).bit_length() <= int(digits * _BITS_PER_DIGIT_FLOOR):
        return str(value)
    sign = "-" if value < 0 else ""
    return sign + _decimal_digits(abs(value))


def _decimal_digits(value: int) -> str:
    import decimal

    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def power_of_two(w: int) -> decimal.Decimal:
        # 2^w as a Decimal, memoized: the same widths recur on every level.
        if w not in powers:
            if w <= _DECIMAL_BLOCK_BITS:
                powers[w] = D(2) ** w
            elif w - 1 in powers:
                powers[w] = powers[w - 1] * 2
            else:
                half = w >> 1
                powers[w] = power_of_two(half) * power_of_two(w - half)
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        # n < 2^w.
        if w <= _DECIMAL_BLOCK_BITS:
            return D(n)
        half = w >> 1
        hi = n >> half
        lo = n - (hi << half)
        return convert(lo, half) + convert(hi, w - half) * power_of_two(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(convert(value, value.bit_length()))


def _count_record(result: census.CensusResult) -> dict:
    # Counts travel as decimal strings: consumers with 64-bit JSON numbers
    # must still round-trip values like 178981952 and far beyond.
    return {
        "n": result.query.n,
        "k": result.query.k,
        "variant": result.query.variant,
        "count": decimal_string(result.count),
    }


def cmd_count(args) -> int:
    if args.method == census.METHOD_PERMUTATION:
        guard = census.DEFAULT_PERM_GUARD if args.perm_guard is None else args.perm_guard
        result = census.count_via_permutation_sum(args.n, args.k, args.variant, guard)
    else:
        result = census.count_k_magmas(args.n, args.k, args.variant)
    if args.format == FORMAT_JSON:
        import json

        print(json.dumps(_count_record(result)))
    else:
        print(decimal_string(result.count))
    return EXIT_OK


def cmd_sequence(args) -> int:
    # Plain and bfile lines go out as each count is done; JSON is one list.
    if args.vary == "k":
        results = census.sequence_in_k(args.n, args.lo, args.hi, args.variant)
    else:
        results = census.sequence(args.k, args.lo, args.hi, args.variant)
    if args.format == FORMAT_JSON:
        import json

        print(json.dumps([_count_record(r) for r in results]))
        return EXIT_OK
    for index, r in zip(range(args.lo, args.hi + 1), results):
        value = decimal_string(r.count)
        print(f"{index} {value}" if args.format == FORMAT_BFILE else value, flush=True)
    return EXIT_OK


def cmd_cycle_index(args) -> int:
    from . import cycle_index

    z = cycle_index.cycle_index_direct(args.n)
    if args.power is not None:
        z = cycle_index.induce(z, args.power)
    if args.format == FORMAT_JSON:
        import json

        print(json.dumps(z.to_json_dict()))
    else:
        print(z.render())
    return EXIT_OK


# The burnside suite tries arities 0..6; past that only n <= 1 fits any cap
# the oracle could finish under (n = 2, k = 7 has 2^128 tables).
_BURNSIDE_K_MAX = 6


def _feasible_pairs(max_cells: int):
    for n in range(0, 9):
        for k in range(0, _BURNSIDE_K_MAX + 1):
            if n ** (n**k) <= max_cells:
                yield n, k


def _suite_burnside(args):
    from . import oracle

    failures = []
    pairs = 0
    for n, k in _feasible_pairs(args.max_cells):
        brute = oracle.count_orbits_bruteforce(n, k, args.max_cells)
        formula = census.count_k_magmas(n, k).count
        pairs += 1
        if brute != formula:
            failures.append(f"n={n} k={k}: bruteforce {brute}, formula {formula}")
    return failures, [f"{pairs} (n, k) pairs under the cap"]


def _suite_structural(args):
    import random

    from . import oracle

    rng = random.Random(args.seed)
    failures = []
    checked = 0
    for n in range(0, args.n_max + 1):
        for j in enumerate_cycle_types(n):
            p = realize_cycle_type(j, rng)
            for k in range(0, args.k_max + 1):
                structural = oracle.fixed_tables_structural(p, n, k)
                closed = census.fixed_point_count(j, k)
                checked += 1
                if structural != closed:
                    failures.append(
                        f"n={n} k={k} j={j.j}: structural {structural}, "
                        f"closed form {closed}"
                    )
    return failures, [f"{checked} (cycle type, k) pairs"]


def _suite_cross_method(args):
    # Capped at n = 6: from (7, 3) on, the gcd variant's average over S_n
    # stops being an integer at all (a quiet proof of its wrongness), so
    # there is no count for the three routes to agree on.
    failures = []
    top = min(args.n_max, 6, args.perm_guard)
    triples = 0
    for n in range(0, top + 1):
        for k in range(0, args.k_max + 1):
            for variant in census.VARIANTS:
                if variant == census.VARIANT_HARRISON and k == 0:
                    continue
                triples += 1
                a = census.count_k_magmas(n, k, variant).count
                b = census.count_via_permutation_sum(
                    n, k, variant, args.perm_guard
                ).count
                c = census.count_via_cycle_index(n, k, variant).count
                if not (a == b == c):
                    failures.append(
                        f"n={n} k={k} variant={variant}: "
                        f"partition {a}, permutation {b}, cycle-index {c}"
                    )
    return failures, [f"{triples} (n, k, variant) triples, n <= {top}"]


def _suite_variant(args):
    # The gcd variant must track the correct count through every k <= 2
    # and break first at n=2, k=3, undercounting 130 against 136. The
    # k=3 scan stops at n=6, where the variant still yields integers.
    failures = []
    first = None
    for k in range(1, 4):
        for n in range(0, 8 if k <= 2 else 7):
            good = census.count_k_magmas(n, k).count
            bad = census.count_k_magmas(n, k, census.VARIANT_HARRISON).count
            if good != bad:
                if first is None:
                    first = (n, k, bad, good)
                if k <= 2:
                    failures.append(
                        f"variants disagree at n={n} k={k}: {bad} != {good}"
                    )
    if first is None:
        failures.append("variants never diverged; the gcd exponent went unused")
        return failures, []
    n, k, bad, good = first
    if (n, k) != (2, 3):
        failures.append(f"first divergence at n={n} k={k}, expected n=2 k=3")
    elif bad >= good:
        failures.append(f"gcd variant should undercount at n=2 k=3: {bad} vs {good}")
    return failures, [f"first divergence at n={n} k={k}: {bad} != {good}"]


def _suite_cycle_index(args):
    from . import cycle_index

    failures = []
    natural, induced = range(0, 26), range(0, 10)
    for n in natural:
        direct = cycle_index.cycle_index_direct(n)
        recursive = cycle_index.cycle_index_recursive(n)
        if direct.terms != recursive.terms:
            failures.append(f"n={n}: recursive cycle index differs from direct")
    for n in induced:
        z2 = cycle_index.induce(cycle_index.cycle_index_direct(n), 2)
        top = cycle_index.max_indeterminate_index(z2)
        bound = n if n <= 4 else n * n // 4
        if top > bound:
            failures.append(f"n={n}: induced index {top} exceeds bound {bound}")
    return failures, [f"direct vs recursive Z_n at n <= {natural[-1]}, "
                      f"induced-index bound at n <= {induced[-1]}"]


_SUITE_RUNNERS = {
    "burnside": _suite_burnside,
    "structural": _suite_structural,
    "cross-method": _suite_cross_method,
    "variant": _suite_variant,
    "cycle-index": _suite_cycle_index,
}


def cmd_verify(args) -> int:
    suites = args.suite or list(VERIFY_SUITES)
    any_failed = False
    for suite in suites:
        failures, notes = _SUITE_RUNNERS[suite](args)
        print(f"{suite}: {'FAIL' if failures else 'PASS'}")
        for line in failures:
            any_failed = True
            print(f"  {line}")
        for line in notes:
            print(f"  {line}")
    return EXIT_VERIFY_FAILED if any_failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magma-census",
        description="Count k-ary operations on n elements up to isomorphism.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, *formats):
        p.add_argument("--format", choices=formats, default=FORMAT_PLAIN)

    def add_jobs(p):
        p.add_argument("--jobs", type=int, default=None,
                       help="accepted and validated; has no effect "
                            "(default MAGMA_CENSUS_JOBS, then CPU count)")

    def add_perm_guard(p, default):
        p.add_argument("--perm-guard", type=int, default=default,
                       help="largest n for the permutation-sum method "
                            f"(default {census.DEFAULT_PERM_GUARD})")

    p_count = sub.add_parser("count", help="one isomorphism-class count")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--variant", choices=census.VARIANTS,
                         default=census.VARIANT_CORRECT)
    p_count.add_argument("--method", choices=census.METHODS,
                         default=census.METHOD_PARTITION)
    add_format(p_count, FORMAT_PLAIN, FORMAT_JSON)
    add_jobs(p_count)
    # None: count reads the guard only under --method permutation, and
    # refuses it otherwise (see _validate).
    add_perm_guard(p_count, None)
    p_count.set_defaults(func=cmd_count)

    p_seq = sub.add_parser("sequence", help="counts over a range of n (or k)")
    p_seq.add_argument("--k", type=int, help="arity (when varying n)")
    p_seq.add_argument("--n", type=int, help="set size (when varying k)")
    p_seq.add_argument("--from", dest="lo", type=int, required=True)
    p_seq.add_argument("--to", dest="hi", type=int, required=True)
    p_seq.add_argument("--vary", choices=("n", "k"), default="n")
    p_seq.add_argument("--variant", choices=census.VARIANTS,
                       default=census.VARIANT_CORRECT)
    add_format(p_seq, FORMAT_PLAIN, FORMAT_JSON, FORMAT_BFILE)
    add_jobs(p_seq)
    p_seq.set_defaults(func=cmd_sequence)

    p_zi = sub.add_parser("cycle-index", help="print Z_n, optionally induced")
    p_zi.add_argument("--n", type=int, required=True)
    p_zi.add_argument("--power", type=int, default=None,
                      help="induce to the action on k-tuples")
    add_format(p_zi, FORMAT_PLAIN, FORMAT_JSON)
    add_jobs(p_zi)
    p_zi.set_defaults(func=cmd_cycle_index)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("--suite", action="append", choices=VERIFY_SUITES,
                       help="suite to run (repeatable); default all")
    bounds = "bounds only the structural and cross-method suites"
    p_ver.add_argument("--n-max", type=int, default=8, help=bounds)
    p_ver.add_argument("--k-max", type=int, default=3, help=bounds)
    p_ver.add_argument("--max-cells", type=int, default=DEFAULT_CELL_CAP,
                       help="enumeration cap on n^(n^k) for the burnside suite")
    add_perm_guard(p_ver, census.DEFAULT_PERM_GUARD)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the structural suite's permutations")
    add_jobs(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _validate(args, parser: argparse.ArgumentParser):
    # Every argument problem is found here and reported through
    # parser.error (exit 2) before any work starts; a ValueError raised
    # later is an internal fault, not a usage error. Each command has only
    # the flags it reads, so only those are checked.
    if getattr(args, "n", None) is not None and args.n < 0:
        parser.error(f"--n must be >= 0, got {args.n}")
    if getattr(args, "k", None) is not None and args.k < 0:
        parser.error(f"--k must be >= 0, got {args.k}")
    if getattr(args, "power", None) is not None and args.power < 0:
        parser.error(f"--power must be >= 0, got {args.power}")
    if args.command == "count" and args.perm_guard is not None:
        if args.method != census.METHOD_PERMUTATION:
            parser.error("--perm-guard applies only to --method permutation")
    if (getattr(args, "perm_guard", None) or 0) < 0:
        parser.error(f"--perm-guard must be >= 0, got {args.perm_guard}")
    if args.jobs is None:
        try:
            default_jobs()
        except ValueError as e:
            parser.error(str(e))
    elif args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.command == "sequence":
        if not (0 <= args.lo <= args.hi):
            parser.error(f"bad range [{args.lo}, {args.hi}]")
        if args.vary == "n" and args.k is None:
            parser.error("--k is required when varying n")
        if args.vary == "k" and args.n is None:
            parser.error("--n is required when varying k")
    if getattr(args, "variant", None) == census.VARIANT_HARRISON:
        arity_from = args.lo if getattr(args, "vary", "n") == "k" else args.k
        if arity_from == 0:
            parser.error("--variant harrison-gcd needs arity >= 1")
    if args.command == "verify":
        if args.n_max < 0 or args.k_max < 0:
            parser.error("--n-max and --k-max must be >= 0")
        if args.max_cells < 1:
            parser.error(f"--max-cells must be >= 1, got {args.max_cells}")


def entry_point(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader stopped early (`| head`); nothing failed here. Point
        # stdout at the null device so the interpreter's final flush of
        # what is still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except GuardError as e:
        print(e, file=sys.stderr)
        return EXIT_GUARD
    except ArithmeticError as e:
        # A sum that refutes its own integrality; reachable through the
        # gcd variant outside its documented range (first at n=7, k=3).
        print(e, file=sys.stderr)
        return EXIT_VERIFY_FAILED


def main():
    sys.exit(entry_point())
