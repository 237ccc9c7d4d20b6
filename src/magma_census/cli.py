"""Command-line driver: counts, sequences, cycle indices, verification sweeps.

Stdout carries data only, formatted exactly as requested; anything meant
for a human mid-run goes to stderr. Counts print as exact decimals at any
size. Exit codes are a stable contract: 0 success, 1 a verification suite
failed, 2 usage error (argument problems only, all found before any work
starts), 3 a feasibility guard refused the request, 141 the reader
closed stdout before the output was done (as shells report SIGPIPE).

The parser owns the argument contract, and states each rule once. A
flag's own range lives in its argparse type (_at_least). The few rules
that tie one flag to another are checked by the command before it starts
work, through its own parser's error (args.usage_error). Either way a
usage error prints the usage of the command that was given.

A count is the one-term sequence: count and sequence reach the walk
through one function, census.sequence, or split.sequence at --jobs above
1. Either loads only this module, census and arith. Past arith, every
module (the census, the oracle, the cycle index, the process split, json,
decimal and random) is imported by the command, suite or format that
uses it, so `cycle-index` and its verify suite never load the census.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .arith import (
    VARIANT_CORRECT,
    VARIANT_HARRISON,
    VARIANTS,
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

METHOD_PARTITION = "partition"
METHOD_PERMUTATION = "permutation"


def _at_least(low: int):
    """An argparse type: an int >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


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


def _count_record(result) -> dict:
    # Counts travel as decimal strings: consumers with 64-bit JSON numbers
    # must still round-trip values like 178981952 and far beyond.
    return {
        "n": result.query.n,
        "k": result.query.k,
        "variant": result.query.variant,
        "count": decimal_string(result.count),
    }


def _refuse_nullary_gcd(args, arity: int) -> None:
    if args.variant == VARIANT_HARRISON and arity == 0:
        args.usage_error("--variant harrison-gcd needs arity >= 1")


def _counts(args, fixed: int, lo: int, hi: int, vary: str = "n"):
    # The one reader of --jobs: census.sequence, its heavier walks split
    # over that many processes above 1.
    from . import census

    if args.jobs > 1:
        from . import split

        return split.sequence(fixed, lo, hi, args.variant, vary, jobs=args.jobs)
    return census.sequence(fixed, lo, hi, args.variant, vary)


def cmd_count(args) -> int:
    _refuse_nullary_gcd(args, args.k)
    if args.method == METHOD_PERMUTATION:
        from . import census

        result = census.count_via_permutation_sum(args.n, args.k, args.variant)
    else:
        # A count is the one term of a sequence; the list drains it, so a
        # split's workers are reaped before the count prints.
        [result] = _counts(args, args.k, args.n, args.n)
    if args.format == FORMAT_JSON:
        import json

        print(json.dumps(_count_record(result)))
    else:
        print(decimal_string(result.count))
    return EXIT_OK


def cmd_sequence(args) -> int:
    # --vary names the coordinate that runs over [--from, --to]; the other
    # one comes from its own flag, and the varied one's flag is refused.
    fixed = "k" if args.vary == "n" else "n"
    if getattr(args, fixed) is None:
        args.usage_error(f"--{fixed} is required when varying {args.vary}")
    if getattr(args, args.vary) is not None:
        args.usage_error(f"--{args.vary} is not read when varying {args.vary}; "
                         "--from and --to give it")
    if args.lo > args.hi:
        args.usage_error(f"bad range [{args.lo}, {args.hi}]")
    _refuse_nullary_gcd(args, args.lo if args.vary == "k" else args.k)
    # Plain and bfile lines go out as each count is done; JSON is one list.
    results = _counts(args, getattr(args, fixed), args.lo, args.hi, args.vary)
    try:
        if args.format == FORMAT_JSON:
            import json

            print(json.dumps([_count_record(r) for r in results]))
            return EXIT_OK
        for index, r in enumerate(results, start=args.lo):
            value = decimal_string(r.count)
            print(f"{index} {value}" if args.format == FORMAT_BFILE else value,
                  flush=True)
        return EXIT_OK
    finally:
        # Reaps a split's workers now, killing any still at work when a
        # line could not be written (`| head`) or anything else went wrong.
        results.close()


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


def _agree(cases, routes: dict, note: str):
    # A suite that runs every route on every case. A case whose values
    # differ is one failure line: its label, then each route's name and
    # value, in the order given. The note gets the number of cases at {}.
    failures, checked = [], 0
    for label, *case in cases:
        checked += 1
        values = {name: route(*case) for name, route in routes.items()}
        if len(set(values.values())) > 1:
            listed = ", ".join(f"{name} {value}" for name, value in values.items())
            failures.append(f"{label}: {listed}")
    return failures, [note.format(checked)]


def _counted(route):
    return lambda *case: route(*case).count


def _suite_burnside():
    from . import census, oracle

    pairs = ((f"n={n} k={k}", n, k) for n in range(0, 9)
             for k in range(0, _BURNSIDE_K_MAX + 1) if oracle.within_table_cap(n, k))
    return _agree(pairs, {"bruteforce": oracle.count_orbits_bruteforce,
                          "formula": _counted(census.count_k_magmas)},
                  "{} (n, k) pairs under the cap")


def _suite_structural():
    import random

    from . import census, oracle

    def cases(rng):
        # One realization per cycle type, drawn before its arities.
        for n in range(0, 9):
            for j in enumerate_cycle_types(n):
                p = realize_cycle_type(j, rng)
                for k in range(0, 4):
                    yield f"n={n} k={k} j={j.j}", p, j, k

    return _agree(cases(random.Random(DEFAULT_SEED)),
                  {"structural": lambda p, j, k: oracle.fixed_tables_structural(p, j.n, k),
                   "closed form": lambda p, j, k: census.fixed_point_count(j, k)},
                  "{} (cycle type, k) pairs")


def _suite_cross_method():
    from . import census

    # Capped at n = 6: from (7, 3) on, the gcd variant's average over S_n
    # stops being an integer at all (a quiet proof of its wrongness), so
    # there is no count for the three routes to agree on.
    top = 6
    triples = ((f"n={n} k={k} variant={variant}", n, k, variant)
               for n in range(0, top + 1) for k in range(0, 4) for variant in VARIANTS
               if not (variant == VARIANT_HARRISON and k == 0))
    return _agree(triples, {"partition": _counted(census.count_k_magmas),
                            "permutation": _counted(census.count_via_permutation_sum),
                            "cycle-index": _counted(census.count_via_cycle_index)},
                  f"{{}} (n, k, variant) triples, n <= {top}")


def _suite_variant():
    from . import census

    # The gcd variant must track the correct count through every k <= 2
    # and break first at n=2, k=3, undercounting 130 against 136. The
    # k=3 scan stops at n=6, where the variant still yields integers.
    failures = []
    first = None
    for k in range(1, 4):
        for n in range(0, 8 if k <= 2 else 7):
            good = census.count_k_magmas(n, k).count
            bad = census.count_k_magmas(n, k, VARIANT_HARRISON).count
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


def _suite_cycle_index():
    from . import cycle_index

    failures = []
    natural, induced = range(0, 26), range(0, 10)
    # The two routes to n! Z_n meet as integer tables: n!/z_j per cycle
    # type, and the recursion, whose one pass yields every N_n at once.
    # Polynomials are built only where the induced-index bound reads
    # them, and there the two are compared whole as well.
    recursive = cycle_index.recursive_counts(natural[-1])
    key = cycle_index.count_key
    kept = []
    for n in natural:
        same = {key(j.j): c for j, c in cycle_index.direct_counts(n)} == recursive[n]
        if n in induced:
            direct = cycle_index.cycle_index_direct(n)
            same = same and direct.terms == cycle_index.cycle_index_recursive(n).terms
            kept.append(direct)
        if not same:
            failures.append(f"n={n}: recursive cycle index differs from direct")
    for n, direct in zip(induced, kept):
        z2 = cycle_index.induce(direct, 2)
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
# The suite names, in the order verify runs them by default.
VERIFY_SUITES = tuple(_SUITE_RUNNERS)


def cmd_verify(args) -> int:
    # Stdout carries each suite's verdict and notes; its elapsed seconds go
    # to stderr, so the verdicts stay byte-identical from run to run.
    # A suite named twice runs once, where it was first named.
    suites = dict.fromkeys(args.suite or VERIFY_SUITES)
    any_failed = False
    for suite in suites:
        start = time.perf_counter()
        failures, notes = _SUITE_RUNNERS[suite]()
        print(f"{suite}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
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
    natural, positive = _at_least(0), _at_least(1)

    def add_command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, usage_error=p.error)
        return p

    def add_format(p, *formats):
        p.add_argument("--format", choices=formats, default=FORMAT_PLAIN)

    def add_jobs(p, help="accepted and validated (>= 1); has no effect here"):
        p.add_argument("--jobs", type=positive, default=1, help=help)

    split_help = ("processes to split the heavier walks over, at most the usable "
                  "CPUs (default 1); stdout is the same at every value")

    p_count = add_command("count", cmd_count, "one isomorphism-class count")
    p_count.add_argument("--n", type=natural, required=True)
    p_count.add_argument("--k", type=natural, required=True)
    p_count.add_argument("--variant", choices=VARIANTS,
                         default=VARIANT_CORRECT)
    p_count.add_argument("--method", default=METHOD_PARTITION,
                         choices=(METHOD_PARTITION, METHOD_PERMUTATION))
    add_format(p_count, FORMAT_PLAIN, FORMAT_JSON)
    add_jobs(p_count, split_help)

    p_seq = add_command("sequence", cmd_sequence, "counts over a range of n (or k)")
    p_seq.add_argument("--k", type=natural, help="arity (when varying n)")
    p_seq.add_argument("--n", type=natural, help="set size (when varying k)")
    p_seq.add_argument("--from", dest="lo", type=natural, required=True)
    p_seq.add_argument("--to", dest="hi", type=natural, required=True)
    p_seq.add_argument("--vary", choices=("n", "k"), default="n")
    p_seq.add_argument("--variant", choices=VARIANTS,
                       default=VARIANT_CORRECT)
    add_format(p_seq, FORMAT_PLAIN, FORMAT_JSON, FORMAT_BFILE)
    add_jobs(p_seq, split_help)

    p_zi = add_command("cycle-index", cmd_cycle_index, "print Z_n, optionally induced")
    p_zi.add_argument("--n", type=natural, required=True)
    p_zi.add_argument("--power", type=natural, default=None,
                      help="induce to the action on k-tuples")
    add_format(p_zi, FORMAT_PLAIN, FORMAT_JSON)
    add_jobs(p_zi)

    p_ver = add_command("verify", cmd_verify, "run the invariant suites")
    p_ver.add_argument("--suite", action="append", choices=VERIFY_SUITES,
                       help="suite to run (repeatable); default all")
    add_jobs(p_ver)

    return parser


def entry_point(argv=None) -> int:
    # A flag the command does not read is refused by that command's parser,
    # not the top-level one, so the usage printed is the command's own.
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        args.usage_error(f"unrecognized arguments: {' '.join(unread)}")
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
        # The package raises a bare ArithmeticError only for a sum that
        # refutes itself, reachable through the gcd variant outside its
        # documented range (first at n=7, k=3). A subclass (OverflowError,
        # ZeroDivisionError, a decimal signal) is an internal fault.
        if type(e) is not ArithmeticError:
            raise
        print(e, file=sys.stderr)
        return EXIT_VERIFY_FAILED
