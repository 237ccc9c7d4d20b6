"""Exact counts of k-ary operations on n elements up to relabeling.

A permutation with cycle type j fixes a table exactly when every chain of
entries it threads through the table closes up consistently; counting the
free choices per chain gives a closed form per cycle type, and averaging
over all of S_n (grouped by cycle type, weighted by how many permutations
share it) gives the number of isomorphism classes.

The closed form never visits the |support(j)|^k ordered tuples of cycle
lengths. An i-cycle paired with a j-cycle gives gcd(i, j) cycles of length
lcm(i, j), so the k coordinates fold in one at a time into a map from
tuple-cycle length to summed weight, and each distinct length costs one
bigint power. The weighted sum over cycle types is kept in exact integers,
fpc(j) * n!/z_j, and divided by n! once at the end; it runs serially in the
calling process.

Three independent evaluation routes are kept deliberately separate: the
partition-weighted sum, the literal average over all n! permutations, and
substitution into the induced cycle index. They must agree, and the test
suite refuses to let any one of them stand in for another.

The harrison-gcd variant reproduces a historically published exponent that
replaces the chain count r_1*...*r_k / lcm with gcd(r_1, ..., r_k). The two
agree for arity at most 2 (gcd * lcm = r*s) and diverge from (n, k) = (2, 3)
on; the variant is kept as a counting foil, not for use.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    CycleType,
    all_perms,
    cycle_type_count,
    cycle_type_of,
    divisors,
    enumerate_cycle_types,
    gcd_list,
    lcm_list,
)
from .cycle_index import (
    CycleIndexPoly,
    Monomial,
    cycle_index_direct,
    induce,
    substitute_per_monomial,
)

VARIANT_CORRECT = "correct"
VARIANT_HARRISON = "harrison-gcd"
VARIANTS = (VARIANT_CORRECT, VARIANT_HARRISON)

METHOD_PARTITION = "partition"
METHOD_PERMUTATION = "permutation"
METHODS = (METHOD_PARTITION, METHOD_PERMUTATION)

DEFAULT_PERM_GUARD = 8


class GuardError(Exception):
    """Raised when a request exceeds a configured feasibility guard."""


@dataclass(frozen=True, slots=True)
class CensusQuery:
    n: int
    k: int
    variant: str = VARIANT_CORRECT
    method: str = METHOD_PARTITION

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise ValueError(f"n and k must be >= 0, got n={self.n} k={self.k}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True, slots=True)
class CensusResult:
    """A computed count plus how it was obtained.

    terms_evaluated is the number of summands the route added up: cycle
    types for the partition and cycle-index routes, n! for the permutation
    route. elapsed is wall-clock seconds.
    """

    query: CensusQuery
    count: int
    terms_evaluated: int
    elapsed: float

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"negative count {self.count}")
        if self.count == 0 and (self.query.n, self.query.k) != (0, 0):
            raise ValueError(
                f"count 0 is only possible at (n, k) = (0, 0), "
                f"got ({self.query.n}, {self.query.k})"
            )


def weighted_divisor_sum(j: CycleType, m: int) -> int:
    """Sum of d * j_d over the divisors d of m.

    Divisors exceeding n contribute 0 because j has no cycles there; the
    lcm of several cycle lengths routinely exceeds n, so this must not
    index past the cycle type.
    """
    return sum(d * j.cycles_of_length(d) for d in divisors(m))


def _power_product(cycles: list[tuple[int, int]], exponents: dict[int, int]) -> int:
    # prod_L (sum of r * j_r over support r dividing L) ** exponents[L]: the
    # weighted divisor sum, read off the support instead of the divisors of L.
    total = 1
    for length, e in exponents.items():
        total *= sum(weight for r, weight in cycles if length % r == 0) ** e
    return total


def fixed_point_count(j: CycleType, k: int) -> int:
    """Number of k-ary tables fixed by any permutation of cycle type j.

    Product over ordered k-tuples (r_1, ..., r_k) of cycle lengths in the
    support of j: each tuple contributes the weighted divisor sum of
    L = lcm(r_1, ..., r_k) raised to (r_1*...*r_k / L) * j_{r_1}*...*j_{r_k}.
    Computed by folding the coordinates one at a time into a map from L to
    the summed weight prod r_i * j_{r_i}; the exponent of L is that weight
    over L, and each distinct L pays one power. The empty ground set gives
    1 for k >= 1 (empty product) and 0 for k = 0, where the lone factor is
    j_1^1 = 0^1.
    """
    if k < 0:
        raise ValueError(f"negative arity {k}")
    cycles = [(r, r * c) for r, c in enumerate(j.j, start=1) if c]
    lcm = math.lcm
    weights = {1: 1}
    for _ in range(k):
        folded: dict[int, int] = {}
        for length, w in weights.items():
            for r, weight in cycles:
                m = lcm(length, r)
                folded[m] = folded.get(m, 0) + w * weight
        weights = folded
    return _power_product(cycles, {m: w // m for m, w in weights.items()})


def fixed_point_count_harrison(j: CycleType, k: int) -> int:
    """The gcd-exponent variant of fixed_point_count. Wrong for k >= 3.

    Identical to the correct count for k <= 2, since gcd(r, s) * lcm(r, s)
    = r * s; from arity 3 on the gcd undercounts the chains each entry
    determines. Arity 1 has a single cycle length per tuple and multiplier
    1 either way; arity 0 is rejected, as there is no gcd of nothing.
    Folds like fixed_point_count, keyed by (lcm, gcd) with weight
    prod j_{r_i}; gcd(0, r) = r seeds the first coordinate.
    """
    if k < 1:
        raise ValueError(f"gcd variant needs arity >= 1, got {k}")
    lcm, gcd = math.lcm, math.gcd
    counts = [(r, c) for r, c in enumerate(j.j, start=1) if c]
    weights = {(1, 0): 1}
    for _ in range(k):
        folded: dict[tuple[int, int], int] = {}
        for (length, g), w in weights.items():
            for r, c in counts:
                key = (lcm(length, r), gcd(g, r))
                folded[key] = folded.get(key, 0) + w * c
        weights = folded
    exponents: dict[int, int] = {}
    for (length, g), w in weights.items():
        exponents[length] = exponents.get(length, 0) + (g * w if k >= 2 else w)
    return _power_product([(r, r * c) for r, c in counts], exponents)


def _variant_fpc(variant: str):
    if variant == VARIANT_CORRECT:
        return fixed_point_count
    if variant == VARIANT_HARRISON:
        return fixed_point_count_harrison
    raise ValueError(f"unknown variant {variant!r}")


def count_k_magmas(n: int, k: int, variant: str = VARIANT_CORRECT) -> CensusResult:
    """Number of isomorphism classes of k-ary operations on n elements.

    Sums fixed_point_count(j, k) * n!/z_j over the cycle types j of n as
    they are enumerated, z_j = prod_i i^{j_i} j_i!, in exact integers, and
    divides the total by n! with one divmod; a remainder raises. Serial and
    in enumeration order, so the result is the same bit for bit on every
    run.
    """
    start = time.perf_counter()
    query = CensusQuery(n, k, variant, METHOD_PARTITION)
    fpc = _variant_fpc(variant)
    total = 0
    terms = 0
    for j in enumerate_cycle_types(n):
        total += fpc(j, k) * cycle_type_count(j)
        terms += 1
    count, remainder = divmod(total, math.factorial(n))
    if remainder:
        raise ArithmeticError(
            f"non-integral class count: remainder {remainder} mod {n}! at n={n} k={k}"
        )
    return CensusResult(query, count, terms, time.perf_counter() - start)


def count_via_permutation_sum(
    n: int,
    k: int,
    variant: str = VARIANT_CORRECT,
    perm_guard: int = DEFAULT_PERM_GUARD,
) -> CensusResult:
    """The same count by literally averaging over all n! permutations.

    Exists to be compared against count_k_magmas, so it shares no grouping
    logic with it: every permutation is visited, its cycle type read off,
    and the per-type count cached only as a speedup.
    """
    if n > perm_guard:
        raise GuardError(f"n={n} exceeds the permutation-sum guard of {perm_guard}")
    start = time.perf_counter()
    query = CensusQuery(n, k, variant, METHOD_PERMUTATION)
    fpc = _variant_fpc(variant)
    cache: dict[tuple[int, ...], int] = {}
    total = 0
    terms = 0
    for p in all_perms(n):
        j = cycle_type_of(p)
        if j.j not in cache:
            cache[j.j] = fpc(j, k)
        total += cache[j.j]
        terms += 1
    avg = Fraction(total, math.factorial(n))
    if avg.denominator != 1:
        raise ArithmeticError(f"non-integral class count {avg} at n={n} k={k}")
    return CensusResult(query, avg.numerator, terms, time.perf_counter() - start)


def _induce_harrison(z: CycleIndexPoly, k: int) -> CycleIndexPoly:
    # Induced polynomial under the gcd-exponent convention: same
    # indeterminate per tuple (indexed by the lcm), wrong exponent.
    if k < 1:
        raise ValueError(f"gcd variant needs arity >= 1, got {k}")
    terms = []
    for coeff, mono in z.terms:
        j = mono.origin
        exps: dict[int, int] = {}
        for lengths in itertools.product(j.support(), repeat=k):
            multiplier = gcd_list(lengths) if k >= 2 else 1
            count = multiplier * math.prod(j.cycles_of_length(r) for r in lengths)
            length = lcm_list(lengths)
            exps[length] = exps.get(length, 0) + count
        terms.append((coeff, Monomial(j, tuple(sorted(exps.items())))))
    return CycleIndexPoly(z.n, k, tuple(terms))


def count_via_cycle_index(n: int, k: int, variant: str = VARIANT_CORRECT) -> CensusResult:
    """The same count again, through the induced cycle index.

    Builds Z_n, induces it to the k-tuple action with the literal per-tuple
    loop, and substitutes weighted_divisor_sum per term. A third route for
    cross-checking: it shares no code with count_k_magmas, whose kernel
    folds coordinates and reads its divisor sums off the support.
    """
    start = time.perf_counter()
    query = CensusQuery(n, k, variant, METHOD_PARTITION)
    z = cycle_index_direct(n)
    zk = induce(z, k) if variant == VARIANT_CORRECT else _induce_harrison(z, k)
    count = substitute_per_monomial(zk, weighted_divisor_sum)
    return CensusResult(query, count, len(zk.terms), time.perf_counter() - start)


def sequence(
    k: int, n_lo: int, n_hi: int, variant: str = VARIANT_CORRECT
) -> list[CensusResult]:
    """count_k_magmas for every n in [n_lo, n_hi], in order."""
    if not (0 <= n_lo <= n_hi):
        raise ValueError(f"bad range [{n_lo}, {n_hi}]")
    return [count_k_magmas(n, k, variant) for n in range(n_lo, n_hi + 1)]


def sequence_in_k(
    n: int, k_lo: int, k_hi: int, variant: str = VARIANT_CORRECT
) -> list[CensusResult]:
    """count_k_magmas for every k in [k_lo, k_hi], fixed n."""
    if not (0 <= k_lo <= k_hi):
        raise ValueError(f"bad range [{k_lo}, {k_hi}]")
    return [count_k_magmas(n, k, variant) for k in range(k_lo, k_hi + 1)]
