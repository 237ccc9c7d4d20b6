"""Exact counts of k-ary operations on n elements up to relabeling.

A permutation with cycle type j fixes a table exactly when every chain of
entries it threads through the table closes up consistently; counting the
free choices per chain gives a closed form per cycle type, and averaging
over all of S_n (grouped by cycle type, weighted by how many permutations
share it) gives the number of isomorphism classes.

The closed form never visits the |support(j)|^k ordered tuples of cycle
lengths, and never builds the cycle types one by one. An i-cycle paired
with a j-cycle gives gcd(i, j) cycles of length lcm(i, j), so the tuples
are folded into maps F_0..F_k, F_m sending each tuple-cycle length L to the
summed weight of the m-tuples with lcm L. The parts (r, j_r) of a cycle
type join one at a time: an m-tuple over the grown support holds r at a of
its places, C(m, a) ways, so
F'_m = F_m + sum_{a=1..m} C(m, a) (r j_r)^a (F_{m-a} with each L -> lcm(L, r)).
count_k_magmas walks the partitions of n depth first in multiplicity form,
carrying that fold and z_j = prod_i i^{j_i} j_i! down the tree, so
neighbouring cycle types share the work for the parts they share; each
leaf pays one bigint power per distinct L. The weighted sum
fpc(j) * n!/z_j is kept in exact integers and divided by n! once at the
end, after checking that the weights n!/z_j sum to n! exactly, which a
single missed or repeated cycle type cannot pass. It runs serially in the
calling process. fixed_point_count applies the same part update to one
cycle type's support.

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
from typing import Callable, Iterator, NamedTuple

from .arith import (
    CycleType,
    all_perms,
    cycle_type_of,
    divisors,
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


class _Kernel(NamedTuple):
    """How one variant keys, weighs and closes the part-by-part fold.

    seed is the key of the empty tuple; rekey(key, r) is the key once an
    r-cycle joins the tuple. The correct count keys by lcm alone and weighs
    a part (r, c) by r*c; the gcd variant keys by (lcm, gcd), weighs by c,
    and seeds gcd with 0 since gcd(0, r) = r.
    """

    variant: str
    seed: object
    rekey: Callable

    def weight(self, r: int, c: int) -> int:
        return r * c if self.variant == VARIANT_CORRECT else c

    def fixed_points(self, top: dict, parts: tuple | list, k: int) -> int:
        # prod_L (sum of r*c over parts (r, r*c) with r dividing L) ** e_L:
        # the weighted divisor sum, read off the parts instead of the
        # divisors of L. For the correct count e_L = W_L / L. The gcd
        # variant's exponent sums g*W over its (L, g) keys (W alone at
        # arity 1); it is scaled by L here so that the same division
        # recovers it.
        if self.variant == VARIANT_HARRISON:
            scaled: dict[int, int] = {}
            for (length, g), w in top.items():
                e = g * w if k >= 2 else w
                scaled[length] = scaled.get(length, 0) + e * length
            top = scaled
        total = 1
        for length, w in top.items():
            total *= sum([s for r, s in parts if length % r == 0]) ** (w // length)
        return total


def _harrison_key(key: tuple[int, int], r: int) -> tuple[int, int]:
    length, g = key
    return math.lcm(length, r), math.gcd(g, r)


_KERNELS = {
    VARIANT_CORRECT: _Kernel(VARIANT_CORRECT, 1, math.lcm),
    VARIANT_HARRISON: _Kernel(VARIANT_HARRISON, (1, 0), _harrison_key),
}


def _kernel(variant: str, k: int) -> _Kernel:
    if k < 0:
        raise ValueError(f"negative arity {k}")
    if variant == VARIANT_HARRISON and k < 1:
        raise ValueError(f"gcd variant needs arity >= 1, got {k}")
    return _KERNELS[variant]


def _empty_fold(kernel: _Kernel, k: int) -> list[dict]:
    # F_0 holds the one empty tuple; no m-tuple with m >= 1 exists yet.
    return [{kernel.seed: 1}] + [{} for _ in range(k)]


def _rekeyed(fold: list[dict], r: int, rekey: Callable) -> list[dict]:
    # F_i (x) r for i < k: every key moved to rekey(key, r), weights summed.
    moved = []
    for i in range(len(fold) - 1):
        out: dict = {}
        for key, w in fold[i].items():
            m = rekey(key, r)
            out[m] = out.get(m, 0) + w
        moved.append(out)
    return moved


def _add_part(fold: list[dict], moved: list[dict], w: int, lowest: int = 1) -> list[dict]:
    """Fold one part of weight w into F_0..F_k; moved is _rekeyed(fold, r).

    An m-tuple over the grown support puts the new cycle length r at some
    a of its m places, C(m, a) ways, and the other m - a places form a
    tuple over the old support, so
    F'_m = F_m + sum_{a=1..m} C(m, a) * w^a * (F_{m-a} (x) r).
    Entries below lowest are passed through unchanged; a leaf needs only
    F_k and passes lowest = k.
    """
    k = len(fold) - 1
    out = fold[:lowest]
    for m in range(lowest, k + 1):
        acc = fold[m].copy()
        get = acc.get
        power = 1
        for a in range(1, m + 1):
            power *= w
            coeff = math.comb(m, a) * power
            for key, v in moved[m - a].items():
                acc[key] = get(key, 0) + coeff * v
        out.append(acc)
    return out


def _per_type(j: CycleType, k: int, kernel: _Kernel) -> int:
    fold = _empty_fold(kernel, k)
    parts = []
    for r, c in enumerate(j.j, start=1):
        if c:
            fold = _add_part(fold, _rekeyed(fold, r, kernel.rekey), kernel.weight(r, c))
            parts.append((r, r * c))
    return kernel.fixed_points(fold[k], parts, k)


def fixed_point_count(j: CycleType, k: int) -> int:
    """Number of k-ary tables fixed by any permutation of cycle type j.

    Product over ordered k-tuples (r_1, ..., r_k) of cycle lengths in the
    support of j: each tuple contributes the weighted divisor sum of
    L = lcm(r_1, ..., r_k) raised to (r_1*...*r_k / L) * j_{r_1}*...*j_{r_k}.
    Computed by folding the parts (r, j_r) of j in one at a time, the same
    update count_k_magmas applies down its walk: F_m maps each L to the
    summed weight prod r_i * j_{r_i} of the m-tuples with lcm L, so the
    exponent of L is F_k[L] / L and each distinct L pays one power. The
    empty ground set gives 1 for k >= 1 (empty product) and 0 for k = 0,
    where the lone factor is j_1^1 = 0^1.
    """
    return _per_type(j, k, _kernel(VARIANT_CORRECT, k))


def fixed_point_count_harrison(j: CycleType, k: int) -> int:
    """The gcd-exponent variant of fixed_point_count. Wrong for k >= 3.

    Identical to the correct count for k <= 2, since gcd(r, s) * lcm(r, s)
    = r * s; from arity 3 on the gcd undercounts the chains each entry
    determines. Arity 1 has a single cycle length per tuple and multiplier
    1 either way; arity 0 is rejected, as there is no gcd of nothing.
    Folds the parts like fixed_point_count, keyed by (lcm, gcd) with
    weight prod j_{r_i}.
    """
    return _per_type(j, k, _kernel(VARIANT_HARRISON, k))


def _cycle_type_terms(n: int, k: int, kernel: _Kernel) -> Iterator[tuple[int, int]]:
    # (fixed points, n!/z_j) for every cycle type j of n, each once. Depth
    # first over partitions in multiplicity form: parts join in ascending
    # size r, with a count c >= 1, and only larger parts follow, so a
    # remainder in (0, r] cannot complete and is never entered. The edge
    # adding (r, c) multiplies z by r^c c!, appends (r, r*c) to the parts
    # and folds the part in; the rekeyed maps are shared by every c of r.
    factorial = math.factorial(n)
    rekey, weight = kernel.rekey, kernel.weight
    if n == 0:
        yield kernel.fixed_points(_empty_fold(kernel, k)[k], (), k), 1
        return
    stack = [(n, 1, 1, (), _empty_fold(kernel, k))]
    while stack:
        remaining, low, denom, parts, fold = stack.pop()
        # Past remaining // 2 only the single part r = remaining completes.
        for r in [*range(low, remaining // 2 + 1), remaining]:
            moved = _rekeyed(fold, r, rekey)
            z = denom
            for c in range(1, remaining // r + 1):
                z *= r * c
                rest = remaining - r * c
                if 0 < rest <= r:
                    continue
                grown = parts + ((r, r * c),)
                if rest == 0:
                    top = _add_part(fold, moved, weight(r, c), k)[k]
                    yield kernel.fixed_points(top, grown, k), factorial // z
                else:
                    child = _add_part(fold, moved, weight(r, c))
                    stack.append((rest, r + 1, z, grown, child))


def count_k_magmas(n: int, k: int, variant: str = VARIANT_CORRECT) -> CensusResult:
    """Number of isomorphism classes of k-ary operations on n elements.

    Sums fixed_point_count(j, k) * n!/z_j over the cycle types j of n,
    z_j = prod_i i^{j_i} j_i!, in exact integers, and divides the total by
    n! with one divmod; a remainder raises. The cycle types are never
    built one by one: a single depth-first walk over the partitions of n
    carries z_j and the part-by-part fold down the tree, so neighbouring
    types share every part they have in common. The weights n!/z_j must
    sum to n! exactly, which also catches a single type visited twice or
    missed; anything else raises. Serial and in a fixed order, so the
    result is the same bit for bit on every run.
    """
    start = time.perf_counter()
    query = CensusQuery(n, k, variant, METHOD_PARTITION)
    total = weights = terms = 0
    for fpc, weight in _cycle_type_terms(n, k, _kernel(variant, k)):
        total += fpc * weight
        weights += weight
        terms += 1
    factorial = math.factorial(n)
    if weights != factorial:
        raise ArithmeticError(
            f"cycle-type weights sum to {weights}, not {n}! = {factorial}"
        )
    count, remainder = divmod(total, factorial)
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
    kernel = _kernel(variant, k)
    cache: dict[tuple[int, ...], int] = {}
    total = 0
    terms = 0
    for p in all_perms(n):
        j = cycle_type_of(p)
        if j.j not in cache:
            cache[j.j] = _per_type(j, k, kernel)
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
) -> Iterator[CensusResult]:
    """count_k_magmas for every n in [n_lo, n_hi], in order.

    The range is checked at the call; each count is computed only as the
    returned iterator reaches it, so a caller can emit it at once.
    """
    if not (0 <= n_lo <= n_hi):
        raise ValueError(f"bad range [{n_lo}, {n_hi}]")
    return (count_k_magmas(n, k, variant) for n in range(n_lo, n_hi + 1))


def sequence_in_k(
    n: int, k_lo: int, k_hi: int, variant: str = VARIANT_CORRECT
) -> Iterator[CensusResult]:
    """count_k_magmas for every k in [k_lo, k_hi], fixed n, computed lazily
    like sequence."""
    if not (0 <= k_lo <= k_hi):
        raise ValueError(f"bad range [{k_lo}, {k_hi}]")
    return (count_k_magmas(n, k, variant) for k in range(k_lo, k_hi + 1))
