"""Exact counts of k-ary operations on n elements up to relabeling.

A permutation with cycle type j fixes a table exactly when every chain of
entries it threads through the table closes up consistently; counting the
free choices per chain gives a closed form per cycle type, and averaging
over all of S_n (grouped by cycle type, weighted by how many permutations
share it) gives the number of isomorphism classes.

The census walk never visits the |support(j)|^k ordered tuples of cycle
lengths, and never builds the cycle types one by one. An i-cycle paired
with a j-cycle gives gcd(i, j) cycles of length lcm(i, j), so the tuples
are folded into maps F_0..F_k, F_m sending each tuple-cycle length L to the
summed weight of the m-tuples with lcm L. The parts (r, s), s = r j_r, of
a cycle type join one at a time: an m-tuple over the grown support holds r
at a of its places, C(m, a) ways, so
F'_m = F_m + sum_{a=1..m} C(m, a) s^a (F_{m-a} with each L -> lcm(L, r)).
F_0 = {1: 1} and F_1 = {p: s_p} are fixed by the parts, so only F_2..F_k
are carried, and their a = m - 1 and a = m terms are read off the parts.
The fixed-point count is then prod_L b_L^(F_k[L] / L), with the base
b_L = sum of r j_r over the parts r dividing L.

count_k_magmas walks the partitions of n depth first in multiplicity form,
carrying F_2..F_k and n!/z of the parts so far (z_j = prod_i i^{j_i} j_i!)
down the tree, so neighbouring cycle types share the work for the parts
they share. A key L of F_k carries only its weight: b_L depends on the
parts alone, so each node reads it off its parts once per key (_Bases),
and an edge adding (r, s) reuses it as b_L + s [r | L]. Parts join in
ascending size, so every later part t lies in (r, rest], rest being what
is left of n, and can touch only the keys it divides. A key with no
divisor in that range is settled: its power b_L^(F_k[L] / L) goes into
its edge's settled product, and the key is retired from F_k. An edge that
ends its path builds only F'_k and settles every key of it. At k <= 1
nothing is carried at all: the leaf reads F_k off the parts. The lcm of
two part sizes comes from a table built once per walk.
Each node returns its subtree sum S = sum over its edges of settled(edge)
* S(child), with S(leaf) = n!/z_j, so by distributivity the root gets
sum_j fpc(j) * n!/z_j and no product is carried down the tree. That is
divided by n! once, after checking that the weights n!/z_j sum to n!
exactly, which a single missed or repeated cycle type cannot pass. The
library functions run serially in the calling process.

The root's edges (r, c) head independent subtrees, each returning a
partial sum and a partial weight sum; _root_sums takes any subset of
them. _census_result runs the weights check before the one division, so
partial sums added up from subsets that drop or repeat a root edge fail
it, as a missed cycle type does. The split module deals the root edges
over processes for the CLI's --jobs.

Which walk serves which arity: one recursion, _subtree_sums, walks the
tree for every k, with the partition loops, the n!/z shares, the weight
sum and each node's _Bases, and the fold is the list F_2..F_k at every k.
There is one join edge, _join, which enters a child, and two closes,
which end a path; _walk_tables picks the close from k. Only parts larger
than r follow a part r, so a rest in (r, 2r + 1] has one completion, the
single part rest: every walk closes that child in its parent's edge,
which joins both parts, and never enters it. k = 2, the magma, takes the
binary close, _pair_close, which builds no F'_2: each pair of parts
settles its own term at its lcm. Every other k takes the general close,
_close, which is two _joins with no node between them. The tests hold the
binary close to the general one forced at k = 2.

fixed_point_count(j, k, variant) is the per-type count the other two
routes read: the literal product over all |support(j)|^k ordered tuples
(arith.induced_exponents), under either exponent rule. It shares no code
with the walk.

Three independent evaluation routes are kept deliberately separate: the
partition-weighted sum, the literal average over all n! permutations, and
substitution into the induced cycle index. They must agree, and the test
suite refuses to let any one of them stand in for another.

The harrison-gcd variant reproduces a historically published exponent that
replaces the chain count r_1*...*r_k / lcm with gcd(r_1, ..., r_k). The two
agree for arity at most 2 (gcd * lcm = r*s) and diverge from (n, k) = (2, 3)
on; the variant is kept as a counting foil, not for use. The walk serves
the correct count only; every route computes the variant through the
literal per-tuple loop, which is much slower at large n.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Iterator

from .arith import (
    VARIANT_CORRECT,
    VARIANT_HARRISON,
    VARIANTS,
    CycleType,
    GuardError,
    cycle_counts,
    cycle_type_count,
    enumerate_cycle_types,
    induced_exponents,
)

DEFAULT_PERM_GUARD = 8


class CensusQuery(namedtuple("CensusQuery", "n k variant")):
    __slots__ = ()

    def __new__(cls, n: int, k: int, variant: str = VARIANT_CORRECT):
        if n < 0 or k < 0:
            raise ValueError(f"n and k must be >= 0, got n={n} k={k}")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        return super().__new__(cls, n, k, variant)


class CensusResult(namedtuple("CensusResult", "query count")):
    """A computed count and the query it answers."""

    __slots__ = ()

    def __new__(cls, query: CensusQuery, count: int):
        if count < 0:
            raise ValueError(f"negative count {count}")
        if count == 0 and (query.n, query.k) != (0, 0):
            raise ValueError(
                f"count 0 is only possible at (n, k) = (0, 0), "
                f"got ({query.n}, {query.k})"
            )
        return super().__new__(cls, query, count)


def weighted_divisor_sum(j: CycleType, m: int) -> int:
    """Sum of r * j_r over the cycle lengths r of j that divide m.

    Only the lengths 1..n that j holds are tried: the lcm of several cycle
    lengths routinely exceeds n, and its divisors past n carry no cycles.
    """
    return sum(r * c for r, c in enumerate(j.j, start=1) if c and m % r == 0)


class _Keys(dict):
    """Tuple-cycle length L -> a, a[r] the least divisor of L in (r, n],
    or n + 1 when there is none.

    Parts join in ascending size, so a part joining after the largest part
    r so far lies in (r, rest]. A key with a[r] > rest can therefore never
    change again: no later part divides L. Built lazily, once per key and
    walk.
    """

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, length: int) -> list[int]:
        n = self.n
        above = [n + 1] * (n + 1)
        for r in range(n - 1, -1, -1):
            above[r] = r + 1 if length % (r + 1) == 0 else above[r + 1]
        self[length] = above
        return above


# What every edge of one walk looks up, built once per walk: the arity k,
# lcm[r][p] = lcm(p, r) over part sizes, the divisor table of the keys
# (_Keys), and the walk's close, the edge that ends a path: the binary
# _pair_close at k = 2, the general _close at every other k. Every walk
# enters its children through _join.
_Walk = namedtuple("_Walk", "k lcm keys close")


def _walk_tables(n: int, k: int) -> _Walk:
    lcm = [[math.lcm(p, r) for p in range(n + 1)] for r in range(n + 1)]
    return _Walk(k, lcm, _Keys(n), _pair_close if k == 2 else _close)


class _Bases(dict):
    """Tuple-cycle length L -> b_L over one node's parts: the sum of s over
    the parts (p, s) with p | L. Read off the parts once per key and node.
    """

    def __init__(self, parts: tuple):
        super().__init__()
        self.parts = parts

    def __missing__(self, length: int) -> int:
        base = 0
        for p, t in self.parts:
            if length % p == 0:
                base += t
        self[length] = base
        return base


def _join(
    fold: list, bases: _Bases, parts: tuple, r: int, s: int, rest: int, walk: _Walk
) -> tuple[list[dict], int]:
    """The join edge of every walk: (r, s), s = r * j_r, joins parts.

    fold is the node's F_2..F_k, bases its _Bases. F_0 = {1: 1} and
    F_1 = {p: s_p} are fixed by the parts and never stored. An m-tuple
    over the grown support puts r at some a of its m places, C(m, a) ways,
    and the other m - a places form a tuple over the old support, so for
    m >= 2
    F'_m = F_m + sum_{a=1..m-2} C(m, a) s^a (F_{m-a} with L -> lcm(L, r))
                + m s^(m-1) sum_p s_p [lcm(p, r)] + s^m [r],
    each source entry rekeyed as it is added, the part sizes through the
    walk's lcm table. At k = 2 that is one pass,
    F'_2 = F_2 + 2s sum_p s_p [lcm(p, r)] + s^2 [r]. rest is what is left
    of n; a leaf edge (rest = 0), which only the general _close takes,
    needs only F'_k.

    A key that no later part in (r, rest] can touch (see _Keys) is
    settled: b_L ** (F'_k[L] / L) goes into the product, with the base
    b_L = bases[L] + s [r | L] over the grown parts, and the key leaves
    F'_k. A leaf edge (rest = 0) has no later part, and a[r] > r > rest,
    so it settles every key of F'_k.
    At k <= 1 nothing is stored: inner edges pass through, and a leaf edge
    reads F_k off the grown parts. Returns (F'_2..F'_k, product); at a
    leaf edge only the product means anything.
    """
    k, row, keys = walk.k, walk.lcm[r], walk.keys
    if k >= 2:
        lcm = math.lcm
        out = []
        for m in range(2 if rest else k, k + 1):
            acc = fold[m - 2].copy()
            get = acc.get
            power = 1
            for a in range(1, m - 1):
                power *= s
                coeff = math.comb(m, a) * power
                for length, v in fold[m - a - 2].items():
                    length = lcm(length, r)
                    acc[length] = get(length, 0) + coeff * v
            # a = m - 1 takes F_1 = {p: s_p}, a = m takes F_0 = {1: 1}.
            coeff = m * power * s
            for p, t in parts:
                length = row[p]
                acc[length] = get(length, 0) + coeff * t
            acc[r] = get(r, 0) + power * s * s
            out.append(acc)
        top = out[-1]
    elif rest:
        # k <= 1 carries nothing, so an inner edge has nothing to update.
        return fold, 1
    else:
        top = {**dict(parts), r: s} if k else {1: 1}
    product = 1
    live: dict = {}
    for length, v in top.items():
        if keys[length][r] <= rest:
            live[length] = v
        elif length % r:
            product *= bases[length] ** (v // length)
        else:
            product *= (bases[length] + s) ** (v // length)
    if not rest:
        return [], product
    out[-1] = live
    return out, product


def _close(
    fold: list, bases: _Bases, parts: tuple, r: int, s: int, rest: int, walk: _Walk
) -> int:
    """A closing edge of the general walk: (r, s) joins parts and ends the
    path. rest = 0 ends it at (r, s). Otherwise rest lies in (r, 2r + 1],
    where the single part (rest, rest) is the only completion: a second
    _join settles it at rest = 0, with no node between the two. Returns
    the settled product of both.
    """
    if not rest:
        return _join(fold, bases, parts, r, s, 0, walk)[1]
    child, settled = _join(fold, bases, parts, r, s, rest, walk)
    grown = parts + ((r, s),)
    return settled * _join(child, _Bases(grown), grown, rest, rest, 0, walk)[1]


def fixed_point_count(j: CycleType, k: int, variant: str = VARIANT_CORRECT) -> int:
    """Number of k-ary tables fixed by any permutation of cycle type j.

    Product over ordered k-tuples (r_1, ..., r_k) of cycle lengths in the
    support of j: each tuple contributes the weighted divisor sum of
    L = lcm(r_1, ..., r_k) raised to m * j_{r_1}*...*j_{r_k}, where the
    variant names the multiplier m. The correct rule takes the chains each
    choice of cycles threads, m = r_1*...*r_k / L; the harrison-gcd rule
    takes m = gcd(r_1, ..., r_k), the same count for k <= 2, since
    gcd(r, s) * lcm(r, s) = r * s, and an undercount from arity 3 on.

    One expression for both rules, over arith.induced_exponents, which
    refuses a negative arity, an unknown variant and the gcd rule at arity
    0. The empty ground set gives 1 for k >= 1 (an empty product) and 0
    for k = 0, where the lone factor is j_1^1 = 0^1. Every one of the
    |support(j)|^k tuples is visited. Under the correct rule the CLI calls
    it only from the structural suite and the permutation route, both at
    n <= 8, where a cycle type has at most 3 distinct cycle lengths; the
    census walk computes the correct count without it.
    """
    return math.prod(
        weighted_divisor_sum(j, length) ** e
        for length, e in induced_exponents(j, k, variant).items()
    )


def _pair_close(
    fold: list, bases: _Bases, parts: tuple, r: int, s: int, rest: int, walk: _Walk
) -> int:
    """The closing edge of the k = 2 walk: (r, s) joins parts and ends the
    path, with the same arguments as _close.

    fold is [F_2] over the node's live keys. rest = 0 ends the path at
    (r, s). Otherwise rest lies in (r, 2r + 1], where the single part
    (rest, rest) is the only completion, and this edge joins it too. No
    key outlives a leaf, so unlike _close it builds no F'_2 and calls no
    _join: each live key settles over the grown parts, and each pair of
    parts settles its own term, b_L ** (w / L) for the weight w it adds at
    L = lcm, where b_L, the base over the leaf's parts, is
    bases[L] + s [r | L] + rest [rest | L]. Terms at one L share their
    base, so the product is the same as over merged keys. A pair (p, r)
    with p | r lands on L = r, so those merge into one term; likewise at
    rest. The rest row pairs rest with every earlier part, (r, s) the last
    of them, by one rule. Sending the rest row through _join and a pair
    leaf instead ran k = 2 markedly slower. Returns the settled product.
    """
    product = 1
    for length, v in fold[0].items():
        base = bases[length]
        if length % r == 0:
            base += s
        if rest and length % rest == 0:
            base += rest
        product *= base ** (v // length)
    # (p, r) and (r, p) add 2 s t at lcm(p, r); (r, r) adds s^2 at r.
    row = walk.lcm[r]
    twice = 2 * s
    at_r = 0
    for p, t in parts:
        if r % p == 0:
            at_r += t
            continue
        length = row[p]
        base = bases[length] + s
        if rest and length % rest == 0:
            base += rest
        product *= base ** (twice * t // length)
    # rest never divides r < rest. b_r = at_r + s, w_r = 2 s at_r + s^2.
    product *= (at_r + s) ** (s * (2 * at_r + s) // r)
    if rest:
        # (p, rest) adds 2 rest t at lcm(p, rest) for each earlier part
        # (p, t), (r, s) the last of them; (rest, rest) adds rest^2 at rest.
        row = walk.lcm[rest]
        twice = 2 * rest
        at_rest = 0
        for p, t in parts + ((r, s),):
            if rest % p == 0:
                at_rest += t
                continue
            length = row[p]
            base = bases[length] + rest
            if length % r == 0:
                base += s
            product *= base ** (twice * t // length)
        # b_rest = at_rest + rest, w_rest = 2 rest at_rest + rest^2.
        product *= (at_rest + rest) ** (2 * at_rest + rest)
    return product


def _subtree_sums(
    remaining: int, low: int, share: int, parts: tuple, fold, walk: _Walk,
    take=None,
) -> tuple[int, int]:
    # (sum of fpc * n!/z_j, sum of n!/z_j) over the cycle types j below a
    # node, fpc counted from this node down. Parts join in ascending size r
    # with a count c >= 1, so a rest in (0, r] cannot complete, and a rest in
    # (r, 2r + 1] only as the single part rest: the walk's close ends that
    # path in this edge, as at rest = 0, its weight divided by rest for the
    # part (rest, 1). Every other child is entered through _join.
    # share is n!/z of the parts so far; the edge adding (r, c) divides it
    # by r^c c!. take, given only at the root of a split walk, is the set of
    # root edges (r, c) this process sums; every other edge is skipped.
    bases = _Bases(parts)
    close = walk.close
    total = weights = 0
    # Past remaining // 2 only the single part r = remaining completes.
    for r in [*range(low, remaining // 2 + 1), remaining]:
        below_share = share
        for c in range(1, remaining // r + 1):
            below_share //= r * c
            rest = remaining - r * c
            if 0 < rest <= r or take is not None and (r, c) not in take:
                continue
            if rest > 2 * r + 1:
                child, settled = _join(fold, bases, parts, r, r * c, rest, walk)
                below, weight = _subtree_sums(
                    rest, r + 1, below_share, parts + ((r, r * c),), child, walk
                )
            else:
                settled = close(fold, bases, parts, r, r * c, rest, walk)
                below = weight = below_share // rest if rest else below_share
            total += settled * below
            weights += weight
    return total, weights


def _exact_average(total: int, n: int, k: int) -> int:
    # total / n!, which must be an integer: a remainder refutes the sum.
    count, remainder = divmod(total, math.factorial(n))
    if remainder:
        raise ArithmeticError(
            f"non-integral class count: remainder {remainder} mod {n}! at n={n} k={k}"
        )
    return count


def count_k_magmas(n: int, k: int, variant: str = VARIANT_CORRECT) -> CensusResult:
    """Number of isomorphism classes of k-ary operations on n elements.

    Sums fpc(j) * n!/z_j over the cycle types j of n, fpc(j) the number
    of tables type j fixes and z_j = prod_i i^{j_i} j_i!, in exact
    integers, and divides the total by n! with one divmod; a remainder
    raises. The cycle types are never built one by one: a single
    depth-first walk over the partitions of n carries n!/z and the
    part-by-part fold down the tree, so neighbouring types share every
    part they have in common, and returns each subtree's sum. That walk is
    one recursion for every k with one join edge and two closes, the
    binary close at k = 2 and the general one elsewhere, and under either
    a child with a single completion is closed in its parent's edge, never
    entered. The gcd variant instead sums fixed_point_count(j, k, variant)
    over enumerate_cycle_types(n), one cycle type at a time. Either way the
    weights n!/z_j must sum to n! exactly, which also catches a single
    type visited twice or missed; anything else raises. Serial and in a
    fixed order, so the result is the same bit for bit on every run.
    """
    query = CensusQuery(n, k, variant)
    if variant != VARIANT_CORRECT:
        total = weights = 0
        for j in enumerate_cycle_types(n):
            weight = cycle_type_count(j)
            total += fixed_point_count(j, k, variant) * weight
            weights += weight
    elif n:
        total, weights = _root_sums(n, k)
    else:
        # The empty table for k >= 1; no constant at all for k = 0.
        total, weights = 1 if k else 0, 1
    return _census_result(query, total, weights)


def _root_sums(n: int, k: int, take=None) -> tuple[int, int]:
    # (sum, weight sum) of the walk at n >= 1 over the root edges in take,
    # all of them when take is None. The fold F_2..F_k starts empty, [{}]
    # at k = 2 and [] at k <= 1: no m-tuple with m >= 2 exists before a part.
    fold = [{} for _ in range(2, k + 1)]
    return _subtree_sums(n, 1, math.factorial(n), (), fold, _walk_tables(n, k), take)


def _census_result(query: CensusQuery, total: int, weights: int) -> CensusResult:
    # The weights n!/z_j must sum to n! exactly, or a cycle type (a root
    # edge, in a split walk) was missed or counted twice.
    factorial = math.factorial(query.n)
    if weights != factorial:
        raise ArithmeticError(
            f"cycle-type weights sum to {weights}, not {query.n}! = {factorial}"
        )
    return CensusResult(query, _exact_average(total, query.n, query.k))


def count_via_permutation_sum(n: int, k: int, variant: str = VARIANT_CORRECT) -> CensusResult:
    """The same count by literally averaging over all n! permutations.

    Exists to be compared against count_k_magmas, so it shares no grouping
    logic with it: every permutation is visited, its cycle type read off,
    and the per-type count cached only as a speedup. The arguments are
    checked before the guard, so a bad one raises ValueError at any n.
    """
    query = CensusQuery(n, k, variant)
    if n > DEFAULT_PERM_GUARD:
        raise GuardError(f"n={n} exceeds the permutation-sum guard of {DEFAULT_PERM_GUARD}")
    cache: dict[tuple[int, ...], int] = {}
    total = 0
    for images in itertools.permutations(range(n)):
        j = cycle_counts(images)
        if j not in cache:
            cache[j] = fixed_point_count(CycleType(n, j), k, variant)
        total += cache[j]
    return CensusResult(query, _exact_average(total, n, k))


def count_via_cycle_index(n: int, k: int, variant: str = VARIANT_CORRECT) -> CensusResult:
    """The same count again, through the induced cycle index.

    Builds Z_n, induces it to the k-tuple action with the literal per-tuple
    loop under the variant's convention, and substitutes
    weighted_divisor_sum per term. A third route for cross-checking: for
    the correct count it shares no code with count_k_magmas, whose walk
    folds whole parts into maps keyed by tuple-cycle length and reads each
    length's divisor sum off the parts where it settles. The gcd variant has
    no walk; both routes run the same loop and differ in how they sum.
    """
    from .cycle_index import cycle_index_direct, induce, substitute_per_monomial

    query = CensusQuery(n, k, variant)
    zk = induce(cycle_index_direct(n), k, variant)
    return CensusResult(query, substitute_per_monomial(zk, weighted_divisor_sum))


def sequence(
    fixed: int, lo: int, hi: int, variant: str = VARIANT_CORRECT, vary: str = "n"
) -> Iterator[CensusResult]:
    """count_k_magmas for every value in [lo, hi] of the coordinate vary
    names, "n" or "k", in order, the other coordinate held at fixed.

    The range is checked at the call; each count is computed only as the
    returned iterator reaches it, so a caller can emit it at once.
    """
    return (count_k_magmas(n, k, variant) for n, k in _shapes(fixed, lo, hi, vary))


def _shapes(fixed: int, lo: int, hi: int, vary: str):
    # The (n, k) of each term of a sequence, checked at the call.
    if vary not in ("n", "k"):
        raise ValueError(f"vary must be 'n' or 'k', got {vary!r}")
    if not (0 <= lo <= hi):
        raise ValueError(f"bad range [{lo}, {hi}]")
    return ((v, fixed) if vary == "n" else (fixed, v) for v in range(lo, hi + 1))
