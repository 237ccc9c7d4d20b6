"""Exact integer helpers, cycle types, and permutations of {0, ..., n-1}.

Everything is exact: counts are Python ints (arbitrary precision), no
floating point anywhere. Ground-set elements are 0-based. The one
feasibility-guard exception lives here too, so that the census, the oracle
and the command line share it without importing one another; so do the
two exponent conventions (variants) and the one literal per-tuple loop
that tells them apart (induced_exponents), which the census and the cycle
index share.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from typing import Iterable, Iterator

class GuardError(Exception):
    """Raised when a request exceeds a configured feasibility guard."""


# The corrected exponent, and the gcd exponent the correction replaces.
VARIANT_CORRECT = "correct"
VARIANT_HARRISON = "harrison-gcd"
VARIANTS = (VARIANT_CORRECT, VARIANT_HARRISON)


class CycleType(namedtuple("CycleType", "n j")):
    """Cycle structure of a permutation of an n-element set.

    j[i-1] counts the cycles of length i, so sum(i * j_i) == n and
    len(j) == n. Hashable and immutable; used as a dictionary key and as
    the provenance tag on cycle-index monomials.
    """

    __slots__ = ()

    def __new__(cls, n: int, j: tuple[int, ...]):
        if n < 0:
            raise ValueError(f"negative ground-set size {n}")
        if len(j) != n:
            raise ValueError(f"cycle-count vector has length {len(j)}, expected {n}")
        if j and min(j) < 0:
            raise ValueError(f"negative cycle count in {j}")
        if sum(map(operator.mul, j, range(1, n + 1))) != n:
            raise ValueError(f"cycle counts {j} do not partition {n}")
        return super().__new__(cls, n, j)

    def support(self) -> tuple[int, ...]:
        """Cycle lengths that actually occur, in increasing order."""
        return tuple(i for i, c in enumerate(self.j, start=1) if c > 0)

    def cycles_of_length(self, i: int) -> int:
        """Number of i-cycles; 0 for any i outside 1..n."""
        if 1 <= i <= self.n:
            return self.j[i - 1]
        return 0


def induced_exponents(
    j: CycleType, k: int, variant: str = VARIANT_CORRECT
) -> dict[int, int]:
    """Cycle structure of type j acting on k-tuples: L -> number of L-cycles.

    The literal per-tuple loop. Each ordered k-tuple (r_1, ..., r_k) of
    cycle lengths in the support of j adds m * j_{r_1} * ... * j_{r_k} to
    the exponent of L = lcm(r_1, ..., r_k). The multiplier m counts the
    tuple-cycles one choice of cycles threads, r_1 * ... * r_k / L. The
    harrison-gcd variant takes gcd(r_1, ..., r_k) instead from arity 2 on;
    at arity 1 both are 1, and arity 0 is refused, as there is no gcd of
    nothing. At k = 0 the empty tuple is one fixed point: {1: 1}. Tuples
    through an absent cycle length would add 0 and are never visited.
    """
    if k < 0:
        raise ValueError(f"negative arity {k}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == VARIANT_HARRISON and k < 1:
        raise ValueError(f"gcd variant needs arity >= 1, got {k}")
    gcd_rule = variant == VARIANT_HARRISON and k >= 2
    exps: dict[int, int] = {}
    for lengths in itertools.product(j.support(), repeat=k):
        length = math.lcm(*lengths)
        multiplier = math.gcd(*lengths) if gcd_rule else math.prod(lengths) // length
        count = multiplier * math.prod(j.cycles_of_length(r) for r in lengths)
        exps[length] = exps.get(length, 0) + count
    return exps


def enumerate_cycle_types(n: int) -> Iterator[CycleType]:
    """Yield every cycle type of an n-element ground set exactly once.

    Order: partitions written with parts descending, enumerated in
    ascending lexicographic order of that form, so (1, 1, ..., 1) comes
    first and (n,) last. The order is part of the output contract; CLI
    rendering and fixtures rely on it.
    """
    if n < 0:
        raise ValueError(f"negative ground-set size {n}")
    # Each vector is built valid, so CycleType.__new__'s checks are skipped.
    make = tuple.__new__
    if n == 0:
        yield make(CycleType, (0, ()))
        return
    # j[i] counts the parts of length i. Written with parts descending, the
    # next partition raises the first part equal to the second-to-last one,
    # x, by one, and turns every part after it into ones: the other parts
    # equal to x and the parts below x give back their sum, less one, as
    # ones. The last partition, (n,), has no second-to-last part.
    j = [0] * (n + 1)
    j[1] = n
    while True:
        yield make(CycleType, (n, tuple(j[1:])))
        x = 1
        while not j[x]:
            x += 1
        freed = x * j[x]
        if j[x] == 1:
            j[x] = 0
            x += 1
            while x <= n and not j[x]:
                x += 1
            if x > n:
                return
            freed += x * j[x]
        j[x] = 0
        j[x + 1] += 1
        j[1] = freed - x - 1


def cycle_type_count(j: CycleType) -> int:
    """Number of permutations of {0..n-1} with cycle type j.

    Equals n! / z_j with z_j = prod_i i^{j_i} j_i!, always exactly
    integral. The one definition of the cycle-type weight: the census sum
    and the cycle-index coefficients both read it from here.
    """
    denom = 1
    for i, c in enumerate(j.j, start=1):
        if c:
            denom *= i**c * math.factorial(c)
    q, r = divmod(math.factorial(j.n), denom)
    if r:
        raise ArithmeticError(f"non-integral permutation count for {j}")
    return q


class Perm(namedtuple("Perm", "images")):
    """A permutation of {0, ..., n-1}, stored as the tuple of images."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {images}")
        return super().__new__(cls, images)

    @classmethod
    def identity(cls, n: int) -> Perm:
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> Perm:
        """Build a permutation from 0-based disjoint cycles; fixed points may be omitted."""
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for x in cyc:
                if not 0 <= x < n:
                    raise ValueError(f"cycle element {x} outside 0..{n - 1}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two cycles")
                seen.add(x)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: Perm) -> Perm:
        """Composition, self after other: (self * other)(x) == self(other(x))."""
        if self.n != other.n:
            raise ValueError(f"cannot compose permutations of {self.n} and {other.n} elements")
        return Perm(tuple(self.images[v] for v in other.images))

    def inverse(self) -> Perm:
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(tuple(inv))

    def __pow__(self, m: int) -> Perm:
        if m < 0:
            return self.inverse() ** (-m)
        result = Perm.identity(self.n)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles (fixed points included), each starting at its
        smallest element, listed by increasing first element."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of {0..n-1} in lexicographic image order."""
    # itertools.permutations yields only bijections, so Perm.__new__'s check
    # is skipped.
    make = tuple.__new__
    for images in itertools.permutations(range(n)):
        yield make(Perm, (images,))


def cycle_counts(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle-count vector of the permutation with these images, j_i = number
    of i-cycles, read in one pass that marks each point as its cycle is walked.

    Not validated; cycle_type_of wraps it in a CycleType.
    """
    n = len(images)
    j = [0] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        j[length - 1] += 1
    return tuple(j)


def cycle_type_of(p: Perm) -> CycleType:
    """Cycle type of a permutation: j_i = number of i-cycles."""
    return CycleType(p.n, cycle_counts(p.images))


def realize_cycle_type(j: CycleType, rng=None) -> Perm:
    """A concrete permutation with cycle type j.

    By default labels 0..n-1 are dealt to cycles in increasing order;
    pass a random.Random to shuffle the assignment. Any realization is
    equivalent wherever one is required.
    """
    labels = list(range(j.n))
    if rng is not None:
        rng.shuffle(labels)
    cycles = []
    pos = 0
    for length, count in enumerate(j.j, start=1):
        for _ in range(count):
            cycles.append(labels[pos : pos + length])
            pos += length
    return Perm.from_cycles(j.n, cycles)
