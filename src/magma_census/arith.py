"""Exact integer helpers, cycle types, and permutations of {0, ..., n-1}.

Everything is exact: counts are Python ints (arbitrary precision), no
floating point anywhere. Ground-set elements are 0-based internally;
1-based labels appear only in display strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator


def lcm_list(xs: Iterable[int]) -> int:
    """Least common multiple of a sequence of positive integers.

    The empty sequence has lcm 1 (neutral element of lcm) and a
    singleton (r,) has lcm r.
    """
    xs = tuple(xs)
    for x in xs:
        if x <= 0:
            raise ValueError(f"lcm_list requires positive entries, got {x}")
    return math.lcm(*xs)


def gcd_list(xs: Iterable[int]) -> int:
    """Greatest common divisor of a non-empty sequence of positive integers.

    There is no useful empty-gcd convention here, so an empty sequence is
    rejected rather than silently mapped to 0.
    """
    xs = tuple(xs)
    if not xs:
        raise ValueError("gcd_list requires a non-empty sequence")
    for x in xs:
        if x <= 0:
            raise ValueError(f"gcd_list requires positive entries, got {x}")
    return math.gcd(*xs)


def divisors(m: int) -> list[int]:
    """Sorted positive divisors of m >= 1, by trial division."""
    if m <= 0:
        raise ValueError(f"divisors requires a positive argument, got {m}")
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True, slots=True)
class CycleType:
    """Cycle structure of a permutation of an n-element set.

    j[i-1] counts the cycles of length i, so sum(i * j_i) == n and
    len(j) == n. Hashable and immutable; used as a dictionary key and as
    the provenance tag on cycle-index monomials.
    """

    n: int
    j: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative ground-set size {self.n}")
        if len(self.j) != self.n:
            raise ValueError(f"cycle-count vector has length {len(self.j)}, expected {self.n}")
        if any(c < 0 for c in self.j):
            raise ValueError(f"negative cycle count in {self.j}")
        if sum(i * c for i, c in enumerate(self.j, start=1)) != self.n:
            raise ValueError(f"cycle counts {self.j} do not partition {self.n}")

    def support(self) -> tuple[int, ...]:
        """Cycle lengths that actually occur, in increasing order."""
        return tuple(i for i, c in enumerate(self.j, start=1) if c > 0)

    def cycles_of_length(self, i: int) -> int:
        """Number of i-cycles; 0 for any i outside 1..n."""
        if 1 <= i <= self.n:
            return self.j[i - 1]
        return 0


def enumerate_cycle_types(n: int) -> Iterator[CycleType]:
    """Yield every cycle type of an n-element ground set exactly once.

    Order: partitions written with parts descending, enumerated in
    ascending lexicographic order of that form, so (1, 1, ..., 1) comes
    first and (n,) last. The order is part of the output contract; CLI
    rendering and fixtures rely on it.
    """
    if n < 0:
        raise ValueError(f"negative ground-set size {n}")
    for parts in _partitions_desc(n, n):
        j = [0] * n
        for p in parts:
            j[p - 1] += 1
        yield CycleType(n, tuple(j))


def _partitions_desc(n, max_part):
    # Parts descending within each tuple; tuples ascend lexicographically.
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, max_part) + 1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


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


@dataclass(frozen=True, slots=True)
class Perm:
    """A permutation of {0, ..., n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection of 0..{len(self.images) - 1}: {self.images}")

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

    def order(self) -> int:
        return lcm_list(len(c) for c in self.cycles())

    def __str__(self):
        # 1-based cycle notation for display, e.g. "(1 3 4)(2 5)".
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in nontrivial)


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of {0..n-1} in lexicographic image order."""
    for images in itertools.permutations(range(n)):
        yield Perm(images)


def cycle_type_of(p: Perm) -> CycleType:
    """Cycle type of a permutation: j_i = number of i-cycles."""
    j = [0] * p.n
    for cyc in p.cycles():
        j[len(cyc) - 1] += 1
    return CycleType(p.n, tuple(j))


def apply_tuple(p: Perm, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p to every coordinate of a tuple over {0..n-1}."""
    for c in coords:
        if not 0 <= c < p.n:
            raise ValueError(f"coordinate {c} outside 0..{p.n - 1}")
    return tuple(p.images[c] for c in coords)


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
