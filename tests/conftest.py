"""Shared helpers: independent reference computations and random builders.

The reference functions here deliberately avoid the package's own code
paths, so a test comparing against them is a genuine second opinion.
"""

import random

import pytest

from magma_census import Perm
from magma_census.oracle import cell_permutation

from witnesses import OpTable


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        q = 1
        while True:
            g1 = q * (3 * q - 1) // 2
            g2 = q * (3 * q + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if q % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            q += 1
        p[m] = total
    return p[n]


def random_perm(rng: random.Random, n: int) -> Perm:
    images = list(range(n))
    rng.shuffle(images)
    return Perm(tuple(images))


def random_table(rng: random.Random, n: int, k: int) -> OpTable:
    return OpTable(n, k, tuple(rng.randrange(n) for _ in range(n**k)))


def random_fixed_table(rng: random.Random, p: Perm, k: int) -> OpTable:
    """A random table that p is an automorphism of.

    Seeds one cell per cell cycle with a value fixed by p^L and propagates
    p along the cycle, which is exactly the freedom the structural count
    multiplies up.
    """
    n = p.n
    cp = cell_permutation(p, k)
    entries = [-1] * n**k
    for cycle in cp.cycles():
        length = len(cycle)
        q = p**length
        choices = [x for x in range(n) if q.images[x] == x]
        value = rng.choice(choices)
        for cell in cycle:
            entries[cell] = value
            value = p.images[value]
    return OpTable(n, k, tuple(entries))


@pytest.fixture
def rng():
    return random.Random(20260822)
