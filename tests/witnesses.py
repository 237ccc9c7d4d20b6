"""Literal operation tables and the group action on them, for the tests.

An n-element k-ary operation is a flat tuple of n^k entries, one per cell,
cells numbered in mixed radix with the first coordinate most significant,
as in magma_census.oracle. Relabeling by a permutation p sends the table t
to the table whose cell (p(x_1), ..., p(x_k)) holds p(t[x_1, ..., x_k]).

Each function here is the definition written straight: materialized tables,
relabeling by act, canonical forms by trying every permutation, and
automorphism and orbit-stabilizer checks. The package runs none of them;
the tests hold the oracle's orbit count and structural fixed-table count
against them. count_residues is the census sum itself, written straight
and reduced modulo primes, for counts too large for any other route.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Iterator, Sequence

from magma_census.arith import Perm, all_perms, induced_exponents
from magma_census.census import weighted_divisor_sum
from magma_census.cycle_index import direct_counts
from magma_census.oracle import _check_table_cap, cell_permutation


class OpTable(namedtuple("OpTable", "n k entries")):
    """A k-ary operation on {0, ..., n-1}, stored as a flat entry tuple."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, entries: tuple[int, ...]):
        if n < 0 or k < 0:
            raise ValueError(f"bad shape n={n} k={k}")
        if len(entries) != n**k:
            raise ValueError(
                f"expected {n ** k} entries for n={n} k={k}, got {len(entries)}"
            )
        if any(not (0 <= e < n) for e in entries):
            raise ValueError("entries out of range")
        return super().__new__(cls, n, k, entries)

    def __call__(self, *args: int) -> int:
        return self.entries[encode_cell(self.n, self.k, args)]


def encode_cell(n: int, k: int, coords: Sequence[int]) -> int:
    """Cell number of a coordinate tuple, first coordinate most significant."""
    if len(coords) != k:
        raise ValueError(f"expected {k} coordinates, got {len(coords)}")
    c = 0
    for x in coords:
        if not (0 <= x < n):
            raise ValueError(f"coordinate {x} out of range for n={n}")
        c = c * n + x
    return c


def decode_cell(n: int, k: int, c: int) -> tuple[int, ...]:
    """Coordinate tuple of a cell number; inverse of encode_cell."""
    if not (0 <= c < n**k):
        raise ValueError(f"cell {c} out of range for n={n} k={k}")
    coords = [0] * k
    for pos in range(k - 1, -1, -1):
        c, coords[pos] = divmod(c, n)
    return tuple(coords)


def apply_tuple(p: Perm, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p to every coordinate of a tuple over {0..n-1}."""
    for c in coords:
        if not 0 <= c < p.n:
            raise ValueError(f"coordinate {c} outside 0..{p.n - 1}")
    return tuple(p.images[c] for c in coords)


def act(p: Perm, t: OpTable) -> OpTable:
    """Relabel t by p: cell p(coords) of the result holds p(t[coords])."""
    if p.n != t.n:
        raise ValueError(f"permutation on {p.n} points, table on {t.n}")
    ic = cell_permutation(p.inverse(), t.k).images
    return OpTable(t.n, t.k, tuple(p.images[t.entries[c]] for c in ic))


def all_tables(n: int, k: int) -> Iterator[OpTable]:
    """Every k-ary operation table on n elements, in lexicographic entry order."""
    _check_table_cap(n, k)
    for entries in itertools.product(range(n), repeat=n**k):
        yield OpTable(n, k, entries)


def canonical_form(t: OpTable, order: Sequence[int] | None = None) -> OpTable:
    """Least relabeling of t, entries compared in the given order of cells.

    The definition, written straight: act with every permutation and keep
    the table whose entries, read at the cells of order one by one, are
    lexicographically least; by default the cells are read by number.
    count_orbits_bruteforce never calls this; it tests canonicity in its
    own cell order, skipping or counting each block of tables one verdict
    decides, and the tests hold its verdicts to this one given that order
    and rebuild orbit counts from canonical-form sets.
    """
    cells = range(len(t.entries)) if order is None else order

    def read(table):
        return [table.entries[c] for c in cells]

    best = t
    for p in all_perms(t.n):
        candidate = act(p, t)
        if read(candidate) < read(best):
            best = candidate
    return best


def is_automorphism(p: Perm, t: OpTable) -> bool:
    """Pointwise test: p(t[x_1, ..., x_k]) == t[p(x_1), ..., p(x_k)] everywhere.

    Checked directly from the definition, without going through act, so it
    can confirm the action machinery independently.
    """
    if p.n != t.n:
        raise ValueError(f"permutation on {p.n} points, table on {t.n}")
    n, k = t.n, t.k
    for c in range(n**k):
        coords = decode_cell(n, k, c)
        if p.images[t.entries[c]] != t.entries[encode_cell(n, k, apply_tuple(p, coords))]:
            return False
    return True


def fixed_tables_enumerated(p: Perm, k: int) -> int:
    """Number of tables fixed by p, by testing every table against act."""
    return sum(1 for t in all_tables(p.n, k) if act(p, t) == t)


def orbit_and_stabilizer_sizes(t: OpTable) -> tuple[int, int]:
    """Orbit size and stabilizer (automorphism group) order of one table."""
    orbit = set()
    stab = 0
    for p in all_perms(t.n):
        image = act(p, t)
        orbit.add(image.entries)
        if image == t:
            stab += 1
    return len(orbit), stab


def orbit_stabilizer_check(t: OpTable) -> bool:
    """|orbit| * |stabilizer| == n! for this table."""
    orbit, stab = orbit_and_stabilizer_sizes(t)
    return orbit * stab == math.factorial(t.n)


def count_residues(n: int, k: int, primes: Sequence[int]) -> list[int]:
    """count_k_magmas(n, k).count modulo each prime p > n, in order.

    The literal route: every cycle type j of n with its count n!/z_j
    (direct_counts), its induced cycle structure over the k-tuples
    (induced_exponents) and each tuple-cycle length's divisor sum, raised
    with pow(b, e, p), summed and multiplied by the inverse of n! mod p,
    which exists because p > n. It shares nothing with the census walk:
    no fold, no settle step, no final divmod.

    A fingerprint, not a proof. A wrong count passes only if its error is
    a multiple of every prime given: with 2^61 - 1, 2^31 - 1 and 10^9 + 7,
    about 2^-120 for an error that behaves like a random one (Knuth,
    TAOCP vol. 2, 4.3.2), but an error built from those primes passes.
    """
    for p in primes:
        if p <= n:
            raise ValueError(f"prime {p} must exceed n = {n}")
    terms = [
        (weight, [(weighted_divisor_sum(j, length), e)
                  for length, e in induced_exponents(j, k).items()])
        for j, weight in direct_counts(n)
    ]
    residues = []
    for p in primes:
        total = 0
        for weight, powers in terms:
            term = weight % p
            for base, e in powers:
                term = term * pow(base, e, p) % p
            total += term
        residues.append(total * pow(math.factorial(n), -1, p) % p)
    return residues
