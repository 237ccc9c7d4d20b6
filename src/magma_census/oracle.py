"""Brute-force ground truth over small operation tables.

An n-element k-ary operation is a flat tuple of n^k entries, one per cell,
cells numbered in mixed radix with the first coordinate most significant.
Relabeling by a permutation p sends the table t to the table whose cell
(p(x_1), ..., p(x_k)) holds p(t[x_1, ..., x_k]); two tables are isomorphic
when some relabeling maps one onto the other.

Everything here recounts what the closed-form side computes, by routes that
share no code with it: explicit orbit enumeration over every table, and a
structural per-permutation fixed-table count read off the cell cycles.

The orbit count is a literal lex-least test against every relabeling in
S_n, run over the tables in lexicographic order. Comparing a table with its
relabeling up to the first differing cell c reads only cells c' and the
cells they are drawn from, c' <= c; call the largest of those the reach.
When a relabeling comes out smaller, every table agreeing with this one up
to the reach comes out smaller under the same relabeling, so the whole
block of them is rejected without being tested: the principle of orderly
generation (R. C. Read, "Every one a winner", Ann. Discrete Math. 2, 1978).
No table the definition would accept is ever skipped, so the count is
exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .arith import Perm, all_perms, apply_tuple

DEFAULT_CELL_CAP = 2**20


class EnumerationCapError(Exception):
    """Raised when a brute-force request would enumerate too many tables."""


@dataclass(frozen=True, slots=True)
class OpTable:
    """A k-ary operation on {0, ..., n-1}, stored as a flat entry tuple."""

    n: int
    k: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or self.k < 0:
            raise ValueError(f"bad shape n={self.n} k={self.k}")
        if len(self.entries) != self.n**self.k:
            raise ValueError(
                f"expected {self.n ** self.k} entries for n={self.n} k={self.k}, "
                f"got {len(self.entries)}"
            )
        if any(not (0 <= e < self.n) for e in self.entries):
            raise ValueError("entries out of range")

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


def _cell_images(images: Sequence[int], k: int) -> list[int]:
    """Cell images of the point map images, acting coordinatewise on k-tuples.

    Cells are numbered in mixed radix with the first coordinate most
    significant, so cell h * n + x holds the tuple of cell h extended by x,
    and its image is image(h) * n + images[x]. Building the list one
    coordinate at a time applies that rule to every cell.
    """
    n = len(images)
    cells = [0]
    for _ in range(k):
        cells = [h * n + x for h in cells for x in images]
    return cells


@functools.cache
def cell_permutation(p: Perm, k: int) -> Perm:
    """The permutation p induces on the n^k cells, coordinatewise.

    Cached: act and the structural count hit the same (p, k) pair over and
    over, and the result is pure. Insertion is idempotent, so races at
    worst recompute.
    """
    return Perm(tuple(_cell_images(p.images, k)))


def act(p: Perm, t: OpTable) -> OpTable:
    """Relabel t by p: cell p(coords) of the result holds p(t[coords])."""
    if p.n != t.n:
        raise ValueError(f"permutation on {p.n} points, table on {t.n}")
    ic = cell_permutation(p.inverse(), t.k).images
    return OpTable(t.n, t.k, tuple(p.images[t.entries[c]] for c in ic))


def all_tables(n: int, k: int, cap: int = DEFAULT_CELL_CAP) -> Iterator[OpTable]:
    """Every k-ary operation table on n elements, in lexicographic entry order."""
    total = _guarded_total(n, k, cap)
    cells = n**k
    entries = [0] * cells
    for _ in range(total):
        yield OpTable(n, k, tuple(entries))
        for pos in range(cells - 1, -1, -1):
            entries[pos] += 1
            if entries[pos] < n:
                break
            entries[pos] = 0


def _guarded_total(n: int, k: int, cap: int) -> int:
    if n < 0 or k < 0:
        raise ValueError(f"bad shape n={n} k={k}")
    if n > 8:
        raise EnumerationCapError(f"n={n} exceeds the brute-force limit of 8")
    total = n**(n**k)
    if total > cap:
        raise EnumerationCapError(
            f"n={n} k={k} has {total} tables, above the cap of {cap}"
        )
    return total


def _relabel_maps(n: int, k: int) -> list[tuple[tuple[int, ...], list[int], list[int]]]:
    # One (entry images, inverse cell map, reach) triple per non-identity
    # relabeling. The relabeled table holds pimg[entries[ic[c]]] at cell c,
    # so comparing it with entries through cell c reads only the cells c'
    # and ic[c'] for c' <= c, the largest of which is reach[c]. Permutations
    # of range(n) come in lexicographic order, identity first; the identity
    # never disturbs minimality and is skipped.
    maps = []
    for images in itertools.islice(itertools.permutations(range(n)), 1, None):
        inverse = [0] * n
        for x, y in enumerate(images):
            inverse[y] = x
        ic = _cell_images(inverse, k)
        reach = list(itertools.accumulate(map(max, range(len(ic)), ic), max))
        maps.append((images, ic, reach))
    return maps


def _rejecting_reach(entries: list[int], maps) -> int | None:
    # None when entries is the lexicographically least table in its orbit.
    # Otherwise the reach of the first map that yields a smaller table: the
    # last cell its decisive comparison read. Each comparison runs cell by
    # cell and stops at the first cell that differs.
    for pimg, ic, reach in maps:
        for c, e in enumerate(entries):
            r = pimg[entries[ic[c]]]
            if r != e:
                if r < e:
                    return reach[c]
                break
    return None


def _count_canonical_shard(args: tuple[int, int, int, int]) -> int:
    n, k, shard, jobs = args
    cells = n**k
    if cells == 0:
        return 1 if shard == 0 else 0
    maps = _relabel_maps(n, k)
    last = cells - 1
    count = 0
    for first in range(shard, n, jobs):
        # An odometer over entries[1:], in lexicographic order. A map that
        # rejects entries rejects every table sharing entries[:reach + 1]
        # too, so the odometer steps at reach and skips the rest of that
        # block; a canonical table steps it at the last cell.
        entries = [first] + [0] * last
        while True:
            reach = _rejecting_reach(entries, maps)
            if reach is None:
                count += 1
                reach = last
            entries[reach + 1:] = [0] * (last - reach)
            while reach > 0 and entries[reach] == n - 1:
                entries[reach] = 0
                reach -= 1
            if reach == 0:
                break
            entries[reach] += 1
    return count


def count_orbits_bruteforce(
    n: int, k: int, cap: int = DEFAULT_CELL_CAP, jobs: int = 1
) -> int:
    """Number of isomorphism classes, by counting lex-least orbit representatives.

    Walks the tables in lexicographic order and tests each against every
    non-identity relabeling. A relabeling that yields a smaller table
    decides at some cell, having read entries only up to its reach (see the
    module docstring); every table sharing those entries is rejected by the
    same relabeling, so the walk skips to the next prefix. The skipped
    tables are exactly ones the test would reject, so the count equals the
    number of lex-least representatives over all n^(n^k) tables.

    Shards across processes by the first entry when jobs > 1; shard counts
    add up independently of order, so the total is deterministic. The pool
    module is imported only here, keeping it off every command's startup.
    """
    _guarded_total(n, k, cap)
    jobs = max(1, min(jobs, n))
    if jobs == 1:
        return _count_canonical_shard((n, k, 0, 1))
    from concurrent.futures import ProcessPoolExecutor

    shards = [(n, k, s, jobs) for s in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return sum(pool.map(_count_canonical_shard, shards))


def canonical_form(t: OpTable) -> OpTable:
    """Lexicographically least entry array over all relabelings of t.

    The definition, written straight: act with every permutation and keep
    the minimum. count_orbits_bruteforce never calls this; it tests
    canonicity cell by cell instead and skips each block of tables that a
    rejection already decides, and the tests confirm both views agree by
    rebuilding orbit counts from canonical-form sets.
    """
    best = t.entries
    for p in all_perms(t.n):
        candidate = act(p, t).entries
        if candidate < best:
            best = candidate
    return OpTable(t.n, t.k, best)


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


def fixed_tables_structural(p: Perm, n: int, k: int) -> int:
    """Number of tables fixed by relabeling with p, from the cell cycles alone.

    A table is fixed exactly when each cell cycle of length L carries a
    value fixed by p^L, freely chosen per cycle; multiply the choice counts.
    Never looks at any actual table.
    """
    if p.n != n:
        raise ValueError(f"permutation on {p.n} points, ground set of size {n}")
    cp = cell_permutation(p, k)
    fixed_by_power: dict[int, int] = {}
    total = 1
    for cyc in cp.cycles():
        length = len(cyc)
        if length not in fixed_by_power:
            q = p**length
            fixed_by_power[length] = sum(1 for x in range(n) if q.images[x] == x)
        total *= fixed_by_power[length]
    return total


def fixed_tables_enumerated(p: Perm, k: int, cap: int = DEFAULT_CELL_CAP) -> int:
    """Number of tables fixed by p, by testing every table against act."""
    return sum(1 for t in all_tables(p.n, k, cap) if act(p, t) == t)


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


def default_jobs() -> int:
    """Worker count from MAGMA_CENSUS_JOBS, else the CPU count."""
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
