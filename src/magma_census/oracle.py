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
S_n, run over the tables in lexicographic order. Tables are read in one
fixed order of the cells, not in cell-number order: each S_n-orbit of
cells forms one block, the blocks sorted by the equality pattern of the
coordinate tuple, the diagonal first. A relabeling draws each cell from
inside its own block, so the cells a comparison reads stay near the front.
Any fixed order keeps exactly one least table per orbit, so the count does
not depend on which one is used.

Comparing a table with its relabeling up to the first differing position
reads only the positions up to it and the ones they are drawn from; call
the largest of those the reach. Every table agreeing with this one up to
the reach comes out the same way against that relabeling. So when one
relabeling comes out smaller, the whole block of tables sharing the
entries up to its reach is rejected without being tested: the principle
of orderly generation (R. C. Read, "Every one a winner", Ann. Discrete
Math. 2, 1978). The same holds for a table that is least. Its test takes
the largest reach over every relabeling: where it came out larger, or the
last position for an automorphism. Every table sharing the entries up to
that reach is least too, and the whole block is counted at once. Such a
block always starts at the table tested: the walk came to it through the
block's first table, whose test read the same entries. So the count is
exact, and at (2, 4) it tests 766 of the 65,536 tables.

Every comparison starts at position 0, and what it reads there depends
only on the position c0 the relabeling draws it from and on the value
there. So the relabelings are grouped once by c0 and by the image they
give each value. A relabeling whose table comes out larger at position 0
is passed over unvisited, and one that comes out smaller rejects the table
at once. The relabelings that tie at position 0 are grouped again, the
same way, by their comparison at position 1; these second-level groups
are built the first time a table ties them, and live only as long as the
count that built them. Only the relabelings that tie at both positions are
compared on, position by position.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Sequence

from .arith import GuardError, Perm, cycle_counts

# Largest number of tables, n^(n^k), the oracle may enumerate.
DEFAULT_CELL_CAP = 2**20


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

    Cached: the tests relabel tables with the same (p, k) pair over and
    over, and the result is pure.
    """
    return Perm(tuple(_cell_images(p.images, k)))


def within_table_cap(n: int, k: int) -> bool:
    """Whether the n^(n^k) tables of shape (n, k) fit under DEFAULT_CELL_CAP.

    For n >= 2 the count is at least 2^(n^k), so it exceeds every cap below
    2^B, B = cap.bit_length(), once n^k > B. That is decided on n^min(k, B)
    first, and n^(n^k) is built only when n^k <= B, never past n^B.
    """
    cap = DEFAULT_CELL_CAP
    bits = cap.bit_length()
    if n >= 2 and n ** min(k, bits) > bits:
        return False
    return n ** (n**k) <= cap


def _check_table_cap(n: int, k: int) -> None:
    # Refuses a bad shape, n > 8, or more tables than the cap; the message
    # names the count as a power, which may be far too large to print.
    if n < 0 or k < 0:
        raise ValueError(f"bad shape n={n} k={k}")
    if n > 8:
        raise GuardError(f"n={n} exceeds the brute-force limit of 8")
    if not within_table_cap(n, k):
        raise GuardError(
            f"n={n} k={k} has {n}^({n}^{k}) tables, above the cap of {DEFAULT_CELL_CAP}"
        )


def _cell_order(n: int, k: int) -> list[int]:
    # The cells in comparison order. A cell's coordinate tuple has an
    # equality pattern, its values renamed 0, 1, ... in order of first
    # appearance, and the cells sharing a pattern are one S_n-orbit. Cells
    # come sorted by pattern, so the diagonal comes first, and by number
    # within a pattern.
    def pattern(coords):
        first: dict[int, int] = {}
        return tuple(first.setdefault(x, len(first)) for x in coords)

    tuples = itertools.product(range(n), repeat=k)
    return [c for _, c in sorted((pattern(t), c) for c, t in enumerate(tuples))]


def _relabel_maps(n: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    # One (entry images, source positions, reach) triple per non-identity
    # relabeling, over the positions of _cell_order. The relabeled table
    # holds pimg[entries[src[i]]] at position i, and src[i] lies in the
    # orbit block of position i. Comparing it with entries through position
    # i reads only the positions i' and src[i'] for i' <= i, the largest of
    # which is reach[i]. As src is a permutation, its i + 1 first entries
    # are distinct and the largest is at least i, so reach is the running
    # maximum of src alone. Permutations of range(n) come in lexicographic
    # order, identity first; the identity never disturbs minimality and is
    # skipped. Equal reach rows are stored once: at (7, 1), 428 of them
    # serve 5,039 maps. From k = 1 on, no two relabelings share a src row.
    # At k = 1 the cells are the points, in their own order, so src is the
    # inverse permutation itself.
    order = _cell_order(n, k)
    position = [0] * len(order)
    for i, c in enumerate(order):
        position[c] = i
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    maps = []
    for images in itertools.islice(itertools.permutations(range(n)), 1, None):
        src = tuple(map(images.index, range(n)))
        if k != 1:
            ic = _cell_images(src, k)
            src = tuple(map(position.__getitem__, map(ic.__getitem__, order)))
        reach = tuple(itertools.accumulate(src, max))
        maps.append((images, src, shared.setdefault(reach, reach)))
    return maps


def _split(maps, at: int, n: int) -> list:
    # The maps grouped by their comparison at position at, which reads v =
    # entries[s], s = src[at], and gives w = pimg[v]. A group is (s, reach,
    # least, ties) for the maps sharing s: reach is their common reach[at],
    # least[v] the smallest w in the group, and ties[v][w] lists its maps
    # with pimg[v] == w, in the order given. Groups come in increasing s.
    groups: dict[int, tuple[int, list[list[list]]]] = {}
    for m in maps:
        s = m[1][at]
        if s not in groups:
            groups[s] = (m[2][at], [[[] for _ in range(n)] for _ in range(n)])
        rows = groups[s][1]
        for v, w in enumerate(m[0]):
            rows[v][w].append(m)
    return [
        (s, reach, [min(w for w, tied in enumerate(row) if tied) for row in rows], rows)
        for s, (reach, rows) in sorted(groups.items())
    ]


class _SecondGroups(dict):
    """w -> the second-level groups of the maps in one first-level tie row.

    row[w] lists the maps of one cell-0 group that give one value v the
    image w. They are split by their comparison at position 1 (_split) the
    first time a table ties them at position 0, and kept for the rest of
    the count that built them.
    """

    def __init__(self, row: list[list], n: int):
        super().__init__()
        self.row = row
        self.n = n

    def __missing__(self, w: int) -> list:
        groups = self[w] = _split(self.row[w], 1, self.n)
        return groups


def _relabel_groups(n: int, k: int) -> list:
    # The non-identity relabelings grouped by their comparison at position
    # 0, as _split gives them, with each tie row wrapped so that its maps are
    # grouped again by their comparison at position 1 when first tied.
    # A one-cell table has nothing to compare after cell 0 (c0 = 0 for every
    # map), so there the maps are not built and the ties stay empty.
    if n**k == 1:
        if n < 2:
            return []

        def images_of(v):
            return map(operator.itemgetter(v),
                       itertools.islice(itertools.permutations(range(n)), 1, None))

        # Each least-image scan stops at the first image 0, as none is smaller.
        least = [0 if 0 in images_of(v) else min(images_of(v)) for v in range(n)]
        return [(0, 0, least, [[()] * n] * n)]
    return [
        (c0, reach, least, [_SecondGroups(row, n) for row in rows])
        for c0, reach, least, rows in _split(_relabel_maps(n, k), 0, n)
    ]


def _rejecting_reach(entries: list[int], groups) -> tuple[bool, int]:
    # (least, reach): whether entries is the least table in its orbit, and
    # the reach of the decisive comparisons. If a map yields a smaller
    # table, that map's reach. Otherwise the largest reach over every map,
    # the last position if some map is an automorphism. Either way every
    # table sharing entries[:reach + 1] gets the same verdict.
    #
    # At position 0 a map in group c0 reads v = entries[c0] and compares w
    # = pimg[v] with entries[0]; if any w in a group is smaller, that map
    # rejects having read positions 0 and c0 only. The maps with w ==
    # entries[0] are compared at position 1 group by group the same way,
    # and those that tie there too compare on from position 2, stopping at
    # the first position that differs.
    e0 = entries[0]
    for c0, _, least, _ in groups:
        if least[entries[c0]] < e0:
            return False, c0
    last = len(entries) - 1
    # Every group read its c0, and the last group's is the last position
    # of the diagonal block. Positions 1 and c1 lie in that block too, so
    # the comparisons at position 1 never read past it.
    reach = groups[-1][1] if groups else 0
    rest = range(2, len(entries))
    for c0, _, _, ties in groups:
        for c1, r1, least, rows in ties[entries[c0]][e0]:
            v, e1 = entries[c1], entries[1]
            if least[v] < e1:
                return False, r1
            for pimg, src, far in rows[v][e1]:
                for c in rest:
                    r = pimg[entries[src[c]]]
                    e = entries[c]
                    if r != e:
                        if r < e:
                            return False, far[c]
                        if far[c] > reach:
                            reach = far[c]
                        break
                else:
                    reach = last
    return True, reach


def _count_canonical(n: int, k: int) -> int:
    cells = n**k
    if n == 0:
        return 1 if cells == 0 else 0
    groups = _relabel_groups(n, k)
    last = cells - 1
    entries = [0] * cells
    count = 0
    # An odometer over the entries in comparison order, lexicographically.
    # Every table sharing entries[:reach + 1] gets the same verdict, so the
    # odometer steps at reach: past a rejected block it skips, and for an
    # accepted one it counts all n^(last - reach) tables. Such a block
    # always starts at the table tested, as the walk reached it from its
    # first table. The walk ends when the carry runs off the front.
    while True:
        least, reach = _rejecting_reach(entries, groups)
        if least:
            count += n ** (last - reach)
        entries[reach + 1:] = [0] * (last - reach)
        while reach >= 0 and entries[reach] == n - 1:
            entries[reach] = 0
            reach -= 1
        if reach < 0:
            return count
        entries[reach] += 1


def count_orbits_bruteforce(n: int, k: int) -> int:
    """Number of isomorphism classes, by counting lex-least orbit representatives.

    Walks the tables in lexicographic order, entries compared in a fixed
    cell order that keeps each orbit of cells together, and tests each
    against every non-identity relabeling, grouped two comparisons deep so
    that most are passed over unvisited (see the module docstring). A test
    reads entries only up to its reach, and every table sharing them gets
    the same verdict: a relabeling that yields a smaller table rejects the
    whole block, and a table found least brings its whole block with it.
    The walk counts or skips that block and steps to the next prefix, so
    the count equals the number of lex-least representatives, in that
    cell order, over all n^(n^k) tables.
    """
    _check_table_cap(n, k)
    return _count_canonical(n, k)


def fixed_tables_structural(p: Perm, n: int, k: int) -> int:
    """Number of tables fixed by relabeling with p, from the cell cycles alone.

    A table is fixed exactly when each cell cycle of length L carries a
    value fixed by p^L, freely chosen per cycle; so the c cycles of length
    L contribute (fixed points of p^L)^c, and the lengths are read off the
    cell permutation's cycle-count vector (arith.cycle_counts). Never looks
    at any actual table.
    """
    if p.n != n:
        raise ValueError(f"permutation on {p.n} points, ground set of size {n}")
    total = 1
    for length, cycles in enumerate(cycle_counts(cell_permutation(p, k).images), start=1):
        if cycles:
            q = p**length
            total *= sum(1 for x in range(n) if q.images[x] == x) ** cycles
    return total
