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

Every comparison starts at cell 0, and what it reads there depends only on
the cell c0 the relabeling draws cell 0 from and on the value in c0. So
the relabelings are grouped once by c0 and by the image they give each
value. A relabeling whose table comes out larger at cell 0 is larger
whatever the later cells hold, so it can never show the table is not
least, and it is passed over unvisited. One that comes out smaller
rejects the table at once; only the relabelings that tie at cell 0 are
compared on, cell by cell. Most tests confirm a table that is already
least, and such a test visits only the ties.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Sequence

from .arith import GuardError, Perm

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


def _relabel_maps(n: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    # One (entry images, inverse cell map, reach) triple per non-identity
    # relabeling. The relabeled table holds pimg[entries[ic[c]]] at cell c,
    # so comparing it with entries through cell c reads only the cells c'
    # and ic[c'] for c' <= c, the largest of which is reach[c]. Permutations
    # of range(n) come in lexicographic order, identity first; the identity
    # never disturbs minimality and is skipped. Equal reach rows are stored
    # once: at (7, 1), 428 of them serve 5,039 maps. From k = 1 on, no two
    # relabelings share an ic row.
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    maps = []
    for images in itertools.islice(itertools.permutations(range(n)), 1, None):
        ic = tuple(_cell_images(tuple(map(images.index, range(n))), k))
        reach = tuple(itertools.accumulate(map(max, range(len(ic)), ic), max))
        maps.append((images, ic, shared.setdefault(reach, reach)))
    return maps


def _relabel_groups(n: int, k: int):
    # The non-identity relabelings grouped by their first comparison. A
    # map's relabeled table holds pimg[entries[c0]] at cell 0, c0 = ic[0],
    # so each group of maps sharing c0 is split once more by w = pimg[v]
    # for every entry value v. A group is (c0, least, ties): least[v] is
    # the smallest w in the group, and ties[v][w] lists its maps with
    # pimg[v] == w, in lexicographic order. Groups come in increasing c0.
    # A one-cell table has nothing to compare after cell 0 (c0 = 0 for every
    # map), so there the maps are not built and the tie lists stay empty.
    if n**k == 1:
        if n < 2:
            return []

        def images_of(v):
            return map(operator.itemgetter(v),
                       itertools.islice(itertools.permutations(range(n)), 1, None))

        # Each least-image scan stops at the first image 0, as none is smaller.
        least = [0 if 0 in images_of(v) else min(images_of(v)) for v in range(n)]
        return [(0, least, [[()] * n] * n)]
    ties: dict[int, list[list[list]]] = {}
    for m in _relabel_maps(n, k):
        c0 = m[1][0]
        if c0 not in ties:
            ties[c0] = [[[] for _ in range(n)] for _ in range(n)]
        for v, w in enumerate(m[0]):
            ties[c0][v][w].append(m)
    return [
        (c0, [min(w for w, tied in enumerate(row) if tied) for row in rows], rows)
        for c0, rows in sorted(ties.items())
    ]


def _rejecting_reach(entries: list[int], groups) -> int | None:
    # None when entries is the lexicographically least table in its orbit.
    # Otherwise the reach of some map that yields a smaller table: the last
    # cell its decisive comparison read. At cell 0 a map in group c0 reads
    # v = entries[c0] and compares w = pimg[v] with entries[0]. If any w in
    # a group is smaller, that map rejects having read cells 0 and c0 only.
    # Otherwise only the maps with w == entries[0] tie and compare on from
    # cell 1, stopping at the first cell that differs; every other map
    # comes out larger at cell 0 and is never visited.
    e0 = entries[0]
    for c0, least, _ in groups:
        if least[entries[c0]] < e0:
            return c0
    rest = range(1, len(entries))
    for c0, _, ties in groups:
        for pimg, ic, reach in ties[entries[c0]][e0]:
            for c in rest:
                r = pimg[entries[ic[c]]]
                e = entries[c]
                if r != e:
                    if r < e:
                        return reach[c]
                    break
    return None


def _count_canonical(n: int, k: int) -> int:
    cells = n**k
    if n == 0:
        return 1 if cells == 0 else 0
    groups = _relabel_groups(n, k)
    last = cells - 1
    entries = [0] * cells
    count = 0
    # An odometer over the entries, in lexicographic order. A map that
    # rejects entries rejects every table sharing entries[:reach + 1] too,
    # so the odometer steps at reach and skips the rest of that block; a
    # canonical table steps it at the last cell. The walk ends when the
    # carry runs off the front.
    while True:
        reach = _rejecting_reach(entries, groups)
        if reach is None:
            count += 1
            reach = last
        entries[reach + 1:] = [0] * (last - reach)
        while reach >= 0 and entries[reach] == n - 1:
            entries[reach] = 0
            reach -= 1
        if reach < 0:
            return count
        entries[reach] += 1


def count_orbits_bruteforce(n: int, k: int) -> int:
    """Number of isomorphism classes, by counting lex-least orbit representatives.

    Walks the tables in lexicographic order and tests each against every
    non-identity relabeling, passing over those that come out larger at
    cell 0. A relabeling that yields a smaller table decides at some cell,
    having read entries only up to its reach (see the module docstring);
    every table sharing those entries is rejected by the same relabeling,
    so the walk skips to the next prefix. The skipped tables are exactly
    ones the test would reject, so the count equals the number of lex-least
    representatives over all n^(n^k) tables.
    """
    _check_table_cap(n, k)
    return _count_canonical(n, k)


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
