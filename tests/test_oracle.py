import itertools
import math

import pytest

from magma_census import (
    GuardError,
    Perm,
    all_perms,
    cell_permutation,
    count_orbits_bruteforce,
    fixed_point_count,
    fixed_tables_structural,
    realize_cycle_type,
    enumerate_cycle_types,
)
from magma_census import oracle
from magma_census.oracle import (
    _cell_order,
    _rejecting_reach,
    _relabel_groups,
    _relabel_maps,
)

from conftest import random_fixed_table, random_perm, random_table
from witnesses import (
    OpTable,
    act,
    all_tables,
    apply_tuple,
    canonical_form,
    decode_cell,
    encode_cell,
    fixed_tables_enumerated,
    is_automorphism,
    orbit_and_stabilizer_sizes,
    orbit_stabilizer_check,
)

# The two binary tables on {0, 1} related by the swap: 0*0=0, 0*1=0,
# 1*0=0, 1*1=1 in the first, and its relabeling in the second.
ABSORB_THEN_ONE = OpTable(2, 2, (0, 0, 0, 1))
SWAPPED_IMAGE = OpTable(2, 2, (0, 1, 1, 1))
SWAP = Perm((1, 0))


def test_encode_decode_roundtrip():
    for n, k in [(2, 2), (3, 2), (2, 3), (4, 1), (5, 0)]:
        for c in range(n**k):
            assert encode_cell(n, k, decode_cell(n, k, c)) == c


def test_encode_is_most_significant_first():
    assert encode_cell(3, 2, (1, 0)) == 3
    assert encode_cell(3, 2, (0, 1)) == 1
    assert encode_cell(2, 3, (1, 0, 0)) == 4
    assert decode_cell(2, 3, 6) == (1, 1, 0)


def test_table_validation():
    with pytest.raises(ValueError):
        OpTable(2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        OpTable(2, 2, (0, 0, 0, 2))
    t = ABSORB_THEN_ONE
    assert t(0, 0) == 0
    assert t(1, 1) == 1


def test_cell_permutation_cycle_lengths_divide_order():
    for n in range(1, 5):
        for p in all_perms(n):
            order = math.lcm(*(len(c) for c in p.cycles()))
            for k in range(0, 3):
                cp = cell_permutation(p, k)
                for cyc in cp.cycles():
                    assert order % len(cyc) == 0


def test_act_swap_example():
    assert act(SWAP, ABSORB_THEN_ONE) == SWAPPED_IMAGE
    assert act(SWAP, SWAPPED_IMAGE) == ABSORB_THEN_ONE


def test_act_identity(rng):
    for _ in range(20):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, 3)
        t = random_table(rng, n, k)
        assert act(Perm.identity(n), t) == t


def test_act_composition(rng):
    for _ in range(200):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, 3)
        p = random_perm(rng, n)
        q = random_perm(rng, n)
        t = random_table(rng, n, k)
        assert act(p * q, t) == act(p, act(q, t))


def test_act_dimension_mismatch():
    with pytest.raises(ValueError):
        act(Perm.identity(3), ABSORB_THEN_ONE)


def test_all_tables_count_and_order():
    tables = list(all_tables(2, 2))
    assert len(tables) == 16
    assert tables[0].entries == (0, 0, 0, 0)
    assert tables[-1].entries == (1, 1, 1, 1)
    assert [t.entries for t in tables] == sorted(t.entries for t in tables)


def test_all_tables_degenerate():
    assert len(list(all_tables(0, 2))) == 1
    assert len(list(all_tables(0, 0))) == 0
    assert len(list(all_tables(3, 0))) == 3


def test_all_tables_cap():
    with pytest.raises(GuardError):
        list(all_tables(4, 2))
    with pytest.raises(GuardError):
        list(all_tables(9, 1))


def test_canonical_form_properties(rng):
    for _ in range(40):
        n = rng.randrange(1, 4)
        k = rng.randrange(0, 3)
        t = random_table(rng, n, k)
        c = canonical_form(t)
        assert canonical_form(c) == c
        assert c.entries <= t.entries
        p = random_perm(rng, n)
        assert canonical_form(act(p, t)) == c


def test_orbit_count_equals_canonical_form_census():
    # The counter never materializes canonical forms; rebuild the census
    # the long way and compare.
    for n, k in [(2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]:
        forms = {canonical_form(t).entries for t in all_tables(n, k)}
        assert len(forms) == count_orbits_bruteforce(n, k)


def _tables_in_order(n, k, order):
    # Every table, in lexicographic order of its entries read at the cells
    # of order: yields (read, table), read being the entries in that order.
    for read in itertools.product(range(n), repeat=n**k):
        entries = [0] * n**k
        for c, e in zip(order, read):
            entries[c] = e
        yield read, OpTable(n, k, tuple(entries))


def test_cell_order_puts_each_orbit_of_cells_together():
    # The cells sorted by the equality pattern of their coordinates, then
    # by number; each pattern's cells are exactly one orbit under S_n.
    for n, k in [(1, 3), (2, 1), (2, 4), (3, 2), (3, 3), (4, 0), (4, 3)]:
        order = _cell_order(n, k)

        def pattern(c):
            coords = decode_cell(n, k, c)
            return tuple(coords.index(x) for x in coords)

        assert order == sorted(range(n**k), key=lambda c: (pattern(c), c)), (n, k)
        for c in range(n**k):
            orbit = {encode_cell(n, k, apply_tuple(p, decode_cell(n, k, c)))
                     for p in all_perms(n)}
            assert orbit == {d for d in range(n**k) if pattern(d) == pattern(c)}, (n, k, c)


def test_grouped_canonicity_test_matches_canonical_form():
    # Table by table, in lexicographic order of the entries read in the
    # oracle's cell order: the grouped test passes exactly the tables that
    # are least in that order, and the block its verdict covers (every
    # table sharing the first reach + 1 entries read, an aligned run of
    # n^(cells - reach - 1) tables) holds no least table when it rejects
    # and only least tables when it accepts.
    # (4, 0) and (1, 2) take the one-cell grouping, which keeps no tie lists;
    # (2, 1) has no position 2, so a map tied at both cells is an automorphism.
    for n, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (4, 0), (1, 2)]:
        groups = _relabel_groups(n, k)
        order = _cell_order(n, k)
        tables = list(_tables_in_order(n, k, order))
        least = [canonical_form(t, order) == t for _, t in tables]
        least_before = list(itertools.accumulate(least, initial=0))
        cells = n**k
        for index, (read, t) in enumerate(tables):
            verdict, reach = _rejecting_reach(list(read), groups)
            assert verdict == least[index], (n, k, t.entries)
            block = n ** (cells - reach - 1)
            start = index - index % block
            inside = least_before[start + block] - least_before[start]
            assert inside == (block if verdict else 0), (n, k, t.entries, reach)


def test_accepted_blocks_start_at_the_tested_table(monkeypatch):
    # The walk counts n^(last - reach) tables for each accepted test, which
    # is exact only if every entry after reach is still 0 there.
    real = oracle._rejecting_reach

    def checked(entries, groups):
        verdict, reach = real(entries, groups)
        if verdict:
            assert not any(entries[reach + 1:]), (entries, reach)
        return verdict, reach

    monkeypatch.setattr(oracle, "_rejecting_reach", checked)
    pinned = {(2, 2): 10, (2, 3): 136, (2, 4): 32896, (3, 1): 7, (3, 2): 3330,
              (4, 1): 19, (5, 1): 47, (6, 1): 130}
    for (n, k), count in pinned.items():
        assert count_orbits_bruteforce(n, k) == count, (n, k)


def test_accepted_blocks_spare_most_tests_at_2_4(monkeypatch):
    # With the swap its only relabeling, (2, 4) once tested all 65,536
    # tables one by one; accepted blocks and the orbit-ordered cells bring
    # that to 766 tests.
    real = oracle._rejecting_reach
    calls = 0

    def counted(entries, groups):
        nonlocal calls
        calls += 1
        return real(entries, groups)

    monkeypatch.setattr(oracle, "_rejecting_reach", counted)
    assert count_orbits_bruteforce(2, 4) == 32896
    assert calls <= 1024, calls


def test_one_cell_least_images_are_full_minima():
    # The one-cell scan stops early at image 0; it must still give the
    # least image of each value over every non-identity relabeling.
    for n in range(2, 8):
        relabelings = list(itertools.permutations(range(n)))[1:]
        [(c0, _, least, _)] = _relabel_groups(n, 0)
        assert c0 == 0
        assert least == [min(images[v] for images in relabelings) for v in range(n)], n


def test_orbit_count_pinned():
    assert count_orbits_bruteforce(2, 2) == 10
    assert count_orbits_bruteforce(3, 2) == 3330
    assert count_orbits_bruteforce(2, 3) == 136
    assert count_orbits_bruteforce(5, 1) == 47
    assert count_orbits_bruteforce(6, 1) == 130
    assert count_orbits_bruteforce(7, 1) == 343
    assert count_orbits_bruteforce(2, 4) == 32896
    assert count_orbits_bruteforce(8, 0) == 1
    assert count_orbits_bruteforce(7, 0) == 1


def test_orbit_count_degenerate():
    assert count_orbits_bruteforce(0, 0) == 0
    assert count_orbits_bruteforce(0, 1) == 1
    assert count_orbits_bruteforce(1, 3) == 1
    assert count_orbits_bruteforce(4, 0) == 1


def test_relabel_maps_match_the_definition():
    # Each map is checked against the action written out coordinate by
    # coordinate, not against the helper that builds it, with cells read
    # at their positions in the oracle's cell order.
    for n, k in [(2, 1), (2, 3), (3, 2), (4, 1), (4, 2), (5, 1)]:
        perms = [p for p in all_perms(n) if p != Perm.identity(n)]
        maps = _relabel_maps(n, k)
        order = _cell_order(n, k)
        position = {c: i for i, c in enumerate(order)}
        assert [pimg for pimg, _ in maps] == [p.images for p in perms]
        cells = range(n**k)
        for p, (_, src) in zip(perms, maps):
            q = p.inverse()
            assert list(src) == [
                position[encode_cell(n, k, apply_tuple(q, decode_cell(n, k, c)))]
                for c in order
            ]
            # A permutation of the positions, so max(src[:i + 1]) >= i: the
            # reach of a comparison through position i is that maximum.
            assert sorted(src) == list(cells)
            assert cell_permutation(p, k).images == tuple(
                encode_cell(n, k, apply_tuple(p, decode_cell(n, k, c))) for c in cells
            )


def test_orbit_count_cap(monkeypatch):
    with pytest.raises(GuardError):
        count_orbits_bruteforce(4, 2)
    with pytest.raises(GuardError):
        count_orbits_bruteforce(9, 1)
    monkeypatch.setattr(oracle, "DEFAULT_CELL_CAP", 16)
    assert count_orbits_bruteforce(2, 2) == 10
    monkeypatch.setattr(oracle, "DEFAULT_CELL_CAP", 15)
    with pytest.raises(GuardError):
        count_orbits_bruteforce(2, 2)


def test_cap_refuses_without_building_the_table_count():
    # 2^(2^14) and 4^(4^8) have more than 4300 digits; the refusal must be
    # a GuardError, not the ValueError str() raises on such an int.
    for n, k in ((2, 14), (4, 8)):
        for refused in (
            lambda: count_orbits_bruteforce(n, k),
            lambda: list(all_tables(n, k)),
            lambda: fixed_tables_enumerated(Perm.identity(n), k),
        ):
            with pytest.raises(GuardError, match=rf"{n}\^\({n}\^{k}\) tables, above"):
                refused()


def test_within_table_cap_matches_its_definition(monkeypatch):
    # The exponent shortcut decides exactly n^(n^k) <= cap, at the cap's
    # own boundaries as well as the default.
    for cap in (0, 1, 2, 3, 4, 15, 16, 255, 256, 2**20, 2**20 - 1):
        monkeypatch.setattr(oracle, "DEFAULT_CELL_CAP", cap)
        for n in range(0, 9):
            for k in range(0, 6):
                expected = n ** (n**k) <= cap
                assert oracle.within_table_cap(n, k) == expected, (cap, n, k)


def test_fixed_tables_structural_examples():
    assert fixed_tables_structural(Perm.identity(2), 2, 2) == 16
    assert fixed_tables_structural(SWAP, 2, 2) == 4
    assert fixed_tables_structural(SWAP, 2, 3) == 16


def test_fixed_tables_structural_against_enumeration():
    for n in range(0, 4):
        for p in all_perms(n):
            for k in range(0, 3 if n == 3 else 4):
                assert fixed_tables_structural(p, n, k) == fixed_tables_enumerated(p, k)


def test_fixed_tables_structural_matches_closed_form():
    for n in range(0, 7):
        for j in enumerate_cycle_types(n):
            p = realize_cycle_type(j)
            for k in range(0, 4):
                assert fixed_tables_structural(p, n, k) == fixed_point_count(j, k)


def test_is_automorphism_swap_example():
    assert not is_automorphism(SWAP, ABSORB_THEN_ONE)
    assert is_automorphism(Perm.identity(2), ABSORB_THEN_ONE)


def test_is_automorphism_iff_act_fixes(rng):
    seen_fixed = 0
    for _ in range(250):
        n = rng.randrange(1, 5)
        k = rng.randrange(1, 3)
        p = random_perm(rng, n)
        t = random_fixed_table(rng, p, k) if rng.random() < 0.5 else random_table(rng, n, k)
        fixed = act(p, t) == t
        assert is_automorphism(p, t) == fixed
        seen_fixed += fixed
    assert seen_fixed > 50


def test_orbit_stabilizer_example_tables():
    orbit, stab = orbit_and_stabilizer_sizes(ABSORB_THEN_ONE)
    assert (orbit, stab) == (2, 1)
    for n in range(1, 5):
        constant = OpTable(n, 2, (0,) * n**2)
        orbit, stab = orbit_and_stabilizer_sizes(constant)
        assert orbit == n
        assert stab == math.factorial(n - 1)


def test_orbit_stabilizer_product(rng):
    for _ in range(60):
        n = rng.randrange(1, 5)
        t = random_table(rng, n, 2)
        assert orbit_stabilizer_check(t)


def test_orbit_sizes_sum_to_table_count():
    for n, k in [(2, 2), (2, 3), (3, 1)]:
        reps = {canonical_form(t).entries for t in all_tables(n, k)}
        total = sum(
            orbit_and_stabilizer_sizes(OpTable(n, k, r))[0] for r in reps
        )
        assert total == n ** (n**k)


def test_burnside_sum_over_group():
    for n, k in [(2, 2), (3, 2), (2, 3), (4, 1)]:
        total = sum(fixed_tables_structural(p, n, k) for p in all_perms(n))
        assert total % math.factorial(n) == 0
        assert total // math.factorial(n) == count_orbits_bruteforce(n, k)

