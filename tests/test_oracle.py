import math

import pytest

from magma_census import (
    EnumerationCapError,
    OpTable,
    Perm,
    act,
    all_perms,
    all_tables,
    canonical_form,
    cell_permutation,
    count_orbits_bruteforce,
    fixed_point_count,
    fixed_tables_structural,
    is_automorphism,
    orbit_stabilizer_check,
    realize_cycle_type,
    enumerate_cycle_types,
)
from magma_census.arith import apply_tuple
from magma_census.oracle import (
    _count_canonical_shard,
    _relabel_maps,
    decode_cell,
    default_jobs,
    encode_cell,
    fixed_tables_enumerated,
    orbit_and_stabilizer_sizes,
)

from conftest import random_fixed_table, random_perm, random_table

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
            for k in range(0, 3):
                cp = cell_permutation(p, k)
                for cyc in cp.cycles():
                    assert p.order() % len(cyc) == 0


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
    with pytest.raises(EnumerationCapError):
        list(all_tables(4, 2))
    with pytest.raises(EnumerationCapError):
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


def test_orbit_count_pinned():
    assert count_orbits_bruteforce(2, 2) == 10
    assert count_orbits_bruteforce(3, 2) == 3330
    assert count_orbits_bruteforce(2, 3) == 136
    assert count_orbits_bruteforce(5, 1) == 47
    assert count_orbits_bruteforce(6, 1) == 130
    assert count_orbits_bruteforce(7, 1) == 343
    assert count_orbits_bruteforce(2, 4) == 32896
    assert count_orbits_bruteforce(8, 0) == 1


def test_orbit_count_degenerate():
    assert count_orbits_bruteforce(0, 0) == 0
    assert count_orbits_bruteforce(0, 1) == 1
    assert count_orbits_bruteforce(1, 3) == 1
    assert count_orbits_bruteforce(4, 0) == 1


def test_orbit_count_sharded_matches():
    assert count_orbits_bruteforce(3, 2, jobs=2) == 3330
    assert count_orbits_bruteforce(2, 3, jobs=8) == 136
    # Every way of sharding by the first entry adds up to the serial count.
    for n, k in [(6, 1), (3, 2), (2, 4), (7, 0)]:
        serial = count_orbits_bruteforce(n, k)
        for jobs in range(1, n + 1):
            shards = [_count_canonical_shard((n, k, s, jobs)) for s in range(jobs)]
            assert sum(shards) == serial, (n, k, jobs)


def test_relabel_maps_match_the_definition():
    # Each map is checked against the action written out coordinate by
    # coordinate, not against the helper that builds it.
    for n, k in [(2, 1), (2, 3), (3, 2), (4, 1), (4, 2), (5, 1)]:
        perms = [p for p in all_perms(n) if p != Perm.identity(n)]
        maps = _relabel_maps(n, k)
        assert [pimg for pimg, _, _ in maps] == [p.images for p in perms]
        cells = range(n**k)
        for p, (_, ic, reach) in zip(perms, maps):
            q = p.inverse()
            assert list(ic) == [
                encode_cell(n, k, apply_tuple(q, decode_cell(n, k, c))) for c in cells
            ]
            assert cell_permutation(p, k).images == tuple(
                encode_cell(n, k, apply_tuple(p, decode_cell(n, k, c))) for c in cells
            )
            running = 0
            for c in cells:
                running = max(running, c, ic[c])
                assert reach[c] == running


def test_orbit_count_cap():
    with pytest.raises(EnumerationCapError):
        count_orbits_bruteforce(4, 2)
    with pytest.raises(EnumerationCapError):
        count_orbits_bruteforce(9, 1)
    assert count_orbits_bruteforce(2, 2, cap=16) == 10
    with pytest.raises(EnumerationCapError):
        count_orbits_bruteforce(2, 2, cap=15)


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


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("MAGMA_CENSUS_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("MAGMA_CENSUS_JOBS", "zero")
    with pytest.raises(ValueError):
        default_jobs()
    monkeypatch.setenv("MAGMA_CENSUS_JOBS", "0")
    with pytest.raises(ValueError):
        default_jobs()
    monkeypatch.delenv("MAGMA_CENSUS_JOBS")
    assert default_jobs() >= 1
