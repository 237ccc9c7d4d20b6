import itertools
import math
import random

import pytest

from magma_census import (
    CycleType,
    Perm,
    all_perms,
    cycle_type_count,
    cycle_type_of,
    enumerate_cycle_types,
    realize_cycle_type,
)

from conftest import partition_count, random_perm
from witnesses import OpTable, apply_tuple


def test_cycle_type_validation():
    j = CycleType(4, (2, 1, 0, 0))
    assert j.support() == (1, 2)
    assert j.cycles_of_length(1) == 2
    assert j.cycles_of_length(2) == 1
    assert j.cycles_of_length(7) == 0
    # Each refusal, pinned by its message, so a cheaper check must refuse
    # exactly these inputs for exactly these reasons.
    refused = [
        ((-1, ()), "negative ground-set size -1"),
        ((3, (3, 0)), "has length 2, expected 3"),
        ((3, (1, 0, 0, 0)), "has length 4, expected 3"),
        # The weighted sum -1 + 2*2 is still 3: only the sign refuses it.
        ((3, (-1, 2, 0)), "negative cycle count in"),
        ((4, (1, 1, 0, 0)), "do not partition 4"),
        ((2, (0, 0)), "do not partition 2"),
    ]
    for args, message in refused:
        with pytest.raises(ValueError, match=message):
            CycleType(*args)
    assert CycleType(0, ()).j == ()
    assert CycleType(3, (0, 0, 1)).support() == (3,)


def _partitions_by_definition(n):
    # Every non-increasing tuple of parts summing to n, by filtering all
    # non-increasing tuples of each length, then sorted lexicographically.
    found = [
        parts
        for size in range(1, n + 1)
        for parts in itertools.combinations_with_replacement(range(n, 0, -1), size)
        if sum(parts) == n
    ]
    return sorted(found) if n else [()]


def test_enumerate_cycle_types_order_is_ascending_lexicographic():
    for n in range(0, 11):
        expected = []
        for parts in _partitions_by_definition(n):
            j = [0] * n
            for part in parts:
                j[part - 1] += 1
            expected.append(tuple(j))
        assert [t.j for t in enumerate_cycle_types(n)] == expected, n


def test_enumerate_cycle_types_order_n3():
    js = [j.j for j in enumerate_cycle_types(3)]
    assert js == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]


def test_enumerate_cycle_types_counts_match_pentagonal():
    for n in range(0, 14):
        types = list(enumerate_cycle_types(n))
        assert len(types) == partition_count(n)
        assert len({t.j for t in types}) == len(types)


def test_cycle_type_count_sums_to_factorial():
    for n in range(0, 8):
        assert sum(cycle_type_count(j) for j in enumerate_cycle_types(n)) == math.factorial(n)


def test_cycle_type_count_matches_direct_tally():
    for n in range(0, 6):
        tally = {}
        for p in all_perms(n):
            j = cycle_type_of(p).j
            tally[j] = tally.get(j, 0) + 1
        for j in enumerate_cycle_types(n):
            assert cycle_type_count(j) == tally[j.j]


def test_cycle_type_of_matches_the_cycle_list():
    # The one-pass count (census.count_via_permutation_sum reads it too)
    # against the lengths of the cycles Perm.cycles lists.
    for n in range(0, 7):
        for p in all_perms(n):
            lengths = [0] * n
            for cyc in p.cycles():
                lengths[len(cyc) - 1] += 1
            assert cycle_type_of(p) == CycleType(n, tuple(lengths)), p


def test_perm_basics():
    p = Perm((1, 2, 0))
    assert p(0) == 1
    assert p.inverse() * p == Perm.identity(3)
    assert p * p.inverse() == Perm.identity(3)
    assert p**3 == Perm.identity(3)
    assert p**-1 == p.inverse()
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_perm_from_cycles_and_str():
    p = Perm.from_cycles(5, [(0, 2, 3), (1, 4)])
    assert p.images == (2, 4, 3, 0, 1)
    assert cycle_type_of(p).j == (0, 1, 1, 0, 0)


def test_perm_composition_law(rng):
    # Products and powers skip Perm's bijection check. Each must still be a
    # Perm that passes it, equal to the composition written out point by
    # point; operands of different sizes are still refused.
    for _ in range(50):
        n = rng.randrange(1, 7)
        p = random_perm(rng, n)
        q = random_perm(rng, n)
        x = rng.randrange(n)
        assert (p * q)(x) == p(q(x))
        m = rng.randrange(-3, 8)
        for built in (p * q, p**m):
            assert type(built) is Perm
            assert Perm(built.images) == built
        assert (p * q).images == tuple(p.images[q.images[y]] for y in range(n))
        power = list(range(n))
        step = p.images if m >= 0 else p.inverse().images
        for _ in range(abs(m)):
            power = [step[y] for y in power]
        assert (p**m).images == tuple(power)
        with pytest.raises(ValueError):
            p * random_perm(rng, n + 1)


def test_perm_cycles_roundtrip(rng):
    for _ in range(30):
        n = rng.randrange(1, 8)
        p = random_perm(rng, n)
        assert Perm.from_cycles(n, p.cycles()) == p


def test_all_perms_is_lexicographic():
    ps = list(all_perms(3))
    assert len(ps) == 6
    assert [p.images for p in ps] == sorted(p.images for p in ps)
    assert len(list(all_perms(0))) == 1


def test_all_perms_are_the_bijections_perm_accepts():
    # all_perms skips Perm's bijection check; each one must still be a Perm
    # that passes it, and together they must be all n! of them.
    for n in range(0, 6):
        ps = list(all_perms(n))
        assert all(type(p) is Perm and Perm(p.images) == p for p in ps)
        assert len(set(ps)) == len(ps) == math.factorial(n)


def test_apply_tuple():
    p = Perm((1, 2, 0))
    assert apply_tuple(p, (0, 2)) == (1, 0)
    assert apply_tuple(p, ()) == ()
    with pytest.raises(ValueError):
        apply_tuple(p, (3,))


def test_realize_cycle_type(rng):
    for n in range(0, 9):
        for j in enumerate_cycle_types(n):
            assert cycle_type_of(realize_cycle_type(j)).j == j.j
            assert cycle_type_of(realize_cycle_type(j, rng)).j == j.j


def test_realize_cycle_type_seed_reproducible():
    j = CycleType(6, (1, 1, 1, 0, 0, 0))
    a = realize_cycle_type(j, random.Random(5))
    b = realize_cycle_type(j, random.Random(5))
    assert a == b


def _value_class_samples():
    from fractions import Fraction

    from magma_census import CensusQuery, CensusResult, CycleIndexPoly, Monomial

    j = CycleType(2, (0, 1))
    mono = Monomial(j, ((2, 1),))
    query = CensusQuery(2, 2)
    # (instance, the same built again, its repr, arguments its constructor refuses)
    return [
        (j, CycleType(2, (0, 1)), "CycleType(n=2, j=(0, 1))", (2, (1, 1))),
        (Perm((1, 0)), Perm((1, 0)), "Perm(images=(1, 0))", ((1, 1),)),
        (query, CensusQuery(2, 2, "correct"),
         "CensusQuery(n=2, k=2, variant='correct')", (2, 2, "fast")),
        (CensusResult(query, 10), CensusResult(query, 10),
         f"CensusResult(query={query!r}, count=10)",
         (query, 0)),
        (OpTable(1, 2, (0,)), OpTable(1, 2, (0,)), "OpTable(n=1, k=2, entries=(0,))",
         (1, 2, (0, 0))),
        (mono, Monomial(j, ((2, 1),)), f"Monomial(origin={j!r}, exponents=((2, 1),))",
         (j, ((2, 0),))),
        (CycleIndexPoly(2, None, ((Fraction(1), mono),)),
         CycleIndexPoly(2, None, ((Fraction(1), mono),)),
         f"CycleIndexPoly(n=2, power=None, terms=((Fraction(1, 1), {mono!r}),), "
         "variant=None)",
         (2, None, ((Fraction(1, 2), mono),))),
    ]


def test_value_classes_validate_compare_and_stay_frozen():
    for value, again, text, refused in _value_class_samples():
        cls = type(value)
        assert value == again and hash(value) == hash(again), cls
        assert repr(value) == text
        with pytest.raises(ValueError):
            cls(*refused)
        field = text[len(cls.__name__) + 1:].split("=", 1)[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1
