from fractions import Fraction

import pytest

from magma_census import (
    VARIANT_HARRISON,
    CycleIndexPoly,
    Monomial,
    cycle_index_direct,
    cycle_index_recursive,
    enumerate_cycle_types,
    induce,
    max_indeterminate_index,
    realize_cycle_type,
    substitute_per_monomial,
)
from magma_census import cycle_index
from magma_census.cycle_index import count_key, recursive_counts
from magma_census.oracle import cell_permutation

from conftest import partition_count


def test_render_small():
    assert cycle_index_direct(0).render() == "1"
    assert cycle_index_direct(1).render() == "t1"
    assert cycle_index_direct(2).render() == "1/2*t1^2 + 1/2*t2"
    assert cycle_index_direct(3).render() == "1/6*t1^3 + 1/2*t1*t2 + 1/3*t3"


def test_render_induced_square():
    z = induce(cycle_index_direct(3), 2)
    assert z.render() == "1/6*t1^9 + 1/2*t1*t2^4 + 1/3*t3^3"


def test_recursive_equals_direct():
    for n in range(0, 15):
        assert cycle_index_recursive(n).terms == cycle_index_direct(n).terms
    # N_n is keyed by count_key, one digit j_i of weight 256^(i-1) per
    # cycle length: at every n <= 25 each cycle type's key reads back its
    # vector, so no two share one, and N_n holds n!/z_j under each.
    tables = recursive_counts(25)
    for n in range(0, 26):
        direct = {}
        for j, count in cycle_index.direct_counts(n):
            key = count_key(j.j)
            assert [key >> 8 * i & 255 for i in range(n)] == list(j.j)
            assert key not in direct
            direct[key] = count
        assert tables[n] == direct, n
    # Past 255 a count has no digit: the recursion and the key refuse it.
    with pytest.raises(ValueError):
        recursive_counts(cycle_index.KEY_MAX_N + 1)
    with pytest.raises(ValueError):
        count_key((cycle_index.KEY_MAX_N + 1,) + (0,) * cycle_index.KEY_MAX_N)


def test_recursive_counts_keep_no_state():
    # One pass per call into a fresh list; nothing in the module is cached.
    assert not any(hasattr(value, "cache_info") for value in vars(cycle_index).values())
    first, second = recursive_counts(12), recursive_counts(12)
    assert first == second
    assert first is not second
    assert all(a is not b for a, b in zip(first, second))
    assert [len(table) for table in first] == [partition_count(m) for m in range(13)]


def test_term_count_is_partition_count():
    for n in range(0, 15):
        assert len(cycle_index_direct(n).terms) == partition_count(n)


def test_coefficients_sum_to_one():
    for n in range(0, 15):
        assert sum(c for c, _ in cycle_index_direct(n).terms) == 1


def test_induced_exponents_match_cell_cycles():
    # The induced monomial must be the literal cycle-length histogram of
    # the permutation a realization induces on the k-tuple cells.
    for n in range(0, 6):
        for k in range(0, 4):
            z = induce(cycle_index_direct(n), k)
            for _, mono in z.terms:
                p = realize_cycle_type(mono.origin)
                histogram = {}
                for cyc in cell_permutation(p, k).cycles():
                    histogram[len(cyc)] = histogram.get(len(cyc), 0) + 1
                assert dict(mono.exponents) == histogram


def test_induce_power_zero_keeps_origins():
    z = induce(cycle_index_direct(4), 0)
    assert len(z.terms) == partition_count(4)
    for _, mono in z.terms:
        assert mono.exponents == ((1, 1),)


def test_induce_power_one_is_identity_on_exponents():
    for n in range(0, 7):
        z = cycle_index_direct(n)
        z1 = induce(z, 1)
        for (c0, m0), (c1, m1) in zip(z.terms, z1.terms):
            assert c0 == c1
            assert m0.exponents == m1.exponents


def test_induce_gcd_variant():
    # gcd * lcm = r * s, so the two conventions agree through arity 2 ...
    for n in range(0, 10):
        z = cycle_index_direct(n)
        for k in (1, 2):
            assert induce(z, k, VARIANT_HARRISON).terms == induce(z, k).terms
    # ... and part at arity 3, where a 2-cycle threads 4 chains, not gcd 2.
    z = cycle_index_direct(2)
    assert induce(z, 3, VARIANT_HARRISON).render() == "1/2*t1^8 + 1/2*t2^2"
    assert induce(z, 3).render() == "1/2*t1^8 + 1/2*t2^4"
    for k, variant in ((0, VARIANT_HARRISON), (-1, "correct"), (2, "wrong")):
        with pytest.raises(ValueError):
            induce(z, k, variant)


def test_substitute_constant_two_counts_subsets():
    # Classic sanity check: substituting the constant 2 into Z_n counts
    # subsets of an n-set up to permutation, which is n + 1.
    for n in range(0, 9):
        z = cycle_index_direct(n)
        assert substitute_per_monomial(z, lambda j, i: 2) == n + 1


def test_substitute_per_origin_distinguishes_terms():
    z = induce(cycle_index_direct(3), 0)
    # All three monomials are t1; a substitution keyed on the origin's
    # fixed-point count still averages to the orbit count 1.
    assert substitute_per_monomial(z, lambda j, i: j.cycles_of_length(1)) == 1


def test_substitute_rejects_non_integral_total():
    z = cycle_index_direct(2)
    with pytest.raises(ArithmeticError):
        substitute_per_monomial(z, lambda j, i: 2 if j.cycles_of_length(1) else 1)


def test_max_indeterminate_index():
    assert max_indeterminate_index(cycle_index_direct(5)) == 5
    assert max_indeterminate_index(cycle_index_direct(0)) == 0
    assert max_indeterminate_index(induce(cycle_index_direct(3), 2)) == 3


def test_monomial_validation():
    # Each refusal, pinned by its message.
    j = next(iter(enumerate_cycle_types(2)))
    refused = [
        (((0, 1),), "indices must be >= 1"),
        (((0, 1), (1, 2)), "indices must be >= 1"),
        (((1, 1), (1, 2)), "not sorted and distinct"),
        (((1, 1), (2, 1), (2, 1)), "not sorted and distinct"),
        (((2, 1), (1, 1)), "not sorted and distinct"),
        (((1, 0),), "exponents positive"),
        (((1, 2), (3, -1)), "exponents positive"),
    ]
    for exponents, message in refused:
        with pytest.raises(ValueError, match=message):
            Monomial(j, exponents)
    assert Monomial(j, ()).max_index == 0
    assert Monomial(j, ((1, 1), (3, 2))).render() == "t1*t3^2"


def test_poly_rejects_bad_weights():
    j = next(iter(enumerate_cycle_types(1)))
    mono = Monomial(j, ((1, 1),))
    with pytest.raises(ValueError, match="sum to 1/2, expected 1"):
        CycleIndexPoly(1, None, ((Fraction(1, 2), mono),))
    j1, j2 = enumerate_cycle_types(2)
    m1, m2 = Monomial(j1, ((1, 2),)), Monomial(j2, ((2, 1),))
    refused = [
        (((Fraction(1, 2), m1), (Fraction(1, 3), m2)), "sum to 5/6, expected 1"),
        (((Fraction(1, 2), m1), (Fraction(1), m2)), "sum to 3/2, expected 1"),
        (((Fraction(3, 2), m1), (Fraction(1, 2), m2)), "sum to 2, expected 1"),
        ((), "sum to 0, expected 1"),
        (((Fraction(3, 2), m1), (Fraction(-1, 2), m2)), "must be positive"),
        (((Fraction(1), m1), (Fraction(0), m2)), "must be positive"),
    ]
    for terms, message in refused:
        with pytest.raises(ValueError, match=message):
            CycleIndexPoly(2, None, terms)
    assert CycleIndexPoly(2, None, ((Fraction(1, 2), m1), (Fraction(1, 2), m2))).n == 2


def test_poly_refuses_exponents_that_miss_the_set():
    # A natural term's cycles cover the n points ...
    (coeff, mono), *rest = cycle_index_direct(20).terms
    assert mono.exponents == ((1, 20),)
    wrong = (coeff, Monomial(mono.origin, ((1, 21),)))
    with pytest.raises(ValueError, match=r"t1\^21 covers 21 elements, expected 20"):
        CycleIndexPoly(20, None, (wrong, *rest))
    # ... and a correct induced term's cover the n^k tuples.
    terms = list(induce(cycle_index_direct(3), 2).terms)
    coeff, mono = terms[1]
    assert mono.exponents == ((1, 1), (2, 4))
    terms[1] = (coeff, Monomial(mono.origin, ((1, 1), (2, 5))))
    with pytest.raises(ValueError, match=r"t1\*t2\^5 covers 11 elements, expected 9"):
        CycleIndexPoly(3, 2, tuple(terms), "correct")
    # The gcd rule is exempt: its terms need not cover the tuples, and at
    # (2, 3) its 2-cycle term, t2^2, covers 4 of 8.
    CycleIndexPoly(3, 2, tuple(terms), VARIANT_HARRISON)
    assert induce(cycle_index_direct(2), 3, VARIANT_HARRISON).terms[1][1].exponents == ((2, 2),)


def test_induced_index_names_its_exponent_rule():
    z = cycle_index_direct(3)
    assert z.variant is None
    assert cycle_index_recursive(3).variant is None
    assert induce(z, 3).variant == "correct"
    assert induce(z, 3, VARIANT_HARRISON).variant == VARIANT_HARRISON
    # A power needs a variant and a variant needs a power, from VARIANTS.
    terms = induce(z, 3).terms
    for power, variant in ((3, None), (None, "correct"), (3, "fast")):
        with pytest.raises(ValueError):
            CycleIndexPoly(3, power, terms, variant)


def test_json_shape():
    d = induce(cycle_index_direct(2), 2).to_json_dict()
    assert d["n"] == 2
    assert d["power"] == 2
    assert d["terms"] == [
        {"coefficient": "1/2", "exponents": {"1": 4}, "origin": [2, 0]},
        {"coefficient": "1/2", "exponents": {"2": 2}, "origin": [0, 1]},
    ]
