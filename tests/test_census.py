import math

import pytest

from magma_census import (
    CensusQuery,
    CensusResult,
    CycleType,
    GuardError,
    VARIANT_CORRECT,
    VARIANT_HARRISON,
    all_perms,
    count_k_magmas,
    count_via_cycle_index,
    count_via_permutation_sum,
    cycle_index_direct,
    cycle_type_of,
    enumerate_cycle_types,
    fixed_point_count,
    fixed_point_count_harrison,
    induce,
    realize_cycle_type,
    sequence,
    weighted_divisor_sum,
)
from magma_census import arith, census
from magma_census.census import _induce_harrison, sequence_in_k
from magma_census.oracle import fixed_tables_enumerated

from conftest import partition_count


def test_weighted_divisor_sum_skips_large_divisors():
    j = CycleType(5, (0, 1, 1, 0, 0))
    # lcm(2, 3) = 6 exceeds n = 5; only d in {1, 2, 3} can carry cycles.
    assert weighted_divisor_sum(j, 6) == 2 * 1 + 3 * 1
    assert weighted_divisor_sum(j, 2) == 2
    assert weighted_divisor_sum(j, 1) == 0


def test_fixed_point_count_hand_values():
    assert fixed_point_count(CycleType(2, (2, 0)), 2) == 16
    assert fixed_point_count(CycleType(2, (0, 1)), 2) == 4
    assert fixed_point_count(CycleType(2, (0, 1)), 3) == 16


def test_fixed_point_count_empty_set():
    empty = CycleType(0, ())
    assert fixed_point_count(empty, 0) == 0
    for k in range(1, 6):
        assert fixed_point_count(empty, k) == 1
        assert fixed_point_count_harrison(empty, k) == 1


def _substituted(mono):
    j = mono.origin
    return math.prod(weighted_divisor_sum(j, i) ** e for i, e in mono.exponents)


def test_fixed_point_count_matches_induced_monomial():
    # The folded kernel against the literal per-tuple loop in induce, with
    # the divisor sum taken over divisors rather than over the support.
    for n in range(0, 10):
        z = cycle_index_direct(n)
        for k in range(0, 5):
            for _, mono in induce(z, k).terms:
                assert fixed_point_count(mono.origin, k) == _substituted(mono), (
                    f"n={n} k={k} j={mono.origin.j}"
                )


def test_fixed_point_count_harrison_matches_induced_monomial():
    for n in range(0, 10):
        z = cycle_index_direct(n)
        for k in range(1, 5):
            for _, mono in _induce_harrison(z, k).terms:
                assert fixed_point_count_harrison(mono.origin, k) == _substituted(
                    mono
                ), f"n={n} k={k} j={mono.origin.j}"


def test_fixed_point_count_arity_zero_counts_fixed_points():
    for n in range(1, 6):
        for j in enumerate_cycle_types(n):
            assert fixed_point_count(j, 0) == j.cycles_of_length(1)


def test_fixed_point_count_against_enumeration():
    # Independent route: enumerate every table and test act-fixedness.
    for n in range(0, 4):
        for j in enumerate_cycle_types(n):
            p = realize_cycle_type(j)
            for k in range(0, 3 if n == 3 else 4):
                assert fixed_point_count(j, k) == fixed_tables_enumerated(p, k)


def test_harrison_agrees_at_low_arity():
    for n in range(0, 7):
        for j in enumerate_cycle_types(n):
            assert fixed_point_count_harrison(j, 1) == fixed_point_count(j, 1)
            assert fixed_point_count_harrison(j, 2) == fixed_point_count(j, 2)


def test_harrison_diverges_at_arity_three():
    j = CycleType(2, (0, 1))
    assert fixed_point_count_harrison(j, 3) == 4
    assert fixed_point_count(j, 3) == 16


def test_harrison_rejects_arity_zero():
    with pytest.raises(ValueError):
        fixed_point_count_harrison(CycleType(2, (2, 0)), 0)


def test_count_pinned_values():
    assert count_k_magmas(2, 2).count == 10
    assert count_k_magmas(3, 2).count == 3330
    assert count_k_magmas(2, 3).count == 136
    assert count_k_magmas(4, 2).count == 178981952
    assert count_k_magmas(2, 3, VARIANT_HARRISON).count == 130


def test_count_degenerate_shapes():
    assert count_k_magmas(0, 0).count == 0
    for n in range(1, 5):
        assert count_k_magmas(n, 0).count == 1
    for k in range(1, 6):
        assert count_k_magmas(0, k).count == 1


def test_permutation_sum_matches_partition_sum():
    for n in range(0, 6):
        for k in range(0, 4):
            assert (
                count_via_permutation_sum(n, k).count == count_k_magmas(n, k).count
            )


def test_permutation_sum_term_count():
    r = count_via_permutation_sum(4, 2)
    assert r.terms_evaluated == math.factorial(4)
    assert r.query.method == "permutation"


def test_permutation_sum_guard():
    with pytest.raises(GuardError):
        count_via_permutation_sum(9, 2)
    assert count_via_permutation_sum(4, 2, perm_guard=4).count == 178981952


def test_cycle_index_route_matches():
    # The walk over the partition tree against the literal per-tuple
    # induction, summed through the divisors: no code in common.
    for n in range(0, 13):
        for k in range(0, 5):
            assert count_via_cycle_index(n, k).count == count_k_magmas(n, k).count, (
                f"n={n} k={k}"
            )


def test_cycle_index_route_matches_at_moderate_size():
    for n, k in ((24, 2), (12, 3)):
        assert count_via_cycle_index(n, k).count == count_k_magmas(n, k).count


def test_terms_evaluated_counts_cycle_types():
    assert count_k_magmas(40, 2).terms_evaluated == 37338
    for n in range(0, 21):
        for k in (0, 3):
            assert count_k_magmas(n, k).terms_evaluated == partition_count(n)
        assert count_k_magmas(n, 2, VARIANT_HARRISON).terms_evaluated == (
            partition_count(n)
        )


def test_walk_builds_no_cycle_type(monkeypatch):
    expected = count_via_cycle_index(12, 3).count

    def refuse(self):
        raise AssertionError(f"CycleType built: {self.j}")

    monkeypatch.setattr(arith.CycleType, "__post_init__", refuse)
    assert count_k_magmas(12, 3).count == expected
    assert count_k_magmas(9, 2, VARIANT_HARRISON).terms_evaluated == 30


@pytest.mark.parametrize("fault", ["lost", "repeated"])
def test_weight_sum_check_catches_a_wrong_walk(monkeypatch, fault):
    walk = census._cycle_type_terms

    def faulty(n, k, kernel):
        terms = walk(n, k, kernel)
        first = next(terms)
        if fault == "repeated":
            yield first
            yield first
        yield from terms

    monkeypatch.setattr(census, "_cycle_type_terms", faulty)
    with pytest.raises(ArithmeticError, match="weights"):
        count_k_magmas(6, 2)


def test_cycle_index_route_harrison():
    shapes = [(n, k) for n in range(0, 13) for k in (1, 2)]
    shapes += [(n, 3) for n in range(0, 7)]
    for n, k in shapes:
        assert (
            count_via_cycle_index(n, k, VARIANT_HARRISON).count
            == count_k_magmas(n, k, VARIANT_HARRISON).count
        ), f"n={n} k={k}"


def test_harrison_average_stops_being_integral():
    # The gcd exponent does not just miscount: at n=7, k=3 its Burnside
    # average is not an integer, which no orbit count could ever be.
    with pytest.raises(ArithmeticError):
        count_k_magmas(7, 3, VARIANT_HARRISON)


def test_sequence_unary_row():
    counts = [r.count for r in sequence(1, 0, 6)]
    assert counts == [1, 1, 3, 7, 19, 47, 130]


def test_sequence_binary_row():
    counts = [r.count for r in sequence(2, 0, 3)]
    assert counts == [1, 1, 10, 3330]


def test_sequence_fixed_n_column():
    counts = [r.count for r in sequence_in_k(2, 1, 5)]
    assert counts == [3, 10, 136, 32896, 2147516416]
    closed = [2 ** (2**k - 1) + 2 ** (2 ** (k - 1) - 1) for k in range(1, 6)]
    assert counts == closed


def test_sequence_is_lazy(monkeypatch):
    calls = []
    real = census.count_k_magmas

    def counted(n, k, variant=VARIANT_CORRECT):
        calls.append((n, k))
        return real(n, k, variant)

    monkeypatch.setattr(census, "count_k_magmas", counted)
    rows = sequence(2, 0, 5)
    columns = sequence_in_k(2, 1, 4)
    assert calls == []
    assert next(rows).count == 1
    assert next(columns).count == 3
    assert calls == [(0, 2), (2, 1)]


def test_sequence_rejects_bad_range():
    with pytest.raises(ValueError):
        sequence(2, 3, 1)


def test_query_validation():
    with pytest.raises(ValueError):
        CensusQuery(-1, 2)
    with pytest.raises(ValueError):
        CensusQuery(2, 2, variant="fast")
    with pytest.raises(ValueError):
        CensusQuery(2, 2, method="magic")


def test_result_zero_only_at_origin():
    q = CensusQuery(2, 2)
    with pytest.raises(ValueError):
        CensusResult(q, 0, 2, 0.0)
    with pytest.raises(ValueError):
        CensusResult(q, -1, 2, 0.0)
    assert CensusResult(CensusQuery(0, 0), 0, 1, 0.0).count == 0


def test_identity_bound():
    # The identity contributes n^(n^k)/n! alone; the average can only be
    # smaller, with equality exactly when nothing else acts.
    for n in range(0, 4):
        for k in range(0, 3):
            count = count_k_magmas(n, k).count
            assert count <= n ** (n**k)
            assert (count == n ** (n**k)) == (n <= 1)


def test_burnside_consistency_against_direct_average():
    # Same number through an unstructured sweep of S_n, no cycle types.
    for n in range(0, 6):
        for k in range(0, 3):
            total = sum(
                fixed_point_count(cycle_type_of(p), k) for p in all_perms(n)
            )
            assert total % math.factorial(n) == 0
            assert total // math.factorial(n) == count_k_magmas(n, k).count
