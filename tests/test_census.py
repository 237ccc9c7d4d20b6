import hashlib
import itertools
import json
import math
from pathlib import Path

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
    induce,
    realize_cycle_type,
    sequence,
    weighted_divisor_sum,
)
from magma_census import arith, census, cli

from witnesses import fixed_tables_enumerated


def test_weighted_divisor_sum_skips_large_divisors():
    j = CycleType(5, (0, 1, 1, 0, 0))
    # lcm(2, 3) = 6 exceeds n = 5; only d in {1, 2, 3} can carry cycles.
    assert weighted_divisor_sum(j, 6) == 2 * 1 + 3 * 1
    assert weighted_divisor_sum(j, 2) == 2
    assert weighted_divisor_sum(j, 1) == 0


def test_weighted_divisor_sum_matches_a_literal_divisor_sum():
    for n in range(0, 9):
        for j in enumerate_cycle_types(n):
            for m in range(1, 61):
                literal = sum(
                    d * j.cycles_of_length(d) for d in range(1, m + 1) if m % d == 0
                )
                assert weighted_divisor_sum(j, m) == literal, (j.j, m)


def test_fixed_point_count_hand_values():
    assert fixed_point_count(CycleType(2, (2, 0)), 2) == 16
    assert fixed_point_count(CycleType(2, (0, 1)), 2) == 4
    assert fixed_point_count(CycleType(2, (0, 1)), 3) == 16


def test_fixed_point_count_empty_set():
    empty = CycleType(0, ())
    assert fixed_point_count(empty, 0) == 0
    for k in range(1, 6):
        assert fixed_point_count(empty, k) == 1
        assert fixed_point_count(empty, k, VARIANT_HARRISON) == 1


def test_every_walk_leaf_matches_its_cycle_type(monkeypatch):
    # Every leaf and every node of the census walk, against the cycle types
    # the leaves spell. Each _join's settled product is recorded under its
    # parts, which name the edge. At a leaf, the product of the settles on
    # its path is checked against fixed_point_count, the literal product
    # over all tuples of cycle lengths. A node's subtree holds exactly the
    # leaves reached during its call: its weights must be the sum of their
    # cycle_type_count, and its total the sum over them of the settles
    # below the node times that weight. n = 0 has no node and no edge.
    # Every cycle type of n is reached exactly once.
    join, node = census._join, census._subtree_sums
    settled, leaves = {}, []

    def recorded(fold, bases, parts, rest, walk):
        out = join(fold, bases, parts, rest, walk)
        settled[parts] = out[2]
        if rest == 0:
            counts = [0] * sum(s for _, s in parts)
            for r, s in parts:
                counts[r - 1] = s // r
            leaves.append((parts, CycleType(len(counts), tuple(counts))))
        return out

    def checked(remaining, low, share, parts, fold, bases, walk):
        start = len(leaves)
        total, weights = node(remaining, low, share, parts, fold, bases, walk)
        below = leaves[start:]
        assert below, parts
        expected_total = expected_weights = 0
        for path, j in below:
            weight = arith.cycle_type_count(j)
            expected_weights += weight
            expected_total += weight * math.prod(
                settled[path[:i]] for i in range(len(parts) + 1, len(path) + 1)
            )
        assert weights == expected_weights, (parts, remaining)
        assert total == expected_total, (parts, remaining)
        return total, weights

    monkeypatch.setattr(census, "_join", recorded)
    monkeypatch.setattr(census, "_subtree_sums", checked)
    shapes = [(n, k) for n in range(0, 11) for k in range(0, 5)]
    for n, k in shapes + [(20, 2), (12, 3)]:
        settled.clear()
        leaves.clear()
        count = count_k_magmas(n, k).count
        if n == 0:
            assert not leaves and count == fixed_point_count(CycleType(0, ()), k)
            continue
        for path, j in leaves:
            fpc = math.prod(settled[path[:i]] for i in range(1, len(path) + 1))
            assert fpc == fixed_point_count(j, k), f"n={n} k={k} j={j.j}"
        reached = [j for _, j in leaves]
        assert sorted(reached) == sorted(enumerate_cycle_types(n)), (n, k)


def test_fixed_point_count_harrison_matches_induced_monomial():
    # The gcd convention written out here, tuple by tuple: each ordered
    # k-tuple of cycle lengths adds gcd * j_{r_1}*...*j_{r_k} (j_r alone at
    # arity 1) to the exponent of its lcm L, and t_L becomes the sum of
    # d * j_d over the divisors d of L, found by trial division.
    for n in range(0, 10):
        z = cycle_index_direct(n)
        for k in range(1, 5):
            for _, mono in induce(z, k, VARIANT_HARRISON).terms:
                j = mono.origin
                support = [r for r in range(1, n + 1) if j.j[r - 1]]
                exps = {}
                for lengths in itertools.product(support, repeat=k):
                    length = math.lcm(*lengths)
                    e = math.gcd(*lengths) if k >= 2 else 1
                    for r in lengths:
                        e *= j.j[r - 1]
                    exps[length] = exps.get(length, 0) + e
                expected = 1
                for length, e in exps.items():
                    base = sum(
                        d * j.j[d - 1] for d in range(1, n + 1) if length % d == 0
                    )
                    expected *= base**e
                assert dict(mono.exponents) == exps, f"n={n} k={k} j={j.j}"
                assert fixed_point_count(j, k, VARIANT_HARRISON) == expected, (
                    f"n={n} k={k} j={j.j}"
                )


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
    for n in range(0, 10):
        for j in enumerate_cycle_types(n):
            assert fixed_point_count(j, 1, VARIANT_HARRISON) == fixed_point_count(j, 1)
            assert fixed_point_count(j, 2, VARIANT_HARRISON) == fixed_point_count(j, 2)


def test_harrison_diverges_at_arity_three():
    j = CycleType(2, (0, 1))
    assert fixed_point_count(j, 3, VARIANT_HARRISON) == 4
    assert fixed_point_count(j, 3) == 16


def test_harrison_rejects_arity_zero():
    # The empty set too, where the correct count at k = 0 is 0.
    for j in (CycleType(2, (2, 0)), CycleType(0, ())):
        with pytest.raises(ValueError):
            fixed_point_count(j, 0, VARIANT_HARRISON)


def test_fixed_point_count_refuses_an_unknown_variant():
    # A dispatch written as `variant == VARIANT_HARRISON` would hand "fast"
    # to the walk and return the correct count without a word.
    for n in range(0, 5):
        for j in enumerate_cycle_types(n):
            for k in range(0, 4):
                with pytest.raises(ValueError):
                    fixed_point_count(j, k, "fast")


def test_fixed_point_count_refuses_negative_arity():
    for variant in (VARIANT_CORRECT, VARIANT_HARRISON):
        with pytest.raises(ValueError):
            fixed_point_count(CycleType(2, (0, 1)), -1, variant)


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


def test_permutation_sum_guard():
    with pytest.raises(GuardError):
        count_via_permutation_sum(9, 2)
    assert count_via_permutation_sum(8, 0).count == 1


def test_permutation_sum_checks_its_arguments_before_the_guard():
    # Above the guard a bad argument is still a ValueError, not a refusal.
    for args in ((9, -1), (9, 2, "fast"), (-1, 2)):
        with pytest.raises(ValueError):
            count_via_permutation_sum(*args)


def test_cycle_index_route_matches():
    # The walk over the partition tree against the literal per-tuple
    # induction, summed through the divisors: no code in common.
    for n in range(0, 13):
        for k in range(0, 5):
            assert count_via_cycle_index(n, k).count == count_k_magmas(n, k).count, (
                f"n={n} k={k}"
            )


def test_cycle_index_route_matches_at_moderate_size():
    # At (32, 2) many nodes keep large remainders, so keys stay live over
    # several parts before they settle.
    for n, k in ((24, 2), (12, 3), (32, 2)):
        assert count_via_cycle_index(n, k).count == count_k_magmas(n, k).count


def test_closed_form_grid_matches_reference_digests():
    # The benchmark's digests of `count --n N --k K` stdout, made through
    # count_via_cycle_index: the only independent check of (33..40, 2).
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    digests = json.loads(path.read_text())["closed-form"]
    assert len(digests) == 21
    for point, expected in digests.items():
        n, k = map(int, point.split(","))
        stdout = cli.decimal_string(count_k_magmas(n, k).count) + "\n"
        assert hashlib.sha256(stdout.encode()).hexdigest() == expected, point


def _divides_later_part(length, r, rest):
    return any(length % t == 0 for t in range(r + 1, rest + 1))


def test_join_keeps_exactly_the_keys_a_later_part_can_touch(monkeypatch):
    # Every edge of every walk: a key of F_k stays live exactly when some
    # later part t in (r, rest] divides its length, and each live key
    # carries the sum of s over the parts (p, s) with p | L. The fold holds
    # F_2..F_k only; F_0 = {1: 1} and F_1 = {p: s_p} are built here from
    # the parts before the edge. At k <= 1 nothing is stored, so no key is
    # live and every key settles at the leaf.
    join = census._join
    edges = []

    def checked(fold, bases, parts, rest, walk):
        k = walk.k
        r = parts[-1][0]
        before = [{1: 1}, dict(parts[:-1]), *fold]
        grown = set(before[k]) | {
            math.lcm(length, r) for i in range(k) for length in before[i]
        }
        out, live_bases, product = join(fold, bases, parts, rest, walk)
        live = out[-1] if out else {}
        assert live.keys() == live_bases.keys() <= grown
        for length in grown:
            assert (length in live) == (
                k >= 2 and _divides_later_part(length, r, rest)
            ), (parts, rest, length)
        for length, base in live_bases.items():
            assert base == sum(s for p, s in parts if length % p == 0), (parts, length)
        if rest and k >= 2:
            edges.append((len(live), len(grown) - len(live)))
        return out, live_bases, product

    monkeypatch.setattr(census, "_join", checked)
    for n, k in ((20, 2), (14, 3), (8, 3), (9, 4), (8, 0), (12, 1)):
        assert count_k_magmas(n, k).count == count_via_cycle_index(n, k).count
    # Inner edges both keep keys live and settle them early.
    assert all(map(sum, zip(*edges)))


def test_walk_builds_no_cycle_type(monkeypatch):
    expected = count_via_cycle_index(12, 3).count

    def refuse(cls, n, j):
        raise AssertionError(f"CycleType built: {j}")

    monkeypatch.setattr(arith.CycleType, "__new__", refuse)
    assert count_k_magmas(12, 3).count == expected


@pytest.mark.parametrize("fault", ["lost", "repeated"])
def test_weight_sum_check_catches_a_wrong_walk(monkeypatch, fault):
    # The first node with a single leaf below it (only the part r =
    # remaining completes) passes that leaf no share, or twice its share.
    node = census._subtree_sums
    injected = []

    def faulty(remaining, low, share, *rest):
        if not injected and low > remaining // 2:
            injected.append(remaining)
            share = 0 if fault == "lost" else 2 * share
        return node(remaining, low, share, *rest)

    monkeypatch.setattr(census, "_subtree_sums", faulty)
    with pytest.raises(ArithmeticError, match="weights"):
        count_k_magmas(6, 2)
    assert injected


def test_cycle_index_route_harrison():
    shapes = [(n, k) for n in range(0, 13) for k in (1, 2)]
    shapes += [(n, 3) for n in range(0, 7)] + [(16, 2), (8, 3)]
    for n, k in shapes:
        assert (
            count_via_cycle_index(n, k, VARIANT_HARRISON).count
            == count_k_magmas(n, k, VARIANT_HARRISON).count
        ), f"n={n} k={k}"


def test_three_routes_agree_at_arity_four():
    # One arity past the cross-method suite's grid: the literal per-tuple
    # loop under both exponent conventions, through all three routes.
    for n in range(0, 7):
        for variant in (VARIANT_CORRECT, VARIANT_HARRISON):
            a = count_k_magmas(n, 4, variant).count
            b = count_via_permutation_sum(n, 4, variant).count
            c = count_via_cycle_index(n, 4, variant).count
            assert a == b == c, f"n={n} {variant}: {a}, {b}, {c}"


def test_harrison_literal_loop_matches_the_walk_at_arity_two():
    # gcd * lcm = r * s, so at k = 2 the gcd variant's per-tuple loop must
    # give the walk's count.
    for n in range(0, 17):
        assert count_k_magmas(n, 2, VARIANT_HARRISON).count == (
            count_k_magmas(n, 2).count
        ), n


def test_harrison_counts_match_reference_digests():
    # SHA-256 of the decimal count at each (n, k), recorded from the
    # earlier walk-based gcd variant; null marks a size whose average is
    # not an integer. The permutation route must give the same counts.
    path = Path(__file__).resolve().parent / "harrison_gcd_digests.json"
    digests = json.loads(path.read_text())
    assert len(digests) == 75
    for point, expected in digests.items():
        n, k = map(int, point.split(","))
        if expected is None:
            with pytest.raises(ArithmeticError):
                count_k_magmas(n, k, VARIANT_HARRISON)
            continue
        count = count_k_magmas(n, k, VARIANT_HARRISON).count
        digest = hashlib.sha256(cli.decimal_string(count).encode()).hexdigest()
        assert digest == expected, point
        if n <= 6 and k <= 3:
            assert count_via_permutation_sum(n, k, VARIANT_HARRISON).count == count


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
    counts = [r.count for r in sequence(2, 1, 5, vary="k")]
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
    columns = sequence(2, 1, 4, vary="k")
    assert calls == []
    assert next(rows).count == 1
    assert next(columns).count == 3
    assert calls == [(0, 2), (2, 1)]


def test_sequence_rejects_bad_range():
    with pytest.raises(ValueError):
        sequence(2, 3, 1)
    with pytest.raises(ValueError):
        sequence(2, 3, 1, vary="k")
    with pytest.raises(ValueError):
        sequence(2, 0, 1, vary="m")


def test_query_validation():
    with pytest.raises(ValueError):
        CensusQuery(-1, 2)
    with pytest.raises(ValueError):
        CensusQuery(2, 2, variant="fast")


def test_result_zero_only_at_origin():
    q = CensusQuery(2, 2)
    with pytest.raises(ValueError):
        CensusResult(q, 0)
    with pytest.raises(ValueError):
        CensusResult(q, -1)
    assert CensusResult(CensusQuery(0, 0), 0).count == 0


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
