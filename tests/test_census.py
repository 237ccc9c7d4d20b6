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

from witnesses import count_residues, fixed_tables_enumerated


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


def _leaf_type(path):
    counts = [0] * sum(s for _, s in path)
    for r, s in path:
        counts[r - 1] = s // r
    return CycleType(len(counts), tuple(counts))


def _with_closes(shapes):
    # (close, n, k) for every shape: the general close at each shape, k = 2
    # included, and the binary close at the shapes with k = 2, the only
    # arity it serves.
    binary = [("binary", n, k) for n, k in shapes if k == 2]
    return binary + [("general", n, k) for n, k in shapes]


def _walk_sums(n, k, close, wrap_join, wrap_close):
    # The driver's (total, weights) at (n, k) under the named close, its
    # join edges and its closes wrapped. _walk_tables picks the binary
    # close at k = 2; "general" swaps the general one in there too. The
    # general close joins through _join as well, but those joins belong to
    # its one edge, so only the driver's own joins reach wrap_join.
    walk = census._walk_tables(n, k)
    if close == "general":
        walk = walk._replace(close=census._close)
    else:
        assert k == 2 and walk.close is census._pair_close, k
    join = census._join
    wrapped_join, wrapped_close = wrap_join(join), wrap_close(walk.close)
    closing = []

    def driver_join(*args):
        return (join if closing else wrapped_join)(*args)

    def closing_edge(*args):
        closing.append(True)
        product = wrapped_close(*args)
        closing.pop()
        return product

    fold = [{} for _ in range(2, k + 1)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census, "_join", driver_join)
        walk = walk._replace(close=closing_edge)
        return census._subtree_sums(n, 1, math.factorial(n), (), fold, walk)


def test_every_walk_leaf_matches_its_cycle_type(monkeypatch):
    # Every leaf and every node of the census walk, under both closes,
    # against the cycle types the leaves spell. The driver's joins and
    # closes are wrapped, and each edge's settled product is recorded under
    # its parts, which name the edge. A close that also joins the last
    # part (rest, rest) is one edge: its child is never entered, so the
    # path's second-to-last prefix names no edge, and that child must have
    # been its only completion (rest in (r, 2r + 1]). Every other child is
    # entered through a join. At a leaf, the product of the settles on its
    # path is checked against fixed_point_count, the literal product over
    # all tuples of cycle lengths. A node's subtree holds exactly the
    # leaves reached during its call: its weights must be the sum of their
    # cycle_type_count, and its total the sum over them of the settles
    # below the node times that weight. n = 0 has no node and no edge.
    # Every cycle type of n is reached exactly once.
    node = census._subtree_sums
    settled, leaves, fused = {}, [], set()

    def recorded(join):
        def recording(fold, bases, parts, r, s, rest, walk):
            assert rest > 2 * r + 1, (parts, r, rest)
            out = join(fold, bases, parts, r, s, rest, walk)
            settled[parts + ((r, s),)] = out[1]
            return out

        return recording

    def closed(close):
        def closing(fold, bases, parts, r, s, rest, walk):
            product = close(fold, bases, parts, r, s, rest, walk)
            path = parts + ((r, s),)
            if rest:
                assert r < rest <= 2 * r + 1, (parts, r, rest)
                path += ((rest, rest),)
                fused.add(path)
            settled[path] = product
            leaves.append((path, _leaf_type(path)))
            return product

        return closing

    def edges(path, depth):
        # The edges from the node at depth `depth` down to the leaf `path`.
        skipped = len(path) - 1 if path in fused else None
        return [path[:i] for i in range(depth + 1, len(path) + 1) if i != skipped]

    def checked(remaining, low, share, parts, fold, walk):
        start = len(leaves)
        total, weights = node(remaining, low, share, parts, fold, walk)
        below = leaves[start:]
        assert below, parts
        expected_total = expected_weights = 0
        for path, j in below:
            weight = arith.cycle_type_count(j)
            expected_weights += weight
            expected_total += weight * math.prod(
                settled[e] for e in edges(path, len(parts))
            )
        assert weights == expected_weights, (parts, remaining)
        assert total == expected_total, (parts, remaining)
        return total, weights

    monkeypatch.setattr(census, "_subtree_sums", checked)
    shapes = [(n, k) for n in range(0, 11) for k in range(0, 5)]
    for close, n, k in _with_closes(shapes + [(20, 2), (12, 3)]):
        settled.clear()
        leaves.clear()
        fused.clear()
        if n == 0:
            count = count_k_magmas(n, k).count
            assert not leaves and count == fixed_point_count(CycleType(0, ()), k)
            continue
        _, weights = _walk_sums(n, k, close, recorded, closed)
        assert weights == math.factorial(n), (close, n, k)
        for path, j in leaves:
            fpc = math.prod(settled[e] for e in edges(path, 0))
            assert fpc == fixed_point_count(j, k), f"{close} n={n} k={k} j={j.j}"
        reached = [j for _, j in leaves]
        assert sorted(reached) == sorted(enumerate_cycle_types(n)), (n, k)
        # Both closes join two parts in one edge at every k, from n = 3 on,
        # where (1, 1) + (2, 2) is a leaf.
        assert bool(fused) == (n >= 3), (close, n, k)


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


def test_big_counts_match_reference_digests():
    # The benchmark's digests of `count --n N --k K --format json` stdout,
    # made through count_via_cycle_index: the general walk at k = 3..5,
    # past the cycle-index checks' reach, up to 268k digits.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    digests = json.loads(path.read_text())["big-counts"]
    assert len(digests) == 28
    for point, expected in digests.items():
        n, k = map(int, point.split(","))
        stdout = json.dumps(cli._count_record(count_k_magmas(n, k))) + "\n"
        assert hashlib.sha256(stdout.encode()).hexdigest() == expected, point


_RESIDUE_PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7)


@pytest.mark.parametrize("n, k", [(16, 5), (10, 6), (6, 8), (5, 9), (4, 10), (3, 12)])
def test_high_arity_counts_match_literal_residues(n, k):
    # Past the reference digests, which stop at (12, 5), and past the
    # cycle-index route: the literal census sum, reduced modulo primes.
    # From k = 8 on, _join's a-loop runs at m >= 8.
    count = count_k_magmas(n, k).count
    expected = count_residues(n, k, _RESIDUE_PRIMES)
    assert [count % p for p in _RESIDUE_PRIMES] == expected


def test_residue_witness_matches_exact_counts():
    # The witness against counts the other routes confirm, degenerate
    # shapes included, and its refusal of a prime that n! shares.
    for n in range(0, 7):
        for k in range(0, 4):
            count = count_k_magmas(n, k).count
            assert count_residues(n, k, (7, 11, 2**31 - 1)) == [
                count % p for p in (7, 11, 2**31 - 1)
            ], (n, k)
    with pytest.raises(ValueError):
        count_residues(7, 2, (7,))


def _divides_later_part(length, r, rest):
    return any(length % t == 0 for t in range(r + 1, rest + 1))


def _literal_fold(parts, k):
    # F_k over the parts: each ordered k-tuple of parts (p_i, s_i) adds
    # prod s_i at lcm(p_1, ..., p_k).
    fold = {}
    for tup in itertools.product(parts, repeat=k):
        length = math.lcm(*(p for p, _ in tup))
        fold[length] = fold.get(length, 0) + math.prod(s for _, s in tup)
    return fold


def _check_edge(before, parts, rest, k, live, product):
    # One join edge, which enters its child, against the literal fold.
    # parts ends with the part (r, s) that joins; before holds F_0..F_k
    # over the parts before it, F_0 = {1: 1} and F_1 = {p: s_p} built from
    # the parts. A key of F_k stays live exactly when some later part t in
    # (r, rest] divides its length, and carries its weight in F'_k. The
    # edge settles the keys it is answerable for, those carried in or that
    # r divides, and that do not stay live: its product is recomputed from
    # F'_k built over the k-tuples of the grown parts, each such key raised
    # to b_L ** (F'_k[L] / L), b_L the sum of s over the parts (p, s) with
    # p | L. At k <= 1 nothing is stored, so no key is live and the edge
    # settles nothing. Returns (keys kept live, keys settled early) of the
    # edge.
    r = parts[-1][0]
    grown = set(before[k]) | {
        math.lcm(length, r) for i in range(k) for length in before[i]
    }
    assert live.keys() <= grown
    for length in grown:
        assert (length in live) == (
            k >= 2 and _divides_later_part(length, r, rest)
        ), (parts, rest, length)
    full = _literal_fold(parts, k)
    assert all(full[length] == v for length, v in live.items()), parts
    answerable = set()
    if k >= 2:
        answerable = {
            length for length in full if length in before[k] or length % r == 0
        }
    expected = 1
    for length in answerable - live.keys():
        base = sum(s for p, s in parts if length % p == 0)
        expected *= base ** (full[length] // length)
    assert product == expected, (parts, rest)
    return len(live), len(grown) - len(live)


def _check_close(before, path, joined, k, product):
    # One close edge, which ends its path, against the literal fold. path
    # ends with the parts the edge joins: (r, s), or (r, s) and then
    # (rest, rest) when rest has that one completion. before holds
    # F_0..F_k over the parts before them, as in _check_edge. No key
    # outlives a leaf, so the edge settles every key of F_k over the path
    # that it is answerable for: at k >= 2 the keys carried in or that a
    # part it joins divides, at k <= 1, where nothing is stored, all keys.
    # Each is raised to b_L ** (F_k[L] / L), b_L over the whole path.
    full = _literal_fold(path, k)
    assert before[k].keys() <= full.keys(), path
    sizes = [p for p, _ in path[-joined:]]
    expected = 1
    for length, v in full.items():
        if k <= 1 or length in before[k] or any(length % q == 0 for q in sizes):
            base = sum(s for p, s in path if length % p == 0)
            expected *= base ** (v // length)
    assert product == expected, path


def test_join_keeps_exactly_the_keys_a_later_part_can_touch():
    # Every edge of the census walk, under both closes: each join checked
    # by _check_edge, each close by _check_close. The fold holds F_2..F_k
    # over the live keys.
    kept = []

    def carried(fold, parts):
        # F_0..F_k over parts, F_0 and F_1 built from the parts.
        return [{1: 1}, dict(parts), *fold]

    def checked(join):
        def checking(fold, bases, parts, r, s, rest, walk):
            child, product = join(fold, bases, parts, r, s, rest, walk)
            before, k = carried(fold, parts), walk.k
            live = (child or [{}])[-1]
            edge = _check_edge(before, parts + ((r, s),), rest, k, live, product)
            if k >= 2:
                kept.append(edge)
            return child, product

        return checking

    def closed(close):
        def closing(fold, bases, parts, r, s, rest, walk):
            product = close(fold, bases, parts, r, s, rest, walk)
            path = parts + ((r, s),) + (((rest, rest),) if rest else ())
            joined = 2 if rest else 1
            _check_close(carried(fold, parts), path, joined, walk.k, product)
            return product

        return closing

    shapes = ((20, 2), (14, 3), (8, 3), (9, 4), (8, 0), (12, 1))
    for close, n, k in _with_closes(shapes):
        total, weights = _walk_sums(n, k, close, checked, closed)
        factorial = math.factorial(n)
        assert weights == factorial, (close, n, k)
        assert total == count_via_cycle_index(n, k).count * factorial, (close, n, k)
    # Join edges both keep keys live and settle them early.
    assert all(map(sum, zip(*kept)))


def test_binary_walk_matches_the_general_walk_forced_at_arity_two():
    # k = 2 takes the binary close; the general close is swapped in here.
    # One driver and one join run both, and the sum and the weights must
    # agree exactly.
    for n in range(1, 31):
        walk = census._walk_tables(n, 2)
        share = math.factorial(n)
        binary = census._subtree_sums(n, 1, share, (), [{}], walk)
        general = walk._replace(close=census._close)
        assert binary == census._subtree_sums(n, 1, share, (), [{}], general), n
        assert binary[1] == share


def test_walk_builds_no_cycle_type(monkeypatch):
    # Both closes: the general one at (12, 3), the binary one at (20, 2).
    # enumerate_cycle_types builds its vectors without CycleType.__new__,
    # so the walk may not call it either.
    shapes = ((12, 3), (20, 2))
    expected = [count_via_cycle_index(n, k).count for n, k in shapes]

    def refuse(*args):
        raise AssertionError(f"cycle type built: {args}")

    monkeypatch.setattr(arith.CycleType, "__new__", refuse)
    monkeypatch.setattr(census, "enumerate_cycle_types", refuse)
    assert [count_k_magmas(n, k).count for n, k in shapes] == expected


def _inject_share_fault(monkeypatch, fault):
    # The driver's first node below the root passes its leaves no share,
    # or twice their share.
    node = census._subtree_sums
    injected = []

    def faulty(remaining, low, share, parts, fold, walk, take=None):
        if parts and not injected:
            injected.append(remaining)
            share = 0 if fault == "lost" else 2 * share
        return node(remaining, low, share, parts, fold, walk, take)

    monkeypatch.setattr(census, "_subtree_sums", faulty)
    return injected


@pytest.mark.parametrize("fault", ["lost", "repeated"])
def test_weight_sum_check_catches_a_wrong_walk(monkeypatch, fault):
    # The binary close, which serves k = 2.
    injected = _inject_share_fault(monkeypatch, fault)
    with pytest.raises(ArithmeticError, match="weights"):
        count_k_magmas(6, 2)
    assert injected


@pytest.mark.parametrize("fault", ["lost", "repeated"])
def test_weight_sum_check_catches_a_wrong_general_walk(monkeypatch, fault):
    # The general close. Like the binary one, it ends a child with a single
    # completion in its parent's edge, so the fault goes into the first
    # node the driver enters, not into a single-leaf node.
    injected = _inject_share_fault(monkeypatch, fault)
    with pytest.raises(ArithmeticError, match="weights"):
        count_k_magmas(6, 3)
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
