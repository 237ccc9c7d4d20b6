"""The acceptance gate: eight go/no-go checks with stated runtime budgets.

Every expected value is exact; no check carries a numeric tolerance. Each
criterion is one test that prints a single summary line on success, so a
run with -s reads as a checklist.
"""

import random
import subprocess
import sys
import time

from magma_census import (
    VARIANT_CORRECT,
    VARIANT_HARRISON,
    Perm,
    count_k_magmas,
    count_orbits_bruteforce,
    count_via_cycle_index,
    count_via_permutation_sum,
    cycle_index_direct,
    cycle_index_recursive,
    enumerate_cycle_types,
    fixed_point_count,
    fixed_tables_structural,
    induce,
    max_indeterminate_index,
    realize_cycle_type,
    sequence,
)

from conftest import random_fixed_table, random_perm, random_table
from witnesses import act, is_automorphism, orbit_stabilizer_check

CAP = 2**20


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    pairs = [
        (n, k) for n in range(0, 9) for k in range(0, 7) if n ** (n**k) <= CAP
    ]
    required = (
        {(n, 1) for n in range(0, 8)}
        | {(n, 2) for n in range(0, 4)}
        | {(2, k) for k in range(0, 5)}
    )
    assert required <= set(pairs)
    for n, k in pairs:
        brute = count_orbits_bruteforce(n, k)
        formula = count_k_magmas(n, k).count
        assert brute == formula, f"(n={n}, k={k}): {brute} != {formula}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1 oracle equivalence ({len(pairs)} pairs, {elapsed:.1f}s): PASS")


def test_criterion_2_structural_equivalence():
    start = time.perf_counter()
    rng = random.Random(1729)
    harrison_breaks = 0
    for n in range(0, 9):
        for j in enumerate_cycle_types(n):
            p = realize_cycle_type(j, rng)
            for k in range(0, 4):
                structural = fixed_tables_structural(p, n, k)
                assert structural == fixed_point_count(j, k), f"n={n} k={k} j={j.j}"
                if k == 3 and structural != fixed_point_count(j, 3, VARIANT_HARRISON):
                    harrison_breaks += 1
    # The same sweep must refute the gcd exponent somewhere at arity 3;
    # a variant that survives it would make the whole check vacuous.
    assert harrison_breaks > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 2 structural equivalence ({harrison_breaks} gcd refutations, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_3_pinned_values():
    assert count_k_magmas(2, 2).count == 10
    assert count_k_magmas(3, 2).count == 3330
    assert count_k_magmas(4, 2).count == 178981952
    assert count_k_magmas(2, 3).count == 136
    assert count_k_magmas(2, 3, VARIANT_HARRISON).count == 130
    assert [r.count for r in sequence(1, 0, 6)] == [1, 1, 3, 7, 19, 47, 130]
    assert [count_k_magmas(n, 0).count for n in range(0, 4)] == [0, 1, 1, 1]
    assert [count_k_magmas(0, k).count for k in range(1, 6)] == [1, 1, 1, 1, 1]
    print("criterion 3 pinned values: PASS")


def test_criterion_4_cycle_index_fidelity():
    start = time.perf_counter()
    for n in range(0, 26):
        direct = cycle_index_direct(n)
        assert cycle_index_recursive(n).terms == direct.terms, n
        assert sum(c for c, _ in direct.terms) == 1, n
    z3 = cycle_index_direct(3)
    assert z3.render() == "1/6*t1^3 + 1/2*t1*t2 + 1/3*t3"
    assert induce(z3, 2).render() == "1/6*t1^9 + 1/2*t1*t2^4 + 1/3*t3^3"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 4 cycle-index fidelity (n <= 25, {elapsed:.1f}s): PASS")


def test_criterion_5_remark_bound():
    for n in range(0, 5):
        z = induce(cycle_index_direct(n), 2)
        assert max_indeterminate_index(z) <= n, n
    for n in range(4, 10):
        z = induce(cycle_index_direct(n), 2)
        assert max_indeterminate_index(z) <= n * n // 4, n
    print("criterion 5 remark bound: PASS")


def test_criterion_6_cross_method_agreement():
    for n in range(0, 7):
        for k in range(0, 4):
            for variant in (VARIANT_CORRECT, VARIANT_HARRISON):
                if variant == VARIANT_HARRISON and k == 0:
                    continue
                a = count_k_magmas(n, k, variant).count
                b = count_via_permutation_sum(n, k, variant).count
                c = count_via_cycle_index(n, k, variant).count
                assert a == b == c, f"n={n} k={k} {variant}: {a}, {b}, {c}"
    print("criterion 6 cross-method agreement: PASS")


def test_criterion_7_jobs_determinism():
    # The n=5 term has no enumerable oracle; it enters as formula output
    # backed by criteria 2 and 6, and this check pins that both --jobs
    # values emit those exact bytes. No term here is heavy enough to split,
    # so both run serially; tests/test_split.py holds the split terms to
    # the same bytes at --jobs 1, 2 and 3.
    cmd = [sys.executable, "-m", "magma_census", "sequence", "--k", "2",
           "--from", "0", "--to", "5"]
    one = subprocess.run(cmd + ["--jobs", "1"], capture_output=True, text=True)
    eight = subprocess.run(cmd + ["--jobs", "8"], capture_output=True, text=True)
    assert one.returncode == 0 and eight.returncode == 0
    assert one.stdout == eight.stdout
    assert one.stdout == "1\n1\n10\n3330\n178981952\n2483527537094825\n"
    print("criterion 7 jobs determinism: PASS")


def test_criterion_8_group_action_laws():
    rng = random.Random(1729)
    for _ in range(500):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, 3)
        p = random_perm(rng, n)
        q = random_perm(rng, n)
        t = random_table(rng, n, k)
        assert act(Perm.identity(n), t) == t
        assert act(p * q, t) == act(p, act(q, t))
    fixed_seen = 0
    for _ in range(500):
        n = rng.randrange(1, 5)
        k = rng.randrange(1, 3)
        p = random_perm(rng, n)
        if rng.random() < 0.5:
            t = random_fixed_table(rng, p, k)
        else:
            t = random_table(rng, n, k)
        fixed = act(p, t) == t
        assert is_automorphism(p, t) == fixed
        fixed_seen += fixed
    assert fixed_seen > 0
    for _ in range(100):
        n = rng.randrange(1, 5)
        t = random_table(rng, n, rng.randrange(0, 3))
        assert orbit_stabilizer_check(t)
    print(f"criterion 8 group-action laws ({fixed_seen} fixed pairs): PASS")
