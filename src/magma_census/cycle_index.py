"""Cycle index of the symmetric group and of its coordinatewise action on k-tuples.

The cycle index of the natural action collects, for every cycle type j,
the monomial prod_i t_i^{j_i} weighted by 1 / (prod_i i^{j_i} j_i!); the
weights are the relative frequencies of the cycle types, so they sum to 1.
Inducing to the action on k-tuples replaces each monomial by the cycle
structure of the corresponding permutation of the n^k tuples: an ordered
k-tuple of cycle lengths (r_1, ..., r_k) contributes tuple-cycles of length
L = lcm(r_1, ..., r_k), and there are (r_1 * ... * r_k / L) * j_{r_1} * ... * j_{r_k}
of them (arith.induced_exponents; the harrison-gcd variant puts
gcd(r_1, ..., r_k) in place of the first factor).

Monomials carry the cycle type they came from and are never merged across
cycle types, even when the exponent maps coincide (at power 0 every
monomial collapses to t1). Substitution is per term and may depend on that
provenance, which is exactly what the non-faithful power-0 action needs.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Callable

from .arith import (
    VARIANT_CORRECT,
    VARIANT_HARRISON,
    VARIANTS,
    CycleType,
    cycle_type_count,
    enumerate_cycle_types,
    induced_exponents,
)


class Monomial(namedtuple("Monomial", "origin exponents")):
    """A product of indeterminates t_i, tagged with its originating cycle type.

    exponents is a tuple of (index, exponent) pairs, sorted by index, with
    every exponent positive; the empty tuple is the constant monomial 1.
    """

    __slots__ = ()

    def __new__(cls, origin: CycleType, exponents: tuple[tuple[int, int], ...]):
        indices = [i for i, _ in exponents]
        if any(map(operator.ge, indices, indices[1:])):
            raise ValueError(f"exponent indices not sorted and distinct: {exponents}")
        if indices and (min(indices) < 1 or min(map(operator.itemgetter(1), exponents)) < 1):
            raise ValueError(f"indices must be >= 1 and exponents positive: {exponents}")
        return super().__new__(cls, origin, exponents)

    @property
    def max_index(self) -> int:
        """Largest indeterminate index present; 0 for the constant monomial."""
        return self.exponents[-1][0] if self.exponents else 0

    def render(self) -> str:
        return "*".join(f"t{i}" if e == 1 else f"t{i}^{e}" for i, e in self.exponents)


class CycleIndexPoly(namedtuple("CycleIndexPoly", "n power terms variant")):
    """Formal polynomial with exact rational coefficients (Fraction or int), one
    term per cycle type.

    power is None for the natural action on points and k for the induced
    action on k-tuples; variant is None or, respectively, the exponent
    rule the induction used. Terms stay in cycle-type enumeration order and
    are never merged, so len(terms) is always the number of partitions of n.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, power: int | None, terms: tuple[tuple[Fraction, Monomial], ...],
        variant: str | None = None,
    ):
        if (power is None) != (variant is None) or variant not in (None, *VARIANTS):
            raise ValueError(f"power {power} with variant {variant!r}")
        # Each monomial's cycles partition the set its term acts on: the n
        # points, or the n^k tuples under the correct rule. The gcd rule's
        # multiplier is not the tuple-cycle count, so its terms need not.
        if variant != VARIANT_HARRISON:
            size = n if power is None else n**power
            for _, mono in terms:
                covered = sum(itertools.starmap(operator.mul, mono.exponents))
                if covered != size:
                    raise ValueError(
                        f"monomial {mono.render() or '1'} covers {covered} "
                        f"elements, expected {size}"
                    )
        # Coefficients are rationals: the sign sits in the numerator, and the
        # sum is taken over their least common denominator, in integers.
        numerators = [c.numerator for c, _ in terms]
        denominators = [c.denominator for c, _ in terms]
        if numerators and min(numerators) <= 0:
            raise ValueError("cycle-index coefficients must be positive")
        common = math.lcm(*denominators)
        scaled = sum(map(operator.mul, numerators,
                         map(operator.floordiv, itertools.repeat(common), denominators)))
        if scaled != common:
            total = Fraction(scaled, common)
            raise ValueError(f"cycle-index coefficients sum to {total}, expected 1")
        return super().__new__(cls, n, power, terms, variant)

    def render(self) -> str:
        """Canonical text form, e.g. "1/6*t1^3 + 1/2*t1*t2 + 1/3*t3".

        Coefficients print as "p/q" ("p" when q is 1); a unit coefficient
        is omitted in front of a non-constant monomial; "^1" is never
        printed. Bit-exact across runs.
        """
        parts = []
        for coeff, mono in self.terms:
            cs = str(coeff.numerator) if coeff.denominator == 1 else f"{coeff.numerator}/{coeff.denominator}"
            ms = mono.render()
            if not ms:
                parts.append(cs)
            elif coeff == 1:
                parts.append(ms)
            else:
                parts.append(f"{cs}*{ms}")
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "power": self.power,
            "terms": [
                {
                    "coefficient": f"{c.numerator}/{c.denominator}",
                    "exponents": {str(i): e for i, e in m.exponents},
                    "origin": list(m.origin.j),
                }
                for c, m in self.terms
            ],
        }


def direct_counts(n: int) -> list[tuple[CycleType, int]]:
    """n! Z_n term by term: each cycle type j of n with its count n!/z_j.

    In cycle-type enumeration order. cycle_index_direct spells Z_n from
    these integers, and the cycle-index suite checks them against
    recursive_counts.
    """
    return [(j, cycle_type_count(j)) for j in enumerate_cycle_types(n)]


def cycle_index_direct(n: int) -> CycleIndexPoly:
    """Cycle index of the natural action, built term by term from the cycle types."""
    factorial = math.factorial(n)
    terms = []
    for j, count in direct_counts(n):
        exps = tuple((i, c) for i, c in enumerate(j.j, start=1) if c > 0)
        terms.append((Fraction(count, factorial), Monomial(j, exps)))
    return CycleIndexPoly(n, None, tuple(terms))


# count_key reads a vector as little-endian bytes, so j_i is the digit of
# weight 256^(i-1). j_1 reaches n at the identity; up to n = KEY_MAX_N every
# count is a digit and no two vectors share a key.
KEY_MAX_N = 255


def count_key(j: tuple[int, ...]) -> int:
    """The integer key of the cycle-count vector j, sum_i j_i 256^(i-1).

    Trailing zeros leave it unchanged, so a vector keeps its key at every
    length. A count above KEY_MAX_N has no digit and raises ValueError.
    """
    return int.from_bytes(bytes(j), "little")


def recursive_counts(n: int) -> list[dict[int, int]]:
    """N_0, ..., N_n with N_m = m! Z_m, keyed by count_key of the cycle-count vector.

    The length of the cycle through a marked point gives
    Z_m = (1/m) sum_{i=1..m} t_i Z_{m-i}, so N_0 = 1 and
    N_m = sum_i (m-1)!/(m-i)! t_i N_{m-i}, where t_i adds one i-cycle:
    one integer addition of 256^(i-1) to the key. Counts never exceed n,
    so up to KEY_MAX_N no two vectors share a key; past it ValueError.
    One ascending pass builds every N_m into a fresh list; nothing is kept
    between calls.
    """
    if n > KEY_MAX_N:
        raise ValueError(f"n={n} exceeds the largest keyed size {KEY_MAX_N}")
    tables: list[dict[int, int]] = [{0: 1}]
    for m in range(1, n + 1):
        acc: dict[int, int] = {}
        get = acc.get
        falling = 1  # (m-1)!/(m-i)!
        for i in range(1, m + 1):
            step = 256 ** (i - 1)
            for key, coeff in tables[m - i].items():
                key += step
                acc[key] = get(key, 0) + falling * coeff
            falling *= m - i
        tables.append(acc)
    return tables


def cycle_index_recursive(n: int) -> CycleIndexPoly:
    """Cycle index of the natural action via the length-of-the-cycle-through-a-
    marked-point recursion; identical term set to cycle_index_direct.

    The recursion runs in integers (n! Z_n, recursive_counts); each
    coefficient is divided by n! once, at the end.
    """
    factorial = math.factorial(n)
    table = recursive_counts(n)[n]
    terms = []
    for j in enumerate_cycle_types(n):
        coeff = table.pop(count_key(j.j), None)
        if coeff is None:
            raise ArithmeticError(f"recursion lost the cycle type {j}")
        exps = tuple((i, c) for i, c in enumerate(j.j, start=1) if c > 0)
        terms.append((Fraction(coeff, factorial), Monomial(j, exps)))
    if table:
        raise ArithmeticError(f"recursion produced stray monomials: {sorted(table)}")
    return CycleIndexPoly(n, None, tuple(terms))


def induce(z: CycleIndexPoly, k: int, variant: str = VARIANT_CORRECT) -> CycleIndexPoly:
    """Cycle index of the coordinatewise action on k-tuples, term by term.

    Each monomial becomes t_L^e over the exponents induced_exponents gives
    its origin under the variant's convention, and the result records the
    variant. Within one origin, factors with equal tuple-cycle length
    merge by adding exponents; distinct origins never merge. k = 0 yields
    t1 for every origin (one tuple-cycle: the empty tuple is fixed).
    """
    if z.power is not None:
        raise ValueError("induce expects the cycle index of the natural action")
    terms = []
    for coeff, mono in z.terms:
        exps = induced_exponents(mono.origin, k, variant)
        terms.append((coeff, Monomial(mono.origin, tuple(sorted(exps.items())))))
    return CycleIndexPoly(z.n, k, tuple(terms), variant)


def substitute_per_monomial(
    z: CycleIndexPoly, f: Callable[[CycleType, int], int]
) -> int:
    """Evaluate z with f(origin, i) substituted for t_i, term by term.

    Each term substitutes against its own originating cycle type, so two
    terms with identical exponent maps can still receive different values.
    Accumulates in exact rationals; the total must come out integral, and
    anything else signals a bug in the caller or here, never valid input.
    """
    total = Fraction(0)
    for coeff, mono in z.terms:
        prod = 1
        for i, e in mono.exponents:
            prod *= f(mono.origin, i) ** e
        total += coeff * prod
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral substitution total {total}")
    return total.numerator


def max_indeterminate_index(z: CycleIndexPoly) -> int:
    """Largest indeterminate index appearing anywhere in z; 0 if constant."""
    if not z.terms:
        raise ValueError("empty polynomial")
    return max(m.max_index for _, m in z.terms)
