"""Cycle index of the symmetric group and of its coordinatewise action on k-tuples.

The cycle index of the natural action collects, for every cycle type j,
the monomial prod_i t_i^{j_i} weighted by 1 / (prod_i i^{j_i} j_i!); the
weights are the relative frequencies of the cycle types, so they sum to 1.
Inducing to the action on k-tuples replaces each monomial by the cycle
structure of the corresponding permutation of the n^k tuples: an ordered
k-tuple of cycle lengths (r_1, ..., r_k) contributes tuple-cycles of length
L = lcm(r_1, ..., r_k), and there are (r_1 * ... * r_k / L) * j_{r_1} * ... * j_{r_k}
of them.

Monomials carry the cycle type they came from and are never merged across
cycle types, even when the exponent maps coincide (at power 0 every
monomial collapses to t1). Substitution is per term and may depend on that
provenance, which is exactly what the non-faithful power-0 action needs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .arith import CycleType, cycle_type_count, enumerate_cycle_types, lcm_list


@dataclass(frozen=True, slots=True)
class Monomial:
    """A product of indeterminates t_i, tagged with its originating cycle type.

    exponents is a tuple of (index, exponent) pairs, sorted by index, with
    every exponent positive; the empty tuple is the constant monomial 1.
    """

    origin: CycleType
    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        indices = [i for i, _ in self.exponents]
        if indices != sorted(set(indices)):
            raise ValueError(f"exponent indices not sorted and distinct: {self.exponents}")
        if any(i < 1 or e < 1 for i, e in self.exponents):
            raise ValueError(f"indices must be >= 1 and exponents positive: {self.exponents}")

    @property
    def max_index(self) -> int:
        """Largest indeterminate index present; 0 for the constant monomial."""
        return self.exponents[-1][0] if self.exponents else 0

    def render(self) -> str:
        return "*".join(f"t{i}" if e == 1 else f"t{i}^{e}" for i, e in self.exponents)


@dataclass(frozen=True, slots=True)
class CycleIndexPoly:
    """Formal polynomial with exact rational coefficients, one term per cycle type.

    power is None for the natural action on points and k for the induced
    action on k-tuples. Terms stay in cycle-type enumeration order and are
    never merged, so len(terms) is always the number of partitions of n.
    """

    n: int
    power: int | None
    terms: tuple[tuple[Fraction, Monomial], ...]

    def __post_init__(self):
        if any(c <= 0 for c, _ in self.terms):
            raise ValueError("cycle-index coefficients must be positive")
        total = sum(c for c, _ in self.terms)
        if total != 1:
            raise ValueError(f"cycle-index coefficients sum to {total}, expected 1")

    @property
    def is_natural(self) -> bool:
        return self.power is None

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


def _weight(j: CycleType) -> Fraction:
    return Fraction(cycle_type_count(j), math.factorial(j.n))


def cycle_index_direct(n: int) -> CycleIndexPoly:
    """Cycle index of the natural action, built term by term from the cycle types."""
    terms = []
    for j in enumerate_cycle_types(n):
        exps = tuple((i, c) for i, c in enumerate(j.j, start=1) if c > 0)
        terms.append((_weight(j), Monomial(j, exps)))
    return CycleIndexPoly(n, None, tuple(terms))


@functools.cache
def _recursive_table(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], Fraction], ...]:
    # Z_0 = 1; Z_n = (1/n) sum_{i=1..n} t_i Z_{n-i}. Keys are exponent
    # tuples; entries are kept sorted so the memo is canonical. The cache
    # is idempotent, so concurrent construction is safe.
    if n == 0:
        return (((), Fraction(1)),)
    acc: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for i in range(1, n + 1):
        for key, coeff in _recursive_table(n - i):
            exps = dict(key)
            exps[i] = exps.get(i, 0) + 1
            new_key = tuple(sorted(exps.items()))
            acc[new_key] = acc.get(new_key, Fraction(0)) + coeff
    return tuple(sorted((k, c / n) for k, c in acc.items()))


def cycle_index_recursive(n: int) -> CycleIndexPoly:
    """Cycle index of the natural action via the length-of-the-cycle-through-a-
    marked-point recursion; identical term set to cycle_index_direct."""
    table = dict(_recursive_table(n))
    terms = []
    for j in enumerate_cycle_types(n):
        key = tuple((i, c) for i, c in enumerate(j.j, start=1) if c > 0)
        coeff = table.pop(key, None)
        if coeff is None:
            raise ArithmeticError(f"recursion lost the cycle type {j}")
        terms.append((coeff, Monomial(j, key)))
    if table:
        raise ArithmeticError(f"recursion produced stray monomials: {sorted(table)}")
    return CycleIndexPoly(n, None, tuple(terms))


def induce(z: CycleIndexPoly, k: int) -> CycleIndexPoly:
    """Cycle index of the coordinatewise action on k-tuples, term by term.

    Iterates ordered k-tuples over the support of each cycle type only;
    tuples hitting an absent cycle length would contribute exponent 0.
    Within one origin, factors with equal tuple-cycle length merge by
    adding exponents; distinct origins never merge. k = 0 yields t1 for
    every origin (one tuple-cycle: the empty tuple is fixed).
    """
    if not z.is_natural:
        raise ValueError("induce expects the cycle index of the natural action")
    if k < 0:
        raise ValueError(f"negative power {k}")
    terms = []
    for coeff, mono in z.terms:
        j = mono.origin
        exps: dict[int, int] = {}
        for lengths in itertools.product(j.support(), repeat=k):
            length = lcm_list(lengths)
            count = (math.prod(lengths) // length) * math.prod(
                j.cycles_of_length(r) for r in lengths
            )
            exps[length] = exps.get(length, 0) + count
        terms.append((coeff, Monomial(j, tuple(sorted(exps.items())))))
    return CycleIndexPoly(z.n, k, tuple(terms))


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
