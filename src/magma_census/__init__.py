"""Exact census of k-ary operations on finite sets up to isomorphism.

The names below resolve on first use (PEP 562), so importing the package
loads none of its modules: `python -m magma_census count` loads only what
a count runs, and the oracle and the cycle index load when first asked for.
"""

import importlib

_EXPORTS = {
    "arith": (
        "CycleType",
        "Perm",
        "all_perms",
        "cycle_type_count",
        "cycle_type_of",
        "enumerate_cycle_types",
        "realize_cycle_type",
    ),
    "census": (
        "CensusQuery",
        "CensusResult",
        "GuardError",
        "VARIANT_CORRECT",
        "VARIANT_HARRISON",
        "count_k_magmas",
        "count_via_cycle_index",
        "count_via_permutation_sum",
        "fixed_point_count",
        "sequence",
        "weighted_divisor_sum",
    ),
    "cycle_index": (
        "CycleIndexPoly",
        "Monomial",
        "cycle_index_direct",
        "cycle_index_recursive",
        "induce",
        "max_indeterminate_index",
        "substitute_per_monomial",
    ),
    "oracle": (
        "cell_permutation",
        "count_orbits_bruteforce",
        "fixed_tables_structural",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
