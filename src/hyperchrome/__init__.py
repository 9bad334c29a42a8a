"""hyperchrome: a laboratory for 3-uniform hypergraph coloring.

Exact chromatic/independence solvers, greedy coloring with ordered-chain
certificates, constructive local-lemma coloring, peeling and dyadic
decompositions, extremal constructions, and desk-scale Turan/Ramsey search.

The names below load their module on first access (PEP 562), so importing
one submodule, as the command line does, loads no other.
"""

_EXPORTS = {
    "core": "Balance Coloring EXHAUSTED Hypergraph OrderedChain SearchBudget "
            "VertexOrder balance canonical_form induced is_hyperforest "
            "is_linear is_ordered_chain is_proper new_hypergraph",
    "exact": "chromatic_number independence_number k_colorable "
             "max_independent_set",
    "containment": "Embedding contains embedding_ok is_free",
}

__all__ = [name for names in _EXPORTS.values() for name in names.split()]
__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names.split():
            from importlib import import_module
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
