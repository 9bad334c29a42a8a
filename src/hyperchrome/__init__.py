"""hyperchrome: a laboratory for 3-uniform hypergraph coloring.

Exact chromatic/independence solvers, greedy coloring with ordered-chain
certificates, constructive local-lemma coloring, peeling and dyadic
decompositions, extremal constructions, and desk-scale Turan/Ramsey search.
"""

from .core import (Balance, Coloring, Hypergraph, OrderedChain, VertexOrder,
                   balance, canonical_form, induced, is_hyperforest,
                   is_linear, is_ordered_chain, is_proper, new_hypergraph)
from .exact import (EXHAUSTED, SearchBudget, chromatic_number,
                    independence_number, k_colorable, max_independent_set)
from .containment import Embedding, contains, embedding_ok, is_free

__version__ = "0.1.0"
