"""A table of exact extremal and Ramsey values, each held against a closed
form from tests/oracles.py or, for the Ramsey rows, against a value that a
second search method agreed on.  Closed forms share no code with the
vertex-extension engine, so they check it where the reference level search
cannot reach."""

import pytest

from hyperchrome import constructions as cons
from hyperchrome import extremal as ext
from hyperchrome.containment import is_free
from hyperchrome.core import Hypergraph
from hyperchrome.exact import independence_number

from oracles import bipartite_count, packing_number, turan_cyclic_count

# the pair stars: s edges on one pair; a 3-graph is free of star_s iff every
# pair lies in at most s - 1 edges, so ex(n, star_s) = D_{s-1}(n, 3, 2)
STARS = {s: Hypergraph(s + 2, 3, tuple((0, 1, c) for c in range(2, s + 2)))
         for s in (3, 4)}
PATTERNS = {**{name: cons.named(name) for name in cons.NAMED},
            "star_3": STARS[3], "star_4": STARS[4]}

# (H, n, value, source): ex(n, H) = value, and source is its closed form
EX_TABLE = [
    *[("linear_pair", n, v, packing_number(n, 1))
      for n, v in zip(range(7, 14), (7, 8, 12, 13, 17, 20, 26))],
    ("star_3", 8, 18, packing_number(8, 2)),
    ("star_4", 7, 21, packing_number(7, 3)),
    *[("fano", n, v, bipartite_count(n))
      for n, v in zip(range(8, 11), (48, 70, 100))],
    *[("k4", n, v, turan_cyclic_count(n))
      for n, v in zip(range(7, 11), (23, 36, 54, 75))],
]

# (H, t, value, source): R(H, K_t) = value.  No closed form is known;
# source is the value that the extension engine found on two constraint
# builders, the per-parent forbidden triples and the link rule
RAMSEY_TABLE = [
    ("neighborhood5", 4, 10, 10),
    ("sunflower7", 4, 10, 10),
]


@pytest.mark.parametrize("name, n, value, source", EX_TABLE,
                         ids=[f"ex({n},{name})" for name, n, *_ in EX_TABLE])
def test_ex_value(name, n, value, source):
    H = PATTERNS[name]
    rec = ext.turan_ex(n, H)
    assert rec.status == "exact"
    assert rec.value == value == source
    W = rec.witness
    assert W.n == n and len(W.edges) == value and is_free(W, H)


@pytest.mark.parametrize("name, t, value, source", RAMSEY_TABLE,
                         ids=[f"R({name},{t})" for name, t, *_ in RAMSEY_TABLE])
def test_ramsey_value(name, t, value, source):
    H = PATTERNS[name]
    rec = ext.ramsey(H, t, value)
    assert rec.status == "exact"
    assert rec.value == value == source
    W = rec.witness
    assert W.n == value - 1 and is_free(W, H)
    assert independence_number(W) < t
