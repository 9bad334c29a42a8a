"""The value records: validation at construction, fields, repr, equality.

Records are immutable tuples of their fields; Hypergraph alone also keeps a
memo (its incidence list) that equality, hashing and repr do not see.
"""

import copy
import pickle

import pytest

from hyperchrome import constructions as cons
from hyperchrome.cache import ResultRecord
from hyperchrome.core import Coloring, Hypergraph, VertexOrder
from hyperchrome.exact import SearchBudget


@pytest.mark.parametrize("make, message", [
    (lambda: Coloring((0, 1), -1), "palette must be nonnegative"),
    (lambda: Coloring((0, 2), 2), "color 2 outside palette of 2"),
    (lambda: Coloring(colors=(-1,), palette=1), "color -1 outside palette of 1"),
    (lambda: VertexOrder((0, 2)), "order is not a permutation of 0..n-1"),
    (lambda: SearchBudget(max_millis=-1), "budget caps must be nonnegative"),
    (lambda: SearchBudget(-1), "budget caps must be nonnegative"),
    (lambda: cons.BlowupSpec(8, 0, 1), "tau must be >= 1"),
    (lambda: cons.BlowupSpec(m=7, tau=2, seed=1),
     "vertex count must be at least tau^2 + 2*tau"),
], ids=["palette", "color-high", "color-negative", "order", "millis", "nodes",
        "tau", "blowup-size"])
def test_validation_error(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("record", [
    Coloring((0, 1, 1), 2), VertexOrder((2, 0, 1)), SearchBudget(5, 7),
    cons.BlowupSpec(8, 2, 3), cons.named("fano"),
], ids=["coloring", "order", "budget", "blowup", "hypergraph"])
def test_copy_and_pickle_rebuild_equal(record):
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)


def test_fields_are_read_only():
    c = Coloring((0, 1), 2)
    with pytest.raises(AttributeError):
        c.palette = 3
    with pytest.raises(AttributeError):
        cons.named("fano").n = 8


def test_repr_names_the_fields():
    assert repr(Coloring((0, 1), 2)) == "Coloring(colors=(0, 1), palette=2)"
    assert repr(VertexOrder((1, 0))) == "VertexOrder(order=(1, 0), position=(1, 0))"
    assert repr(SearchBudget()) == "SearchBudget(max_nodes=0, max_millis=0)"
    assert repr(Hypergraph(3, 3, ((0, 1, 2),))) == \
        "Hypergraph(n=3, k=3, edges=((0, 1, 2),))"


def test_records_equal_the_tuple_of_their_fields():
    assert Coloring((0, 1), 2) == ((0, 1), 2)
    assert SearchBudget(max_nodes=3) == (3, 0)
    G = cons.named("fano")
    G.at  # the memo is not a field
    assert G == (G.n, G.k, G.edges) and hash(G) == hash((G.n, G.k, G.edges))
    rec = ResultRecord("ex", "3:3|0,1,2", 5, 4, "exact", cons.named("fano"))
    assert rec == tuple(rec) and rec.param == 5
