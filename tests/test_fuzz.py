"""Fuzzing of the input contract, and the input checks one by one.

Generated HypergraphFile texts mix headers, edge lines, comments and junk
around small graphs (n <= 12, m <= 6).  The parser must return a Hypergraph
or raise ValueError, nothing else; the CLI must exit 0, 1 or 2 on any file.
Each input check of the library raises ValueError with its own message.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperchrome import cli
from hyperchrome import coloring as col
from hyperchrome import constructions as cons
from hyperchrome import extremal as ext
from hyperchrome.containment import ForbiddenTriples
from hyperchrome.core import Hypergraph, VertexOrder, induced, new_hypergraph
from hyperchrome.fileio import parse_hypergraph

comment = st.text(max_size=8).map(lambda t: "c" + t)
junk = st.text(max_size=10)


@st.composite
def texts(draw):
    """A header and edge lines around a random small graph, most of them
    well formed, with comments, junk and bad counts or vertices mixed in."""
    k = draw(st.sampled_from([3, 3, 3, 2, 4, 1]))
    n = draw(st.integers(-1, 12))
    edge = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True) \
        if n >= k else st.nothing()
    odd = st.lists(st.integers(-1, 13), max_size=5)
    edges = draw(st.lists(st.one_of(edge, edge, edge, odd), max_size=6))
    m = draw(st.one_of(st.just(len(edges)), st.just(len(edges)),
                       st.integers(-1, 6)))
    lines = [f"p h {k} {n} {m}"]
    lines += ["e " + " ".join(map(str, e)) for e in edges]
    extras = st.one_of(comment, junk, st.just(lines[0]), st.just(""))
    for extra in draw(st.lists(extras, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines)


COMMANDS = ["chi", "alpha", "hyperforest", "balance", "chain"]


@given(texts())
@settings(max_examples=400, deadline=None)
def test_parse_returns_graph_or_value_error(text):
    try:
        G = parse_hypergraph(text)
    except ValueError:
        return
    assert isinstance(G, Hypergraph)


@given(text=texts(), cmd=st.sampled_from(COMMANDS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_codes(text, cmd, tmp_path, monkeypatch):
    monkeypatch.delenv("HYPERCHROME_SEED", raising=False)
    path = tmp_path / "g.hg"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([cmd, "--in", str(path)])
    assert code in (0, 1, 2)


K4_4 = new_hypergraph(4, 4, [(0, 1, 2, 3)])  # not 3-uniform
EDGE = new_hypergraph(3, 3, [(0, 1, 2)])
LP = cons.named("linear_pair")
INPUT_CHECKS = {
    "lll_check-uniformity": (lambda: col.lll_check(K4_4, 3), "3-graphs"),
    "independent_removal_color-uniformity": (
        lambda: col.independent_removal_color(K4_4, 3, 0), "3-graphs"),
    "e288_extract-uniformity": (lambda: col.e288_extract(
        K4_4, VertexOrder.identity(4), 2), "3-graphs"),
    "find_edge_ordering-uniformity": (
        lambda: ext.find_edge_ordering(K4_4), "3-graphs"),
    "turan_ex-uniformity": (lambda: ext.turan_ex(5, K4_4), "3-graphs"),
    "ramsey-uniformity": (lambda: ext.ramsey(K4_4, 3, 5), "3-graphs"),
    "ForbiddenTriples-uniformity": (lambda: ForbiddenTriples(K4_4),
                                    "3-graphs"),
    "ForbiddenTriples.of-uniformity": (
        lambda: ForbiddenTriples(LP).of(K4_4), "3-graphs"),
    "prune_low_support-t": (lambda: ext.prune_low_support(EDGE, 2),
                            "at least 3"),
    "ramsey-t": (lambda: ext.ramsey(LP, 2, 5), "at least 3"),
    "lll_check-palette": (lambda: col.lll_check(EDGE, 0), "at least 1"),
    "dyadic_classes-palette": (lambda: col.dyadic_classes(EDGE, 0),
                               "at least 1"),
    "induced-vertex-above": (lambda: induced(EDGE, {0, 3}), "vertex 3"),
    "induced-vertex-below": (lambda: induced(EDGE, {-1, 0}), "vertex -1"),
    "partition_example-r": (lambda: cons.partition_example(0, 3), "r >= 1"),
    "partition_example-t": (lambda: cons.partition_example(2, 2), "t >= 3"),
    "random_hypertree-edges": (lambda: cons.random_hypertree(0, 1),
                               "at least one edge"),
    "file-without-header": (lambda: parse_hypergraph("c no header\n"),
                            "missing 'p h' header"),
}


@pytest.mark.parametrize("name", INPUT_CHECKS)
def test_input_check_raises(name):
    call, message = INPUT_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        call()
