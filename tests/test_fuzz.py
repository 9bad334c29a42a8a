"""Fuzzing of the input contract.

Generated HypergraphFile texts mix headers, edge lines, comments and junk
around small graphs (n <= 12, m <= 6).  The parser must return a Hypergraph
or raise ValueError, nothing else; the CLI must exit 0, 1 or 2 on any file.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperchrome import cli
from hyperchrome.core import Hypergraph
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
