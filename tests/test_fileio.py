"""The block-wise HypergraphFile reader and the bulk new_hypergraph check
against their line-by-line and edge-by-edge references (tests/oracles.py).

For every text, both readers return equal Hypergraphs or both raise
ValueError with the same message.  Generated texts put canonical edge lines
around every shape the line reader treats on its own: comments, blank
lines, junk, a second header, odd separators and line breaks inside lines,
odd token spellings and counts, vertex 0 or past n, and duplicate,
unsorted and reversed edges.  Blocks of 1 to 5 lines put block boundaries
in and around those lines; files longer than one block exercise the real
block size.
"""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchrome import fileio
from hyperchrome.core import new_hypergraph
from hyperchrome.fileio import parse_hypergraph, serialize_hypergraph

from oracles import (reference_new_hypergraph, reference_parse_hypergraph,
                     reference_serialize_hypergraph)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def parse_in_blocks(text, block):
    saved = fileio.BLOCK
    fileio.BLOCK = block
    try:
        return outcome(parse_hypergraph, text)
    finally:
        fileio.BLOCK = saved


FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
SPELLINGS = {
    "plain": str,
    "plus": lambda v: f"+{v}",
    "leading zero": lambda v: f"0{v}",
    "underscore": lambda v: f"0_{v}",
    "fullwidth": lambda v: str(v).translate(FULLWIDTH),
    "arabic-indic": lambda v: str(v).translate(ARABIC_INDIC),
    "float": lambda v: f"{v}.0",
    "word": lambda v: "x",
}
# whitespace that str.split() splits on, and characters that splitlines()
# breaks lines at; both may sit where a single space is canonical
SEPARATORS = [" ", " ", " ", "  ", "\t", "\xa0", "\x1f", "\u3000",
              "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]


@st.composite
def odd_edge_lines(draw, k, n):
    verts = draw(st.lists(st.integers(0, n + 2), max_size=k + 2))
    tokens = ["e"] + [SPELLINGS[draw(st.sampled_from(sorted(SPELLINGS)))](v)
                      for v in verts]
    line = tokens[0]
    for token in tokens[1:]:
        line += draw(st.sampled_from(SEPARATORS)) + token
    return draw(st.sampled_from(["", " ", "\t"])) + line \
        + draw(st.sampled_from(["", " ", "\xa0"]))


@st.composite
def texts(draw):
    """A header and canonical edge lines of a random graph, with odd lines
    inserted, canonical lines duplicated, swapped or reversed, and mixed
    line ends."""
    k = draw(st.sampled_from([3, 3, 3, 2, 4, 1]))
    n = draw(st.integers(0, 9))
    pool = list(combinations(range(1, n + 1), k))
    edges = sorted(draw(st.lists(st.sampled_from(pool), unique=True,
                                 max_size=14))) if pool else []
    lines = ["e " + " ".join(map(str, e)) for e in edges]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        change = draw(st.sampled_from(["duplicate", "swap", "reverse"]))
        if change == "duplicate":
            lines.insert(j, lines[i])
        elif change == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = "e " + " ".join(reversed(lines[i].split()[1:]))
    m = draw(st.one_of(st.just(len(lines)), st.integers(-1, 16)))
    lines.insert(0, f"p h {k} {n} {m}")
    odd = st.one_of(
        odd_edge_lines(k, n),
        st.lists(st.integers(1, n + 1), max_size=k + 2).map(
            lambda vs: " ".join(["e", *map(str, vs)])),
        st.text(max_size=8).map(lambda t: "c" + t),
        st.text(max_size=6),
        st.sampled_from(["", "  ", lines[0], "p h 3 x 1", "p q"]))
    for line in draw(st.lists(odd, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(LINE_ENDS))
    return text if draw(st.booleans()) else text[:-1]


@given(texts(), st.sampled_from([1, 2, 3, 5, fileio.BLOCK]))
@settings(max_examples=600, deadline=None)
def test_parse_matches_line_reader(text, block):
    assert parse_in_blocks(text, block) == outcome(
        reference_parse_hypergraph, text)


@st.composite
def edge_lists(draw):
    """(n, k, edges): normalized edges (the bulk check's case), normalized
    edges with one defect, or arbitrary vertex lists."""
    n = draw(st.integers(-1, 8))
    k = draw(st.sampled_from([3, 3, 2, 4, 1]))
    pool = list(combinations(range(max(n, 0)), k))
    edges = [list(e) for e in sorted(draw(st.lists(
        st.sampled_from(pool), unique=True, max_size=10)))] if pool else []
    defect = draw(st.sampled_from(
        ["none", "none", "duplicate", "swap", "reverse", "vertex", "size",
         "arbitrary"]))
    if defect == "arbitrary":
        edges = draw(st.lists(st.lists(st.integers(-2, n + 2), max_size=5),
                              max_size=8))
    elif defect != "none" and edges:
        i = draw(st.integers(0, len(edges) - 1))
        j = draw(st.integers(0, len(edges) - 1))
        if defect == "duplicate":
            edges.insert(j, list(edges[i]))
        elif defect == "swap":
            edges[i], edges[j] = edges[j], edges[i]
        elif defect == "reverse":
            edges[i].reverse()
        elif defect == "vertex":
            edges[i][draw(st.integers(0, k - 1))] = draw(
                st.sampled_from([-1, n, n + 1]))
        else:
            edges[i] = edges[i] + [n] if draw(st.booleans()) else edges[i][1:]
    as_tuples = draw(st.booleans())
    return n, k, [tuple(e) if as_tuples else e for e in edges]


@given(edge_lists(), st.sampled_from([list, tuple, iter]))
@settings(max_examples=600, deadline=None)
def test_new_hypergraph_matches_reference(case, container):
    n, k, edges = case
    assert outcome(new_hypergraph, n, k, container(edges)) == outcome(
        reference_new_hypergraph, n, k, container(edges))


def random_edges(n, k, m, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    return list(edges)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_roundtrip_byte_identical_at_scale(k):
    G = new_hypergraph(3000, k, random_edges(3000, k, 20_000, seed=k))
    text = serialize_hypergraph(G)
    assert text == reference_serialize_hypergraph(G)
    assert parse_hypergraph(text) == G == reference_parse_hypergraph(text)
    assert serialize_hypergraph(parse_hypergraph(text)) == text
    assert parse_hypergraph(text.replace("\n", "\r\n")[:-2]) == G


# 1100 edge lines after the header: blocks hold lines 1..BLOCK and BLOCK+1..
BOUNDARY_LINES = serialize_hypergraph(new_hypergraph(
    3000, 3, random_edges(3000, 3, 1100, seed=1))).splitlines()


@pytest.mark.parametrize("bad", [
    "c a comment", "", "e 1 2", "e 1 2 3 4", "e 0 1 2", "e 1 2 9999",
    "e 1 2 +3", "e 1\t2 3", "e 1 2\x0b3", "e 3 2 1", "e 1 1 2",
    "p h 3 3000 1101", "e 1 2\ne 4 5 6 7", "e 4 5 6 7\ne 8 9"])
@pytest.mark.parametrize("at", [1, fileio.BLOCK, fileio.BLOCK + 1, 1101])
def test_odd_line_at_a_block_boundary(bad, at):
    text = "\n".join(BOUNDARY_LINES[:at] + [bad] + BOUNDARY_LINES[at:])
    assert outcome(parse_hypergraph, text) == outcome(
        reference_parse_hypergraph, text)


def test_large_n_stays_cheap():
    # n = 10**8 with one edge: no step may build a table sized by n, so the
    # child runs in a small address space and a fraction of a second
    script = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from hyperchrome.fileio import parse_hypergraph, serialize_hypergraph\n"
        "text = 'p h 3 100000000 1\\ne 1 2 100000000\\n'\n"
        "started = time.monotonic()\n"
        "G = parse_hypergraph(text)\n"
        "same = serialize_hypergraph(G) == text and G.edges == ((0, 1, 99999999),)\n"
        "again = parse_hypergraph(serialize_hypergraph(G)) == G\n"
        "print(same and again, time.monotonic() - started)\n")
    src = str(Path(fileio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    ok, seconds = proc.stdout.split()
    assert ok == "True"
    assert float(seconds) < 0.5
