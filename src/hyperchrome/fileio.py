"""HypergraphFile: DIMACS-style text format.

    c optional comment lines
    p h <k> <n> <m>
    e v1 ... vk        (m lines, 1-based vertex indices)

Serialization is normalized (sorted edges, sorted vertices, no comments), so
parse-serialize-parse round-trips byte-identically.

Parsing reads the lines up to the header one at a time, then the rest in
blocks of BLOCK lines.  A block in which every line reads exactly
``e v1 ... vk`` (single spaces; vertex indices in plain decimal, no sign,
no leading zero) is recognised by one regular expression over its lines
joined by newlines.  No line holds a newline after ``splitlines()``, so the
shape is still checked line by line.  Such a block is split and converted
in bulk, each distinct vertex token once.  Any other block (comments, blank
lines, other whitespace or spellings, a bad token or count, a second
header) is read line by line, so every text parses to the same Hypergraph,
or fails with the same message and line number, as if every line were read
on its own.  Serialization formats the whole edge list with one ``%`` from
a table of names of the vertices the edges use; nothing is sized by n.
"""

import re
from itertools import chain

from .core import new_hypergraph

BLOCK = 1024


def parse_hypergraph(text):
    lines = text.splitlines()
    header = None
    edges = []
    vertices = _VertexNames()
    start = 0
    while start < len(lines):
        stop = start + (1 if header is None else BLOCK)
        block = None if header is None else _edge_block(
            lines[start:stop], header[0], vertices)
        if block is None:
            header = _parse_lines(lines, start, stop, header, edges)
        else:
            edges += block
        start = stop
    if header is None:
        raise ValueError("missing 'p h' header")
    k, n, m = header
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    return new_hypergraph(n, k, edges)


class _VertexNames(dict):
    """Canonical vertex token -> 0-based vertex, filled on first use, so a
    file's edges share one int per vertex."""

    def __missing__(self, token):
        v = self[token] = int(token) - 1
        return v


def _edge_block(lines, k, vertices):
    """The 0-based edges of lines that each read exactly 'e v1 ... vk', with
    single spaces and vertex indices in canonical decimal (no sign, no
    leading zero), or None if any line reads otherwise."""
    if not 1 <= k <= len(lines[0]):
        return None
    text = "\n".join(lines) + "\n"
    if re.fullmatch(r"(?:e(?: [1-9][0-9]*){%d}\n)*" % k, text) is None:
        return None
    tokens = text.split()
    return list(zip(*(map(vertices.__getitem__, tokens[j::k + 1])
                      for j in range(1, k + 1))))


def _parse_lines(lines, start, stop, header, edges):
    """Read lines[start:stop] one at a time, appending edges; return the
    header as it stands after them."""
    for lineno, raw in enumerate(lines[start:stop], start=start + 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            if len(fields) != 5 or fields[1] != "h":
                raise ValueError(f"line {lineno}: header must be 'p h <k> <n> <m>'")
            header = (int(fields[2]), int(fields[3]), int(fields[4]))
        elif fields[0] == "e":
            if header is None:
                raise ValueError(f"line {lineno}: edge before header")
            try:
                verts = [int(x) for x in fields[1:]]
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex index") from None
            if any(v < 1 for v in verts):
                raise ValueError(f"line {lineno}: vertex indices are 1-based")
            edges.append(tuple(v - 1 for v in verts))
        else:
            raise ValueError(f"line {lineno}: unknown line type {fields[0]!r}")
    return header


def serialize_hypergraph(G):
    flat = tuple(chain.from_iterable(G.edges))
    used = set(flat)
    names = dict(zip(used, map(str, map((1).__add__, used))))
    line = "e" + " %s" * G.k + "\n"
    return (f"p h {G.k} {G.n} {len(G.edges)}\n"
            + line * len(G.edges) % tuple(map(names.__getitem__, flat)))
