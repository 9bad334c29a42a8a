"""Golden outputs of every CLI subcommand.

Each case pins the exit code and stdout of one command line, run once as
given and, for report commands, once more with --quiet.  A pretty-printed
JSON report is pinned in its compact form without wall_ms (the only field
allowed to differ between runs); any other output is pinned as printed.  The
--help text of every subparser is pinned at COLUMNS=80.  Input graphs are
written to a temporary directory, so their paths never reach stdout; the
reports identify inputs by sha256 only.
"""

import io
import json

import pytest

from hyperchrome import cli
from hyperchrome import constructions as cons
from hyperchrome.core import Hypergraph
from hyperchrome.fileio import serialize_hypergraph

GRAPHS = {
    "fano": cons.named("fano"),
    "k4": cons.named("k4"),
    "lp": cons.named("linear_pair"),
    "k5": cons.complete(5),
    "k6": cons.complete(6),
    "edge": cons.complete(3),
    "c3": cons.loose_cycle(3),
    "p2": cons.loose_path(2),
    "rand": cons.random_3graph(12, 6, 3),
    "empty": Hypergraph(4, 3, ()),
    # |V| = |E| + 2, yet no edge meets an earlier one in a pair plus a
    # fresh vertex after the first: find_edge_ordering gives None
    "noorder": Hypergraph(5, 3, ((0, 1, 2), (0, 3, 4), (1, 3, 4))),
    "gq3": cons.gq(3),  # 4-uniform
}

# (case id, command line with {graph} placeholders, graph fed on stdin)
CASES = [
    ("gen-fano", "gen fano", None),
    ("gen-k4", "gen k4", None),
    ("gen-k4-minus", "gen k4-minus", None),
    ("gen-linear-pair", "gen linear-pair", None),
    ("gen-neighborhood5", "gen neighborhood5", None),
    ("gen-sunflower7", "gen sunflower7", None),
    ("gen-complete", "gen complete --n 5", None),
    ("gen-complete-too-small", "gen complete --n 1", None),
    ("gen-loose-cycle", "gen loose-cycle --l 3", None),
    ("gen-loose-path", "gen loose-path --l 2", None),
    ("gen-partition", "gen partition --r 2 --t 3", None),
    ("gen-gq", "gen gq --q 2", None),
    ("gen-fq-blowup", "gen fq-blowup --n 3 --tau 1 --seed 4", None),
    ("gen-fq-blowup-too-small", "gen fq-blowup --n 2 --tau 1", None),
    ("gen-random", "gen random --n 8 --m 4 --seed 3", None),
    ("gen-random-negative-n", "gen random --n -1 --m 0", None),
    ("gen-random-negative-m", "gen random --n 8 --m -1", None),
    ("gen-hypertree", "gen hypertree --e 3 --seed 2", None),
    ("gen-unknown-family", "gen petersen", None),
    ("chi", "chi --in {fano}", None),
    ("chi-stdin", "chi", "fano"),
    ("chi-json-flag", "chi --in {k5} --json", None),
    ("chi-exhausted", "chi --in {fano} --budget-nodes 1", None),
    ("chi-malformed", "chi", "garbage"),
    ("chi-missing-file", "chi --in {missing}", None),
    ("alpha", "alpha --in {fano}", None),
    ("alpha-exhausted", "alpha --in {fano} --budget-nodes 1", None),
    ("kcolor-yes", "kcolor --in {fano} --k 3", None),
    ("kcolor-no", "kcolor --in {fano} --k 2", None),
    ("kcolor-exhausted", "kcolor --in {fano} --k 3 --budget-nodes 1", None),
    ("kcolor-zero", "kcolor --in {fano} --k 0", None),
    ("color-greedy-identity", "color --algo greedy --in {k6}", None),
    ("color-greedy-reverse", "color --algo greedy --order reverse --in {rand}",
     None),
    ("color-greedy-degree", "color --algo greedy --order degree --in {rand}",
     None),
    ("color-greedy-random",
     "color --algo greedy --order random --seed 5 --in {rand}", None),
    ("color-lll", "color --algo lll --r 9 --seed 7 --in {fano}", None),
    ("color-lll-check-fails", "color --algo lll --r 2 --in {fano}", None),
    ("color-lll-no-r", "color --algo lll --in {fano}", None),
    ("color-layered", "color --algo layered --theta 4 --per-layer 3 --in {rand}",
     None),
    ("color-layered-residual",
     "color --algo layered --theta 2 --per-layer 3 --in {fano}", None),
    ("color-layered-no-theta", "color --algo layered --in {fano}", None),
    ("color-dyadic", "color --algo dyadic --r 3 --seed 1 --in {fano}", None),
    ("color-dyadic-exhausted", "color --algo dyadic --r 2 --in {k5}", None),
    ("color-dyadic-no-r", "color --algo dyadic --in {k5}", None),
    ("contains-yes", "contains --in {k5} --h {lp}", None),
    ("contains-no", "contains --in {fano} --h {lp}", None),
    ("free-yes", "free --in {fano} --h {lp}", None),
    ("free-no", "free --in {k5} --h {lp}", None),
    ("chain", "chain --in {k5}", None),
    ("chain-path", "chain --in {p2} --order reverse", None),
    ("chain-degree", "chain --in {rand} --order degree", None),
    ("chain-random", "chain --in {k5} --order random --seed 4", None),
    ("chain-edgeless", "chain --in {empty}", None),
    ("ex", "ex --h {lp} --n 6", None),
    ("ex-budget", "ex --h {lp} --n 6 --budget-nodes 2", None),
    ("ex-cache", "ex --h {lp} --n 5 --cache {cache}", None),
    ("ex-negative-n", "ex --h {lp} --n -1 --cache {cache}", None),
    ("ramsey", "ramsey --h {lp} --t 3", None),
    ("ramsey-n-max", "ramsey --h {lp} --t 3 --n-max 3", None),
    ("balance", "balance --in {c3}", None),
    ("balance-path", "balance --in {p2}", None),
    ("balance-one-edge", "balance --in {edge}", None),
    ("hyperforest-yes", "hyperforest --in {p2}", None),
    ("hyperforest-no", "hyperforest --in {c3}", None),
    ("witness-yes", "witness --in {fano} --h {lp} --r 2", None),
    ("witness-no", "witness --in {fano} --h {lp} --r 3", None),
    ("witness-exhausted", "witness --in {fano} --h {lp} --r 2 --budget-nodes 1",
     None),
    ("embed-order", "embed-order --in {k6} --h {lp}", None),
    ("embed-order-no-embedding", "embed-order --in {fano} --h {lp}", None),
    ("embed-order-no-ordering", "embed-order --in {k6} --h {noorder}", None),
    ("embed-order-bad-size", "embed-order --in {k5} --h {k4}", None),
    ("embed-order-uniformity-mismatch", "embed-order --in {gq3} --h {lp}",
     None),
]

SUBCOMMANDS = ["gen", "chi", "alpha", "kcolor", "color", "contains", "free",
               "chain", "ex", "ramsey", "balance", "hyperforest", "witness",
               "embed-order"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {"missing": str(root / "missing.hg"), "cache": str(root / "cache.txt")}
    for name, G in GRAPHS.items():
        path = root / f"{name}.hg"
        path.write_text(serialize_hypergraph(G))
        out[name] = str(path)
    return out


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("HYPERCHROME_SEED", raising=False)
    monkeypatch.delenv("HYPERCHROME_CACHE", raising=False)


def pinned(out):
    """stdout as pinned: a pretty-printed report in compact form without
    wall_ms, anything else unchanged."""
    try:
        report = json.loads(out)
    except ValueError:
        return out
    if not isinstance(report, dict) or \
            out != json.dumps(report, sort_keys=True, indent=2) + "\n":
        return out
    assert isinstance(report.pop("wall_ms"), float)
    return json.dumps(report, sort_keys=True)


def run(argv, stdin, monkeypatch, capsys):
    text = "" if stdin is None else \
        "not a graph\n" if stdin == "garbage" else \
        serialize_hypergraph(GRAPHS[stdin])
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = cli.main(argv)
    return code, pinned(capsys.readouterr().out)


@pytest.mark.parametrize("case, line, stdin", CASES, ids=[c[0] for c in CASES])
def test_report(case, line, stdin, paths, monkeypatch, capsys):
    argv = line.format(**paths).split()
    assert run(argv, stdin, monkeypatch, capsys) == EXPECTED[case]
    if argv[0] != "gen":
        assert run(argv + ["--quiet"], stdin, monkeypatch, capsys) == \
            EXPECTED_QUIET[case]


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_help(cmd, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main([cmd, "--help"]) == 0
    assert capsys.readouterr().out == HELP[cmd]


# ---------------------------------------------------------------- expected

EXPECTED = {
    'gen-fano':
        (0,
         'p h 3 7 7\n'
         'e 1 2 3\n'
         'e 1 4 5\n'
         'e 1 6 7\n'
         'e 2 4 6\n'
         'e 2 5 7\n'
         'e 3 4 7\n'
         'e 3 5 6\n'),
    'gen-k4':
        (0, 'p h 3 4 4\ne 1 2 3\ne 1 2 4\ne 1 3 4\ne 2 3 4\n'),
    'gen-k4-minus':
        (0, 'p h 3 4 3\ne 1 2 3\ne 1 2 4\ne 1 3 4\n'),
    'gen-linear-pair':
        (0, 'p h 3 4 2\ne 1 2 3\ne 1 2 4\n'),
    'gen-neighborhood5':
        (0, 'p h 3 5 4\ne 1 2 3\ne 1 2 4\ne 1 2 5\ne 3 4 5\n'),
    'gen-sunflower7':
        (0, 'p h 3 7 4\ne 1 2 3\ne 1 4 5\ne 1 6 7\ne 2 4 6\n'),
    'gen-complete':
        (0,
         'p h 3 5 10\n'
         'e 1 2 3\n'
         'e 1 2 4\n'
         'e 1 2 5\n'
         'e 1 3 4\n'
         'e 1 3 5\n'
         'e 1 4 5\n'
         'e 2 3 4\n'
         'e 2 3 5\n'
         'e 2 4 5\n'
         'e 3 4 5\n'),
    'gen-complete-too-small':
        (1, '{"error": "complete 3-graph needs n >= 3", "status": "failure"}\n'),
    'gen-loose-cycle':
        (0, 'p h 3 6 3\ne 1 2 3\ne 1 5 6\ne 3 4 5\n'),
    'gen-loose-path':
        (0, 'p h 3 5 2\ne 1 2 3\ne 3 4 5\n'),
    'gen-partition':
        (0, 'p h 3 4 4\ne 1 2 3\ne 1 2 4\ne 1 3 4\ne 2 3 4\n'),
    'gen-gq':
        (0,
         'p h 3 15 15\n'
         'e 1 4 5\n'
         'e 1 8 9\n'
         'e 1 12 13\n'
         'e 2 4 6\n'
         'e 2 8 10\n'
         'e 2 12 14\n'
         'e 3 4 7\n'
         'e 3 8 11\n'
         'e 3 12 15\n'
         'e 5 10 15\n'
         'e 5 11 14\n'
         'e 6 9 15\n'
         'e 6 11 13\n'
         'e 7 9 14\n'
         'e 7 10 13\n'),
    'gen-fq-blowup':
        (0, 'p h 3 3 1\ne 1 2 3\n'),
    'gen-fq-blowup-too-small':
        (1,
         '{"error": "vertex count must be at least tau^2 + 2*tau", "status": '
         '"failure"}\n'),
    'gen-random':
        (0, 'p h 3 8 4\ne 1 3 6\ne 1 5 6\ne 2 6 8\ne 3 4 6\n'),
    'gen-random-negative-n':
        (1, '{"error": "vertex count must be nonnegative", "status": "failure"}\n'),
    'gen-random-negative-m':
        (1, '{"error": "edge count must be nonnegative", "status": "failure"}\n'),
    'gen-hypertree':
        (0, 'p h 3 7 3\ne 1 2 3\ne 1 4 5\ne 1 6 7\n'),
    'gen-unknown-family':
        (2, ''),
    'chi':
        (0,
         '{"certificate": {"colors": [0, 0, 1, 0, 1, 2, 0], "palette": 3, '
         '"type": "coloring"}, "command": "chi", "input": {"k": 3, "m": 7, "n": '
         '7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {}, "result": {"chi": 3}, "seed": null, "status": "exact"}'),
    'chi-stdin':
        (0,
         '{"certificate": {"colors": [0, 0, 1, 0, 1, 2, 0], "palette": 3, '
         '"type": "coloring"}, "command": "chi", "input": {"k": 3, "m": 7, "n": '
         '7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {}, "result": {"chi": 3}, "seed": null, "status": "exact"}'),
    'chi-json-flag':
        (2, ''),
    'chi-exhausted':
        (1,
         '{"certificate": null, "command": "chi", "input": {"k": 3, "m": 7, "n": '
         '7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {}, "result": null, "seed": null, "status": "exhausted"}'),
    'chi-malformed':
        (2, ''),
    'chi-missing-file':
        (2, ''),
    'alpha':
        (0,
         '{"certificate": {"type": "independent-set", "vertices": [1, 2, 4, 7]}, '
         '"command": "alpha", "input": {"k": 3, "m": 7, "n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {}, "result": {"alpha": 4}, "seed": null, "status": "exact"}'),
    'alpha-exhausted':
        (1,
         '{"certificate": null, "command": "alpha", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {}, "result": null, "seed": null, "status": "exhausted"}'),
    'kcolor-yes':
        (0,
         '{"certificate": {"colors": [0, 0, 1, 0, 1, 2, 0], "palette": 3, '
         '"type": "coloring"}, "command": "kcolor", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"k": 3}, "result": {"colorable": true}, "seed": null, '
         '"status": "exact"}'),
    'kcolor-no':
        (1,
         '{"certificate": null, "command": "kcolor", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"k": 2}, "result": {"colorable": false}, "seed": null, '
         '"status": "exact"}'),
    'kcolor-exhausted':
        (1,
         '{"certificate": null, "command": "kcolor", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"k": 3}, "result": null, "seed": null, "status": '
         '"exhausted"}'),
    'kcolor-zero':
        (1, '{"error": "palette must be at least 1", "status": "failure"}\n'),
    'color-greedy-identity':
        (0,
         '{"certificate": {"colors": [0, 0, 1, 1, 2, 2], "palette": 3, "type": '
         '"coloring"}, "command": "color", "input": {"k": 3, "m": 20, "n": 6, '
         '"sha256": '
         '"f62da4d0ab139160657301e0361a125572451e075ed84077c058a5e751784c88"}, '
         '"params": {"algo": "greedy", "order": "identity"}, "result": '
         '{"colors_used": 3}, "seed": 0, "status": "exact"}'),
    'color-greedy-reverse':
        (0,
         '{"certificate": {"colors": [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0], '
         '"palette": 2, "type": "coloring"}, "command": "color", "input": {"k": '
         '3, "m": 6, "n": 12, "sha256": '
         '"821cd87c086d56a60c0ccc6d98a052f87e080a0465f77920ee81f091acd74d6d"}, '
         '"params": {"algo": "greedy", "order": "reverse"}, "result": '
         '{"colors_used": 2}, "seed": 0, "status": "exact"}'),
    'color-greedy-degree':
        (0,
         '{"certificate": {"colors": [0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0], '
         '"palette": 2, "type": "coloring"}, "command": "color", "input": {"k": '
         '3, "m": 6, "n": 12, "sha256": '
         '"821cd87c086d56a60c0ccc6d98a052f87e080a0465f77920ee81f091acd74d6d"}, '
         '"params": {"algo": "greedy", "order": "degree"}, "result": '
         '{"colors_used": 2}, "seed": 0, "status": "exact"}'),
    'color-greedy-random':
        (0,
         '{"certificate": {"colors": [0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0], '
         '"palette": 2, "type": "coloring"}, "command": "color", "input": {"k": '
         '3, "m": 6, "n": 12, "sha256": '
         '"821cd87c086d56a60c0ccc6d98a052f87e080a0465f77920ee81f091acd74d6d"}, '
         '"params": {"algo": "greedy", "order": "random"}, "result": '
         '{"colors_used": 2}, "seed": 5, "status": "exact"}'),
    'color-lll':
        (0,
         '{"certificate": {"colors": [5, 2, 6, 0, 1, 8, 1], "palette": 9, '
         '"type": "coloring"}, "command": "color", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"algo": "lll", "r": 9}, "result": {"colors_used": 6}, '
         '"seed": 7, "status": "exact"}'),
    'color-lll-check-fails':
        (1,
         '{"certificate": null, "command": "color", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"algo": "lll", "r": 2}, "result": {"failure": "lll-check"}, '
         '"seed": 0, "status": "failure"}'),
    'color-lll-no-r':
        (2, ''),
    'color-layered':
        (0,
         '{"certificate": {"colors": [0, 1, 1, 1, 0, 0, 0, 0, 5, 1, 0, 1], '
         '"palette": 6, "type": "coloring"}, "command": "color", "input": {"k": '
         '3, "m": 6, "n": 12, "sha256": '
         '"821cd87c086d56a60c0ccc6d98a052f87e080a0465f77920ee81f091acd74d6d"}, '
         '"params": {"algo": "layered", "per_layer": 3, "theta": 4}, "result": '
         '{"colors_used": 3}, "seed": 0, "status": "exact"}'),
    'color-layered-residual':
        (1,
         '{"certificate": null, "command": "color", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"algo": "layered", "per_layer": 3, "theta": 2}, "result": '
         '{"detail": {}, "failure": "residual-core"}, "seed": 0, "status": '
         '"failure"}'),
    'color-layered-no-theta':
        (2, ''),
    'color-dyadic':
        (0,
         '{"certificate": {"colors": [2, 2, 1, 2, 1, 0, 2], "palette": 3, '
         '"type": "coloring"}, "command": "color", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"algo": "dyadic", "r": 3}, "result": {"colors_used": 3}, '
         '"seed": 1, "status": "exact"}'),
    'color-dyadic-exhausted':
        (1,
         '{"certificate": null, "command": "color", "input": {"k": 3, "m": 10, '
         '"n": 5, "sha256": '
         '"c7597878a6a5c83601da3aa4874a3b150fedca4a54646886ab438f2b3182f25d"}, '
         '"params": {"algo": "dyadic", "r": 2}, "result": {"detail": '
         '{"remaining_vertices": 1}, "failure": "palette-exhausted"}, "seed": 0, '
         '"status": "failure"}'),
    'color-dyadic-no-r':
        (2, ''),
    'contains-yes':
        (0,
         '{"certificate": {"type": "embedding", "vertex_map": {"1": 1, "2": 2, '
         '"3": 3, "4": 4}}, "command": "contains", "input": {"k": 3, "m": 10, '
         '"n": 5, "sha256": '
         '"c7597878a6a5c83601da3aa4874a3b150fedca4a54646886ab438f2b3182f25d"}, '
         '"params": {"h_m": 2, "h_n": 4, "h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"result": {"contains": true}, "seed": null, "status": "exact"}'),
    'contains-no':
        (1,
         '{"certificate": null, "command": "contains", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"h_m": 2, "h_n": 4, "h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"result": {"contains": false}, "seed": null, "status": "exact"}'),
    'free-yes':
        (0,
         '{"certificate": null, "command": "free", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"h_m": 2, "h_n": 4, "h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"result": {"free": true}, "seed": null, "status": "exact"}'),
    'free-no':
        (1,
         '{"certificate": {"type": "embedding", "vertex_map": {"1": 1, "2": 2, '
         '"3": 3, "4": 4}}, "command": "free", "input": {"k": 3, "m": 10, "n": '
         '5, "sha256": '
         '"c7597878a6a5c83601da3aa4874a3b150fedca4a54646886ab438f2b3182f25d"}, '
         '"params": {"h_m": 2, "h_n": 4, "h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"result": {"free": false}, "seed": null, "status": "exact"}'),
    'chain':
        (0,
         '{"certificate": {"edges": [[1, 2, 3], [3, 4, 5]], "order": [1, 2, 3, '
         '4, 5], "type": "chain"}, "command": "chain", "input": {"k": 3, "m": '
         '10, "n": 5, "sha256": '
         '"c7597878a6a5c83601da3aa4874a3b150fedca4a54646886ab438f2b3182f25d"}, '
         '"params": {"order": "identity"}, "result": {"chain_length": 2, '
         '"greedy_colors": 3}, "seed": 0, "status": "exact"}'),
    'chain-path':
        (0,
         '{"certificate": {"edges": [[3, 4, 5]], "order": [5, 4, 3, 2, 1], '
         '"type": "chain"}, "command": "chain", "input": {"k": 3, "m": 2, "n": '
         '5, "sha256": '
         '"c300d47f19f800958a1bae153908bd3f266a95f07bc9a575e45e24c304744f05"}, '
         '"params": {"order": "reverse"}, "result": {"chain_length": 1, '
         '"greedy_colors": 2}, "seed": 0, "status": "exact"}'),
    'chain-degree':
        (0,
         '{"certificate": {"edges": [[4, 5, 9]], "order": [9, 4, 2, 5, 10, 1, 3, '
         '7, 8, 12, 6, 11], "type": "chain"}, "command": "chain", "input": {"k": '
         '3, "m": 6, "n": 12, "sha256": '
         '"821cd87c086d56a60c0ccc6d98a052f87e080a0465f77920ee81f091acd74d6d"}, '
         '"params": {"order": "degree"}, "result": {"chain_length": 1, '
         '"greedy_colors": 2}, "seed": 0, "status": "exact"}'),
    'chain-random':
        (0,
         '{"certificate": {"edges": [[1, 4, 5], [1, 2, 3]], "order": [4, 5, 1, '
         '3, 2], "type": "chain"}, "command": "chain", "input": {"k": 3, "m": '
         '10, "n": 5, "sha256": '
         '"c7597878a6a5c83601da3aa4874a3b150fedca4a54646886ab438f2b3182f25d"}, '
         '"params": {"order": "random"}, "result": {"chain_length": 2, '
         '"greedy_colors": 3}, "seed": 4, "status": "exact"}'),
    'chain-edgeless':
        (0,
         '{"certificate": {"edges": [], "order": [1, 2, 3, 4], "type": "chain"}, '
         '"command": "chain", "input": {"k": 3, "m": 0, "n": 4, "sha256": '
         '"8b84e33472a04d8595bd0bcbb573e84c4a4b86fac36c8aa104bb3a145280d1b4"}, '
         '"params": {"order": "identity"}, "result": {"chain_length": 0, '
         '"greedy_colors": 1}, "seed": 0, "status": "exact"}'),
    'ex':
        (0,
         '{"certificate": {"type": "extremal-witness", "witness": '
         '"6:3:1,2,3/1,4,5/2,4,6/3,5,6"}, "command": "ex", "input": {"k": 3, '
         '"m": 2, "n": 4, "sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"params": {"n": 6}, "result": {"ex": 4}, "seed": null, "status": '
         '"exact"}'),
    'ex-budget':
        (0,
         '{"certificate": {"type": "extremal-witness", "witness": '
         '"6:3:1,2,3"}, "command": "ex", "input": {"k": 3, "m": 2, "n": 4, '
         '"sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"params": {"n": 6}, "result": {"ex": 1}, "seed": null, "status": '
         '"lower_bound"}'),
    'ex-cache':
        (0,
         '{"certificate": {"type": "extremal-witness", "witness": '
         '"5:3:1,2,3/1,4,5"}, "command": "ex", "input": {"k": 3, "m": 2, "n": 4, '
         '"sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"params": {"n": 5}, "result": {"ex": 2}, "seed": null, "status": '
         '"exact"}'),
    'ex-negative-n':
        (1, '{"error": "vertex count must be nonnegative", "status": "failure"}\n'),
    'ramsey':
        (0,
         '{"certificate": {"type": "ramsey-witness", "witness": "3:3:1,2,3"}, '
         '"command": "ramsey", "input": {"k": 3, "m": 2, "n": 4, "sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"params": {"n_max": 8, "t": 3}, "result": {"ramsey": 4}, "seed": null, '
         '"status": "exact"}'),
    'ramsey-n-max':
        (0,
         '{"certificate": {"type": "ramsey-witness", "witness": "3:3:1,2,3"}, '
         '"command": "ramsey", "input": {"k": 3, "m": 2, "n": 4, "sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"params": {"n_max": 3, "t": 3}, "result": {"ramsey": 4}, "seed": null, '
         '"status": "lower_bound"}'),
    'balance':
        (0,
         '{"certificate": {"edges": [[1, 2, 3], [1, 5, 6], [3, 4, 5]], "type": '
         '"balance-witness"}, "command": "balance", "input": {"k": 3, "m": 3, '
         '"n": 6, "sha256": '
         '"04b3ab71aaef2825cc61bcc1c712df10e62ce736bea894bb680deb76815984d0"}, '
         '"params": {}, "result": {"balance": "2/3", "is_balanced": true}, '
         '"seed": null, "status": "exact"}'),
    'balance-path':
        (0,
         '{"certificate": {"edges": [[1, 2, 3], [3, 4, 5]], "type": '
         '"balance-witness"}, "command": "balance", "input": {"k": 3, "m": 2, '
         '"n": 5, "sha256": '
         '"c300d47f19f800958a1bae153908bd3f266a95f07bc9a575e45e24c304744f05"}, '
         '"params": {}, "result": {"balance": "1/2", "is_balanced": true}, '
         '"seed": null, "status": "exact"}'),
    'balance-one-edge':
        (1,
         '{"certificate": null, "command": "balance", "input": {"k": 3, "m": 1, '
         '"n": 3, "sha256": '
         '"89f7e31dfd21f8380b6cb1853b4666984132d21a4a51d2e54e2e5b1ad8f9e27c"}, '
         '"params": {}, "result": {"failure": "balance needs at least 2 edges"}, '
         '"seed": null, "status": "failure"}'),
    'hyperforest-yes':
        (0,
         '{"certificate": null, "command": "hyperforest", "input": {"k": 3, "m": '
         '2, "n": 5, "sha256": '
         '"c300d47f19f800958a1bae153908bd3f266a95f07bc9a575e45e24c304744f05"}, '
         '"params": {}, "result": {"hyperforest": true}, "seed": null, "status": '
         '"exact"}'),
    'hyperforest-no':
        (1,
         '{"certificate": null, "command": "hyperforest", "input": {"k": 3, "m": '
         '3, "n": 6, "sha256": '
         '"04b3ab71aaef2825cc61bcc1c712df10e62ce736bea894bb680deb76815984d0"}, '
         '"params": {}, "result": {"hyperforest": false}, "seed": null, '
         '"status": "exact"}'),
    'witness-yes':
        (0,
         '{"certificate": null, "command": "witness", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87", '
         '"r": 2}, "result": {"chi": 3, "chi_exceeds_r": true, "edge_count": 7, '
         '"h_free": true, "implied_bound": 7}, "seed": null, "status": "exact"}'),
    'witness-no':
        (1,
         '{"certificate": null, "command": "witness", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87", '
         '"r": 3}, "result": {"chi": 3, "chi_exceeds_r": false, "edge_count": 7, '
         '"h_free": true, "implied_bound": null}, "seed": null, "status": '
         '"exact"}'),
    'witness-exhausted':
        (1,
         '{"certificate": null, "command": "witness", "input": {"k": 3, "m": 7, '
         '"n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87", '
         '"r": 2}, "result": {"chi": null, "chi_exceeds_r": null, "edge_count": '
         '7, "h_free": null, "implied_bound": null}, "seed": null, "status": '
         '"exhausted"}'),
    'embed-order':
        (0,
         '{"certificate": {"type": "embedding", "vertex_map": {"1": 1, "2": 2, '
         '"3": 3, "4": 4}}, "command": "embed-order", "input": {"k": 3, "m": 20, '
         '"n": 6, "sha256": '
         '"f62da4d0ab139160657301e0361a125572451e075ed84077c058a5e751784c88"}, '
         '"params": {"h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"result": {"embedding": true, "ordering": true}, "seed": null, '
         '"status": "exact"}'),
    'embed-order-no-embedding':
        (1,
         '{"certificate": null, "command": "embed-order", "input": {"k": 3, "m": '
         '7, "n": 7, "sha256": '
         '"06eec7072d312f5d12acfa60f214dd942fba5a76e04e9e8696edf94f70a106cf"}, '
         '"params": {"h_sha256": '
         '"c2bc07b31a397b7b6d17e9dd83c7188389a9ca5cd82f276135acdac99a3f5c87"}, '
         '"result": {"embedding": false, "ordering": true}, "seed": null, '
         '"status": "exact"}'),
    'embed-order-no-ordering':
        (1,
         '{"certificate": null, "command": "embed-order", "input": {"k": 3, "m": '
         '20, "n": 6, "sha256": '
         '"f62da4d0ab139160657301e0361a125572451e075ed84077c058a5e751784c88"}, '
         '"params": {"h_sha256": '
         '"989d36b2bb497633a59139d2d36b6dcc581d7545acb7e328884839768d1fbdb2"}, '
         '"result": {"ordering": null}, "seed": null, "status": "exact"}'),
    'embed-order-bad-size':
        (1,
         '{"error": "need |V| = |E| + 2, got |V|=4, |E|=4", "status": '
         '"failure"}\n'),
    'embed-order-uniformity-mismatch':
        (1, '{"error": "uniformity mismatch", "status": "failure"}\n'),
}

EXPECTED_QUIET = {
    'chi':
        (0, 'chi = 3\n'),
    'chi-stdin':
        (0, 'chi = 3\n'),
    'chi-json-flag':
        (2, ''),
    'chi-exhausted':
        (1, 'chi exhausted\n'),
    'chi-malformed':
        (2, ''),
    'chi-missing-file':
        (2, ''),
    'alpha':
        (0, 'alpha = 4\n'),
    'alpha-exhausted':
        (1, 'alpha exhausted\n'),
    'kcolor-yes':
        (0, '3-colorable\n'),
    'kcolor-no':
        (1, 'not 2-colorable\n'),
    'kcolor-exhausted':
        (1, 'kcolor exhausted\n'),
    'kcolor-zero':
        (1, '{"error": "palette must be at least 1", "status": "failure"}\n'),
    'color-greedy-identity':
        (0, 'proper coloring, 3 colors\n'),
    'color-greedy-reverse':
        (0, 'proper coloring, 2 colors\n'),
    'color-greedy-degree':
        (0, 'proper coloring, 2 colors\n'),
    'color-greedy-random':
        (0, 'proper coloring, 2 colors\n'),
    'color-lll':
        (0, 'proper coloring, 6 colors\n'),
    'color-lll-check-fails':
        (1, 'lll-check failed\n'),
    'color-lll-no-r':
        (2, ''),
    'color-layered':
        (0, 'proper coloring, 3 colors\n'),
    'color-layered-residual':
        (1, 'failure: residual-core\n'),
    'color-layered-no-theta':
        (2, ''),
    'color-dyadic':
        (0, 'proper coloring, 3 colors\n'),
    'color-dyadic-exhausted':
        (1, 'failure: palette-exhausted\n'),
    'color-dyadic-no-r':
        (2, ''),
    'contains-yes':
        (0, 'contains = True\n'),
    'contains-no':
        (1, 'contains = False\n'),
    'free-yes':
        (0, 'free = True\n'),
    'free-no':
        (1, 'free = False\n'),
    'chain':
        (0, 'greedy colors 3, chain length 2\n'),
    'chain-path':
        (0, 'greedy colors 2, chain length 1\n'),
    'chain-degree':
        (0, 'greedy colors 2, chain length 1\n'),
    'chain-random':
        (0, 'greedy colors 3, chain length 2\n'),
    'chain-edgeless':
        (0, 'greedy colors 1, chain length 0\n'),
    'ex':
        (0, 'ex(6, H) = 4 [exact]\n'),
    'ex-budget':
        (0, 'ex(6, H) = 1 [lower_bound]\n'),
    'ex-cache':
        (0, 'ex(5, H) = 2 [exact]\n'),
    'ex-negative-n':
        (1, '{"error": "vertex count must be nonnegative", "status": "failure"}\n'),
    'ramsey':
        (0, 'R(H, K_3) = 4 [exact]\n'),
    'ramsey-n-max':
        (0, 'R(H, K_3) = 4 [lower_bound]\n'),
    'balance':
        (0, '2/3\n'),
    'balance-path':
        (0, '1/2\n'),
    'balance-one-edge':
        (1, 'failure: balance needs at least 2 edges\n'),
    'hyperforest-yes':
        (0, 'hyperforest = True\n'),
    'hyperforest-no':
        (1, 'hyperforest = False\n'),
    'witness-yes':
        (0, 'm_H(2) <= 7\n'),
    'witness-no':
        (1, 'not a witness\n'),
    'witness-exhausted':
        (1, 'not a witness\n'),
    'embed-order':
        (0, 'embedding found\n'),
    'embed-order-no-embedding':
        (1, 'ordering found, no embedding\n'),
    'embed-order-no-ordering':
        (1, 'no edge ordering\n'),
    'embed-order-bad-size':
        (1,
         '{"error": "need |V| = |E| + 2, got |V|=4, |E|=4", "status": '
         '"failure"}\n'),
    'embed-order-uniformity-mismatch':
        (1, '{"error": "uniformity mismatch", "status": "failure"}\n'),
}

HELP = {
    'gen': (
        'usage: hyperchrome gen [-h] [--n N] [--m M] [--l L] [--r R] [--t T] [--q Q]\n'
        '                       [--tau TAU] [--e E] [--seed SEED]\n'
        '                       {complete,loose-cycle,loose-path,partition,gq,fq-blowup,random,hypertree,k4,k4-minus,linear-pair,neighborhood5,sunflower7,fano}\n'
        '\n'
        'positional arguments:\n'
        '  {complete,loose-cycle,loose-path,partition,gq,fq-blowup,random,hypertree,k4,k4-minus,linear-pair,neighborhood5,sunflower7,fano}\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --n N\n'
        '  --m M\n'
        '  --l L\n'
        '  --r R\n'
        '  --t T\n'
        '  --q Q\n'
        '  --tau TAU\n'
        '  --e E\n'
        '  --seed SEED\n'
    ),
    'chi': (
        'usage: hyperchrome chi [-h] [--in INFILE] [--budget-nodes BUDGET_NODES]\n'
        '                       [--budget-ms BUDGET_MS] [--quiet]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --in INFILE           input HypergraphFile (default: stdin)\n'
        '  --budget-nodes BUDGET_NODES\n'
        '  --budget-ms BUDGET_MS\n'
        '  --quiet               one-line summary instead of JSON\n'
    ),
    'alpha': (
        'usage: hyperchrome alpha [-h] [--in INFILE] [--budget-nodes BUDGET_NODES]\n'
        '                         [--budget-ms BUDGET_MS] [--quiet]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --in INFILE           input HypergraphFile (default: stdin)\n'
        '  --budget-nodes BUDGET_NODES\n'
        '  --budget-ms BUDGET_MS\n'
        '  --quiet               one-line summary instead of JSON\n'
    ),
    'kcolor': (
        'usage: hyperchrome kcolor [-h] [--in INFILE] [--budget-nodes BUDGET_NODES]\n'
        '                          [--budget-ms BUDGET_MS] [--quiet] --k K\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --in INFILE           input HypergraphFile (default: stdin)\n'
        '  --budget-nodes BUDGET_NODES\n'
        '  --budget-ms BUDGET_MS\n'
        '  --quiet               one-line summary instead of JSON\n'
        '  --k K\n'
    ),
    'color': (
        'usage: hyperchrome color [-h] [--in INFILE] [--seed SEED]\n'
        '                         [--budget-nodes BUDGET_NODES] [--budget-ms BUDGET_MS]\n'
        '                         [--quiet] --algo {greedy,lll,layered,dyadic}\n'
        '                         [--order {identity,reverse,degree,random}] [--r R]\n'
        '                         [--theta THETA] [--per-layer PER_LAYER]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --in INFILE           input HypergraphFile (default: stdin)\n'
        '  --seed SEED\n'
        '  --budget-nodes BUDGET_NODES\n'
        '  --budget-ms BUDGET_MS\n'
        '  --quiet               one-line summary instead of JSON\n'
        '  --algo {greedy,lll,layered,dyadic}\n'
        '  --order {identity,reverse,degree,random}\n'
        '  --r R\n'
        '  --theta THETA\n'
        '  --per-layer PER_LAYER\n'
    ),
    'contains': (
        'usage: hyperchrome contains [-h] [--in INFILE] --h PATTERN [--quiet]\n'
        '\n'
        'options:\n'
        '  -h, --help   show this help message and exit\n'
        '  --in INFILE  input HypergraphFile (default: stdin)\n'
        '  --h PATTERN  pattern hypergraph H (HypergraphFile)\n'
        '  --quiet      one-line summary instead of JSON\n'
    ),
    'free': (
        'usage: hyperchrome free [-h] [--in INFILE] --h PATTERN [--quiet]\n'
        '\n'
        'options:\n'
        '  -h, --help   show this help message and exit\n'
        '  --in INFILE  input HypergraphFile (default: stdin)\n'
        '  --h PATTERN  pattern hypergraph H (HypergraphFile)\n'
        '  --quiet      one-line summary instead of JSON\n'
    ),
    'chain': (
        'usage: hyperchrome chain [-h] [--in INFILE] [--seed SEED] [--quiet]\n'
        '                         [--order {identity,reverse,degree,random}]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --in INFILE           input HypergraphFile (default: stdin)\n'
        '  --seed SEED\n'
        '  --quiet               one-line summary instead of JSON\n'
        '  --order {identity,reverse,degree,random}\n'
    ),
    'ex': (
        'usage: hyperchrome ex [-h] --h PATTERN [--budget-nodes BUDGET_NODES]\n'
        '                      [--budget-ms BUDGET_MS] [--cache CACHE] [--quiet] --n N\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --h PATTERN           pattern hypergraph H (HypergraphFile)\n'
        '  --budget-nodes BUDGET_NODES\n'
        '  --budget-ms BUDGET_MS\n'
        '  --cache CACHE\n'
        '  --quiet               one-line summary instead of JSON\n'
        '  --n N\n'
    ),
    'ramsey': (
        'usage: hyperchrome ramsey [-h] --h PATTERN [--budget-nodes BUDGET_NODES]\n'
        '                          [--budget-ms BUDGET_MS] [--cache CACHE] [--quiet]\n'
        '                          --t T [--n-max N_MAX]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --h PATTERN           pattern hypergraph H (HypergraphFile)\n'
        '  --budget-nodes BUDGET_NODES\n'
        '  --budget-ms BUDGET_MS\n'
        '  --cache CACHE\n'
        '  --quiet               one-line summary instead of JSON\n'
        '  --t T\n'
        '  --n-max N_MAX\n'
    ),
    'balance': (
        'usage: hyperchrome balance [-h] [--in INFILE] [--quiet]\n'
        '\n'
        'options:\n'
        '  -h, --help   show this help message and exit\n'
        '  --in INFILE  input HypergraphFile (default: stdin)\n'
        '  --quiet      one-line summary instead of JSON\n'
    ),
    'hyperforest': (
        'usage: hyperchrome hyperforest [-h] [--in INFILE] [--quiet]\n'
        '\n'
        'options:\n'
        '  -h, --help   show this help message and exit\n'
        '  --in INFILE  input HypergraphFile (default: stdin)\n'
        '  --quiet      one-line summary instead of JSON\n'
    ),
    'witness': (
        'usage: hyperchrome witness [-h] [--in INFILE] --h PATTERN\n'
        '                           [--budget-nodes BUDGET_NODES]\n'
        '                           [--budget-ms BUDGET_MS] [--quiet] --r R\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --in INFILE           input HypergraphFile (default: stdin)\n'
        '  --h PATTERN           pattern hypergraph H (HypergraphFile)\n'
        '  --budget-nodes BUDGET_NODES\n'
        '  --budget-ms BUDGET_MS\n'
        '  --quiet               one-line summary instead of JSON\n'
        '  --r R\n'
    ),
    'embed-order': (
        'usage: hyperchrome embed-order [-h] [--in INFILE] --h PATTERN [--quiet]\n'
        '\n'
        'options:\n'
        '  -h, --help   show this help message and exit\n'
        '  --in INFILE  input HypergraphFile (default: stdin)\n'
        '  --h PATTERN  pattern hypergraph H (HypergraphFile)\n'
        '  --quiet      one-line summary instead of JSON\n'
    ),
}
