"""Command-line front end.

Graphs travel as HypergraphFile text: `gen` writes one to stdout, every other
subcommand reads one from stdin (or --in) and emits a JSON run report.  Exit
codes: 0 success, 1 negative or failed result (computed, answer is "no",
or an input too large to hold, reported in-band), 2 usage or input errors.

Each report subcommand is declared once in COMMANDS, as its arguments plus a
solve function that returns only the command-specific part of the report.
One runner reads the inputs, resolves seed, budget and cache, solves, checks
the certificate and prints the report.  Certificates are checked by explicit
code in the form they are printed, chosen by type: a coloring must be proper,
an independent set must contain no edge, an embedding must map H onto edges
of G, a chain must be an ordered chain of G.  Extremal, Ramsey and balance
witnesses are not rechecked.  A failed check prints "error: certificate check
failed (<command>)" on stderr, no report, and exits 1.

Seeds come from --seed or HYPERCHROME_SEED (flag wins; a value that is not
an integer is a usage error, exit 2); the extremal cache path from --cache or
HYPERCHROME_CACHE.  Cache records are one tab-separated line each: kind,
canonical key of H, parameter, value, status, witness graph as
n:k:v1,v2,v3/... with 1-based vertices (see hyperchrome.cache).  Only exact
records are served from the cache.  Reports are byte-identical for identical
command and seed, except for the wall_ms field.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from time import monotonic

# The solvers import exact, coloring and extremal when they run, and gen
# imports constructions, so that a subcommand loads only the modules it
# uses; what stays here is what every report needs.
from .cache import ResultCache, encode_graph
from .containment import Embedding, contains, embedding_ok
from .core import (Coloring, SearchBudget, VertexOrder, balance, degree_order,
                   is_hyperforest, is_independent, is_ordered_chain, is_proper)
from .fileio import parse_hypergraph, serialize_hypergraph

ORDERS = ["identity", "reverse", "degree", "random"]


class UsageError(Exception):
    pass


# What a solve function gets: the parsed arguments, the graphs read from --in
# and --h (None when the command takes no such input), and the resolved seed
# (None for unseeded commands), budget (None when not budgeted) and cache
# (None when not cached).
Job = namedtuple("Job", "args G H seed budget cache")


class Outcome(namedtuple("Outcome", "status result quiet code certificate params",
                         defaults=(0, None, None))):
    """The command-specific part of a run report."""

    # quiet: the --quiet summary line; code: the exit code; params: None
    # when the command has none
    __slots__ = ()


class Command(namedtuple("Command", "help solve infile pattern seeded budgeted "
                         "cached options",
                         defaults=(True, False, False, False, False, ()))):
    """One report subcommand: what it reads, its extra arguments, its solver."""

    # solve: Job -> Outcome; options: (flag, add_argument keywords) pairs,
    # added after the common ones
    __slots__ = ()


def _read_graph(path):
    import hashlib
    try:
        if path and path != "-":
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"bad hypergraph file: {exc}") from None
    try:
        return parse_hypergraph(text), hashlib.sha256(text.encode()).hexdigest()
    except ValueError as exc:
        raise UsageError(f"bad hypergraph file: {exc}") from None


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HYPERCHROME_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError(
            f"HYPERCHROME_SEED must be an integer, got {env!r}") from None


def _cache(args):
    path = args.cache or os.environ.get("HYPERCHROME_CACHE")
    return ResultCache(path) if path else None


def _order(G, name, seed):
    if name == "identity":
        return VertexOrder.identity(G.n)
    if name == "reverse":
        return VertexOrder(tuple(reversed(range(G.n))))
    if name == "degree":
        return VertexOrder(tuple(degree_order(G)))
    import random
    perm = list(range(G.n))  # "random", the last of ORDERS
    random.Random(seed).shuffle(perm)
    return VertexOrder(tuple(perm))


def _certified(cert, G, H):
    """Recheck a certificate as printed; ex, ramsey and balance witnesses
    pass unchecked."""
    kind = cert["type"]
    if kind == "coloring":
        return is_proper(G, Coloring(tuple(cert["colors"]), cert["palette"]))[0]
    if kind == "independent-set":
        return is_independent(G, [v - 1 for v in cert["vertices"]])
    if kind == "embedding":
        vmap = {int(h) - 1: g - 1 for h, g in cert["vertex_map"].items()}
        if set(vmap) != set(range(H.n)):
            return False
        return embedding_ok(G, H, Embedding.of(H, vmap))
    if kind == "chain":
        chain = [[v - 1 for v in e] for e in cert["edges"]]
        order = VertexOrder(tuple(v - 1 for v in cert["order"]))
        return not chain or is_ordered_chain(G, chain, order)
    return True


def _run(name, cmd, args):
    """Read, solve, certify and emit one report; returns the exit code."""
    started = monotonic()
    if cmd.budgeted and min(args.budget_nodes, args.budget_ms) < 0:
        raise UsageError("budget caps must be nonnegative")
    G, digest = _read_graph(args.infile) if cmd.infile else (None, None)
    H, h_digest = _read_graph(args.pattern) if cmd.pattern else (None, None)
    seed = _seed(args) if cmd.seeded else None
    budget = SearchBudget(args.budget_nodes, args.budget_ms) \
        if cmd.budgeted else None
    cache = _cache(args) if cmd.cached else None
    out = cmd.solve(Job(args, G, H, seed, budget, cache))
    if out.certificate is not None and not _certified(out.certificate, G, H):
        print(f"error: certificate check failed ({name})", file=sys.stderr)
        return 1
    params = out.params or {}
    if G is None:
        G, digest = H, h_digest  # the pattern is the input
    elif H is not None:
        params = {**params, "h_sha256": h_digest}
    report = {
        "command": name,
        "input": {"sha256": digest, "n": G.n, "k": G.k, "m": len(G.edges)},
        "params": params,
        "seed": seed,
        "status": out.status,
        "result": out.result,
        "certificate": out.certificate,
        "wall_ms": round((monotonic() - started) * 1000.0, 3),
    }
    if args.quiet:
        print(out.quiet)
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return out.code


def _families():
    """gen's families, in --help order: name -> (args, seed) -> Hypergraph."""
    from . import constructions as cons
    return {
        "complete": lambda a, seed: cons.complete(a.n),
        "loose-cycle": lambda a, seed: cons.loose_cycle(a.l),
        "loose-path": lambda a, seed: cons.loose_path(a.l),
        "partition": lambda a, seed: cons.partition_example(a.r, a.t),
        "gq": lambda a, seed: cons.gq(a.q),
        "fq-blowup": lambda a, seed: cons.fq_blowup(
            cons.BlowupSpec(a.n, a.tau, seed)),
        "random": lambda a, seed: cons.random_3graph(a.n, a.m, seed),
        "hypertree": lambda a, seed: cons.random_hypertree(a.e, seed),
        **{name.replace("_", "-"): lambda a, seed, name=name: cons.named(name)
           for name in cons.NAMED},
    }


def _gen(args):
    G = _families()[args.family](args, _seed(args))
    sys.stdout.write(serialize_hypergraph(G))
    return 0


def _coloring_cert(coloring):
    return {"type": "coloring", "colors": list(coloring.colors),
            "palette": coloring.palette}


def _embedding_cert(emb):
    return {"type": "embedding",
            "vertex_map": {str(h + 1): g + 1 for h, g in emb.vertex_map}}


def _chi(job):
    from . import exact
    witness = exact.chromatic_coloring(job.G, job.budget)
    if witness is exact.EXHAUSTED:
        return Outcome("exhausted", None, "chi exhausted", 1)
    chi = witness.palette
    return Outcome("exact", {"chi": chi}, f"chi = {chi}",
                   certificate=_coloring_cert(witness))


def _alpha(job):
    from . import exact
    best = exact.max_independent_set(job.G, job.budget)
    if best is exact.EXHAUSTED:
        return Outcome("exhausted", None, "alpha exhausted", 1)
    cert = {"type": "independent-set", "vertices": sorted(v + 1 for v in best)}
    return Outcome("exact", {"alpha": len(best)}, f"alpha = {len(best)}",
                   certificate=cert)


def _kcolor(job):
    from . import exact
    k = job.args.k
    params = {"k": k}
    res = exact.k_colorable(job.G, k, job.budget)
    if res is exact.EXHAUSTED:
        return Outcome("exhausted", None, "kcolor exhausted", 1, params=params)
    if res is None:
        return Outcome("exact", {"colorable": False}, f"not {k}-colorable", 1,
                       params=params)
    return Outcome("exact", {"colorable": True}, f"{k}-colorable",
                   certificate=_coloring_cert(res), params=params)


def _color(job):
    from . import coloring as col
    args, G, seed = job.args, job.G, job.seed
    params = {"algo": args.algo}
    if args.algo == "greedy":
        params["order"] = args.order
        result = col.greedy_pluhar(G, _order(G, args.order, seed)).coloring
    elif args.algo == "lll":
        if args.r is None:
            raise UsageError("--algo lll needs --r")
        params["r"] = args.r
        if not col.lll_check(G, args.r).ok:
            return Outcome("failure", {"failure": "lll-check"},
                           "lll-check failed", 1, params=params)
        result = col.lll_color(G, args.r, seed, check=False)
    elif args.algo == "layered":
        if args.theta is None or args.per_layer is None:
            raise UsageError("--algo layered needs --theta and --per-layer")
        params.update(theta=args.theta, per_layer=args.per_layer)
        result = col.layered_color(G, args.theta, args.per_layer, seed)
    else:  # dyadic
        if args.r is None:
            raise UsageError("--algo dyadic needs --r")
        params["r"] = args.r
        result = col.independent_removal_color(G, args.r, seed, job.budget)
    if isinstance(result, col.ColoringFailure):
        detail = {k: v for k, v in result.detail.items()
                  if isinstance(v, (int, str, bool))}
        return Outcome("failure", {"failure": result.stage, "detail": detail},
                       f"failure: {result.stage}", 1, params=params)
    used = result.used()
    return Outcome("exact", {"colors_used": used},
                   f"proper coloring, {used} colors",
                   certificate=_coloring_cert(result), params=params)


def _containment(name):
    """Solver of `contains` or `free`: the same search, answers opposite."""
    def solve(job):
        emb = contains(job.G, job.H)
        answer = emb is None if name == "free" else emb is not None
        cert = None if emb is None else _embedding_cert(emb)
        return Outcome("exact", {name: answer}, f"{name} = {answer}",
                       0 if answer else 1, certificate=cert,
                       params={"h_n": job.H.n, "h_m": len(job.H.edges)})
    return solve


def _chain(job):
    from . import coloring as col
    G, order = job.G, _order(job.G, job.args.order, job.seed)
    trace = col.greedy_pluhar(G, order)
    used = trace.coloring.used()
    chain = col.extract_chain(G, order, trace).chain if used >= 2 else ()
    cert = {"type": "chain", "edges": [[v + 1 for v in e] for e in chain],
            "order": [v + 1 for v in order.order]}
    return Outcome("exact", {"greedy_colors": used, "chain_length": len(chain)},
                   f"greedy colors {used}, chain length {len(chain)}",
                   certificate=cert, params={"order": job.args.order})


def _ex(job):
    from . import extremal
    n = job.args.n
    rec = extremal.turan_ex(n, job.H, job.budget, job.cache)
    cert = {"type": "extremal-witness", "witness": encode_graph(rec.witness)}
    return Outcome(rec.status, {"ex": rec.value},
                   f"ex({n}, H) = {rec.value} [{rec.status}]",
                   certificate=cert, params={"n": n})


def _ramsey(job):
    from . import extremal
    t, n_max = job.args.t, job.args.n_max
    rec = extremal.ramsey(job.H, t, n_max, job.budget, job.cache)
    cert = {"type": "ramsey-witness", "witness": encode_graph(rec.witness)}
    return Outcome(rec.status, {"ramsey": rec.value},
                   f"R(H, K_{t}) = {rec.value} [{rec.status}]",
                   certificate=cert, params={"t": t, "n_max": n_max})


def _balance(job):
    try:
        bal = balance(job.G)
    except ValueError as exc:
        return Outcome("failure", {"failure": str(exc)}, f"failure: {exc}", 1)
    value = f"{bal.value.numerator}/{bal.value.denominator}"
    cert = {"type": "balance-witness",
            "edges": [[v + 1 for v in e] for e in bal.witness]}
    return Outcome("exact", {"balance": value, "is_balanced": bal.is_balanced},
                   value, certificate=cert)


def _hyperforest(job):
    flag = is_hyperforest(job.G)
    return Outcome("exact", {"hyperforest": flag}, f"hyperforest = {flag}",
                   0 if flag else 1)


def _witness(job):
    from . import extremal
    r = job.args.r
    wr = extremal.verify_witness(job.G, job.H, r, job.budget)
    result = {"h_free": wr.h_free, "chi": wr.chi,
              "chi_exceeds_r": wr.chi_exceeds_r, "edge_count": wr.edge_count,
              "implied_bound": wr.implied_bound}
    ok = wr.h_free and wr.chi_exceeds_r
    return Outcome(wr.status, result,
                   f"m_H({r}) <= {wr.implied_bound}" if ok else "not a witness",
                   0 if ok else 1, params={"r": r})


def _embed_order(job):
    from . import extremal
    ordering = extremal.find_edge_ordering(job.H)
    if ordering is None:
        return Outcome("exact", {"ordering": None}, "no edge ordering", 1)
    emb = extremal.embed_by_edge_order(job.G, job.H, ordering)
    if emb is None:
        return Outcome("exact", {"ordering": True, "embedding": False},
                       "ordering found, no embedding", 1)
    return Outcome("exact", {"ordering": True, "embedding": True},
                   "embedding found", certificate=_embedding_cert(emb))


COMMANDS = {
    "chi": Command("exact chromatic number", _chi, budgeted=True),
    "alpha": Command("exact independence number", _alpha, budgeted=True),
    "kcolor": Command("exact k-colorability", _kcolor, budgeted=True, options=(
        ("--k", dict(type=int, required=True)),)),
    "color": Command("run a coloring algorithm", _color, seeded=True,
                     budgeted=True, options=(
        ("--algo", dict(choices=["greedy", "lll", "layered", "dyadic"],
                        required=True)),
        ("--order", dict(default="identity", choices=ORDERS)),
        ("--r", dict(type=int, default=None)),
        ("--theta", dict(type=int, default=None)),
        ("--per-layer", dict(dest="per_layer", type=int, default=None)))),
    "contains": Command("subgraph containment", _containment("contains"),
                        pattern=True),
    "free": Command("H-freeness", _containment("free"), pattern=True),
    "chain": Command("greedy coloring plus chain certificate", _chain,
                     seeded=True, options=(
        ("--order", dict(default="identity", choices=ORDERS)),)),
    "ex": Command("Turan number ex(n, H)", _ex, infile=False, pattern=True,
                  budgeted=True, cached=True, options=(
        ("--n", dict(type=int, required=True)),)),
    "ramsey": Command("Ramsey number R(H, K_t)", _ramsey, infile=False,
                      pattern=True, budgeted=True, cached=True, options=(
        ("--t", dict(type=int, required=True)),
        ("--n-max", dict(dest="n_max", type=int, default=8)))),
    "balance": Command("exact balance of a 3-graph", _balance),
    "hyperforest": Command("incidence-acyclicity test", _hyperforest),
    "witness": Command("verify an m_H(r) upper-bound witness", _witness,
                       pattern=True, budgeted=True, options=(
        ("--r", dict(type=int, required=True)),)),
    "embed-order": Command("edge ordering + incremental embedding",
                           _embed_order, pattern=True),
}


def build_parser(argv=None):
    """The parser.  Every subcommand is registered with its help; when
    argv[0] names one, only that one gets its arguments."""
    top = argparse.ArgumentParser(
        prog="hyperchrome",
        description="3-uniform hypergraph coloring laboratory")
    sub = top.add_subparsers(dest="cmd", required=True)
    only = argv[0] if argv and argv[0] in ("gen", *COMMANDS) else None

    g = sub.add_parser("gen", help="write a generated hypergraph to stdout")
    if only in (None, "gen"):
        g.add_argument("family", choices=list(_families()))
        g.add_argument("--n", type=int, default=0)
        g.add_argument("--m", type=int, default=0)
        g.add_argument("--l", type=int, default=3)
        g.add_argument("--r", type=int, default=2)
        g.add_argument("--t", type=int, default=3)
        g.add_argument("--q", type=int, default=2)
        g.add_argument("--tau", type=int, default=1)
        g.add_argument("--e", type=int, default=1)
        g.add_argument("--seed", type=int, default=None)

    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if only not in (None, name):
            continue
        if cmd.infile:
            p.add_argument("--in", dest="infile", default=None,
                           help="input HypergraphFile (default: stdin)")
        if cmd.pattern:
            p.add_argument("--h", dest="pattern", required=True,
                           help="pattern hypergraph H (HypergraphFile)")
        if cmd.seeded:
            p.add_argument("--seed", type=int, default=None)
        if cmd.budgeted:
            p.add_argument("--budget-nodes", type=int, default=0)
            p.add_argument("--budget-ms", type=int, default=0)
        if cmd.cached:
            p.add_argument("--cache", default=None)
        p.add_argument("--quiet", action="store_true",
                       help="one-line summary instead of JSON")
        for flag, kwargs in cmd.options:
            p.add_argument(flag, **kwargs)
    return top


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.cmd == "gen":
            return _gen(args)
        return _run(args.cmd, COMMANDS[args.cmd], args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, OverflowError) as exc:
        # infeasible preconditions, and inputs too large to hold, are
        # negative results, reported in-band
        error = str(exc) if isinstance(exc, ValueError) else ": ".join(
            filter(None, (type(exc).__name__, str(exc))))
        print(json.dumps({"status": "failure", "error": error},
                         sort_keys=True))
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
