"""The benchmark's four workloads.

Each workload turns a seed into inputs (``setup``), warms up on a small case
(``warm``) and builds the task list of one pass (``tasks``).  A task's ``run``
is the timed call; its ``check`` runs untimed and untraced, compares the
answer with the expected value, revalidates the certificate and returns a
short summary for the result digest, or raises :class:`CheckFailed`.

Library calls go through module attributes (``extremal.turan_ex``, not a
name imported from it) so that the traced run's wrappers see them.
"""

import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from math import comb, isqrt
from pathlib import Path

from hyperchrome import (_kernels, coloring, constructions, core, exact,
                         extremal, fileio)
from hyperchrome.cache import decode_graph
from hyperchrome.containment import Embedding, embedding_ok, is_free

CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """A task's answer or certificate did not check out."""


@dataclass
class Task:
    name: str
    run: object    # () -> result, timed
    check: object  # result -> summary string; raises CheckFailed


@dataclass
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    setup: object  # (seed, Context) -> inputs
    warm: object   # (inputs, Context) -> None
    tasks: object  # (inputs, Context) -> [Task]


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs


def sample_triples(n, m, seed):
    """m distinct sorted triples on 0..n-1 by rejection sampling, seeded.

    Memory is O(m): unlike constructions.random_3graph, no pool of all
    C(n, 3) triples is built, so n = 10**4 fits.
    """
    if m > comb(n, 3):
        raise ValueError(f"at most {comb(n, 3)} triples fit on {n} vertices")
    rng = random.Random(seed)
    seen = set()
    while len(seen) < m:
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if a != b and b != c and a != c:
            seen.add(tuple(sorted((a, b, c))))
    return sorted(seen)


def random_graph(n, m, seed):
    return core.Hypergraph(n, 3, tuple(sample_triples(n, m, seed)))


def relabel(G, seed):
    """G with its vertices renamed by a seeded permutation (an isomorphic copy)."""
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return core.new_hypergraph(G.n, G.k, [[perm[v] for v in e] for e in G.edges])


def degree_order(G):
    degs = G.degrees()
    return core.VertexOrder(tuple(sorted(range(G.n), key=lambda v: (-degs[v], v))))


def is_independent(G, vertices):
    chosen = set(vertices)
    return not any(all(v in chosen for v in e) for e in G.edges)


# ----------------------------------------------------- certificate checks


def check_coloring(G, coloring_, palette):
    expect(isinstance(coloring_, core.Coloring), f"no coloring: {coloring_!r}")
    expect(coloring_.palette == palette,
           f"palette {coloring_.palette}, expected {palette}")
    expect(core.is_proper(G, coloring_)[0], "coloring is not proper")


def check_ex_record(rec, n, H, value):
    expect(rec.status == "exact", f"status {rec.status}")
    expect(rec.value == value, f"ex = {rec.value}, expected {value}")
    W = rec.witness
    expect(W.n == n and len(W.edges) == value, "witness has the wrong size")
    expect(is_free(W, H), "witness contains H")


def check_ramsey_record(rec, H, t, value):
    expect(rec.status == "exact", f"status {rec.status}")
    expect(rec.value == value, f"R = {rec.value}, expected {value}")
    W = rec.witness
    expect(W.n == value - 1, "critical witness has the wrong order")
    expect(is_free(W, H), "witness contains H")
    expect(exact.independence_number(W) <= t - 1,
           "witness has an independent t-set")


def kernel_agreement(G, k, native):
    """Pure and native kernels give identical results on G (k-coloring at k
    and maximum independent set); a note when the native kernel is absent."""
    if native is None:
        return "native: not built"
    order = list(range(G.n))
    edges = list(G.edges)
    for fn in ("kcolor_search", "mis_search"):
        args = ((G.n, edges, k, order, 0, 0.0) if fn == "kcolor_search"
                else (G.n, edges, 0, 0.0))
        want = getattr(_kernels.pure, fn)(*args)
        got = getattr(native, fn)(*args)
        expect(want == got, f"{fn}: pure {want!r} != native {got!r}")
    return "native agrees"


# ---------------------------------------------------------- extremal_search


def extremal_setup(seed, ctx):
    named = constructions.named
    return {
        "k4": relabel(named("k4"), constructions.mix_seed(seed, 1)),
        "lp": relabel(named("linear_pair"), constructions.mix_seed(seed, 2)),
        "p2": relabel(constructions.loose_path(2), constructions.mix_seed(seed, 3)),
        "fano_key": core.canonical_form(named("fano")),
    }


def extremal_warm(inputs, ctx):
    extremal.turan_ex(5, inputs["lp"])


def extremal_tasks(inputs, ctx):
    k4, lp, p2 = inputs["k4"], inputs["lp"], inputs["p2"]

    def ex_task(n, H, label, value, fano=False):
        def check(rec):
            check_ex_record(rec, n, H, value)
            if fano:
                expect(core.canonical_form(rec.witness) == inputs["fano_key"],
                       "extremal witness is not the Fano plane")
            return f"ex({n},{label})={rec.value}"
        return Task(f"ex({n},{label})", lambda: extremal.turan_ex(n, H), check)

    def ramsey_task(H, label, t, value):
        def check(rec):
            check_ramsey_record(rec, H, t, value)
            return f"R({label},{t})={rec.value}"
        return Task(f"R({label},{t})", lambda: extremal.ramsey(H, t, 8), check)

    return [
        ex_task(5, k4, "K4", 7),
        ex_task(6, lp, "LP", 4),
        ex_task(7, lp, "LP", 7, fano=True),
        ramsey_task(lp, "LP", 4, 5),
        ramsey_task(p2, "P2", 4, 6),
    ]


# ------------------------------------------------------------- sparse_color

SPARSE_N, SPARSE_M = 10_000, 100_000
LLL_RUNS = 3  # lll_color cost depends on its seed; several seeds steady a pass


def least_lll_palette(G):
    # lll_check needs r*r >= 3e * max degree > 8 * max degree
    r = max(1, isqrt(8 * G.max_degree()))
    while not coloring.lll_check(G, r).ok:
        r += 1
    return r


def sparse_setup(seed, ctx, n=SPARSE_N, m=SPARSE_M):
    G = random_graph(n, m, seed)
    return {"seed": seed, "graph": G, "order": degree_order(G),
            "r": least_lll_palette(G),
            "lll_seeds": [constructions.mix_seed(seed, i) for i in range(LLL_RUNS)]}


def sparse_warm(inputs, ctx):
    small = sparse_setup(constructions.mix_seed(inputs["seed"], 7), ctx,
                         n=1000, m=5000)
    for task in sparse_tasks(small, ctx):
        task.check(task.run())


def sparse_tasks(inputs, ctx):
    G0, order, r = inputs["graph"], inputs["order"], inputs["r"]
    state = {}

    def step(key, fn):
        def run():
            state[key] = fn()
            return state[key]
        return run

    def check_text(text):
        expect(text.startswith(f"p h 3 {G0.n} {len(G0.edges)}\n"), "bad header")
        return f"{len(text)} bytes"

    def check_parsed(G):
        expect(G.edges == G0.edges and G.n == G0.n, "round trip changed the graph")
        return f"m={len(G.edges)}"

    def check_lll(result):
        expect(isinstance(result, core.Coloring), f"lll_color failed: {result!r}")
        expect(result.palette == r, "wrong palette")
        return f"lll r={r}"

    def check_proper(flag_witness):
        expect(flag_witness[0], f"monochromatic edge {flag_witness[1]}")
        return "proper"

    def check_greedy(trace):
        expect(isinstance(trace, coloring.GreedyTrace), f"greedy failed: {trace!r}")
        check_coloring(state["parsed"], trace.coloring, trace.coloring.palette)
        return f"greedy {trace.coloring.palette} colors"

    def check_chain(chain):
        expect(len(chain) == state["greedy"].coloring.palette - 1,
               "chain length is not colors - 1")
        return f"chain {len(chain)}"

    def check_ordered(flag):
        expect(flag is True, "chain fails is_ordered_chain")
        return "ordered chain"

    tasks = [
        Task("serialize", step("text", lambda: fileio.serialize_hypergraph(G0)),
             check_text),
        Task("parse", step("parsed",
                           lambda: fileio.parse_hypergraph(state["text"])),
             check_parsed),
    ]
    for i, s in enumerate(inputs["lll_seeds"]):
        key = f"lll{i}"
        tasks.append(Task(f"lll_color[{i}]", step(
            key, lambda s=s: coloring.lll_color(state["parsed"], r, s)), check_lll))
        tasks.append(Task(f"is_proper[{i}]", lambda key=key: core.is_proper(
            state["parsed"], state[key]), check_proper))
    tasks += [
        Task("greedy_pluhar", step(
            "greedy", lambda: coloring.greedy_pluhar(state["parsed"], order)),
            check_greedy),
        Task("extract_chain", step("chain", lambda: coloring.extract_chain(
            state["parsed"], order, state["greedy"])), check_chain),
        Task("is_ordered_chain", lambda: core.is_ordered_chain(
            state["parsed"], state["chain"], order), check_ordered),
    ]
    return tasks


# ------------------------------------------------------------ exact_oracles

# Random instances (sample_triples with these seeds) and their answers,
# recorded when the benchmark was written.
RANDOM_CHI = ((22, 440, 1, 4), (22, 440, 2, 4))       # (n, m, seed, chi)
RANDOM_ALPHA = ((30, 120, 1, 16),)                    # (n, m, seed, alpha)


def exact_setup(seed, ctx):
    # No instance is relabelled: the kernels search in an order that breaks
    # ties by vertex index, so a relabelled copy can cost many times more or
    # less than another.  The seed shuffles the task order instead.
    chi = [("K11", constructions.complete(11), 6),
           ("part(5,4)", constructions.partition_example(5, 4), 5),
           ("fano", constructions.named("fano"), 3),
           ("gq(2)", constructions.gq(2), 2)]
    chi += [(f"rand{n}/{m}#{s}", random_graph(n, m, s), value)
            for n, m, s, value in RANDOM_CHI]
    alpha = [("part(5,4)", chi[1][1], 3)]
    alpha += [(f"rand{n}/{m}#{s}", random_graph(n, m, s), value)
              for n, m, s, value in RANDOM_ALPHA]
    return {"chi": chi, "alpha": alpha, "k13": constructions.complete(13),
            "order_seed": seed}


def exact_warm(inputs, ctx):
    exact.chromatic_number(constructions.named("fano"))
    exact.max_independent_set(constructions.partition_example(3, 4))


def exact_tasks(inputs, ctx):
    native = _kernels._native

    def chi_task(label, G, value):
        def run():
            # the certified answer: chi plus a proper chi-coloring
            chi = exact.chromatic_number(G)
            return chi, exact.k_colorable(G, chi)

        def check(result):
            chi, witness = result
            expect(chi == value, f"chi = {chi!r}, expected {value}")
            check_coloring(G, witness, value)
            return f"chi({label})={chi} {kernel_agreement(G, chi, native)}"
        return Task(f"chi({label})", run, check)

    def alpha_task(label, G, value):
        def check(best):
            expect(best is not exact.EXHAUSTED, "search exhausted")
            expect(len(best) == value, f"alpha = {len(best)}, expected {value}")
            expect(is_independent(G, best), "set is not independent")
            return f"alpha({label})={len(best)}"
        return Task(f"alpha({label})", lambda: exact.max_independent_set(G), check)

    def k13_check(result):
        expect(result is None, f"K13 is not 6-colorable, got {result!r}")
        return f"kcolor(K13,6)=none {kernel_agreement(inputs['k13'], 6, native)}"

    tasks = [chi_task(*spec) for spec in inputs["chi"]]
    tasks.append(Task("kcolor(K13,6)",
                      lambda: exact.k_colorable(inputs["k13"], 6), k13_check))
    tasks += [alpha_task(*spec) for spec in inputs["alpha"]]
    random.Random(inputs["order_seed"]).shuffle(tasks)
    return tasks


# ------------------------------------------------------------ cli_roundtrip


@dataclass
class CliRun:
    code: int
    out: str
    maxrss_kb: int


class Context:
    """Where the benchmark runs: the checkout root, a scratch directory for
    CLI inputs and outputs, and whether CLI runs go through the tracing
    launcher.  Collects what the CLI children report."""

    def __init__(self, root, workdir):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.traced = False
        self.child_spans = []   # [((pass, task name), spans)] of traced runs
        self.child_peak_kb = 0  # largest ru_maxrss of an untraced CLI run
        self.task = None
        self.env = dict(os.environ)
        self.env.pop("HYPERCHROME_CACHE", None)
        self.env.pop("HYPERCHROME_SEED", None)
        src = str(self.root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def spawn(self, argv):
        """Run one child to completion; its output goes through a file."""
        out_path = self.workdir / "child.out"
        with open(out_path, "w+b") as out:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            usage = reap(proc, CHILD_TIMEOUT_S)
            out.seek(0)
            return CliRun(proc.returncode, out.read().decode(), usage.ru_maxrss)

    def cli(self, *args):
        """One `python -m hyperchrome.cli` run, through the launcher if traced."""
        if not self.traced:
            run = self.spawn([sys.executable, "-m", "hyperchrome.cli", *args])
            self.child_peak_kb = max(self.child_peak_kb, run.maxrss_kb)
            return run
        spans_path = self.workdir / "child.spans"
        launcher = Path(__file__).with_name("launcher.py")
        run = self.spawn([sys.executable, str(launcher), str(spans_path), *args])
        with open(spans_path, encoding="utf-8") as fh:
            self.child_spans.append((self.task, json.load(fh)["spans"]))
        return run


def reap(proc, timeout):
    """Wait for proc and return its resource usage; kill it after timeout s."""
    def expire(_signum, _frame):
        raise TimeoutError(f"child ran longer than {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


CLI_RANDOM = (2000, 10_000)  # n, m of the graph the CLI colors and scans


def cli_setup(seed, ctx):
    files = {
        "lp": relabel(constructions.named("linear_pair"), constructions.mix_seed(seed, 1)),
        "p2": relabel(constructions.loose_path(2), constructions.mix_seed(seed, 2)),
        "part": relabel(constructions.partition_example(4, 4),
                        constructions.mix_seed(seed, 3)),
        "rand": random_graph(*CLI_RANDOM, seed),
    }
    inputs = {"seed": seed, "graphs": files, "cache": ctx.workdir / "ex-cache.txt"}
    for key, G in files.items():
        path = ctx.workdir / f"{key}.hg"
        path.write_text(fileio.serialize_hypergraph(G), encoding="utf-8")
        inputs[key] = str(path)
    return inputs


def cli_warm(inputs, ctx):
    ctx.cli("gen", "fano")


def cli_report(run, code=0):
    expect(run.code == code, f"exit code {run.code}, expected {code}: {run.out[-300:]}")
    try:
        return json.loads(run.out)
    except ValueError:
        raise CheckFailed(f"report is not JSON: {run.out[:300]!r}") from None


def cli_tasks(inputs, ctx):
    seed, graphs, cache = inputs["seed"], inputs["graphs"], inputs["cache"]
    rand, part = graphs["rand"], graphs["part"]
    n, m = 30, 60

    def check_gen(run):
        expect(run.code == 0, f"exit code {run.code}")
        G = fileio.parse_hypergraph(run.out)
        expect((G.n, len(G.edges)) == (n, m), "generated graph has the wrong size")
        expect(run.out == fileio.serialize_hypergraph(
            constructions.random_3graph(n, m, seed)), "gen differs from the library")
        return f"gen {len(run.out)} bytes"

    def check_chi(run):
        rep = cli_report(run)
        expect(rep["result"] == {"chi": 4}, f"chi report {rep['result']}")
        cert = rep["certificate"]
        check_coloring(part, core.Coloring(tuple(cert["colors"]), cert["palette"]), 4)
        return "chi=4"

    def check_alpha(run):
        rep = cli_report(run)
        expect(rep["result"] == {"alpha": 3}, f"alpha report {rep['result']}")
        verts = [v - 1 for v in rep["certificate"]["vertices"]]
        expect(len(verts) == 3 and is_independent(part, verts), "bad independent set")
        return "alpha=3"

    def check_color(run):
        cert = cli_report(run)["certificate"]
        check_coloring(rand, core.Coloring(tuple(cert["colors"]), cert["palette"]),
                       cert["palette"])
        return f"greedy {cert['palette']} colors"

    def check_contains(run):
        rep = cli_report(run)
        expect(rep["result"] == {"contains": True}, f"contains report {rep['result']}")
        H = graphs["p2"]
        vmap = {int(h) - 1: g - 1 for h, g in rep["certificate"]["vertex_map"].items()}
        emb = Embedding(tuple(sorted(vmap.items())), tuple(
            (e, tuple(sorted(vmap[v] for v in e))) for e in H.edges))
        expect(embedding_ok(rand, H, emb), "embedding does not revalidate")
        return "contains P2"

    def check_chain(run):
        rep = cli_report(run)
        cert = rep["certificate"]
        order = core.VertexOrder(tuple(v - 1 for v in cert["order"]))
        chain = [[v - 1 for v in e] for e in cert["edges"]]
        expect(len(chain) == rep["result"]["greedy_colors"] - 1,
               "chain length is not colors - 1")
        expect(core.is_ordered_chain(rand, chain, order), "chain does not revalidate")
        return f"chain {len(chain)}"

    def check_ex(run):
        rep = cli_report(run)
        expect(rep["status"] == "exact" and rep["result"] == {"ex": 4},
               f"ex report {rep['status']} {rep['result']}")
        W = decode_graph(rep["certificate"]["witness"])
        expect(W.n == 6 and len(W.edges) == 4 and is_free(W, graphs["lp"]),
               "ex witness does not revalidate")
        return "ex(6,LP)=4"

    def ex_cold():
        cache.unlink(missing_ok=True)
        return ctx.cli("ex", "--h", inputs["lp"], "--n", "6", "--cache", str(cache))

    return [
        Task("gen", lambda: ctx.cli("gen", "random", "--n", str(n), "--m", str(m),
                                    "--seed", str(seed)), check_gen),
        Task("chi", lambda: ctx.cli("chi", "--in", inputs["part"]), check_chi),
        Task("alpha", lambda: ctx.cli("alpha", "--in", inputs["part"]), check_alpha),
        Task("color", lambda: ctx.cli("color", "--algo", "greedy", "--order", "degree",
                                      "--in", inputs["rand"]), check_color),
        Task("contains", lambda: ctx.cli("contains", "--in", inputs["rand"],
                                         "--h", inputs["p2"]), check_contains),
        Task("chain", lambda: ctx.cli("chain", "--order", "degree",
                                      "--in", inputs["rand"]), check_chain),
        Task("ex_cold", ex_cold, check_ex),
        Task("ex_warm", lambda: ctx.cli("ex", "--h", inputs["lp"], "--n", "6",
                                        "--cache", str(cache)), check_ex),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("extremal_search", extremal_setup, extremal_warm, extremal_tasks),
    Workload("sparse_color", sparse_setup, sparse_warm, sparse_tasks),
    Workload("exact_oracles", exact_setup, exact_warm, exact_tasks),
    Workload("cli_roundtrip", cli_setup, cli_warm, cli_tasks),
)}
