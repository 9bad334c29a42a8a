"""hyperchrome benchmark: seeded workloads, checked answers, per-layer trace.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; nothing is built or installed, the
package is imported from ``src``.  One run sets up the workload, then runs
passes of its fixed task list, one task at a time in this process (CLI tasks
as one subprocess at a time), until ``--seconds`` have passed and at least
MIN_PASSES passes are done.  Every answer is checked against its expected
value and its certificate is revalidated, untimed.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` passes alternate untraced and traced, and it
carries the per-layer metrics instead.  Lines before it give the run record
and every metric by name and unit.  ``--workload all`` runs every workload,
each in a fresh process.  Spans and the run record are written to
``.perfbench_out/``.  Page caches and CPU frequency are not controlled.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("extremal_search", "sparse_color", "exact_oracles",
                  "cli_roundtrip")
MIN_PASSES = 3       # per kind of pass, so medians and p90 rest on enough
SETUP_SAMPLES = 5    # this process plus fresh setup-only children
PROBE_SAMPLES = 7    # bare-interpreter and import probes, each
NOT_CONTROLLED = "page caches and CPU frequency are not controlled"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("invocation_ms_p50", "ms"),
    ("invocation_ms_p90", "ms"),
)

PER_LAYER = (
    ("kernels.kcolor_search.calls", "count"),
    ("kernels.kcolor_search.self_s", "s"),
    ("kernels.mis_search.calls", "count"),
    ("kernels.mis_search.self_s", "s"),
    ("kernels.native_share", "ratio"),
    ("core.canonical_form.calls", "count"),
    ("core.canonical_form.self_s", "s"),
    ("core.new_hypergraph.self_s", "s"),
    ("core.is_proper.self_s", "s"),
    ("containment.contains.calls", "count"),
    ("containment.contains.self_s", "s"),
    ("containment.contains.found_ratio", "ratio"),
    ("extremal.turan_ex.self_s", "s"),
    ("extremal.ramsey.self_s", "s"),
    ("extremal.dedup_ratio", "ratio"),
    ("exact.chromatic_number.self_s", "s"),
    ("exact.k_colorable.self_s", "s"),
    ("exact.independence_number.self_s", "s"),
    ("exact.max_independent_set.self_s", "s"),
    ("coloring.lll_color.self_s", "s"),
    ("coloring.greedy_pluhar.self_s", "s"),
    ("coloring.extract_chain.self_s", "s"),
    ("fileio.parse_hypergraph.self_s", "s"),
    ("fileio.serialize_hypergraph.self_s", "s"),
    ("fileio.bytes", "bytes"),
    ("cache.get.hits", "count"),
    ("cache.get.misses", "count"),
    ("cache.put.calls", "count"),
    ("cache.put.self_s", "s"),
    ("cache.load_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.import_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.ex_cold_ms", "ms"),
    ("cli.ex_warm_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.absent_boundaries", "count"),
)


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(passes):
    """p50 and p90 in ms of task latency, with the number of invocations.

    passes is a list of {task name: seconds}.  Each task stands in for its
    invocations with its median across passes, and the percentiles are taken
    over those per-task medians.  Pooling all samples instead would let the
    percentile rank move between tasks of very different cost as the pass
    count changes from run to run.
    """
    per_task = {}
    for times in passes:
        for name, t in times.items():
            per_task.setdefault(name, []).append(t * 1000.0)
    medians = [statistics.median(ts) for ts in per_task.values()]
    return {"p50": percentile(medians, 50), "p90": percentile(medians, 90),
            "n": sum(len(ts) for ts in per_task.values())}


def run_record(workload, seed, trace):
    from hyperchrome import _kernels
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "backend": _kernels.backend_name(),
        "native": "built" if _kernels._native is not None else "not built",
        "HYPERCHROME_PURE": os.environ.get("HYPERCHROME_PURE", ""),
        "note": NOT_CONTROLLED,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


class Runner:
    """One workload in this process: its inputs, passes, and what they measured."""

    def __init__(self, workload, seed, ctx, tracer=None):
        self.workload = workload
        self.ctx = ctx
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.summaries = None
        t0 = perf_counter()
        self.inputs = workload.setup(seed, ctx)
        workload.warm(self.inputs, ctx)
        self.setup_s = perf_counter() - t0

    def run_pass(self, index, traced=False):
        """Run the task list once; return {task name: seconds}."""
        from workloads import CheckFailed
        times = {}
        summaries = []
        self.ctx.traced = traced
        for task in self.workload.tasks(self.inputs, self.ctx):
            self.attempted += 1
            self.ctx.task = (index, task.name)
            if self.tracer:
                self.tracer.task = (index, task.name)
                self.tracer.enabled = traced
            t0 = perf_counter()
            try:
                result = task.run()
            except Exception as exc:  # a task that raises fails; the run goes on
                times[task.name] = perf_counter() - t0
                self.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
                continue
            times[task.name] = perf_counter() - t0
            if self.tracer:
                self.tracer.enabled = False
            try:
                summaries.append(f"{task.name} {task.check(result)}")
            except CheckFailed as exc:
                self.failures.append(f"{task.name}: {exc}")
            except Exception as exc:
                self.failures.append(f"{task.name}: check raised "
                                     f"{type(exc).__name__}: {exc}")
        if self.tracer:
            self.tracer.enabled = False
        if self.summaries is None:
            self.summaries = summaries
        return times

    def digest(self):
        text = "\n".join(self.summaries or [])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def passes_until(deadline, kinds, run_pass):
    """Run passes cycling through kinds until the deadline has passed and each
    kind has run MIN_PASSES times; return {kind: [pass times]}."""
    out = {kind: [] for kind in kinds}
    index = 0
    while (perf_counter() < deadline
           or min(len(v) for v in out.values()) < MIN_PASSES):
        kind = kinds[index % len(kinds)]
        out[kind].append(run_pass(index, kind))
        index += 1
    return out


def setup_probes(args, count):
    """Setup time of `count` fresh processes that only set the workload up."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def interpreter_probes(ctx):
    """Median ms of a bare interpreter and of one importing hyperchrome.cli."""
    bare, full = [], []
    for _ in range(PROBE_SAMPLES):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import hyperchrome.cli"], full)):
            t0 = perf_counter()
            run = ctx.spawn(argv)
            into.append((perf_counter() - t0) * 1000.0)
            if run.code != 0:
                raise RuntimeError(f"probe {argv} failed: {run.out}")
    return statistics.median(bare), statistics.median(full)


def end_to_end(runner, passes, setup_samples):
    walls = [sum(times.values()) for times in passes]
    lat = latency_summary(passes)
    if runner.workload.name == "cli_roundtrip":
        peak_kb = runner.ctx.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_kb / 1024.0,
        "invocation_ms_p50": lat["p50"],
        "invocation_ms_p90": lat["p90"],
    }
    notes = {"wall_s": f"median of {len(walls)} passes: "
                       + " ".join(f"{w:.3f}" for w in walls),
             "setup_s": f"median of {len(setup_samples)} set-ups",
             "invocation_ms_p50": f"{lat['n']} invocations",
             "invocation_ms_p90": f"{lat['n']} invocations"}
    return values, notes


def merged_spans(tracer, ctx):
    """All spans of the run with ids unique across this process and the CLI
    children, tagged with their (pass, task)."""
    spans = list(tracer.spans)
    offset = max((s[0] for s in spans), default=-1) + 1
    for task, child in ctx.child_spans:
        for sid, name, start, end, parent, _task, note in child:
            spans.append((sid + offset, name, start, end,
                          None if parent is None else parent + offset,
                          tuple(task), note))
        offset += len(child)
    return spans


def per_layer(runner, kinds, tracer, ctx):
    from tracing import layer_metrics
    spans = merged_spans(tracer, ctx)
    by_pass = {}
    for span in spans:
        by_pass.setdefault(span[5][0], []).append(span)
    samples = {}
    for index in range(len(kinds["traced"])):
        # passes alternate plain, traced: the traced ones have odd indices
        pass_spans = by_pass.get(2 * index + 1, [])
        for name, value in layer_metrics(pass_spans).items():
            samples.setdefault(name, []).append(value)
    values = {name: 0.0 for name, _unit in PER_LAYER}
    for name in values:
        if name in samples:
            values[name] = statistics.median(samples[name])
    untraced_wall = statistics.median(sum(t.values()) for t in kinds["plain"])
    traced_wall = statistics.median(sum(t.values()) for t in kinds["traced"])
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["trace.absent_boundaries"] = len(tracer.absent)
    if runner.workload.name == "cli_roundtrip":
        bare, full = interpreter_probes(ctx)
        values["cli.interpreter_ms"] = bare
        values["cli.import_ms"] = full - bare
        values["cli.ex_cold_ms"] = 1000 * statistics.median(
            t["ex_cold"] for t in kinds["plain"])
        values["cli.ex_warm_ms"] = 1000 * statistics.median(
            t["ex_warm"] for t in kinds["plain"])
    return values, spans


def run_workload(args):
    # import of the package and the benchmark's modules counts as set-up
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    import_s = perf_counter() - t0

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(ROOT, workdir)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(workloads.WORKLOADS[args.workload], args.seed, ctx, tracer)
        setup_s = import_s + runner.setup_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = run_record(args.workload, args.seed, args.trace)
        for key, value in record.items():
            print(f"# {key}: {value}")

        if args.trace:
            setup_samples = []
            tracer.install()
            kinds = ("plain", "traced")
        else:
            setup_samples = [setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
            kinds = ("plain",)
        deadline = perf_counter() + args.seconds
        by_kind = passes_until(
            deadline, kinds,
            lambda i, kind: runner.run_pass(i, traced=(kind == "traced")))
        if tracer:
            tracer.uninstall()
            metrics, spans = per_layer(runner, by_kind, tracer, ctx)
            units = PER_LAYER
            notes = {}
            for name in tracer.absent:
                print(f"# boundary absent: {name}")
        else:
            metrics, notes = end_to_end(runner, by_kind["plain"], setup_samples)
            units = END_TO_END
            spans = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"# FAILED {failure}")
    print(f"# fail_ratio: {failed}/{runner.attempted} tasks = "
          f"{failed / runner.attempted:.4f}")
    print(f"# result_digest: {runner.digest()} (information only)")
    for name, unit in units:
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{extra}")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "notes": notes,
                   "failures": runner.failures, "digest": runner.digest()},
                  fh, indent=2, default=str)
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "task", "note"),
                    span))) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own fresh process; their outputs, then one JSON
    line with every workload's metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        print(f"== {name}")
        print(done.stdout, end="")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyperchrome" / "__init__.py").is_file():
        print(f"error: no hyperchrome sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
