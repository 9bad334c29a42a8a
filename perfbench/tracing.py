"""Span tracing at the package's module boundaries, installed from outside.

Nothing inside ``src/`` knows about tracing.  A :class:`Tracer` replaces the
names in :data:`BOUNDARIES` (a function one module calls in another, looked up
at call time) with wrappers that record a span per call, and puts the
originals back on :meth:`Tracer.uninstall`.  Spans stay in memory until the
run writes them out.

A span is ``(id, name, start, end, parent, task, note)``: ``parent`` is the id
of the enclosing span or None, ``task`` the workload task being run, and
``note`` a small value taken from the call (a backend name, a byte count, a
hit flag, a canonical key) from which the per-layer counts and ratios are
computed.
"""

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _backend(n, *_args, **_kwargs):
    from hyperchrome import _kernels
    return _kernels.backend_name(n)


def _args_note(fn):
    """Note taken from the call arguments only."""
    return lambda args, kwargs, result: fn(*args, **kwargs)


def _result_note(fn):
    """Note taken from the return value only."""
    return lambda args, kwargs, result: fn(result)


# (owner, attribute, span name, note).  The owner is the module (or class)
# whose name is looked up at call time, so wrapping it there catches every
# call that goes through that name.  One function imported by name into
# several modules appears once per importing module.
BOUNDARIES = (
    ("hyperchrome._kernels", "kcolor_search", "kernels.kcolor_search",
     _args_note(_backend)),
    ("hyperchrome._kernels", "mis_search", "kernels.mis_search",
     _args_note(_backend)),
    ("hyperchrome.extremal", "canonical_form", "core.canonical_form",
     _result_note(bytes.decode)),
    ("hyperchrome.fileio", "new_hypergraph", "core.new_hypergraph", None),
    ("hyperchrome.cache", "new_hypergraph", "core.new_hypergraph", None),
    ("hyperchrome.core", "is_proper", "core.is_proper", None),
    ("hyperchrome.cli", "is_proper", "core.is_proper", None),
    ("hyperchrome.containment", "contains", "containment.contains",
     _result_note(lambda emb: emb is not None)),
    ("hyperchrome.extremal", "contains", "containment.contains",
     _result_note(lambda emb: emb is not None)),
    ("hyperchrome.cli", "contains", "containment.contains",
     _result_note(lambda emb: emb is not None)),
    ("hyperchrome.extremal", "turan_ex", "extremal.turan_ex", None),
    ("hyperchrome.extremal", "ramsey", "extremal.ramsey", None),
    ("hyperchrome.exact", "chromatic_number", "exact.chromatic_number", None),
    ("hyperchrome.exact", "k_colorable", "exact.k_colorable", None),
    ("hyperchrome.exact", "independence_number", "exact.independence_number",
     None),
    ("hyperchrome.exact", "max_independent_set", "exact.max_independent_set",
     None),
    ("hyperchrome.coloring", "lll_color", "coloring.lll_color", None),
    ("hyperchrome.coloring", "greedy_pluhar", "coloring.greedy_pluhar", None),
    ("hyperchrome.coloring", "extract_chain", "coloring.extract_chain", None),
    ("hyperchrome.fileio", "parse_hypergraph", "fileio.parse_hypergraph",
     _args_note(lambda text: len(text))),
    ("hyperchrome.cli", "parse_hypergraph", "fileio.parse_hypergraph",
     _args_note(lambda text: len(text))),
    ("hyperchrome.fileio", "serialize_hypergraph",
     "fileio.serialize_hypergraph", _result_note(len)),
    ("hyperchrome.cli", "serialize_hypergraph", "fileio.serialize_hypergraph",
     _result_note(len)),
    ("hyperchrome.cache", "ResultCache.get", "cache.get",
     _result_note(lambda rec: rec is not None)),
    ("hyperchrome.cache", "ResultCache.put", "cache.put", None),
    ("hyperchrome.cli", "ResultCache", "cache.load", None),
)


class Tracer:
    """Records spans around wrapped calls; one per process, single-threaded."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.task = None
        self.enabled = True
        self._stack = []
        self._next_id = 0
        self._installed = []

    def install(self, boundaries=BOUNDARIES):
        """Wrap every boundary that exists; list the missing ones in absent."""
        for module_name, attr, name, note in boundaries:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, original, note))
            self._installed.append((owner, leaf, original))

    def uninstall(self):
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, note=note, **kwargs)
        return traced

    def call(self, name, fn, *args, note=None, **kwargs):
        """Run fn inside a span called name."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        value = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                value = note(args, kwargs, result)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.task,
                               value))


def self_times(spans):
    """Map span id -> its duration minus the durations of its child spans.

    Spans come from one single-threaded process, so children of one parent
    never overlap and lie inside it.
    """
    child_time = defaultdict(float)
    for _sid, _name, start, end, parent, _task, _note in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid]
            for sid, _name, start, end, _parent, _task, _note in spans}


def layer_metrics(spans):
    """Per-layer counts, self times and ratios from the spans of one pass.

    Names absent from spans read 0: the layer did no work in this pass.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    notes = defaultdict(list)
    keys_by_task = defaultdict(set)
    for sid, name, start, end, _parent, task, note in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        total_s[name] += end - start
        notes[name].append(note)
        if name == "core.canonical_form":
            keys_by_task[task].add(note)

    def ratio(num, den):
        return num / den if den else 0.0

    kernel_backends = notes["kernels.kcolor_search"] + notes["kernels.mis_search"]
    out = {
        "kernels.native_share": ratio(kernel_backends.count("native"),
                                      len(kernel_backends)),
        "containment.contains.found_ratio": ratio(
            sum(1 for found in notes["containment.contains"] if found),
            calls["containment.contains"]),
        "extremal.dedup_ratio": ratio(
            sum(len(keys) for keys in keys_by_task.values()),
            calls["core.canonical_form"]),
        "fileio.bytes": sum(filter(None, notes["fileio.parse_hypergraph"]
                                   + notes["fileio.serialize_hypergraph"])),
        "cache.get.hits": sum(1 for hit in notes["cache.get"] if hit),
        "cache.get.misses": sum(1 for hit in notes["cache.get"] if not hit),
        "cache.load_s": total_s["cache.load"],
    }
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    return out
