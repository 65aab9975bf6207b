"""In-process span tracing of bsfan, installed from the benchmark's side.

Tracer.install() replaces every public function of the layer modules, and
the from_obj / to_obj methods of their classes, by a wrapper that records a
span: name, start, end, parent span and job id.  A function is patched under
every name a bsfan module binds it to (bsfan.cone_s.pure_diagram as well as
bsfan.diagrams.pure_diagram), because callers look names up in their own
module.  Nothing under src/ is edited; remove() restores the originals.
Spans stay in memory until the run writes them out.

Private helpers and the methods of BettiTable are not wrapped, so their
time counts as self time of the public function that called them.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time

LAYERS = ("cli", "tables", "sequences", "diagrams", "pairing", "cone_a",
          "cone_s", "multigraded")

# Functions whose per-call cost is fitted against their input size.
SIZED = ("cone_s.decompose_s", "cone_a.membership_a", "cone_a.decompose_a",
         "pairing.pair", "multigraded.multi_pair")
# Calls on smaller inputs are dominated by fixed per-call cost and are left
# out of the slope fit.
SLOPE_MIN_ENTRIES = 16

NAME, START, END, PARENT, JOB, ARG = range(6)


def _linear_combine_probe(args, kwargs):
    terms = list(args[0])
    return (terms,), kwargs, sum(len(t) for _, t in terms)


def _pure_diagram_probe(args, kwargs):
    d = args[0]
    return args, kwargs, (d.start, d.degrees)


def _size_probe(args, kwargs):
    return args, kwargs, len(args[0])


PROBES = {"tables.linear_combine": _linear_combine_probe,
          "diagrams.pure_diagram": _pure_diagram_probe}
PROBES.update((name, _size_probe) for name in SIZED)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            arg = None
            if probe is not None:
                args, kwargs, arg = probe(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, arg]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"bsfan.{layer}")
                   for layer in LAYERS}
        everywhere = list(modules.values()) + [importlib.import_module("bsfan")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for target in everywhere:
                        for bound, value in list(vars(target).items()):
                            if value is obj:
                                self._set(target, bound, obj, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth in ("from_obj", "to_obj"):
                        raw = vars(obj).get(meth)
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(self._wrap(
                                f"{layer}.{attr}.{meth}", raw.__func__))
                        elif inspect.isfunction(raw):
                            wrapped = self._wrap(f"{layer}.{attr}.{meth}", raw)
                        else:
                            continue
                        self._set(obj, meth, raw, wrapped)

    def _set(self, target, attr, old, new):
        self._undo.append((target, attr, old))
        setattr(target, attr, new)

    def remove(self):
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)


def self_times(spans):
    """Per-span self time: duration minus the duration of its children
    (children never overlap in this single-threaded program)."""
    selfs = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            selfs[s[PARENT]] -= s[END] - s[START]
    return selfs


def slope(points):
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(spans):
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    calls, self_s, by_parent = {}, {}, {}
    for s, own in zip(spans, selfs):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + own
        if s[PARENT] >= 0:
            key = (spans[s[PARENT]][NAME], s[NAME])
            by_parent.setdefault(key, []).append(s)

    steps = len(by_parent.get(("cone_s.decompose_s", "diagrams.pure_diagram"),
                              []))
    step_reads = sum(s[ARG] for s in by_parent.get(
        ("cone_s.decompose_s", "tables.linear_combine"), []))
    scans = [s for s in spans if s[NAME] == "cone_a.membership_a"]
    scanned = sum(s[ARG] for s in scans)
    scan_chi = len(by_parent.get(("cone_a.membership_a", "cone_a.chi"), []))
    diagrams = [s[ARG] for s in spans if s[NAME] == "diagrams.pure_diagram"]

    out = {
        "cone_s.decompose_s.steps": (steps, "count"),
        "tables.linear_combine.entries_in": (sum(
            s[ARG] for s in spans if s[NAME] == "tables.linear_combine"),
            "count"),
        "cone_s.entries_in_per_step": (step_reads / steps if steps else 0.0,
                                       "entries/step"),
        "diagrams.pure_diagram.distinct_ratio": (
            len(set(diagrams)) / len(diagrams) if diagrams else 0.0, "ratio"),
        "cone_a.chi_calls_per_entry": (scan_chi / scanned if scanned else 0.0,
                                       "calls/entry"),
    }
    for name in ("diagrams.pure_diagram", "sequences.is_compatible",
                 "cone_a.chi", "cone_a.euler", "diagrams.supernatural_gamma",
                 "multigraded.kunneth_gamma"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("cone_s.decompose_s", "tables.linear_combine",
                 "cone_s.monad_split", "cone_s.infinite_prefix", "cone_a.chi",
                 "cone_a.membership_a", "cone_a.decompose_a", "pairing.pair",
                 "pairing.es_functional", "multigraded.kunneth_gamma",
                 "multigraded.multi_pair", "multigraded.multi_chi", "cli.main",
                 "tables.table_from_obj", "tables.table_to_obj",
                 "multigraded.MultiBettiTable.from_obj"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    for name in SIZED:
        points = [(s[ARG], s[END] - s[START]) for s in spans
                  if s[NAME] == name and s[ARG] >= SLOPE_MIN_ENTRIES]
        out[f"{name}.slope"] = (slope(points), "1")
    return out
