"""Span recorder that measures occutime's layers from outside the program.

``Recorder.install`` replaces the public functions of each module under
``src/occutime`` at the names their callers bind (``occutime.experiments.
simulate_paths``, ``occutime.cli.sobolev_seminorm``, ...) with wrappers that
record a span: layer, name, start, end, parent span and thread. Stacks are
per thread, so spans made in a study's worker threads have no parent there.
Test functions returned by ``parse_function`` and ``complex_exponential``
are wrapped too, so every ``value``/``gradient`` call is a span whichever
module makes it. Spans stay in memory and are written out at the end.

Per-layer metrics come from the 1-thread pass and are per round, except
``experiments.worker_busy_frac``, which needs the 2-thread pass.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute the callers bind, layer)
SPAN_TARGETS = (
    ("occutime.cli", "main", "cli"),
    ("occutime.cli", "_write_artifacts", "cli.write"),
    ("occutime.cli", "dump_paths_csv", "cli.write"),
    ("occutime.cli", "load_config", "config"),
    ("occutime.cli", "build_study", "config"),
    ("occutime.cli", "build_process", "config"),
    ("occutime.cli", "build_function", "config"),
    ("occutime.cli", "run_study", "experiments"),
    ("occutime.cli", "simulate_paths", "processes.simulate"),
    ("occutime.experiments", "simulate_paths", "processes.simulate"),
    ("occutime.fourier", "simulate_paths", "processes.simulate"),
    ("occutime.processes", "path_rng", "processes.rng"),
    ("occutime.limits", "path_rng", "processes.rng"),
    ("occutime.experiments", "reference_value", "estimators.reference"),
    ("occutime.experiments", "riemann_estimate", "estimators.coarse"),
    ("occutime.experiments", "trapezoid_estimate", "estimators.coarse"),
    ("occutime.experiments", "bridge_conditional_estimate",
     "estimators.bridge"),
    ("occutime.experiments", "conditional_variances", "limits.condvar"),
    ("occutime.experiments", "g_decay_probe", "fourier.g_decay"),
    ("occutime.experiments", "decompose", "fourier.decompose"),
    ("occutime.experiments", "compute_E", "fourier.decompose"),
    ("occutime.experiments", "compute_F1", "fourier.decompose"),
    ("occutime.experiments", "compute_F2", "fourier.decompose"),
    ("occutime.cli", "sobolev_seminorm", "seminorms"),
    ("occutime.cli", "fourier_lebesgue_seminorm", "seminorms"),
    ("occutime.seminorms", "sobolev_seminorm", "seminorms"),
    ("occutime.seminorms", "fourier_lebesgue_seminorm", "seminorms"),
)

# factories whose returned test function gets traced value/gradient calls
FUNCTION_FACTORIES = (
    ("occutime.config", "parse_function"),
    ("occutime.functions", "complex_exponential"),
)

# factory whose returned numerical transform gets its points counted
TRANSFORM_FACTORIES = (("occutime.seminorms", "_numeric_fourier"),)


@dataclasses.dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    thread: int
    phase: int            # thread count of the pass the span ran in
    start: float
    end: float
    points: int = 0       # evaluation points (test functions)
    nodes: int = 0        # fine nodes (path bundles)
    nbytes: int = 0       # array bytes computed from shapes (path bundles)


def _bundle_size(span: Span, args, result) -> None:
    x = getattr(result, "x", None)
    if x is not None:
        span.nodes = int(x.shape[0] * x.shape[1])
        span.nbytes = int(sum(v.nbytes for v in vars(result).values()
                              if isinstance(v, np.ndarray)))


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)     # (phase, name) -> count
        self.phase = 1
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, fn, layer: str, name: str, measure=None):
        """Wrap ``fn`` so that each call records a span."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            sid = next(rec._ids)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                span = Span(sid, parent, layer, name,
                            threading.get_ident(), rec.phase, start, end)
                if measure is not None:
                    measure(span, args, result)
                rec.spans.append(span)

        return traced

    def counted(self, transform, name: str):
        """Wrap a frequency transform so its evaluation points are counted."""
        rec = self

        def counting(u):
            rec.counts[(rec.phase, name)] += int(np.size(u))
            return transform(u)

        return counting

    def wrap_function(self, f):
        """Copy of a TestFunction whose value/gradient calls are spans and
        whose transform evaluations are counted."""
        dim = f.dimension

        def points(span, args, result):
            span.points = int(np.size(args[0]) // dim) if args else 0

        changes = {"value": self.span(f.value, "functions.value", f.name,
                                      points)}
        if f.gradient is not None:
            changes["gradient"] = self.span(f.gradient, "functions.gradient",
                                            f.name, points)
        if f.fourier is not None:
            changes["fourier"] = self.counted(f.fourier, "transform_points")
        if f.components is not None:
            changes["components"] = tuple(self.wrap_function(g)
                                          for g in f.components)
        return dataclasses.replace(f, **changes)

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def install(self) -> None:
        for module, attr, layer in SPAN_TARGETS:
            measure = _bundle_size if layer == "processes.simulate" else None
            self._patch(module, attr,
                        lambda fn: self.span(fn, layer, attr, measure))
        for module, attr in FUNCTION_FACTORIES:
            self._patch(module, attr, lambda fn: functools.wraps(fn)(
                lambda *a, **k: self.wrap_function(fn(*a, **k))))
        for module, attr in TRANSFORM_FACTORIES:
            self._patch(module, attr, lambda fn: functools.wraps(fn)(
                lambda *a, **k: self.counted(fn(*a, **k),
                                             "transform_points")))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")

    def layer_metrics(self, rounds: int, threads: int) -> dict:
        """Per-layer metrics, per round of the workload; ``threads`` is the
        thread count of the pass that gives the worker-busy fraction."""
        one = [s for s in self.spans if s.phase == 1]
        layer_of = {s.sid: s.layer for s in one}
        covered = defaultdict(float)          # sid -> time of child spans
        for s in one:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        self_s = defaultdict(float)
        count = defaultdict(int)
        points = defaultdict(int)
        for s in one:
            self_s[s.layer] += s.end - s.start - covered[s.sid]
            count[s.layer] += 1
            points[s.layer] += s.points
        nodes = sum(s.nodes for s in one)
        fn_points = points["functions.value"] + points["functions.gradient"]
        bridge_points = sum(s.points for s in one
                            if s.layer.startswith("functions.")
                            and layer_of.get(s.parent) == "estimators.bridge")
        chunks = sum(1 for s in one if s.layer == "processes.simulate"
                     and layer_of.get(s.parent) == "experiments")

        main = threading.main_thread().ident
        two = [s for s in self.spans if s.phase == threads]
        busy = sum(s.end - s.start for s in two
                   if s.thread != main and s.parent is None)
        study = sum(s.end - s.start for s in two if s.layer == "experiments")

        per_round = {
            "processes.self_s": self_s["processes.simulate"]
            + self_s["processes.rng"],
            "processes.fine_nodes": nodes,
            "processes.rng_streams": count["processes.rng"],
            "processes.rng_setup_s": self_s["processes.rng"],
            "functions.value_s": self_s["functions.value"],
            "functions.gradient_s": self_s["functions.gradient"],
            "functions.points": fn_points,
            "estimators.reference_s": self_s["estimators.reference"],
            "estimators.coarse_s": self_s["estimators.coarse"],
            "estimators.bridge_s": self_s["estimators.bridge"],
            "estimators.bridge_points": bridge_points,
            "limits.condvar_s": self_s["limits.condvar"],
            "fourier.g_decay_s": self_s["fourier.g_decay"],
            "fourier.decompose_s": self_s["fourier.decompose"],
            "seminorms.self_s": self_s["seminorms"],
            "seminorms.transform_points":
                self.counts[(1, "transform_points")],
            "experiments.self_s": self_s["experiments"],
            "experiments.chunks": chunks,
            "config.load_s": self_s["config"],
            "cli.write_s": self_s["cli.write"],
        }
        out = {k: v / rounds for k, v in per_round.items()}
        out["processes.bundle_bytes_max"] = max(
            (s.nbytes for s in one), default=0)
        out["functions.points_per_node"] = fn_points / nodes if nodes else 0.0
        out["experiments.worker_busy_frac"] = (
            busy / (threads * study) if study else 0.0)
        return out
