"""Spans and computed work counters recorded from outside the package.

A traced run wraps each layer's public functions by name.  A wrapped name
is patched everywhere it is bound (``knn``, for instance, is bound in
``edmkit.embedding``, ``edmkit.simplex`` and the package itself), so calls
through any import path are seen.  A name that no longer exists is
recorded as absent and skipped, so the trace survives refactors.

Every span records its layer name, start, end, the span that caused it and
the task it belongs to; spans of one task share that ID.  Spans stay in
memory until the run ends.  A layer's self time is the duration of its
spans minus the part of each interval that its child spans cover.

Counters labelled ``computed`` are worked out from argument and result
shapes, not measured, so they repeat exactly between runs of one program.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from collections import Counter

# (layer, module, attribute): the attribute may name ``Class.method``.
LAYERS = (
    ("timeseries.load_csv", "edmkit.timeseries", "load_csv"),
    ("timeseries.pearson_rho", "edmkit.timeseries", "pearson_rho"),
    ("timeseries.to_array", "edmkit.timeseries", "TimeSeries.to_array"),
    ("embedding.multivariate_embed", "edmkit.embedding", "multivariate_embed"),
    ("embedding.state_vector", "edmkit.embedding", "state_vector"),
    ("embedding.knn", "edmkit.embedding", "knn"),
    ("simplex.simplex_predict", "edmkit.simplex", "simplex_predict"),
    ("simplex.one_step_eval", "edmkit.simplex", "one_step_eval"),
    ("simplex.skill_eval", "edmkit.simplex", "skill_eval"),
    ("simplex.embed_dimension_search", "edmkit.simplex", "embed_dimension_search"),
    ("simplex.run_iterative", "edmkit.simplex", "run_iterative"),
    ("simplex.iterative_forecast", "edmkit.simplex", "iterative_forecast"),
    ("smap.smap_predict", "edmkit.smap", "smap_predict"),
    ("smap.lstsq", "numpy.linalg", "lstsq"),
    ("smap.skill_eval", "edmkit.smap", "skill_eval"),
    ("smap.theta_search", "edmkit.smap", "theta_search"),
    ("smap.smap_iterative_forecast", "edmkit.smap", "smap_iterative_forecast"),
    ("ccm.cross_map", "edmkit.ccm", "cross_map"),
    ("ccm.convergence_sweep", "edmkit.ccm", "convergence_sweep"),
    ("scenario.run_scenarios", "edmkit.scenario", "run_scenarios"),
    ("scenario.simulate", "edmkit.scenario", "simulate"),
    ("scenario.baseline_forecast", "edmkit.scenario", "baseline_forecast"),
    ("scenario.adjust", "edmkit.scenario", "pmd_adjust"),
    ("scenario.adjust", "edmkit.scenario", "launch_reduction_adjust"),
    ("scenario.adjust", "edmkit.scenario", "adr_adjust"),
    ("scenario.adjust", "edmkit.scenario", "_floor_counts"),
    ("scenario.load_scenario_file", "edmkit.scenario", "load_scenario_file"),
    ("cli.main", "edmkit.cli", "main"),
)

#: Counted but not timed: a span per container construction would cost more
#: than the construction it measures.
COUNTED = (
    ("timeseries.dataset_builds", "edmkit.timeseries", "Dataset.__post_init__"),
)


#: Every counter ``Tracer._count`` and the wrappers can produce.
COUNTERS = (
    "embedding.knn.rows_scanned", "embedding.knn.kept", "embedding.knn.shortfalls",
    "embedding.multivariate_embed.rows_built", "timeseries.to_array.values_converted",
    "timeseries.dataset_builds", "ccm.cross_map.queries", "ccm.embed_calls",
    "ccm.embed_distinct", "smap.lstsq.flops_computed", "smap.lstsq.bytes_computed",
)


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    """In-memory span store plus counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[str | None] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.task: str | None = None
        self._embed_keys: set = set()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            # a pool worker's outermost span belongs to the span that is
            # blocked in the main thread waiting for the pool
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(parent)
            self.tasks.append(self.task)
            self.ends.append(math.nan)
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack())

    def spans(self) -> list[tuple]:
        """(task, name, start, end, parent) for every span, in start order."""
        return list(zip(self.tasks, self.names, self.starts, self.ends, self.parents))

    def dump(self, startup_s: float) -> dict:
        """This process's spans and counters, for a parent process to absorb."""
        return {"spans": self.spans(), "counters": dict(self.counters),
                "absent": self.absent, "startup_s": startup_s}

    def absorb(self, dump: dict) -> float:
        """Add another process's spans under the current task; its start-up time.

        Start and end times stay on the other process's clock, which only
        its own spans are compared against.
        """
        offset = len(self.names)
        for _, name, start, end, parent in dump["spans"]:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent + offset if parent >= 0 else -1)
            self.tasks.append(self.task)
        self.counters.update(dump["counters"])
        self.absent = sorted(set(self.absent) | set(dump["absent"]))
        return float(dump["startup_s"])

    # -- counters ----------------------------------------------------------

    def _count(self, layer: str, args, kwargs, result) -> None:
        c = self.counters
        if layer == "embedding.knn":
            c["embedding.knn.rows_scanned"] += len(_arg(args, kwargs, 0, "library"))
            c["embedding.knn.kept"] += int(_arg(args, kwargs, 2, "k"))
        elif layer == "embedding.multivariate_embed":
            c["embedding.multivariate_embed.rows_built"] += len(result)
            if self.inside("ccm.cross_map"):
                data = _arg(args, kwargs, 0, "data")
                key = (self.task, tuple(data.names), _arg(args, kwargs, 1, "spec"),
                       _arg(args, kwargs, 2, "target"), _arg(args, kwargs, 3, "tp", 1))
                self._embed_keys.add(key)
                c["ccm.embed_calls"] += 1
                c["ccm.embed_distinct"] = len(self._embed_keys)
        elif layer == "timeseries.to_array":
            c["timeseries.to_array.values_converted"] += len(args[0])
        elif layer == "ccm.cross_map":
            effect = _arg(args, kwargs, 1, "effect")
            dimension = int(_arg(args, kwargs, 2, "dimension"))
            tau = int(_arg(args, kwargs, 3, "tau", 1))
            c["ccm.cross_map.queries"] += len(effect) - (dimension - 1) * tau
        elif layer == "smap.lstsq":
            a, b = args[0], args[1]
            m, n = a.shape
            nrhs = 1 if b.ndim == 1 else b.shape[1]
            # Householder QR plus applying Q^T to the right-hand sides
            c["smap.lstsq.flops_computed"] += 2 * m * n * n + 4 * m * n * nrhs
            c["smap.lstsq.bytes_computed"] += 8 * (m * n + m * nrhs + n * nrhs)

    def _wrap(self, layer: str, original, timed: bool = True):
        tracer = self

        if not timed:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.counters[layer] += 1
                return original(*args, **kwargs)
            return counted

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.counters[layer + ".calls"] += 1
            index = tracer.open(layer)
            try:
                result = original(*args, **kwargs)
            except Exception as error:
                if type(error).__name__ == "NeighborShortfallError":
                    tracer.counters[layer + ".shortfalls"] += 1
                raise
            finally:
                tracer.close(index)
            tracer._count(layer, args, kwargs, result)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function wherever it is bound."""
        import edmkit
        import pkgutil

        for info in pkgutil.iter_modules(edmkit.__path__):
            importlib.import_module(f"edmkit.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "edmkit" or n.startswith("edmkit."))]
        for layers, timed in ((LAYERS, True), (COUNTED, False)):
            for layer, module_name, attribute in layers:
                self._patch(layer, module_name, attribute, timed, modules)

    def _patch(self, layer, module_name, attribute, timed, modules) -> None:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{module_name}.{attribute}")
            return
        wrapper = self._wrap(layer, original, timed)
        if path:
            self._set(owner, name, wrapper)
            return
        for module in [owner, *modules]:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def self_times(spans) -> dict[str, float]:
    """Total self time per layer name over (task, name, start, end, parent) spans.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so overlapping children (pool workers) are not
    subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children.setdefault(span[4], []).append(index)
    totals: dict[str, float] = {}
    for index, (_, name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((max(spans[c][2], start), min(spans[c][3], end))
                             for c in children.get(index, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
