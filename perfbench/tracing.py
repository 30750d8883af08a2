"""Outside-in span recorder for the benchmark's traced run.

The traced run times each layer of the program from the outside: it
replaces a layer's public callable with a wrapper that records a span
(name, start, end, parent span, request id) around every call. Where a
module imported the callable by name, the imported name is replaced too,
so calls through either path are seen. Spans stay in memory, in flat
columns, until the run ends; :func:`aggregate` then folds them into
per-layer calls, busy time and self time (busy time minus the time of the
span's direct children).

Nothing is patched unless :func:`install` is called, which only the traced
run does: the untraced run executes the program unmodified.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        self._next_request = 0
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return self.names[self.name_col[stack[-1]]] if stack else None

    def open(self, name: str) -> int:
        """Start a span; a span with no open parent starts a new request."""
        stack = self._stack()
        now = time.perf_counter()
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            if stack:
                parent = stack[-1]
                request = self.request[parent]
            else:
                parent = -1
                request = self._next_request
                self._next_request += 1
            index = len(self.start)
            self.name_col.append(name_id)
            self.start.append(now)
            self.end.append(math.nan)
            self.parent.append(parent)
            self.request.append(request)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        now = time.perf_counter()
        with self._lock:
            self.end[index] = now
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- patching ------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A layer calling into itself (a factory that elaborates through
            # another factory) is one crossing of the layer boundary.
            if recorder.current_name() == name:
                return fn(*args, **kwargs)
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                after(recorder, result, args)
            return result

        return wrapper

    def _counting(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str,
                       after: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's import of it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrap(name, original, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, original))

    def patch_method(self, cls: type, attr: str, name: str,
                     after: Optional[Callable] = None,
                     span: bool = True) -> None:
        """Wrap a method; ``span=False`` only counts the calls."""
        original = cls.__dict__[attr]
        wrapper = (self._wrap(name, original, after) if span
                   else self._counting(name, original))
        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------
    def to_jsonable(self) -> dict:
        return {
            "names": list(self.names),
            "spans": [
                [self.name_col[i], self.start[i], self.end[i],
                 self.parent[i], self.request[i]]
                for i in range(len(self.start))
            ],
            "counts": dict(self.counts),
        }


# -- the layer map -------------------------------------------------------
DIVERGENCE_CAUSES = (
    "grouping", "order", "coincidence", "tie-break", "violation",
    "overflow", "error", "ineligible",
)


def _after_simulate(rec: Recorder, _result, args) -> None:
    rec.count("simulate.events", args[0].pulses_processed)


def _after_batch(rec: Recorder, result, _args) -> None:
    outcomes, _stats, report = result
    rec.count("batch.lanes", len(outcomes))
    rec.count("batch.batched", report.batched_lanes)
    rec.count("batch.replayed", len(report.fallback_seeds))
    for cause, n in report.divergence.items():
        rec.count(f"batch.divergence.{cause}", n)


def _after_zone(rec: Recorder, result, _args) -> None:
    rec.count("zone.states", result.states_explored)
    rec.count("zone.transitions", result.transitions_fired)
    rec.count("zone.truncated", int(result.truncated))
    rec.count("zone.completed", int(result.completed))


def install(rec: Recorder) -> None:
    """Wrap every layer's public callable (see the module docstring)."""
    import repro.__main__  # noqa: F401  (its by-name imports get patched)
    from repro.cache.disk import DiskCache
    from repro.core.simulation import Simulation
    from repro.exp.registry import RegistryFactory
    from repro.explore.engine import ExploreEngine
    from repro.explore.families import FamilyFactory
    from repro.mc.dbm import DBM
    from repro.mc.explorer import ModelChecker
    from repro.serve.service import YieldService

    rec.patch_function("repro.exp.registry", "build_in_fresh_circuit",
                       "elaborate")
    rec.patch_method(RegistryFactory, "__call__", "elaborate")
    rec.patch_method(FamilyFactory, "__call__", "elaborate")
    rec.patch_function("repro.core.ir", "compile_circuit", "compile")
    rec.patch_method(Simulation, "simulate", "simulate", _after_simulate)
    rec.patch_function("repro.core.batchsim", "run_batch", "batch",
                       _after_batch)
    rec.patch_function("repro.core.montecarlo", "measure_yield",
                       "montecarlo")
    rec.patch_function("repro.ta.translate", "translate_circuit",
                       "translate")
    rec.patch_method(ModelChecker, "run", "zone", _after_zone)
    rec.patch_method(DBM, "canonicalize", "dbm.canonicalize")
    rec.patch_method(DBM, "includes", "dbm.includes.calls", span=False)
    rec.patch_method(DBM, "extrapolate", "dbm.extrapolate.calls",
                     span=False)
    rec.patch_method(DiskCache, "get", "cache.disk.get")
    rec.patch_method(DiskCache, "put", "cache.disk.put")
    rec.patch_function("repro.core.serialize", "circuit_from_json",
                       "serialize.circuit_in")
    rec.patch_function("repro.core.serialize", "yield_result_to_jsonable",
                       "serialize.result_out")
    rec.patch_method(YieldService, "yield_", "service")
    rec.patch_method(ExploreEngine, "resolve", "explore.resolve")
    rec.patch_function("repro.core.energy", "circuit_cost", "energy.cost")


# -- aggregation ---------------------------------------------------------
def aggregate(dumps: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    ``dumps`` are :meth:`Recorder.to_jsonable` payloads, one per process;
    durations never mix clocks across processes.
    """
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for dump in dumps:
        names = dump["names"]
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent, _request in spans:
            if parent >= 0 and not math.isnan(end):
                child_time[parent] += end - start
        for k, (name_id, start, end, _parent, _request) in enumerate(spans):
            if math.isnan(end):  # still open when the process dumped
                continue
            row = table[names[name_id]]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[k]
    return dict(table)


def merged_counts(dumps: List[dict]) -> Dict[str, float]:
    counts: Dict[str, float] = defaultdict(float)
    for dump in dumps:
        for key, value in dump["counts"].items():
            counts[key] += value
    return counts
