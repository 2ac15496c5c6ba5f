"""Per-layer tracing from outside the program.

The benchmark never edits ``repro``: it times a layer by wrapping the
public functions that layer exposes, from this file, and restores the
originals afterwards.  A wrapper records one span (name, start, end,
parent span, trace id) and bumps the call count; some wrappers also read
a count off the returned value (Figure-6 iterations, clusters formed,
shards claimed, cache bytes).

Wrapping must not change the path it measures, so each function is
patched where its callers look it up:

* ``namespace`` - every loaded ``repro`` module whose globals bind the
  function (``from ... import`` copies the name into the caller);
* ``defaults`` - default-argument slots holding it (engine constructors
  bind ``allocator=equi_snr.allocate`` at definition time).  The module
  attribute itself stays untouched, because
  ``repro.core.batch.BATCHED_ALLOCATORS`` and the oracle look allocators
  up by identity;
* ``twin`` - the batched twins, replaced only as values of
  ``BATCHED_ALLOCATORS``;
* ``class`` - a method, replaced on its class.

Two levels exist.  ``probe`` installs only the dispatch counters
(``run_batch``, ``evaluate_batch``, ``evaluate_topology``) and records no
spans; untraced runs use it so the traced run can prove it took the same
dispatch path.  ``full`` installs every layer with spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of every wrapped function label ("module:qualname").
LAYER_OF: Dict[str, str] = {}

#: Per-layer metric names, in the order the traced run prints them.
PER_LAYER_METRICS: List[Tuple[str, str]] = [
    ("phy.channel.calls", "count"),
    ("phy.channel.self_s", "s"),
    ("phy.mimo.calls", "count"),
    ("phy.mimo.self_s", "s"),
    ("core.equi_snr.calls", "count"),
    ("core.equi_snr.self_s", "s"),
    ("core.equi_sinr.calls", "count"),
    ("core.equi_sinr.self_s", "s"),
    ("core.equi_sinr.iterations", "count"),
    ("core.equi_sinr.unconverged", "count"),
    ("core.mercury.calls", "count"),
    ("core.mercury.waterfilling_calls", "count"),
    ("core.mercury.self_s", "s"),
    ("phy.coding.calls", "count"),
    ("phy.coding.self_s", "s"),
    ("phy.rates.calls", "count"),
    ("phy.rates.self_s", "s"),
    ("core.batch.dispatches", "count"),
    ("core.batch.rows", "count"),
    ("core.batch.self_s", "s"),
    ("core.ncell.calls", "count"),
    ("core.ncell.clusters", "count"),
    ("core.ncell.self_s", "s"),
    ("core.oracle.graph_calls", "count"),
    ("core.oracle.self_s", "s"),
    ("sim.runner.per_task_calls", "count"),
    ("sim.runner.fallback_tasks", "count"),
    ("sim.runner.batched_frac", "frac"),
    ("sim.runner.self_s", "s"),
    ("sim.checkpoint.records", "count"),
    ("sim.checkpoint.self_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("cache.self_s", "s"),
    ("sim.service.claims", "count"),
    ("sim.service.steals", "count"),
    ("sim.service.manifest_s", "s"),
    ("sim.service.wait_s", "s"),
    ("sim.service.harvest_s", "s"),
    ("sim.fingerprint.calls", "count"),
    ("sim.fingerprint.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
]

#: Counts that depend on which of two racing service workers wins a
#: shard, so they need not repeat between runs.
RACY_COUNTS = frozenset({"sim.service.steals"})

#: Exclusive time of these service functions is reported under its own
#: name instead of a plain ``sim.service.self_s``.
_SERVICE_SPLIT = {
    "repro.sim.service:publish_shards": "sim.service.manifest_s",
    "repro.sim.service:ShardManifest.build_tasks": "sim.service.manifest_s",
    "repro.sim.service:run_worker": "sim.service.wait_s",
    "repro.sim.service:harvest": "sim.service.harvest_s",
}

ROOT = "iteration"

#: ``ResultCache.stats`` fields counted as ``cache.<field>``.
_CACHE_STATS = ("hits", "misses", "bytes_read", "bytes_written")


class Tracer:
    """Spans and counts of one process, held in memory until written."""

    def __init__(self, record_spans: bool):
        self.record_spans = record_spans
        self.thread = threading.get_ident()
        self.trace_id = 0
        #: (label, start_s, end_s, parent index or -1, trace id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        #: Depth of ``evaluate_batch`` frames, to spot per-task fallbacks.
        self.batch_depth = 0

    def span(self, label: str, fn: Callable, args, kwargs):
        if not self.record_spans:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((label, 0.0, 0.0, parent, self.trace_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (label, start, end, parent, self.trace_id)

    def root(self, trace_id: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of one workload iteration."""
        self.trace_id = trace_id
        return self.span(ROOT, fn, args, kwargs)

    def payload(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# Hooks that read counts off arguments and return values.
# ---------------------------------------------------------------------------


def _rows(tracer, args, kwargs, result):
    tracer.counts["core.batch.rows"] += len(args[0] if args else kwargs["tasks"])


def _concurrent_batch(tracer, args, kwargs, result):
    _, iterations, converged = result
    tracer.counts["core.equi_sinr.iterations"] += int(iterations.sum())
    tracer.counts["core.equi_sinr.unconverged"] += int((~converged).sum())


def _concurrent(tracer, args, kwargs, result):
    tracer.counts["core.equi_sinr.iterations"] += int(result.iterations)
    tracer.counts["core.equi_sinr.unconverged"] += int(not result.converged)


def _clusters(tracer, args, kwargs, result):
    tracer.counts["core.ncell.clusters"] += len(result)


def _worker_stats(tracer, args, kwargs, result):
    tracer.counts["sim.service.claims"] += result.shards_claimed
    tracer.counts["sim.service.steals"] += result.shards_stolen


def _per_task(tracer, args, kwargs, result):
    from repro.core.batch import batchable

    task = args[0] if args else kwargs["task"]
    if tracer.batch_depth and batchable(task):
        tracer.counts["sim.runner.fallback_tasks"] += 1


# label, layer, call-count metric (or None), places to patch, after-hook
_FULL: List[Tuple[str, str, Optional[str], Tuple[str, ...], Optional[Callable]]] = [
    ("repro.phy.topology:TopologyGenerator.sample", "phy.channel", "phy.channel.calls", ("class",), None),
    ("repro.phy.channel:ChannelModel.realize", "phy.channel", "phy.channel.calls", ("class",), None),
    ("repro.phy.mimo:svd_beamformer", "phy.mimo", "phy.mimo.calls", ("namespace",), None),
    ("repro.phy.mimo:nulling_precoder", "phy.mimo", "phy.mimo.calls", ("namespace",), None),
    ("repro.phy.mimo:mmse_sinr", "phy.mimo", "phy.mimo.calls", ("namespace",), None),
    ("repro.core.equi_snr:allocate_batch", "core.equi_snr", "core.equi_snr.calls", ("twin",), None),
    ("repro.core.equi_snr:allocate", "core.equi_snr", "core.equi_snr.calls", ("defaults",), None),
    ("repro.core.equi_sinr:allocate_concurrent_batch", "core.equi_sinr", "core.equi_sinr.calls", ("namespace",), _concurrent_batch),
    ("repro.core.equi_sinr:allocate_concurrent", "core.equi_sinr", "core.equi_sinr.calls", ("namespace",), _concurrent),
    ("repro.core.equi_sinr:allocate_single_batch", "core.equi_sinr", "core.equi_sinr.calls", ("namespace",), None),
    ("repro.core.mercury:mercury_allocate_batch", "core.mercury", "core.mercury.calls", ("twin",), None),
    ("repro.core.mercury:mercury_waterfilling_batch", "core.mercury", "core.mercury.waterfilling_calls", ("namespace",), None),
    ("repro.phy.coding:coded_ber", "phy.coding", "phy.coding.calls", ("namespace",), None),
    ("repro.phy.rates:best_rate_batch", "phy.rates", "phy.rates.calls", ("namespace",), None),
    ("repro.phy.rates:best_rate", "phy.rates", "phy.rates.calls", ("namespace", "defaults"), None),
    ("repro.core.ncell:GraphStrategyEngine.run", "core.ncell", "core.ncell.calls", ("class",), None),
    ("repro.core.clustering:form_clusters", "core.ncell", None, ("namespace",), _clusters),
    ("repro.core.oracle:allocate_graph", "core.oracle", "core.oracle.graph_calls", ("namespace",), None),
    ("repro.sim.runner:run_tasks", "sim.runner", None, ("namespace",), None),
    ("repro.sim.checkpoint:Journal.open", "sim.checkpoint", None, ("class",), None),
    ("repro.sim.checkpoint:Journal.record", "sim.checkpoint", "sim.checkpoint.records", ("class",), None),
    ("repro.cache.store:ResultCache.load", "cache", None, ("class",), None),
    ("repro.cache.store:ResultCache.store", "cache", None, ("class",), None),
    ("repro.sim.service:publish_shards", "sim.service", None, ("namespace",), None),
    ("repro.sim.service:ShardManifest.build_tasks", "sim.service", None, ("class",), None),
    ("repro.sim.service:run_worker", "sim.service", None, ("namespace",), _worker_stats),
    ("repro.sim.service:harvest", "sim.service", None, ("namespace",), None),
    ("repro.sim.fingerprint:fingerprint_quantized", "sim.fingerprint", "sim.fingerprint.calls", ("namespace",), None),
    ("repro.sim.fingerprint:fingerprint_tasks", "sim.fingerprint", "sim.fingerprint.calls", ("namespace",), None),
]

#: The dispatch counters, installed at both levels.
_PROBES: List[Tuple[str, str, Optional[str], Tuple[str, ...], Optional[Callable]]] = [
    ("repro.core.batch:run_batch", "core.batch", "core.batch.dispatches", ("namespace",), _rows),
    ("repro.sim.runner:evaluate_batch", "sim.runner", None, ("namespace",), None),
    ("repro.sim.runner:evaluate_topology", "sim.runner", "sim.runner.per_task_calls", ("namespace",), _per_task),
]

for _label, _layer, *_ in _FULL + _PROBES:
    LAYER_OF[_label] = _layer


def _resolve(label: str):
    module_name, qualname = label.split(":")
    owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _repro_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("repro") and m is not None]


def _functions_with_defaults():
    """Every function defined in a loaded repro module, methods included."""
    seen = set()
    for module in _repro_modules():
        for value in list(vars(module).values()):
            members = [value]
            if inspect.isclass(value):
                members = []
                for member in vars(value).values():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    members.append(member)
            for member in members:
                if inspect.isfunction(member) and id(member) not in seen:
                    seen.add(id(member))
                    yield member


class Installation:
    """Wrappers installed into the live ``repro`` modules; ``close`` undoes them."""

    def __init__(self, tracer: Tracer, level: str):
        import repro.cache.store  # noqa: F401  (load every patched module)
        import repro.core.batch
        import repro.core.clustering  # noqa: F401
        import repro.core.ncell  # noqa: F401
        import repro.sim.service  # noqa: F401

        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []
        batched = repro.core.batch.BATCHED_ALLOCATORS
        patches = []
        for label, _, count, places, after in _PROBES + (_FULL if level == "full" else []):
            owner, name = _resolve(label)
            raw = inspect.getattr_static(owner, name)
            original = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._wrapper(label, original, count, after)
            patches.append((owner, name, raw, original, wrapper, places))
        # Default slots first: once a namespace holds the wrapper, the
        # original functions whose defaults need rewriting are hidden.
        for _, _, _, original, wrapper, places in patches:
            if "defaults" in places:
                self._patch_defaults(original, wrapper)
        for owner, name, raw, original, wrapper, places in patches:
            if "class" in places:
                value = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                self._set(owner, name, value, setattr)
            if "twin" in places:
                for key, twin in list(batched.items()):
                    if twin is original:
                        self._set(batched, key, wrapper, dict.__setitem__)
            if "namespace" in places:
                for module in _repro_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper, setattr)

    def _wrapper(self, label, fn, count, after):
        tracer = self.tracer
        is_batch = label == "repro.sim.runner:evaluate_batch"
        is_cache = label.startswith("repro.cache.store:ResultCache.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            if is_batch:
                tracer.batch_depth += 1
            if is_cache:
                stats = args[0].stats
                before = [getattr(stats, field) for field in _CACHE_STATS]
            try:
                result = tracer.span(label, fn, args, kwargs)
            finally:
                if is_batch:
                    tracer.batch_depth -= 1
            if count is not None:
                tracer.counts[count] += 1
            if after is not None:
                after(tracer, args, kwargs, result)
            if is_cache:
                for field, old in zip(_CACHE_STATS, before):
                    tracer.counts[f"cache.{field}"] += getattr(stats, field) - old
            return result

        return wrapper

    def _set(self, container, key, value, setter):
        old = container[key] if isinstance(container, dict) else getattr(container, key)
        setter(container, key, value)
        self._undo.append(lambda: setter(container, key, old))

    def _patch_defaults(self, original, wrapper) -> None:
        for function in _functions_with_defaults():
            if function.__defaults__ and any(d is original for d in function.__defaults__):
                new = tuple(wrapper if d is original else d for d in function.__defaults__)
                self._set(function, "__defaults__", new, setattr)
            kw = function.__kwdefaults__
            if kw and any(d is original for d in kw.values()):
                new_kw = {k: (wrapper if d is original else d) for k, d in kw.items()}
                self._set(function, "__kwdefaults__", new_kw, setattr)

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# Roll-up: spans of every process -> per-layer metrics.
# ---------------------------------------------------------------------------


def rollup(payloads: List[dict]) -> Dict[str, float]:
    """Per-layer exclusive times and counts over several processes.

    A span's self time is its duration minus the durations of its direct
    children; calls are synchronous, so children nest inside their parent
    and the self times of one process sum to the duration of its root
    spans.  Root-span self time is time no wrapped layer accounts for
    (``unattributed_s``); ``trace.wall_s`` is the summed root duration.
    """
    self_s: Counter = Counter()
    counts: Counter = Counter()
    wall = 0.0
    for payload in payloads:
        spans = payload["spans"]
        counts.update(payload["counts"])
        own = [end - start for _, start, end, _, _ in spans]
        for label, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (label, start, end, parent, _), exclusive in zip(spans, own):
            if label == ROOT:
                wall += end - start
                self_s["unattributed_s"] += exclusive
            else:
                key = _SERVICE_SPLIT.get(label) or f"{LAYER_OF[label]}.self_s"
                self_s[key] += exclusive
    metrics: Dict[str, float] = {}
    for name, unit in PER_LAYER_METRICS:
        if unit == "s":
            metrics[name] = float(self_s.get(name, 0.0))
        elif unit in ("count", "bytes"):
            metrics[name] = int(counts.get(name, 0))
    rows = metrics["core.batch.rows"]
    per_task = metrics["sim.runner.per_task_calls"]
    metrics["sim.runner.batched_frac"] = rows / (rows + per_task) if rows + per_task else 0.0
    metrics["trace.wall_s"] = wall
    return metrics


def attributed_total(metrics: Dict[str, float]) -> float:
    """Sum of every exclusive-time row, unattributed included."""
    return sum(metrics[name] for name, unit in PER_LAYER_METRICS if unit == "s" and name != "trace.wall_s")
