"""One workload's measurement, in a process of its own.

``python -m perfbench.measure WORKLOAD SEED SECONDS TRACE WORKDIR`` prints
one JSON line.  ``run.py`` starts it so that CPU time and peak memory
cover this workload and its children only.

Order: the reference (before any timing), then the untraced closed loop
for ``SECONDS``, whose numbers are the end-to-end metrics.  The loop runs
under a :class:`~perfbench.clock.SpeedClock`, and every end-to-end time is
scaled to the clock's reference host speed.  With ``TRACE`` 1 one more
iteration runs with every layer wrapped and no calibration passes; it
must produce the same outputs and take the same dispatch path as the
first untraced iteration, and its spans give the per-layer table.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

import perfbench  # noqa: F401  (puts the checkout's src on sys.path)
from perfbench.clock import CALIBRATION_REF_S, SpeedClock, host_pass_s, scaled_span
from perfbench.layers import Installation, Tracer, attributed_total, rollup
from perfbench.workloads import WORKLOADS, Iteration

#: Counts that say which dispatch path ran; tracing must not change them.
DISPATCH_COUNTS = ("core.batch.dispatches", "core.batch.rows", "sim.runner.per_task_calls")


def closed_loop(workload, seconds: float, tracer: Tracer) -> List[Dict]:
    """Iterations back to back until the next one would overrun ``seconds``.

    At least one iteration always runs.  Returns, per iteration, the
    :class:`Iteration` and the dispatch counts its probes saw (the
    spawned service worker's included).
    """
    runs = []
    start = time.perf_counter()
    while True:
        before = Counter(tracer.counts)
        payloads = len(workload.worker_payloads)
        iteration = workload.iteration()
        counts = Counter(tracer.counts)
        counts.subtract(before)
        for payload in workload.worker_payloads[payloads:]:
            counts.update(payload["counts"])
        runs.append({"iteration": iteration, "counts": counts})
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:
            return runs


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def scaled_busy(it: Iteration, clock: SpeedClock) -> Tuple[float, float]:
    """Scaled wall and CPU seconds of an iteration's throughput phase.

    CPU seconds are scaled by the same factor as the wall time.  When a
    second process shares the phase, each on its own CPU, the wall time
    is the mean of the two processes' scaled views of it, and the peer's
    passes are taken out of the CPU seconds too.
    """
    start, end = it.busy
    wall = clock.scaled_wall(start, end)
    cpu = SpeedClock.program_cpu(start, end)
    if it.peer_passes:
        wall = 0.5 * (wall + scaled_span(*it.peer_passes, start.wall_s, end.wall_s))
        cpu -= it.peer_stolen_cpu_s
    return wall, cpu * wall / SpeedClock.program_wall(start, end)


def end_to_end(iterations: List[Iteration], clock: SpeedClock) -> Dict[str, float]:
    """Medians over iterations, and request percentiles, in scaled seconds."""
    busy = [scaled_busy(it, clock) for it in iterations]
    rates = [it.topologies / wall for it, (wall, _) in zip(iterations, busy)]
    cpu = [cpu / it.topologies for it, (_, cpu) in zip(iterations, busy)]
    latencies_ms = np.array([clock.scaled_wall(*pair) for it in iterations for pair in it.requests]) * 1e3
    return {
        "topologies_per_s": float(np.median(rates)),
        "cpu_s_per_topology": float(np.median(cpu)),
        "query_p50_ms": float(np.percentile(latencies_ms, 50)),
        "query_p90_ms": float(np.percentile(latencies_ms, 90)),
    }


def raw_rate(iterations: List[Iteration]) -> float:
    """Unscaled topologies per program second."""
    return sum(it.topologies for it in iterations) / sum(it.busy_s for it in iterations)


def traced(workload, untraced: Dict, trace_path: str) -> Dict:
    """One iteration with every layer wrapped, checked against ``untraced``.

    Returns the iteration, the per-layer metrics and the problems found
    beyond the iteration's own output checks.
    """
    tracer = Tracer(record_spans=True)
    workload.clock = SpeedClock(0)
    workload.worker_level = "full"
    payloads = len(workload.worker_payloads)
    installation = Installation(tracer, "full")
    try:
        iteration = tracer.root(1, workload.iteration)
    finally:
        installation.close()
    processes = [tracer.payload()] + workload.worker_payloads[payloads:]
    with open(trace_path, "w") as handle:
        json.dump(processes, handle)
    metrics = rollup(processes)

    problems = []
    if iteration.digests != untraced["iteration"].digests:
        problems.append("traced outputs differ from the untraced run")
    for name in DISPATCH_COUNTS:
        if metrics[name] != untraced["counts"][name]:
            problems.append(
                f"tracing changed the dispatch path: {name} "
                f"{untraced['counts'][name]} untraced, {metrics[name]} traced"
            )
    gap = abs(attributed_total(metrics) - metrics["trace.wall_s"])
    if gap > 1e-6 * max(1.0, metrics["trace.wall_s"]):
        problems.append(f"self times miss the traced wall time by {gap:.3g} s")
    return {"iteration": iteration, "metrics": metrics, "problems": problems}


def main(argv) -> int:
    name, seed, seconds, trace, workdir = argv
    workload = WORKLOADS[name](int(seed), workdir)
    problems = workload.prepare()

    probes = Tracer(record_spans=False)
    clock = SpeedClock()
    workload.clock = clock
    installation = Installation(probes, "probe")
    try:
        with clock:
            runs = closed_loop(workload, float(seconds), probes)
    finally:
        installation.close()
    iterations = [run["iteration"] for run in runs]
    result = {
        "metrics": end_to_end(iterations, clock),
        "raw_topologies_per_s": raw_rate(iterations),
        "iteration_rates": [it.topologies / scaled_busy(it, clock)[0] for it in iterations],
        "calibration_ms": [float(np.percentile(clock.durations, q)) * 1e3 for q in (0, 50, 100)],
        "calibration_passes": len(clock.durations),
        "iterations": len(iterations),
        "samples": sum(len(it.requests) for it in iterations),
        "attempted": sum(it.attempted for it in iterations),
        "failed": sum(it.failed for it in iterations) + len(problems),
        "problems": problems + [p for it in iterations for p in it.problems],
        "dispatch": {key: runs[0]["counts"][key] for key in DISPATCH_COUNTS},
        "fallback_tasks": runs[0]["counts"]["sim.runner.fallback_tasks"],
    }
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    if trace == "1":
        trace_path = os.path.join(os.path.dirname(workdir), f"{name}-{seed}.trace.json")
        # The traced iteration runs without passes (they would land in
        # its spans); passes just before and after it scale its time.
        before = host_pass_s()
        report = traced(workload, runs[0], trace_path)
        scale = CALIBRATION_REF_S / (0.5 * (before + host_pass_s()))
        it = report["iteration"]
        layers = report["metrics"]
        traced_rate = it.topologies / (it.busy_s * scale)
        layers["trace.overhead_frac"] = 1.0 - traced_rate / result["metrics"]["topologies_per_s"]
        result["layers"] = layers
        result["trace_path"] = trace_path
        result["attempted"] += it.attempted
        result["failed"] += it.failed + len(report["problems"])
        result["problems"] += it.problems + report["problems"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
