"""The benchmark's own tests: exact counts repeat, the output keeps its schema.

Run from the repository root: ``python3 -m pytest perfbench/ -q``.
"""

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT
from perfbench.clock import CALIBRATION_REF_S, SpeedClock
from perfbench.layers import PER_LAYER_METRICS, RACY_COUNTS, Installation, Tracer, attributed_total, rollup
from perfbench.workloads import WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

COUNT_METRICS = [name for name, unit in PER_LAYER_METRICS if unit in ("count", "bytes")]


def traced_counts(name, tmp_path, n_topologies):
    """Counts, outputs and the time identity of one traced tiny iteration."""
    workload = WORKLOADS[name](3, str(tmp_path), n_topologies=n_topologies)
    assert workload.prepare() == []
    tracer = Tracer(record_spans=True)
    workload.worker_level = "full"
    installation = Installation(tracer, "full")
    try:
        iteration = tracer.root(1, workload.iteration)
    finally:
        installation.close()
    payloads = [tracer.payload()] + workload.worker_payloads
    metrics = rollup(payloads)
    assert iteration.problems == []
    assert attributed_total(metrics) == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    return {key: metrics[key] for key in COUNT_METRICS}, iteration.digests


@pytest.mark.parametrize(
    "name, n_topologies",
    [("copa_plus_4x2", 1), ("ncell_4ap", 2), ("service_4x2", 2)],
)
def test_counts_repeat_exactly_on_tiny_input(name, n_topologies, tmp_path):
    first, first_outputs = traced_counts(name, tmp_path / "a", n_topologies)
    second, second_outputs = traced_counts(name, tmp_path / "b", n_topologies)
    assert first_outputs == second_outputs
    for key in COUNT_METRICS:
        if key not in RACY_COUNTS:
            assert first[key] == second[key], key
    assert first["sim.runner.fallback_tasks"] == 0
    if name == "copa_plus_4x2":
        assert (first["core.batch.dispatches"], first["core.batch.rows"]) == (1, n_topologies)
        assert first["phy.coding.calls"] > 0 and first["core.mercury.waterfilling_calls"] > 0
    if name == "service_4x2":
        assert first["sim.checkpoint.records"] == n_topologies
        assert first["cache.hits"] > 0 and first["cache.bytes_written"] > 0


def test_clock_takes_its_passes_out_and_scales_the_rest():
    clock = SpeedClock(0.03)
    with clock:
        start = clock.mark()
        deadline = start.wall_s + 0.1
        while clock.mark().wall_s < deadline:
            pass
        end = clock.mark()
    assert len(clock.durations) >= 3
    assert end.stolen_wall_s > start.stolen_wall_s
    program = SpeedClock.program_wall(start, end)
    assert program == pytest.approx((end.wall_s - start.wall_s) - (end.stolen_wall_s - start.stolen_wall_s))
    scaled = clock.scaled_wall(start, end)
    reference = program * CALIBRATION_REF_S
    assert reference / max(clock.durations) <= scaled * (1 + 1e-9)
    assert scaled <= reference / min(clock.durations) * (1 + 1e-9)
    idle = SpeedClock(0)
    begin, finish = idle.mark(), idle.mark()
    assert idle.scaled_wall(begin, finish) == SpeedClock.program_wall(begin, finish)


def test_wrappers_are_removed_afterwards():
    import repro.core.batch as batch
    import repro.core.equi_snr as equi_snr
    import repro.phy.rates as rates
    from repro.core.strategy import StrategyEngine

    def engine_allocator():
        return inspect.signature(StrategyEngine.__init__).parameters["allocator"].default

    twins = dict(batch.BATCHED_ALLOCATORS)
    coded_ber = rates.coded_ber
    assert engine_allocator() is equi_snr.allocate
    installation = Installation(Tracer(record_spans=True), "full")
    assert rates.coded_ber is not coded_ber
    assert engine_allocator() is not equi_snr.allocate
    assert set(batch.BATCHED_ALLOCATORS) == set(twins)
    assert all(batch.BATCHED_ALLOCATORS[key] is not twins[key] for key in twins)
    installation.close()
    assert batch.BATCHED_ALLOCATORS == twins
    assert rates.coded_ber is coded_ber
    assert engine_allocator() is equi_snr.allocate


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_matches_schema(trace):
    done = run_benchmark(ROOT, "--workload", "ncell_4ap", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if trace == "0":
            assert reported["value"] > 0


def test_benchmark_declares_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [name for name, _ in PER_LAYER_METRICS]


def test_refuses_without_a_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_benchmark(tmp_path, "--workload", "ncell_4ap", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
