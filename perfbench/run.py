"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
table with ``--trace 1``.  The lines before it record the host, the
sample counts and any failed check.

Steps: ``setup_s`` is the median wall time of three fresh processes that
each import ``repro`` and run the workload's one-topology warm-up
(``setup_probe.py``).  Then ``measure.py`` runs in a process of its own:
the reference check first, the timed closed loop next, and, with
``--trace 1``, one traced iteration.  Every end-to-end time is scaled to
a reference host speed (``clock.py``); the unscaled figures are printed
above the result line.  See ``README.md`` for the workloads, the metrics
and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("copa_plus_4x2", "service_4x2", "ncell_4ap")
SETUP_RUNS = 3
#: Whole-run limit; every child is killed before it.
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "topologies_per_s": "1/s",
    "cpu_s_per_topology": "s",
    "peak_rss_mb": "MiB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def host_record(seed: int, blas_threads: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": blas_threads,
        "seed": seed,
    }


def run_child(args, env, deadline: float) -> subprocess.CompletedProcess:
    """Run one child to completion, killing it at the run's deadline."""
    with subprocess.Popen(
        args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as child:
        try:
            out, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
    return subprocess.CompletedProcess(args, child.returncode, out, err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S
    from perfbench.clock import CALIBRATION_REF_S

    # The service workload runs two processes; cap OpenBLAS threads so
    # that together they use no more threads than there are CPUs.
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    blas_threads = env.get("OPENBLAS_NUM_THREADS", "default")
    if args.workload == "service_4x2":
        blas_threads = str(max(1, nproc // 2))
        env["OPENBLAS_NUM_THREADS"] = blas_threads

    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_RUNS):
            start = time.perf_counter()
            probe = run_child(
                [sys.executable, "-m", "perfbench.setup_probe", args.workload, str(args.seed)],
                dict(os.environ),
                deadline,
            )
            raw_setups.append(time.perf_counter() - start)
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                return fail("the set-up run failed")
            passes = json.loads(probe.stdout.strip().splitlines()[-1])
            program_s = raw_setups[-1] - passes["stolen_s"]
            setups.append(program_s * CALIBRATION_REF_S / passes["calibration_s"])

        workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            measured = run_child(
                [
                    sys.executable,
                    "-m",
                    "perfbench.measure",
                    args.workload,
                    str(args.seed),
                    repr(args.seconds),
                    str(args.trace),
                    workdir,
                ],
                env,
                deadline,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except subprocess.TimeoutExpired:
        return fail(f"no result within {DEADLINE_S:.0f} s")
    if measured.returncode != 0:
        sys.stderr.write(measured.stderr)
        return fail(f"the measurement failed (exit {measured.returncode})")
    report = json.loads(measured.stdout.strip().splitlines()[-1])
    report["metrics"]["setup_s"] = statistics.median(setups)

    print("# host " + json.dumps(host_record(args.seed, blas_threads)))
    low, mid, high = report["calibration_ms"]
    print(
        f"# host speed: {report['calibration_passes']} calibration passes of {low:.4g}/{mid:.4g}/{high:.4g} ms "
        f"(min/median/max; reference {CALIBRATION_REF_S * 1e3:g} ms); unscaled: "
        f"setup_s {statistics.median(raw_setups):.4g}, topologies_per_s {report['raw_topologies_per_s']:.4g}"
    )
    print("# topologies_per_s of each iteration: " + " ".join(f"{rate:.4g}" for rate in report["iteration_rates"]))
    print(
        f"# {args.workload}: {report['iterations']} timed iteration(s), "
        f"{report['samples']} request latency sample(s), "
        f"failed_frac {report['failed'] / max(1, report['attempted']):.4g} "
        f"({report['failed']}/{report['attempted']}), dispatch {json.dumps(report['dispatch'])}"
    )
    if report["fallback_tasks"] and args.workload == "copa_plus_4x2":
        print(
            f"# WARNING: {report['fallback_tasks']} batchable task(s) fell back from "
            "evaluate_batch to evaluate_topology (a swallowed batch failure)"
        )
    for problem in report["problems"]:
        print(f"# FAILED CHECK: {problem}")
    if args.trace:
        layers = report["layers"]
        from perfbench.layers import PER_LAYER_METRICS

        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
        busiest = max(
            (name for name, unit in PER_LAYER_METRICS if unit == "s" and name != "trace.wall_s"),
            key=lambda name: layers[name],
        )
        print(f"# top self time: {busiest} {layers[busiest]:.4g} s of {layers['trace.wall_s']:.4g} s")
        print(f"# spans: {os.path.relpath(report['trace_path'], ROOT)}")
    else:
        metrics = {name: {"value": report["metrics"][name], "unit": unit} for name, unit in E2E_UNITS.items()}
    for name, metric in metrics.items():
        print(f"#   {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
