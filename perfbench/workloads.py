"""The three benchmark workloads, their inputs, references and checks.

Every workload derives its inputs from the benchmark seed alone and hands
the program only those inputs.  ``prepare`` computes each workload's
reference before anything is timed; ``iteration`` runs one closed-loop
unit of work and checks its outputs against that reference.  Timed
phases are recorded as pairs of :class:`~perfbench.clock.Mark` readings of
the workload's ``clock``; ``measure.py`` turns them into scaled seconds.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.clock import Mark, SpeedClock
from repro.cache import ResultCache
from repro.core.options import EngineOptions
from repro.obs.collector import Collector
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.experiment import (
    CONSTRAINED_4X2,
    ScenarioSpec,
    generate_channel_sets,
    run_experiment,
)
from repro.sim.runner import build_tasks, evaluate_topology
from repro.sim.service import AllocationService, run_sharded_experiment

#: Benchmark seed -> program seed: topology ``t`` of seed ``s`` draws from
#: ``SEED_STRIDE * s + t``, so no two benchmark seeds share a topology.
SEED_STRIDE = 1000

#: The 4-AP clustered golden setting (5 topologies, seed 2015, -68 dB),
#: the same constants ``tests/test_golden_values.py`` pins.
NCELL_OPTIONS = EngineOptions(cluster_policy="threshold", cluster_threshold_db=-68.0)
GOLDEN_NCELL_MEANS_MBPS = {
    "csma": 114.410272,
    "copa_seq": 116.886097,
    "copa": 136.644578,
    "copa_fair": 136.644578,
}
GOLDEN_RTOL = 1e-6

#: The set-up run's single topology, the same for every benchmark seed:
#: set-up cost should not depend on which topology the seed happens to draw
#: (one COPA+ topology takes 3.9 to 5.2 s depending on its channels).
WARMUP_CONFIG = DEFAULT_CONFIG.with_(n_topologies=1)

#: Seconds a spawned service worker may take before the session fails.
WORKER_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# Bit-for-bit output digests.
# ---------------------------------------------------------------------------


def _feed(digest, value) -> None:
    if value is None or isinstance(value, (bool, int, str)):
        digest.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, float):
        digest.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, enum.Enum):
        _feed(digest, value.value)
    elif isinstance(value, np.ndarray):
        digest.update(f"a{value.dtype.str}{value.shape};".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        _feed(digest, np.asarray(value))
    elif isinstance(value, dict):
        digest.update(b"{")
        for key in sorted(value, key=repr):
            _feed(digest, key)
            _feed(digest, value[key])
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    elif dataclasses.is_dataclass(value):
        digest.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            _feed(digest, getattr(value, field.name))
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def record_digest(record) -> str:
    """Hash of everything a topology record computed, bit for bit."""
    digest = hashlib.sha256()
    _feed(digest, record.index)
    _feed(digest, record.outcome)
    _feed(digest, record.plus_outcome)
    return digest.hexdigest()


def records_digests(records) -> List[str]:
    return [record_digest(record) for record in records]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Iteration:
    """What one closed-loop iteration did and how it went."""

    topologies: int
    #: Clock marks around the iteration's throughput phase.
    busy: Tuple[Mark, Mark]
    #: Clock marks around each user request.
    requests: List[Tuple[Mark, Mark]]
    attempted: int
    failed: int
    #: Output digests, compared across iterations and with the traced run.
    digests: List[str]
    #: Reasons for each failed check.
    problems: List[str] = dataclasses.field(default_factory=list)
    #: Calibration passes (starts, durations) of a second process that
    #: shares the throughput phase, and the CPU seconds they took.
    peer_passes: Optional[Tuple[List[float], List[float]]] = None
    peer_stolen_cpu_s: float = 0.0

    @property
    def busy_s(self) -> float:
        """Unscaled program seconds of the throughput phase."""
        return SpeedClock.program_wall(*self.busy)


class ExperimentWorkload:
    """A batched ``run_experiment`` on a fixed topology set, closed loop."""

    spec: ScenarioSpec
    n_topologies: int
    options: Optional[EngineOptions] = None
    #: Topologies re-evaluated through the per-topology reference engine.
    n_reference: int = 0

    def __init__(self, seed: int, workdir: str, n_topologies: Optional[int] = None):
        self.seed = seed
        self.workdir = workdir
        if n_topologies is not None:
            self.n_topologies = n_topologies
        self.config = DEFAULT_CONFIG.with_(n_topologies=self.n_topologies, seed=SEED_STRIDE * seed)
        self.reference: Dict[int, str] = {}
        self.first: Optional[List[str]] = None
        #: Read around every timed phase; ``measure.py`` swaps in a running one.
        self.clock = SpeedClock(0)
        #: Experiment workloads spawn no worker process.
        self.worker_level = "probe"
        self.worker_payloads: List[dict] = []

    def warmup(self) -> None:
        """The set-up run: one topology of this scenario."""
        run_experiment(self.spec, WARMUP_CONFIG, options=self.options)

    def prepare(self) -> List[str]:
        """Reference digests for a seeded sample, through ``evaluate_topology``."""
        if not self.n_reference:
            return []
        channel_sets = generate_channel_sets(self.spec, self.config)
        tasks = build_tasks(
            channel_sets,
            base_seed=self.config.seed,
            coherence_s=self.config.coherence_s,
            imperfections=self.config.imperfections(),
            include_copa_plus=self.spec.include_copa_plus,
            options=EngineOptions.resolve(self.options),
        )
        rng = np.random.default_rng(self.seed)
        sample = sorted(rng.choice(len(tasks), size=self.n_reference, replace=False).tolist())
        for index in sample:
            self.reference[index] = record_digest(evaluate_topology(tasks[index]).record)
        return []

    def channel_sets(self):
        """The inputs; ``None`` lets ``run_experiment`` draw them from the config."""
        return None

    def iteration(self) -> Iteration:
        start = self.clock.mark()
        result = run_experiment(
            self.spec, self.config, channel_sets=self.channel_sets(), options=self.options
        )
        busy = (start, self.clock.mark())
        digests = records_digests(result.records)
        problems = self.check(digests)
        return Iteration(
            topologies=len(result.records),
            busy=busy,
            requests=[busy],
            attempted=self.n_topologies,
            failed=len(problems),
            digests=digests,
            problems=problems,
        )

    def check(self, digests: List[str]) -> List[str]:
        """One problem per topology whose output differs from its reference."""
        if self.first is None:
            self.first = digests
        problems = []
        for index in range(self.n_topologies):
            if index >= len(digests):
                problems.append(f"topology {index} missing")
            elif index in self.reference and digests[index] != self.reference[index]:
                problems.append(f"topology {index} differs from evaluate_topology")
            elif digests[index] != self.first[index]:
                problems.append(f"topology {index} differs from the first iteration")
        return problems


class CopaPlus4x2(ExperimentWorkload):
    spec = CONSTRAINED_4X2
    n_topologies = 30
    n_reference = 1


class NCell4AP(ExperimentWorkload):
    """A fixed 4-AP deployment set; the seed draws its fading and CSI noise.

    The cost of a 4-AP topology depends mostly on how it clusters (one
    4-AP cluster runs graph dynamics, pairs run 2-AP engines), and that
    follows from the geometry.  Drawing the geometry from the seed made
    topologies per second vary by 14% between seeds at 40 topologies;
    with the geometry fixed, fading seeds agree within 1%.
    """

    spec = ScenarioSpec("4x2-n4", 4, 2, include_copa_plus=False, n_aps=4)
    n_topologies = 12
    options = NCELL_OPTIONS
    #: Topology ``t`` is placed by ``default_rng(GEOMETRY_SEED + t)``.
    GEOMETRY_SEED = 2015

    def channel_sets(self):
        generator = self.config.topology_generator()
        model = self.config.channel_model()
        sets = []
        for index in range(self.n_topologies):
            topology = generator.sample(
                np.random.default_rng(self.GEOMETRY_SEED + index),
                self.spec.ap_antennas,
                self.spec.client_antennas,
                self.spec.n_aps,
            )
            sets.append(model.realize(topology, self.config.rng_for_topology(index)))
        return sets

    def prepare(self) -> List[str]:
        """The pinned 4-AP golden means must reproduce."""
        golden = run_experiment(
            self.spec, DEFAULT_CONFIG.with_(n_topologies=5, seed=2015), options=self.options
        )
        problems = []
        for key, expected in GOLDEN_NCELL_MEANS_MBPS.items():
            mean = float(golden.series_mbps(key).mean())
            if not abs(mean - expected) <= GOLDEN_RTOL * abs(expected):
                problems.append(f"4-AP golden {key} is {mean!r}, pinned {expected!r}")
        return problems


class Service4x2:
    """One service session: sharded drain by two processes, then a query mix."""

    spec = dataclasses.replace(CONSTRAINED_4X2, include_copa_plus=False)
    n_topologies = 24
    n_shards = 24
    n_queries = 20
    repeats = 5

    def __init__(self, seed: int, workdir: str, n_topologies: Optional[int] = None):
        self.seed = seed
        self.workdir = workdir
        if n_topologies is not None:
            self.n_topologies = n_topologies
            self.n_queries = n_topologies
            self.n_shards = min(self.n_shards, n_topologies)
        self.config = DEFAULT_CONFIG.with_(n_topologies=self.n_topologies, seed=SEED_STRIDE * seed)
        #: Query channels: their own seed range, disjoint from the drain's.
        self.query_config = DEFAULT_CONFIG.with_(
            n_topologies=self.n_queries, seed=SEED_STRIDE * seed + SEED_STRIDE // 2
        )
        self.sessions = 0
        self.clock = SpeedClock(0)
        #: How the spawned worker is instrumented: "probe" or "full".
        self.worker_level = "probe"
        #: Counts (and spans) the spawned workers wrote, one per session.
        self.worker_payloads: List[dict] = []

    def warmup(self) -> None:
        run_experiment(self.spec, WARMUP_CONFIG)

    #: Topologies of the untimed warm-up session ``prepare`` runs.
    WARMUP_TOPOLOGIES = 2

    def prepare(self, warm_up: bool = True) -> List[str]:
        """Reference: a plain batched ``run_experiment`` of the same spec.

        Then, with ``warm_up``, one small untimed session on its own
        shard directory and cache: in four of four trials the first session
        in a process drained slower than every later one (by up to 8%),
        and a run times only one.
        """
        self.reference = records_digests(run_experiment(self.spec, self.config).records)
        self.query_sets = generate_channel_sets(self.spec, self.query_config)
        if not warm_up:
            return []
        warm = Service4x2(self.seed, os.path.join(self.workdir, "warm-up"), self.WARMUP_TOPOLOGIES)
        problems = warm.prepare(warm_up=False) + warm.iteration().problems
        return [f"warm-up session: {problem}" for problem in problems]

    def _spawn_worker(self, shard_dir: str, cache_root: str, out_path: str) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "perfbench.worker",
                shard_dir,
                cache_root,
                self.worker_level,
                out_path,
                str(WORKER_TIMEOUT_S),
            ],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )

    def iteration(self) -> Iteration:
        self.sessions += 1
        session = os.path.join(self.workdir, f"session-{self.sessions}")
        shutil.rmtree(session, ignore_errors=True)
        shard_dir = os.path.join(session, "shards")
        cache_root = os.path.join(session, "cache")
        out_path = os.path.join(session, "worker.json")
        os.makedirs(session)
        problems: List[str] = []

        # Drain: this process and one spawned worker share the shards.
        start = self.clock.mark()
        worker = self._spawn_worker(shard_dir, cache_root, out_path)
        try:
            result = run_sharded_experiment(
                self.spec,
                self.config,
                shard_dir,
                cache=ResultCache(cache_root),
                collector=Collector(),
                n_shards=self.n_shards,
                timeout_s=WORKER_TIMEOUT_S,
            )
        finally:
            try:
                code = worker.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                worker.kill()
                code = worker.wait()
        busy = (start, self.clock.mark())
        peer_passes, peer_stolen_cpu_s = None, 0.0
        if code != 0:
            problems.append(f"service worker exited with {code}")
        else:
            with open(out_path) as handle:
                payload = json.load(handle)
            self.worker_payloads.append(payload)
            calibration = payload["calibration"]
            if calibration["starts"]:
                peer_passes = (calibration["starts"], calibration["durations"])
                peer_stolen_cpu_s = calibration["stolen_cpu_s"]
        digests = records_digests(result.records)
        for index, expected in enumerate(self.reference):
            if index >= len(digests) or digests[index] != expected:
                problems.append(f"harvested topology {index} differs from run_experiment")

        # Query mix: one client, every channel set queried `repeats` times,
        # staggered: step `i` asks for set `i` (cold) and repeats sets
        # i-1 .. i-repeats+1 (warm), so warm reads spread over the whole
        # phase instead of bunching into its last second.
        service = AllocationService(ResultCache(cache_root))
        cold: Dict[int, str] = {}
        requests: List[Tuple[Mark, Mark]] = []
        n_sets = len(self.query_sets)
        order = [
            (step - repeat, repeat)
            for step in range(n_sets + self.repeats - 1)
            for repeat in range(self.repeats)
            if 0 <= step - repeat < n_sets
        ]
        for index, repeat in order:
            begin = self.clock.mark()
            answer = service.query(self.query_sets[index])
            requests.append((begin, self.clock.mark()))
            digest = record_digest(answer.record)
            if repeat == 0:
                cold[index] = digest
                ok = not answer.hit
            else:
                ok = answer.hit and digest == cold[index]
            if not ok:
                problems.append(f"query {index} repeat {repeat} hit={answer.hit} differs")
            digests.append(digest)
        designed = (len(self.query_sets) * (self.repeats - 1), len(self.query_sets))
        if (service.stats.hits, service.stats.misses) != designed:
            problems.append(
                f"queries hit/missed {service.stats.hits}/{service.stats.misses}, "
                f"designed {designed[0]}/{designed[1]}"
            )
        shutil.rmtree(session, ignore_errors=True)
        attempted = self.n_topologies + len(requests)
        return Iteration(
            topologies=len(result.records),
            busy=busy,
            requests=requests,
            attempted=attempted,
            failed=min(attempted, len(problems)),
            digests=digests,
            problems=problems,
            peer_passes=peer_passes,
            peer_stolen_cpu_s=peer_stolen_cpu_s,
        )


WORKLOADS = {
    "copa_plus_4x2": CopaPlus4x2,
    "service_4x2": Service4x2,
    "ncell_4ap": NCell4AP,
}
