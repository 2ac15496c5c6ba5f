"""Runner-level batching: dispatch semantics, bit-identity, options typing.

``run_tasks(batch_size=None)`` (the default) hands whole chunks to the
batched engine; ``batch_size=1`` forces the legacy per-topology path.
The two must agree bit for bit — serial or pooled — and the typed
``options`` surface must reject the retired ``engine_kwargs`` dict with
a crisp :class:`TypeError` at every public entry point.
"""

import warnings

import numpy as np
import pytest

from repro.core import batch as batch_engine
from repro.core.options import EngineOptions
from repro.obs import Collector
from repro.sim.config import SimConfig
from repro.sim.emulation import run_emulated_experiment
from repro.sim.experiment import ScenarioSpec, generate_channel_sets, run_experiment
from repro.sim.runner import build_tasks, evaluate_batch, evaluate_topology, run_tasks
from repro.sim.sweep import (
    sweep_antenna_configurations,
    sweep_coherence_time,
    sweep_interference,
)

from tests.core.test_batch import assert_same_outcome

SPEC = ScenarioSpec("1x1", 1, 1, include_copa_plus=True)
CONFIG = SimConfig(n_topologies=4)


@pytest.fixture(scope="module")
def tasks():
    return build_tasks(
        generate_channel_sets(SPEC, CONFIG),
        base_seed=CONFIG.seed,
        coherence_s=CONFIG.coherence_s,
        imperfections=CONFIG.imperfections(),
        include_copa_plus=True,
    )


def assert_same_records(records_a, records_b):
    assert [r.index for r in records_a] == [r.index for r in records_b]
    for a, b in zip(records_a, records_b):
        assert_same_outcome(a.outcome, b.outcome)
        assert (a.plus_outcome is None) == (b.plus_outcome is None)
        if a.plus_outcome is not None:
            assert_same_outcome(a.plus_outcome, b.plus_outcome)


class TestDispatch:
    def test_serial_batched_matches_legacy_bit_for_bit(self, tasks):
        batched, stats = run_tasks(tasks, workers=1)
        legacy, legacy_stats = run_tasks(tasks, workers=1, batch_size=1)
        assert_same_records(batched, legacy)
        assert stats.batch_size == len(tasks)
        assert legacy_stats.batch_size == 1

    def test_pool_batched_matches_legacy_bit_for_bit(self, tasks):
        pooled, stats = run_tasks(tasks, workers=2, batch_size=2)
        legacy, _ = run_tasks(tasks, workers=1, batch_size=1)
        assert_same_records(pooled, legacy)
        assert stats.parallel
        assert stats.batch_size == 2

    def test_explicit_batch_size_caps_serial_groups(self, tasks):
        capped, stats = run_tasks(tasks, workers=1, batch_size=3)
        legacy, _ = run_tasks(tasks, workers=1, batch_size=1)
        assert_same_records(capped, legacy)
        assert stats.batch_size == 3

    @pytest.mark.parametrize("bad", [0, -2])
    def test_invalid_batch_size_rejected(self, tasks, bad):
        with pytest.raises(ValueError, match="batch_size"):
            run_tasks(tasks, batch_size=bad)

    def test_observed_runs_stay_per_topology(self, tasks):
        """Batching would change the trace shape, so an enabled collector
        must force the legacy path."""
        collector = Collector()
        _, stats = run_tasks(tasks[:2], workers=1, collector=collector)
        assert stats.batch_size == 1

    def test_engine_failure_falls_back_to_serial(self, tasks, monkeypatch):
        """A batching defect must never lose a sweep: the group is replayed
        through the reference per-topology path."""

        def boom(group, collector=None):
            raise RuntimeError("injected batching defect")

        monkeypatch.setattr(batch_engine, "run_batch", boom)
        with pytest.warns(RuntimeWarning, match="injected batching defect"):
            results = evaluate_batch(tasks)
        reference = [evaluate_topology(task) for task in tasks]
        assert_same_records(
            [r.record for r in results], [r.record for r in reference]
        )

    def test_fallback_warning_names_the_group_size(self, tasks, monkeypatch):
        def boom(group, collector=None):
            raise ValueError("injected batching defect")

        monkeypatch.setattr(batch_engine, "run_batch", boom)
        with pytest.warns(RuntimeWarning) as record:
            evaluate_batch(tasks)
        assert len(record) == 1
        message = str(record[0].message)
        assert f"batched dispatch of {len(tasks)} topologies failed" in message
        assert "ValueError('injected batching defect')" in message

    def test_successful_batch_does_not_warn(self, tasks):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = evaluate_batch(tasks)
        assert [r.record.index for r in results] == [task.index for task in tasks]


class TestExperimentSurface:
    def test_series_match_across_dispatch_modes(self):
        spec = ScenarioSpec("3x2", 3, 2, include_copa_plus=True)
        config = SimConfig(n_topologies=3)
        batched = run_experiment(spec, config, workers=1)
        legacy = run_experiment(spec, config, workers=1, batch_size=1)
        assert batched.available_series() == legacy.available_series()
        for key in batched.available_series():
            np.testing.assert_array_equal(
                batched.series_mbps(key), legacy.series_mbps(key)
            )


class TestLegacyDictRejection:
    """Every ``options`` entry point rejects the retired dict spelling.

    The PR-7 deprecation window is over: a legacy ``engine_kwargs`` dict
    raises a crisp :class:`TypeError` with the migration hint instead of
    being coerced with a warning.
    """

    LEGACY = {"max_iterations": 8}

    def entry_points(self):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        config = SimConfig(n_topologies=1)
        sets = generate_channel_sets(spec, config)
        yield "run_experiment", lambda: run_experiment(
            spec, config, options=dict(self.LEGACY)
        )
        yield "run_emulated_experiment", lambda: run_emulated_experiment(
            spec, -10.0, config, options=dict(self.LEGACY)
        )
        yield "build_tasks", lambda: build_tasks(
            sets,
            base_seed=config.seed,
            coherence_s=config.coherence_s,
            imperfections=config.imperfections(),
            options=dict(self.LEGACY),
        )
        yield "sweep_coherence_time", lambda: sweep_coherence_time(
            (0.120,), spec, config, options=dict(self.LEGACY)
        )
        yield "sweep_interference", lambda: sweep_interference(
            (0.0,), spec, config, options=dict(self.LEGACY)
        )
        yield "sweep_antenna_configurations", lambda: sweep_antenna_configurations(
            ((1, 1),), config, options=dict(self.LEGACY)
        )

    def test_every_entry_point_raises_type_error(self):
        for name, call in self.entry_points():
            with pytest.raises(TypeError, match="engine_kwargs dict form was removed"):
                call()
            # pytest.raises asserts per entry point; ``name`` labels failures.

    def test_typed_options_never_warn(self):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        config = SimConfig(n_topologies=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_experiment(spec, config, options=EngineOptions(max_iterations=8))
