"""The batched-engine perf harness: schema contract and committed baseline.

``benchmarks/bench_batch.py`` is a script, not a package module, so it
is loaded from its file path here.  The tests pin the
``repro.bench/batch-v1`` schema and keep the committed repo-root
``BENCH_batch.json`` valid and above the 5x acceptance floor.  The
timing acceptance itself runs in CI via ``--quick --check``; re-running
the full benchmark here would add minutes of wall-clock for numbers the
committed baseline already records.
"""

import copy
import importlib.util
import json
import os

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCRIPT = os.path.join(_REPO_ROOT, "benchmarks", "bench_batch.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_batch", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline_payload():
    with open(os.path.join(_REPO_ROOT, "BENCH_batch.json")) as handle:
        return json.load(handle)


class TestCommittedBaseline:
    def test_is_schema_valid(self, bench, baseline_payload):
        bench.validate_bench_payload(baseline_payload)

    def test_meets_the_acceptance_floor(self, bench, baseline_payload):
        """The committed payload must be a full (non-quick) run that clears
        the 5x end-to-end speedup the batched engine promises."""
        assert baseline_payload["quick"] is False
        assert baseline_payload["batch"]["speedup"] >= bench.SPEEDUP_FLOOR

    def test_batch_section_fields(self, baseline_payload):
        """One batched NumPy path: the payload names no array backend."""
        assert set(baseline_payload["batch"]) == {
            "batch_size",
            "batched_s",
            "legacy_s",
            "repeats",
            "speedup",
            "speedup_floor",
        }

    def test_report_formats(self, bench, baseline_payload):
        report = bench.format_report(baseline_payload)
        assert "end-to-end speedup" in report
        assert "batched engine" in report


class TestSchemaValidation:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("schema"),
            lambda p: p.__setitem__("schema", "repro.bench/cache-v1"),
            lambda p: p.pop("batch"),
            lambda p: p["batch"].__setitem__("speedup", -1),
            lambda p: p["batch"].__setitem__("batch_size", 1),
            lambda p: p["batch"].__setitem__("legacy_s", "slow"),
            lambda p: p["workload"].__setitem__("series", []),
            lambda p: p["workload"].pop("include_copa_plus"),
        ],
        ids=[
            "missing_schema",
            "wrong_schema",
            "missing_batch",
            "negative_speedup",
            "unbatched_batch_size",
            "non_numeric_time",
            "empty_series",
            "missing_plus_flag",
        ],
    )
    def test_damaged_payloads_are_rejected(self, bench, baseline_payload, mutate):
        payload = copy.deepcopy(baseline_payload)
        mutate(payload)
        with pytest.raises(ValueError):
            bench.validate_bench_payload(payload)
