"""EngineOptions: validation, resolution, legacy-dict rejection."""

import dataclasses
import pickle

import pytest

from repro.core.clustering import CLUSTER_POLICIES
from repro.core.mercury import mercury_allocate
from repro.core.options import EngineOptions

FIELD_NAMES = (
    "allocator",
    "rate_selector",
    "max_iterations",
    "tx_power_dbm",
    "oracle_check",
    "cluster_policy",
    "cluster_threshold_db",
)


class TestConstruction:
    def test_default_instance_delegates_everything(self):
        assert EngineOptions().engine_kwargs() == {}

    def test_only_set_fields_become_kwargs(self):
        options = EngineOptions(max_iterations=5, tx_power_dbm=20.0)
        assert options.engine_kwargs() == {"max_iterations": 5, "tx_power_dbm": 20.0}

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineOptions().max_iterations = 3

    def test_picklable_with_module_level_callables(self):
        options = EngineOptions(allocator=mercury_allocate)
        assert pickle.loads(pickle.dumps(options)) == options

    def test_cluster_fields_never_become_engine_kwargs(self):
        options = EngineOptions(
            max_iterations=5, cluster_policy="threshold", cluster_threshold_db=-70.0
        )
        assert options.engine_kwargs() == {"max_iterations": 5}

    def test_cluster_kwargs_hold_only_set_cluster_fields(self):
        assert EngineOptions(max_iterations=5).cluster_kwargs() == {}
        options = EngineOptions(cluster_policy="greedy")
        assert options.cluster_kwargs() == {"cluster_policy": "greedy"}


class TestFieldSet:
    """The option surface is exactly the seven engine and cluster fields."""

    def test_field_names(self):
        assert tuple(f.name for f in dataclasses.fields(EngineOptions)) == FIELD_NAMES

    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_every_field_defaults_to_none(self, name):
        assert getattr(EngineOptions(), name) is None

    def test_retired_backend_field_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            EngineOptions(backend="numpy")

    def test_replace_rejects_retired_backend(self):
        with pytest.raises(TypeError, match="backend"):
            EngineOptions().replace(backend="numpy")

    def test_no_environment_constructor(self):
        """Options come from arguments only; no variable is read."""
        assert not hasattr(EngineOptions, "from_env")


class TestValidation:
    def test_non_callable_allocator_rejected(self):
        with pytest.raises(TypeError):
            EngineOptions(allocator="mercury")

    def test_non_callable_rate_selector_rejected(self):
        with pytest.raises(TypeError):
            EngineOptions(rate_selector=3)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_max_iterations_rejected(self, bad):
        with pytest.raises(ValueError):
            EngineOptions(max_iterations=bad)

    @pytest.mark.parametrize("bad", [True, 2.5, "8"])
    def test_non_int_max_iterations_rejected(self, bad):
        with pytest.raises(TypeError):
            EngineOptions(max_iterations=bad)

    def test_non_finite_tx_power_rejected(self):
        with pytest.raises(ValueError):
            EngineOptions(tx_power_dbm=float("inf"))

    def test_non_numeric_tx_power_rejected(self):
        with pytest.raises(TypeError):
            EngineOptions(tx_power_dbm="20")

    def test_nan_tx_power_rejected(self):
        with pytest.raises(ValueError):
            EngineOptions(tx_power_dbm=float("nan"))

    def test_bool_tx_power_rejected(self):
        with pytest.raises(TypeError):
            EngineOptions(tx_power_dbm=True)

    @pytest.mark.parametrize("bad", [1, "yes"])
    def test_non_bool_oracle_check_rejected(self, bad):
        with pytest.raises(TypeError):
            EngineOptions(oracle_check=bad)

    @pytest.mark.parametrize("policy", CLUSTER_POLICIES)
    def test_known_cluster_policies_accepted(self, policy):
        assert EngineOptions(cluster_policy=policy).cluster_policy == policy

    def test_unknown_cluster_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown cluster policy"):
            EngineOptions(cluster_policy="kmeans")

    @pytest.mark.parametrize("bad", ["-80", True])
    def test_non_numeric_cluster_threshold_rejected(self, bad):
        with pytest.raises(TypeError):
            EngineOptions(cluster_threshold_db=bad)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_cluster_threshold_rejected(self, bad):
        with pytest.raises(ValueError):
            EngineOptions(cluster_threshold_db=bad)


class TestReplace:
    def test_replace_overrides_and_keeps_the_rest(self):
        base = EngineOptions(max_iterations=4)
        replaced = base.replace(tx_power_dbm=20.0)
        assert replaced == EngineOptions(max_iterations=4, tx_power_dbm=20.0)
        assert base == EngineOptions(max_iterations=4)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            EngineOptions().replace(max_iterations=0)


class TestResolve:
    def test_none_gives_defaults(self):
        assert EngineOptions.resolve(None) == EngineOptions()

    def test_instance_passes_through_unchanged(self):
        options = EngineOptions(max_iterations=4)
        assert EngineOptions.resolve(options) is options

    def test_legacy_dict_rejected_with_migration_hint(self):
        """The engine_kwargs dict path is gone — crisp TypeError, no warning."""
        with pytest.raises(TypeError, match="engine_kwargs dict form was removed"):
            EngineOptions.resolve({"max_iterations": 4})

    def test_non_options_value_rejected(self):
        with pytest.raises(TypeError, match="EngineOptions or None"):
            EngineOptions.resolve([("max_iterations", 4)])

    def test_coerce_shim_is_gone(self):
        assert not hasattr(EngineOptions, "coerce")
