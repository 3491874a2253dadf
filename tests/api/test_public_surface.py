"""Snapshot of the public API surface.

``repro.api`` is the stable front door: adding a name is a conscious,
reviewed act, and removing or renaming one is a breaking change.  This
test pins the exact exported surface so accidental drift fails CI (it
also runs inside the lint job).
"""

import importlib

import pytest

import repro.api as api

EXPECTED_API_ALL = [
    # canonical identity
    "canonical_json",
    "content_key",
    # registry subsystem
    "Registry",
    "RegistryError",
    "UnknownNameError",
    "DuplicateNameError",
    # the catalog
    "POLICIES",
    "MEASURES",
    "WORKLOADS",
    "SCENARIOS",
    "CROWD_MODELS",
    "DISTRIBUTIONS",
    "ENGINES",
    "STORES",
    "EVALS",
    "CHECKS",
    "all_registries",
    # specs
    "InstanceSpec",
    "PolicySpec",
    "MeasureSpec",
    "CrowdSpec",
    "BudgetSpec",
    "EngineSpec",
    "SessionSpec",
    "StoreSpec",
    "ServeSpec",
    "SHARD_STRATEGIES",
    "as_instance_spec",
    # execution
    "PreparedSession",
    "ReplayResult",
    "prepare_session",
    "replay_session",
    "run_session",
]

#: Every enumerable plugin axis — ``repro list`` kinds and the
#: ``/v1/meta`` plugin map share exactly this key set.
EXPECTED_REGISTRY_KINDS = [
    "checks",
    "crowd_models",
    "distributions",
    "engines",
    "evals",
    "measures",
    "policies",
    "scenarios",
    "stores",
    "workloads",
]

EXPECTED_BUILTIN_PLUGINS = {
    "policies": [
        "A*-off",
        "A*-on",
        "C-off",
        "T1-on",
        "TB-off",
        "exhaustive",
        "incr",
        "naive",
        "random",
    ],
    "measures": ["H", "Hw", "MPO", "ORA"],
    "workloads": [
        "clustered",
        "gaussian",
        "jittered",
        "mixed",
        "pareto",
        "triangular",
        "uniform",
    ],
    "scenarios": ["photo_contest", "restaurant_guide", "sensor_network"],
    "crowd_models": ["adversarial", "noisy", "perfect"],
    "distributions": [
        "affine",
        "gaussian",
        "histogram",
        "mixture",
        "pareto",
        "point",
        "triangular",
        "uniform",
    ],
    "engines": ["exact", "grid", "mc"],
    "stores": ["disk-npz", "memory"],
    "evals": ["calibration", "golden", "paper", "regret"],
    "checks": [
        "RPC101",
        "RPC102",
        "RPC103",
        "RPC104",
        "RPL001",
        "RPL002",
        "RPL003",
        "RPL005",
        "RPL007",
        "RPL008",
        "RPL009",
        "RPL010",
    ],
}


def test_api_all_is_exactly_the_reviewed_surface():
    assert list(api.__all__) == EXPECTED_API_ALL


def test_every_exported_name_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_registry_kind_list_is_stable():
    assert sorted(api.all_registries()) == EXPECTED_REGISTRY_KINDS


def test_builtin_plugin_names_are_stable():
    observed = {
        kind: registry.available()
        for kind, registry in api.all_registries().items()
    }
    assert observed == EXPECTED_BUILTIN_PLUGINS


#: Removed entry points: importing one must fail rather than resolve to
#: a stale alias.  3.0.0 removed the pre-``repro.api`` factories; 4.0.0
#: removed the second analyzer front end (``repro check`` is the one);
#: 5.0.0 removed the second session path of the figure drivers (their
#: cells are ``SessionSpec`` dicts run through ``repro.api.run``).
REMOVED = [
    ("repro", "make_policy"),
    ("repro", "make_builder"),
    ("repro", "get_measure"),
    ("repro.core", "make_policy"),
    ("repro.uncertainty", "get_measure"),
    ("repro.uncertainty", "register_measure"),
    ("repro.uncertainty", "available_measures"),
    ("repro.workloads", "make_workload"),
    ("repro.tpo", "make_builder"),
    ("repro.service.manager", "normalize_spec"),
    ("repro.service.manager", "materialize_instance"),
    ("repro.devtools", "lint"),
    ("repro.devtools", "analysis"),
    ("repro.devtools", "gate"),
    ("repro.experiments", "ExperimentConfig"),
    ("repro.experiments", "run_cell"),
    ("repro.experiments.harness", "ExperimentConfig"),
    ("repro.experiments.harness", "run_cell"),
    ("repro.experiments.harness", "run_cell_record"),
    ("repro.experiments.harness", "standard_row"),
    ("repro.experiments.harness", "config_cells"),
    ("repro.experiments.harness", "CELL_RUNNER"),
    ("repro.experiments.grid", "canonical_json"),
    ("repro.experiments.runner", "make_run"),
    ("repro.experiments.fig1a", "run"),
    ("repro.experiments.fig1a", "main"),
]


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_entry_points_do_not_import(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert not hasattr(importlib.import_module(module), name)


def test_result_table_has_no_session_projection():
    from repro.experiments.harness import ResultTable

    assert not hasattr(ResultTable, "add_result")
