"""Snapshot of the public API surface.

``repro.api`` is the stable front door: adding a name is a conscious,
reviewed act, and removing or renaming one is a breaking change.  This
test pins the exact exported surface — of ``repro.api`` and of the
``repro.tpo`` substrate — so accidental drift fails CI (it also runs
inside the lint job).
"""

import importlib

import pytest

import repro.api as api
import repro.tpo as tpo

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
    "as_instance_spec",
    # execution
    "PreparedSession",
    "ReplayResult",
    "prepare_session",
    "replay_session",
    "run_session",
]

#: The tree-of-possible-orderings substrate: the level-table tree, its
#: flattened space, the engines, and the diagnostics over them.  The npz
#: archive of ``repro.tpo.serialize`` is the tree's one serialized form.
EXPECTED_TPO_ALL = [
    "TPOTree",
    "TPOLevel",
    "OrderingSpace",
    "DegenerateSpaceError",
    "TPOBuilder",
    "TPOSizeError",
    "GridBuilder",
    "ExactBuilder",
    "MonteCarloBuilder",
    "ENGINES",
    "u_topk",
    "u_kranks",
    "pt_k",
    "expected_ranks",
    "answer_report",
    "profile_space",
    "question_impact_table",
    "overlap_statistics",
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


def test_tpo_all_is_exactly_the_reviewed_surface():
    assert list(tpo.__all__) == EXPECTED_TPO_ALL
    for name in tpo.__all__:
        assert getattr(tpo, name) is not None


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
#: cells are ``SessionSpec`` dicts run through ``repro.api.run``); 6.0.0
#: removed the pointer-era tree surface (node views, the JSON/DOT
#: formats, lazy k-best) and the one-valued shard strategy knob; 7.0.0
#: moved the per-pair settledness test to the test oracles (the session
#: question pool replaces it).
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
    ("repro.tpo", "TPONodeView"),
    ("repro.tpo", "ROOT_TUPLE"),
    ("repro.tpo", "tree_to_dict"),
    ("repro.tpo", "tree_from_dict"),
    ("repro.tpo", "tree_to_dot"),
    ("repro.tpo", "tuple_volatility"),
    ("repro.tpo.serialize", "tree_to_dict"),
    ("repro.tpo.serialize", "tree_from_dict"),
    ("repro.tpo.serialize", "tree_to_dot"),
    ("repro.tpo.serialize", "_memmap_npz_members"),
    ("repro.api", "SHARD_STRATEGIES"),
    ("repro.questions", "is_settled"),
    ("repro.questions.candidates", "is_settled"),
]


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_entry_points_do_not_import(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert not hasattr(importlib.import_module(module), name)


def test_result_table_has_no_session_projection():
    from repro.experiments.harness import ResultTable

    assert not hasattr(ResultTable, "add_result")


def test_tpo_tree_and_space_drop_the_pointer_era_methods():
    from repro.tpo import OrderingSpace, TPOTree

    for name in (
        "root",
        "iter_nodes",
        "nodes_at_depth",
        "leaves",
        "node_count",
        "path_of",
        "iter_orderings",
        "top_orderings_lazy",
        "reweight_with_answer",
        "validate",
    ):
        assert not hasattr(TPOTree, name), name
    for name in ("top_orderings", "sample_ordering", "answer_probability"):
        assert not hasattr(OrderingSpace, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.tpo.node")


def test_methods_without_a_production_caller_stay_gone():
    from repro.crowd.simulator import SimulatedCrowd
    from repro.db.query import TopKResult
    from repro.db.table import UncertainTable
    from repro.distributions.grid import Grid
    from repro.distributions.piecewise import PiecewisePolynomial
    from repro.experiments.grid import ExperimentGrid
    from repro.experiments.store import ResultStore
    from repro.questions.residual import ResidualEvaluator
    from repro.tpo import TPOTree
    from repro.utils.timing import Stopwatch

    for owner, name in (
        (ResidualEvaluator, "question_set"),
        (TopKResult, "semantics_report"),
        (PiecewisePolynomial, "clip_domain"),
        (PiecewisePolynomial, "sample_values"),
        (TPOTree, "level_mass"),
        (Grid, "lower_tail"),
        (SimulatedCrowd, "ask_batch"),
        (UncertainTable, "index_of"),
        (Stopwatch, "grand_total"),
        (ExperimentGrid, "cell_ids"),
        (ResultStore, "completed_ids"),
    ):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
