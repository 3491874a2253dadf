"""``repro.api`` — the stable, typed public surface of the reproduction.

One front door for everything pluggable and everything declarative:

* **Registries** (:class:`~repro.api.registry.Registry`): every pluggable
  axis — policies, uncertainty measures, workload generators, scenarios,
  crowd worker models, score-distribution families, TPO engines — is a
  shared registry instance with lazy built-in registrations, collision
  detection, and typo suggestions.  ``repro list`` and the service's
  ``/v1/meta`` endpoint enumerate them.
* **Specs** (:mod:`~repro.api.specs`): frozen, validated dataclasses with
  canonical-JSON round-trip (``to_dict``/``from_dict``/``canonical_json``/
  ``content_key``) that plug straight into the BLAKE2b content-addressing
  used by the TPO cache and the experiment grid.
* **Execution** (:func:`run_session` / :func:`prepare_session`): turn a
  :class:`SessionSpec` into a deterministic, reproducible session run.

Quick start::

    from repro.api import InstanceSpec, PolicySpec, SessionSpec, run_session

    spec = SessionSpec(
        instance=InstanceSpec(n=12, k=5, seed=7, params={"width": 0.3}),
        policy=PolicySpec("T1-on"),
    )
    result = run_session(spec)
    print(result.summary())
"""

from repro.api.canonical import canonical_json, content_key
from repro.api.catalog import (
    CHECKS,
    CROWD_MODELS,
    DISTRIBUTIONS,
    ENGINES,
    EVALS,
    MEASURES,
    POLICIES,
    SCENARIOS,
    STORES,
    WORKLOADS,
    all_registries,
)
from repro.api.registry import (
    DuplicateNameError,
    Registry,
    RegistryError,
    UnknownNameError,
)
from repro.api.run import (
    PreparedSession,
    ReplayResult,
    prepare_session,
    replay_session,
    run_session,
)
from repro.api.specs import (
    BudgetSpec,
    CrowdSpec,
    EngineSpec,
    InstanceSpec,
    MeasureSpec,
    PolicySpec,
    ServeSpec,
    SessionSpec,
    StoreSpec,
    as_instance_spec,
)

__all__ = [
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
