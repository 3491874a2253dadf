"""The built-in plugin catalog: one registry per pluggable axis.

Every name the system understands — question-selection policies,
uncertainty measures, workload generators, realistic scenarios, crowd
worker models, score-distribution families, TPO construction engines,
``repro check`` analyzer checks — is registered here, lazily, as a ``"module:attr"`` dotted path.  Nothing
heavy is imported until a plugin is actually constructed, which is what
lets the module-level aliases (``repro.core.POLICIES``,
``repro.workloads.GENERATORS``, …) point at these registries without
import cycles.

Downstream users extend the system by registering into these instances::

    from repro.api import MEASURES

    MEASURES.register("flat", MyFlatMeasure)

``repro list`` and the service's ``/v1/meta`` endpoint enumerate exactly
this catalog.
"""

from __future__ import annotations

from typing import Dict

from repro.api.registry import Registry

#: Question-selection policies (the paper's algorithm names).
POLICIES = Registry("policy")
POLICIES.register("random", "repro.core.policies:RandomPolicy")
POLICIES.register("naive", "repro.core.policies:NaivePolicy")
POLICIES.register("TB-off", "repro.core.policies:TopBPolicy")
POLICIES.register("C-off", "repro.core.policies:ConditionalPolicy")
POLICIES.register("A*-off", "repro.core.policies:AStarOfflinePolicy")
POLICIES.register("A*-on", "repro.core.policies:AStarOnlinePolicy")
POLICIES.register("T1-on", "repro.core.policies:Top1OnlinePolicy")
POLICIES.register("incr", "repro.core.incremental:IncrementalAlgorithm")
POLICIES.register("exhaustive", "repro.core.policies:ExhaustivePolicy")

#: Ordering-uncertainty measures (paper names, case-sensitive).
MEASURES = Registry("uncertainty measure")
MEASURES.register("H", "repro.uncertainty.entropy:EntropyMeasure")
MEASURES.register("Hw", "repro.uncertainty.entropy:WeightedEntropyMeasure")
MEASURES.register("ORA", "repro.uncertainty.representative:ORAUncertainty")
MEASURES.register("MPO", "repro.uncertainty.representative:MPOUncertainty")

#: Synthetic workload generators (score-distribution lists).
WORKLOADS = Registry("workload")
WORKLOADS.register("uniform", "repro.workloads.synthetic:uniform_intervals")
WORKLOADS.register("jittered", "repro.workloads.synthetic:jittered_widths")
WORKLOADS.register("gaussian", "repro.workloads.synthetic:gaussian_scores")
WORKLOADS.register(
    "triangular", "repro.workloads.synthetic:triangular_scores"
)
WORKLOADS.register("pareto", "repro.workloads.synthetic:pareto_scores")
WORKLOADS.register(
    "clustered", "repro.workloads.synthetic:clustered_intervals"
)
WORKLOADS.register("mixed", "repro.workloads.synthetic:mixed_certainty")

#: Realistic uncertain-table scenarios (full example applications).
SCENARIOS = Registry("scenario")
SCENARIOS.register(
    "sensor_network", "repro.workloads.scenarios:sensor_network"
)
SCENARIOS.register("photo_contest", "repro.workloads.scenarios:photo_contest")
SCENARIOS.register(
    "restaurant_guide", "repro.workloads.scenarios:restaurant_guide"
)

#: Crowd worker models (how a simulated worker answers).
CROWD_MODELS = Registry("crowd model")
CROWD_MODELS.register("perfect", "repro.crowd.worker:PerfectWorker")
CROWD_MODELS.register("noisy", "repro.crowd.worker:NoisyWorker")
CROWD_MODELS.register("adversarial", "repro.crowd.worker:AdversarialWorker")

#: Score-distribution families.
DISTRIBUTIONS = Registry("distribution")
DISTRIBUTIONS.register("uniform", "repro.distributions.uniform:Uniform")
DISTRIBUTIONS.register(
    "triangular", "repro.distributions.triangular:Triangular"
)
DISTRIBUTIONS.register(
    "gaussian", "repro.distributions.gaussian:TruncatedGaussian"
)
DISTRIBUTIONS.register(
    "pareto", "repro.distributions.pareto:TruncatedPareto"
)
DISTRIBUTIONS.register("histogram", "repro.distributions.histogram:Histogram")
DISTRIBUTIONS.register("point", "repro.distributions.point:PointMass")
DISTRIBUTIONS.register("mixture", "repro.distributions.mixture:Mixture")
DISTRIBUTIONS.register(
    "affine", "repro.distributions.affine:AffineDistribution"
)

#: TPO construction engines.
ENGINES = Registry("TPO engine")
ENGINES.register("grid", "repro.tpo.builders:GridBuilder")
ENGINES.register("exact", "repro.tpo.builders:ExactBuilder")
ENGINES.register("mc", "repro.tpo.builders:MonteCarloBuilder")

#: Cross-process cold-tier store backends (binary TPO payloads).
STORES = Registry("store backend")
STORES.register("memory", "repro.service.store:MemoryColdTier")
STORES.register("disk-npz", "repro.service.store:DiskNpzColdTier")

#: Evaluation suites (fidelity gates: calibration / regret / golden /
#: the paper's claims).
EVALS = Registry("eval suite")
EVALS.register("calibration", "repro.evals.calibration:CalibrationEval")
EVALS.register("regret", "repro.evals.regret:RegretEval")
EVALS.register("golden", "repro.evals.golden:GoldenEval")
EVALS.register("paper", "repro.evals.paper:PaperEval")

#: ``repro check``: per-file rules (RPL, :mod:`repro.devtools.rules`) and
#: whole-program call-graph checks (RPC, :mod:`repro.devtools.checks`).
CHECKS = Registry("check")
CHECKS.register("RPL001", "repro.devtools.rules:SeededRngRule")
CHECKS.register("RPL002", "repro.devtools.rules:ContentKeyRule")
CHECKS.register("RPL003", "repro.devtools.rules:FrozenSpecRule")
CHECKS.register("RPL005", "repro.devtools.rules:ExplicitDtypeRule")
CHECKS.register("RPL007", "repro.devtools.rules:TornTailAppendRule")
CHECKS.register("RPL008", "repro.devtools.rules:MutableDefaultRule")
CHECKS.register("RPL009", "repro.devtools.rules:EngineSpecConstructionRule")
CHECKS.register("RPL010", "repro.devtools.rules:EvalSessionDisciplineRule")
CHECKS.register("RPC101", "repro.devtools.checks:AsyncBlockingPropagation")
CHECKS.register("RPC102", "repro.devtools.checks:ContentKeyPurity")
CHECKS.register("RPC103", "repro.devtools.checks:RegistryClosure")
CHECKS.register("RPC104", "repro.devtools.checks:ExceptionContract")


def all_registries() -> Dict[str, Registry]:
    """Every catalog registry, keyed by its plural enumeration name.

    The single source for ``repro list`` and the ``/v1/meta`` endpoint.
    """
    return {
        "policies": POLICIES,
        "measures": MEASURES,
        "workloads": WORKLOADS,
        "scenarios": SCENARIOS,
        "crowd_models": CROWD_MODELS,
        "distributions": DISTRIBUTIONS,
        "engines": ENGINES,
        "stores": STORES,
        "evals": EVALS,
        "checks": CHECKS,
    }


__all__ = [
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
]
