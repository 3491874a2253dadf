"""repro — Crowdsourcing for Top-K Query Processing over Uncertain Data.

A full reproduction of Ciceri, Fraternali, Martinenghi & Tagliasacchi
(ICDE 2016 / TKDE 28(1), 2016): top-K query processing over tuples with
uncertain scores, where a budget of pairwise crowd questions is spent to
shrink the space of possible orderings.

Quick start (the typed :mod:`repro.api` front door)::

    from repro.api import InstanceSpec, SessionSpec, run_session

    spec = SessionSpec(
        instance=InstanceSpec(n=12, k=5, seed=0, params={"width": 0.3}),
    )
    result = run_session(spec)
    print(result.summary())

Lower-level building blocks (distributions, builders, sessions, crowds)
remain importable from this package for programmatic composition.
Plugins are built by name through :mod:`repro.api` alone: its registries
(``POLICIES.create``, ``MEASURES.create``, …) and specs are the only
factories.

The reproduced figures are the drivers in
:data:`repro.experiments.EXPERIMENTS` (README, "Running experiment
grids"); ``repro eval --suite paper`` gates the paper's claims on them.
"""

from repro import api
from repro.core import (
    AStarOfflinePolicy,
    AStarOnlinePolicy,
    ConditionalPolicy,
    ExhaustivePolicy,
    IncrementalAlgorithm,
    NaivePolicy,
    POLICIES,
    RandomPolicy,
    SessionResult,
    Top1OnlinePolicy,
    TopBPolicy,
    UncertaintyReductionSession,
)
from repro.crowd import (
    GroundTruth,
    NoisyWorker,
    PerfectWorker,
    SimulatedCrowd,
)
from repro.db import (
    AttributeScore,
    LinearScore,
    UncertainTable,
    crowdsourced_topk,
    topk,
)
from repro.core.policies import ValueOfInformationStopper
from repro.distributions import (
    AffineDistribution,
    Histogram,
    Mixture,
    PointMass,
    ScoreDistribution,
    Triangular,
    TruncatedGaussian,
    TruncatedPareto,
    Uniform,
)
from repro.questions import Answer, Question, relevant_questions
from repro.rank import expected_topk_distance, kendall_tau, topk_kendall
from repro.tpo import (
    ExactBuilder,
    GridBuilder,
    MonteCarloBuilder,
    OrderingSpace,
    TPOTree,
    expected_ranks,
    profile_space,
    pt_k,
    u_kranks,
    u_topk,
)
from repro.uncertainty import (
    EntropyMeasure,
    MPOUncertainty,
    ORAUncertainty,
    WeightedEntropyMeasure,
)

__version__ = "7.0.0"

__all__ = [
    "__version__",
    # the typed public API
    "api",
    # distributions
    "ScoreDistribution",
    "Uniform",
    "Triangular",
    "TruncatedGaussian",
    "TruncatedPareto",
    "Histogram",
    "PointMass",
    "AffineDistribution",
    "Mixture",
    # tpo
    "TPOTree",
    "OrderingSpace",
    "GridBuilder",
    "ExactBuilder",
    "MonteCarloBuilder",
    "u_topk",
    "u_kranks",
    "pt_k",
    "expected_ranks",
    "profile_space",
    # uncertainty
    "EntropyMeasure",
    "WeightedEntropyMeasure",
    "ORAUncertainty",
    "MPOUncertainty",
    # questions
    "Question",
    "Answer",
    "relevant_questions",
    # rank
    "kendall_tau",
    "topk_kendall",
    "expected_topk_distance",
    # crowd
    "GroundTruth",
    "PerfectWorker",
    "NoisyWorker",
    "SimulatedCrowd",
    # core
    "UncertaintyReductionSession",
    "SessionResult",
    "POLICIES",
    "RandomPolicy",
    "NaivePolicy",
    "TopBPolicy",
    "ConditionalPolicy",
    "AStarOfflinePolicy",
    "AStarOnlinePolicy",
    "Top1OnlinePolicy",
    "ExhaustivePolicy",
    "ValueOfInformationStopper",
    "IncrementalAlgorithm",
    # db
    "UncertainTable",
    "AttributeScore",
    "LinearScore",
    "topk",
    "crowdsourced_topk",
]
