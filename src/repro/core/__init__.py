"""The paper's primary contribution.

Question-selection policies for crowd-powered uncertainty reduction over
top-K query results, plus the session engine that runs them against a
budget and a (simulated) crowd.
"""

from repro.api.catalog import POLICIES
from repro.core.incremental import IncrementalAlgorithm
from repro.core.policies import (
    AStarOfflinePolicy,
    AStarOnlinePolicy,
    ConditionalPolicy,
    ExhaustivePolicy,
    NaivePolicy,
    OfflinePolicy,
    OnlinePolicy,
    Policy,
    RandomPolicy,
    Top1OnlinePolicy,
    TopBPolicy,
    ValueOfInformationStopper,
)
from repro.core.session import SessionResult, UncertaintyReductionSession


__all__ = [
    "Policy",
    "OfflinePolicy",
    "OnlinePolicy",
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
    "UncertaintyReductionSession",
    "SessionResult",
    "POLICIES",
]
