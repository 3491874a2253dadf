"""Simulated crowdsourcing substrate."""

from repro.crowd.aggregation import (
    majority_accuracy,
    majority_vote,
    weighted_vote,
)
from repro.crowd.estimation import (
    EstimationResult,
    LabeledVote,
    estimate_worker_accuracies,
    simulate_vote_log,
)
from repro.crowd.oracle import GroundTruth
from repro.crowd.simulator import CrowdStats, SimulatedCrowd
from repro.crowd.worker import (
    AdversarialWorker,
    NoisyWorker,
    PerfectWorker,
    Worker,
)

__all__ = [
    "GroundTruth",
    "Worker",
    "PerfectWorker",
    "NoisyWorker",
    "AdversarialWorker",
    "majority_vote",
    "weighted_vote",
    "majority_accuracy",
    "SimulatedCrowd",
    "CrowdStats",
    "LabeledVote",
    "EstimationResult",
    "estimate_worker_accuracies",
    "simulate_vote_log",
]
