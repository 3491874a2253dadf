"""Simulated crowdsourcing marketplace.

:class:`SimulatedCrowd` is the substitution for the paper's human crowd:
the uncertainty-reduction algorithms consume only
(question → answer-with-reliability) pairs, and this class reproduces that
interface over a sampled ground truth with configurable worker accuracy,
task replication, vote aggregation, and per-task cost accounting.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crowd.aggregation import majority_accuracy, weighted_vote
from repro.crowd.oracle import GroundTruth
from repro.crowd.worker import NoisyWorker, PerfectWorker, Worker
from repro.questions.model import Answer, Question
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive


@dataclass
class CrowdStats:
    """Accounting of a crowdsourcing run."""

    questions_posted: int = 0
    assignments: int = 0
    total_cost: float = 0.0
    log: List[Tuple[Question, bool]] = field(default_factory=list)

    def reset(self) -> None:
        """Clear all counters (new experiment repetition)."""
        self.questions_posted = 0
        self.assignments = 0
        self.total_cost = 0.0
        self.log.clear()


class SimulatedCrowd:
    """A pool of simulated workers answering ranking comparisons.

    Parameters
    ----------
    truth:
        The realized world the workers observe.
    worker_accuracy:
        Per-worker correctness probability; 1.0 gives a perfect crowd.
    replication:
        Workers assigned per question; replies are fused by Bayesian
        (log-odds) voting.
    assumed_accuracy:
        Reliability the *algorithm* assumes when updating the TPO.  By
        default the true effective reliability of the configuration
        (replication-boosted); set a different value to study robustness
        to misestimated worker quality.
    cost_per_assignment:
        Monetary cost charged per worker assignment (accounting only).
    worker_model:
        Optional name from the :data:`repro.api.CROWD_MODELS` registry
        forcing every worker to that model (``"perfect"``/``"noisy"``/
        ``"adversarial"``/custom).  ``None`` keeps the historical
        auto-pick: perfect workers at accuracy 1, noisy below.
    """

    def __init__(
        self,
        truth: GroundTruth,
        worker_accuracy: float = 1.0,
        replication: int = 1,
        assumed_accuracy: Optional[float] = None,
        cost_per_assignment: float = 0.05,
        worker_model: Optional[str] = None,
        rng: SeedLike = None,
    ) -> None:
        check_fraction("worker_accuracy", worker_accuracy)
        check_positive("replication", replication)
        self.truth = truth
        self.worker_accuracy = float(worker_accuracy)
        self.replication = int(replication)
        self.cost_per_assignment = float(cost_per_assignment)
        self.worker_model = worker_model
        self._rng = ensure_rng(rng)
        self.workers: List[Worker] = [
            self._make_worker(index) for index in range(self.replication)
        ]
        if assumed_accuracy is None:
            assumed_accuracy = self.effective_accuracy()
        check_fraction("assumed_accuracy", assumed_accuracy)
        self.assumed_accuracy = float(assumed_accuracy)
        self.stats = CrowdStats()

    def _make_worker(self, index: int) -> Worker:
        if self.worker_model is not None:
            from repro.api.catalog import CROWD_MODELS

            model = CROWD_MODELS.get(self.worker_model)
            name = f"{self.worker_model}-{index}"
            # Pass only the parameters the model's constructor declares
            # (NoisyWorker takes accuracy + rng, Perfect/Adversarial take
            # just a name) — never swallow TypeErrors raised inside it.
            accepted = inspect.signature(model).parameters
            kwargs = {"name": name}
            if "rng" in accepted:
                kwargs["rng"] = self._rng
            if "accuracy" in accepted:
                return model(self.worker_accuracy, **kwargs)
            return model(**kwargs)
        if self.worker_accuracy >= 1.0:
            return PerfectWorker(name=f"perfect-{index}")
        return NoisyWorker(
            self.worker_accuracy, rng=self._rng, name=f"noisy-{index}"
        )

    # ------------------------------------------------------------------

    def effective_accuracy(self) -> float:
        """Reliability of the fused answer under this configuration."""
        if self.worker_accuracy >= 1.0:
            return 1.0
        return majority_accuracy(self.worker_accuracy, self.replication)

    @property
    def is_reliable(self) -> bool:
        """True when answers can be hard-pruned (assumed accuracy 1)."""
        return self.assumed_accuracy >= 1.0

    # ------------------------------------------------------------------

    def ask(self, question: Question) -> Answer:
        """Post a question, collect replicated votes, fuse, and account."""
        votes = [w.answer(question, self.truth) for w in self.workers]
        if len(votes) == 1:
            verdict = votes[0]
        else:
            verdict, _ = weighted_vote(
                votes, [max(w.accuracy, 0.5) for w in self.workers]
            )
        self.stats.questions_posted += 1
        self.stats.assignments += len(votes)
        self.stats.total_cost += len(votes) * self.cost_per_assignment
        self.stats.log.append((question, verdict))
        return Answer(question, verdict, accuracy=self.assumed_accuracy)

    def __repr__(self) -> str:
        return (
            f"SimulatedCrowd(workers={self.replication}, "
            f"accuracy={self.worker_accuracy:g}, "
            f"assumed={self.assumed_accuracy:g})"
        )


__all__ = ["SimulatedCrowd", "CrowdStats"]
