"""Crowd-question machinery."""

from repro.questions.candidates import (
    all_pair_questions,
    informative_questions,
    relevant_questions,
)
from repro.questions.model import Answer, Question
from repro.questions.residual import ResidualEvaluator
from repro.questions.transitive import InferenceCache, TransitiveClosure

__all__ = [
    "Question",
    "Answer",
    "all_pair_questions",
    "relevant_questions",
    "informative_questions",
    "ResidualEvaluator",
    "TransitiveClosure",
    "InferenceCache",
]
