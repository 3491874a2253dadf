"""Uncertain-relational layer."""

from repro.db.csvio import read_table, write_table
from repro.db.query import TopKResult, crowdsourced_topk, topk
from repro.db.scoring import AttributeScore, LinearScore, ScoringFunction
from repro.db.table import UncertainTable, UncertainTuple

__all__ = [
    "UncertainTable",
    "UncertainTuple",
    "ScoringFunction",
    "AttributeScore",
    "LinearScore",
    "topk",
    "crowdsourced_topk",
    "TopKResult",
    "read_table",
    "write_table",
]
