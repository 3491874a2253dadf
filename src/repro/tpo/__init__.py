"""Tree-of-possible-orderings substrate.

Builds, extends, prunes, and flattens the TPO ``T_K`` of Soliman & Ilyas
that the paper's uncertainty-reduction algorithms operate on.  The tree
is stored as flat per-level ``(tuple_ids, parent_idx, probs)`` array
tables (see :mod:`repro.tpo.tree`), and every engine extends the whole
frontier in one batched pass (:mod:`repro.tpo.builders`); the pointer
node API survives as read-only views.
"""

from repro.tpo.builders import (
    ENGINES,
    ExactBuilder,
    GridBuilder,
    MonteCarloBuilder,
    TPOBuilder,
    TPOSizeError,
)
from repro.tpo.analysis import (
    overlap_statistics,
    profile_space,
    question_impact_table,
    tuple_volatility,
)
from repro.tpo.node import ROOT_TUPLE, TPONodeView
from repro.tpo.semantics import (
    answer_report,
    expected_ranks,
    pt_k,
    u_kranks,
    u_topk,
)
from repro.tpo.serialize import tree_from_dict, tree_to_dict, tree_to_dot
from repro.tpo.space import DegenerateSpaceError, OrderingSpace
from repro.tpo.tree import TPOLevel, TPOTree

__all__ = [
    "TPONodeView",
    "ROOT_TUPLE",
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
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_dot",
    "u_topk",
    "u_kranks",
    "pt_k",
    "expected_ranks",
    "answer_report",
    "profile_space",
    "question_impact_table",
    "tuple_volatility",
    "overlap_statistics",
]
