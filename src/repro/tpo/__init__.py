"""Tree-of-possible-orderings substrate.

Builds, extends, prunes, and flattens the TPO ``T_K`` of Soliman & Ilyas
that the paper's uncertainty-reduction algorithms operate on.  The tree
is stored as flat per-level ``(tuple_ids, parent_idx, probs)`` array
tables (see :mod:`repro.tpo.tree`): every engine extends the whole
frontier in one batched pass (:mod:`repro.tpo.builders`), the ``incr``
algorithm prunes partial trees, and :meth:`TPOTree.to_space` flattens
the leaves into the :class:`OrderingSpace` that policies and measures
consume.  The one serialized form is the npz archive of
:mod:`repro.tpo.serialize`.
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
)
from repro.tpo.semantics import (
    answer_report,
    expected_ranks,
    pt_k,
    u_kranks,
    u_topk,
)
from repro.tpo.space import DegenerateSpaceError, OrderingSpace
from repro.tpo.tree import TPOLevel, TPOTree

__all__ = [
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
