"""``U_H`` priced through the mask paths.

:class:`CellEntropyMeasure` is Shannon entropy that declares no additive
restriction terms, so :meth:`ResidualEvaluator.rank_set_extensions`
prices its set extensions one :meth:`ResidualEvaluator._price_cells` call
per candidate, and :meth:`ResidualEvaluator.rank_singles_batch` its
single questions through path masks — the general paths every
non-additive measure takes.  The parity tests hold the ``U_H`` term
paths to it (set extensions within 1e-9, singles within 1e-12) and to
the same evaluation count.
"""

from __future__ import annotations

from repro.tpo.space import OrderingSpace
from repro.uncertainty.entropy import EntropyMeasure


class CellEntropyMeasure(EntropyMeasure):
    """``U_H`` without declared restriction terms."""

    name = "H-cells"

    def restriction_terms(self, space: OrderingSpace) -> None:
        return None


__all__ = ["CellEntropyMeasure"]
