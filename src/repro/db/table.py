"""Uncertain relations: tuples with attributes and uncertain scores.

The paper's setting is "a relational database table T containing N tuples"
whose per-tuple score is a random variable.  :class:`UncertainTable` is
that table: ordinary (certain) attribute values plus, per tuple, either a
pre-computed :class:`~repro.distributions.base.ScoreDistribution` or
uncertain attributes from which a scoring function derives one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.distributions.base import ScoreDistribution
from repro.distributions.point import PointMass

AttributeValue = Union[ScoreDistribution, float, int, str, None]


@dataclass
class UncertainTuple:
    """One row: a key, plain attributes, possibly uncertain ones."""

    key: str
    attributes: Dict[str, AttributeValue] = field(default_factory=dict)

    def attribute_distribution(self, name: str) -> ScoreDistribution:
        """The attribute as a distribution (certain numbers become atoms)."""
        value = self.attributes.get(name)
        if isinstance(value, ScoreDistribution):
            return value
        if isinstance(value, (int, float)):
            return PointMass(float(value))
        raise TypeError(
            f"attribute {name!r} of tuple {self.key!r} is not numeric/uncertain"
        )

    def __repr__(self) -> str:
        return f"UncertainTuple({self.key!r}, {sorted(self.attributes)})"


class UncertainTable:
    """An in-memory relation over :class:`UncertainTuple` rows.

    Tuples are indexed positionally; the TPO machinery addresses them by
    that index, and the table maps back to keys/attributes for display.
    """

    def __init__(self, name: str = "T") -> None:
        self.name = name
        self.rows: List[UncertainTuple] = []
        self._key_index: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def insert(
        self, key: str, **attributes: AttributeValue
    ) -> UncertainTuple:
        """Append a row; keys must be unique within the table."""
        if key in self._key_index:
            raise ValueError(f"duplicate key {key!r}")
        row = UncertainTuple(key, dict(attributes))
        self._key_index[key] = len(self.rows)
        self.rows.append(row)
        return row

    def extend(self, rows: Sequence[UncertainTuple]) -> None:
        """Append pre-built rows (keys must stay unique)."""
        for row in rows:
            if row.key in self._key_index:
                raise ValueError(f"duplicate key {row.key!r}")
            self._key_index[row.key] = len(self.rows)
            self.rows.append(row)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[UncertainTuple]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> UncertainTuple:
        return self.rows[index]

    def by_key(self, key: str) -> UncertainTuple:
        """Row lookup by key."""
        return self.rows[self._key_index[key]]

    def keys(self) -> List[str]:
        """Row keys in positional order."""
        return [row.key for row in self.rows]

    # ------------------------------------------------------------------

    def score_distributions(
        self, scoring=None, attribute: Optional[str] = None
    ) -> List[ScoreDistribution]:
        """Per-tuple score distributions.

        Either ``attribute`` names a column already holding the (possibly
        uncertain) score, or ``scoring`` is a
        :class:`~repro.db.scoring.ScoringFunction` deriving one from the
        attributes.
        """
        if (scoring is None) == (attribute is None):
            raise ValueError("provide exactly one of scoring/attribute")
        if attribute is not None:
            return [row.attribute_distribution(attribute) for row in self.rows]
        return [scoring(row) for row in self.rows]

    def __repr__(self) -> str:
        return f"UncertainTable({self.name!r}, rows={len(self.rows)})"


__all__ = ["UncertainTable", "UncertainTuple", "AttributeValue"]
