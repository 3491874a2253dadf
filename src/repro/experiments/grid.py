"""Grid declaration and stable cell addressing for the experiment runner.

A *grid* is the declarative form of one experiment: a flat list of
:class:`GridCell`, each naming a picklable runner function plus its
JSON-serializable parameters.  Cells are addressed by a stable content
hash (:attr:`GridCell.cell_id`) so a result store can recognise work it
has already done — across processes, machines, and interpreter restarts.
The hash never involves Python's salted ``hash()``.

Figure drivers (``fig1a``, ``noisy``, …) declare their grid through
``grid(fast)`` instead of looping by hand; execution — serial or
process-pool fan-out, with resume — lives in
:mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.api.canonical import content_key


@dataclass
class GridCell:
    """One unit of experiment work.

    ``runner`` is a ``"module:function"`` dotted path resolved inside the
    executing process, so cells pickle cheaply and never capture closures.
    ``params`` are the runner's keyword arguments and must be
    JSON-serializable — together with ``experiment`` and ``runner`` they
    define the cell's identity.  ``tags`` are presentation-only fields
    (arm labels and the like) merged into the result row at table-assembly
    time; they do **not** participate in :attr:`cell_id`, so two arms may
    share one computed cell.
    """

    experiment: str
    runner: str
    params: Dict[str, Any]
    tags: Dict[str, Any] = field(default_factory=dict)

    @cached_property
    def cell_id(self) -> str:
        """Stable 16-hex-digit content address of this cell.

        Cached: the runner reads it several times per cell (resume lookup,
        dedup, store append, table assembly), and params never mutate after
        declaration.
        """
        return content_key(
            {
                "experiment": self.experiment,
                "runner": self.runner,
                "params": self.params,
            },
            digest_size=8,
        )


def resolve_runner(spec: str) -> Callable[..., Dict[str, Any]]:
    """Import the ``"module:function"`` runner named by ``spec``."""
    module_name, sep, func_name = spec.partition(":")
    if not (sep and module_name and func_name):
        raise ValueError(
            f"runner spec must look like 'package.module:function', got {spec!r}"
        )
    module = importlib.import_module(module_name)
    runner = getattr(module, func_name, None)
    if not callable(runner):
        raise ValueError(f"{spec!r} does not name a callable")
    return runner


def execute_cell(cell: GridCell) -> Dict[str, Any]:
    """Run one cell in the current process and return its raw result row.

    This is the function pool workers execute; the row contains only what
    the runner computed (``tags`` are merged later, by the caller that
    assembles the table).
    """
    return resolve_runner(cell.runner)(**cell.params)


@dataclass
class ExperimentGrid:
    """A named, ordered collection of grid cells."""

    name: str
    cells: List[GridCell]

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[GridCell]:
        return iter(self.cells)

    def filter(
        self,
        policies: Optional[Sequence[str]] = None,
        budgets: Optional[Sequence[int]] = None,
    ) -> "ExperimentGrid":
        """Sub-grid keeping cells whose session spec matches the given
        policy/budget values.

        Cells without a ``spec`` param are kept (the filter is
        inapplicable to them).  A filter that matches nothing yields an
        empty grid — callers (the CLI) should surface that rather than
        print empty reports.
        """

        def keep(cell: GridCell) -> bool:
            spec = cell.params.get("spec")
            if spec is None:
                return True
            if policies is not None and spec["policy"]["name"] not in policies:
                return False
            return budgets is None or spec["budget"]["questions"] in budgets

        return ExperimentGrid(self.name, [c for c in self.cells if keep(c)])


__all__ = [
    "GridCell",
    "ExperimentGrid",
    "resolve_runner",
    "execute_cell",
]
