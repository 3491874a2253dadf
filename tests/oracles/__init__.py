"""Test-support oracles: slow reference paths the suite checks the fast
production code against.

* :mod:`oracles.pointer_tpo` — the pointer-era grid engine and its
  ``TPONode`` tree (leaf parity for the flat level-table engines);
* :mod:`oracles.full_grid` — the grid engine computing every cell of
  every step (bit parity for the support-windowed ``GridBuilder``) and
  the per-segment ``linspace`` loop behind the grid edges;
* :mod:`oracles.scalar_residual` — one-space-per-answer residual
  uncertainty (parity for the batched ``ResidualEvaluator`` paths);
* :mod:`oracles.cell_entropy` — ``U_H`` without additive restriction
  terms (parity for the one-product ``U_H`` set-extension path);
* :mod:`oracles.question_pool` — the per-pair ``Q_K`` walk (parity for
  the session ``QuestionPool``) and set residuals from a fresh stance
  matrix;
* :mod:`oracles.stance_distance` — the ``(chunk, N, N)`` stance-tensor
  result distance (bit parity for ``topk_distance_profile``);
* :mod:`oracles.tree_invariants` — the structural invariants of a
  level-table ``TPOTree`` (masses, parent order, no repeated tuple).
* :mod:`oracles.exception_ancestry` — exception ancestry scanning every
  class per name (parity for ``CallGraph.exception_ancestors``).
* :mod:`oracles.spaces` — ``space_from_orderings``, an ``OrderingSpace``
  fixture built from explicit orderings and masses.

``tests/`` is on ``sys.path`` (the suite's root ``conftest.py`` lives
there), so test modules import these as ``from oracles... import ...``.
"""
