"""Test-support oracles: slow reference paths the suite checks the fast
production code against.

* :mod:`oracles.pointer_tpo` — the pointer-era grid engine and its
  ``TPONode`` tree (leaf parity for the flat level-table engines);
* :mod:`oracles.scalar_residual` — one-space-per-answer residual
  uncertainty (parity for the batched ``ResidualEvaluator`` paths).

``tests/`` is on ``sys.path`` (the suite's root ``conftest.py`` lives
there), so test modules import these as ``from oracles... import ...``.
"""
