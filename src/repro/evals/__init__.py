"""``repro.evals`` — the fidelity gate: calibration, regret, goldens, paper.

Everything else in the repo gates *bit-parity* (snapshots, content keys)
and *speed* (``perfbench/``); this package gates **correctness of the
estimates themselves** and the **paper's claims**.  Four suites,
registered in the :data:`repro.api.EVALS` registry and driven by
``repro eval``:

* :mod:`~repro.evals.calibration` — are predicted residual reductions
  honest (reliability bins, ECE), and do PR 8's certified ``[lo, hi]``
  intervals cover realized values?
* :mod:`~repro.evals.regret` — does acting on the estimates stay near
  the exhaustive oracle, and does beam pruning preserve policy quality?
* :mod:`~repro.evals.golden` — versioned recorded sessions replayed
  bit-identically through the batch API, the event-sourcing replay, and
  the service event-log path.
* :mod:`~repro.evals.paper` — Figure 1(a)/(b) and the §III/§IV prose
  claims, scored over every figure grid of :mod:`repro.experiments`;
  cost claims in residual-evaluation counts, never seconds.

Suites declare grids (:class:`~repro.experiments.grid.ExperimentGrid`)
and score rows; execution reuses the parallel, resumable experiment
runner, and sessions are specified through the shared
:func:`~repro.experiments.harness.session_spec` helper.  Reports
(:mod:`~repro.evals.report`) are provenance-stamped with the git SHA
and date of the run.
"""

from repro.evals.calibration import CalibrationEval
from repro.evals.golden import GoldenEval
from repro.evals.paper import PaperEval
from repro.evals.regret import RegretEval
from repro.evals.report import (
    DEFAULT_SUITES,
    compare_to_baseline,
    load_report,
    run_eval,
    summarize,
    write_report,
)
from repro.evals.specs import EvalSpec
from repro.evals.suite import EvalSuite

__all__ = [
    "DEFAULT_SUITES",
    "CalibrationEval",
    "EvalSpec",
    "EvalSuite",
    "GoldenEval",
    "PaperEval",
    "RegretEval",
    "compare_to_baseline",
    "load_report",
    "run_eval",
    "summarize",
    "write_report",
]
