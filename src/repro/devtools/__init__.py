"""Developer tooling that machine-checks the repo's own invariants.

Two gates live here, both wired into CI next to the benchmark gates:

* ``repro check`` (:mod:`repro.devtools.cli`) — the static analyzer.
  One parse of ``src/repro`` builds the call graph
  (:mod:`~repro.devtools.graph`); over that one module index run the
  per-file domain rules (:mod:`~repro.devtools.rules`, RPL001–RPL010:
  derived seeding, canonical content keys, frozen specs, dtype
  contracts, torn-tail-safe appends, …) and the whole-program checks
  (:mod:`~repro.devtools.checks`, RPC101–RPC104: async-blocking
  propagation, content-key purity, registry closure, exception
  contract), against one ratcheted ``check_baseline.jsonl``.
* :mod:`repro.devtools.typecheck` — the mypy strict-typed-core gate over
  ``repro.api`` / ``repro.tpo`` / ``repro.service`` / ``repro.utils``
  with a ratcheted error-count baseline.

Neither is imported by the runtime system; they are tooling only.
"""
