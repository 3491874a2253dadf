"""Command-line interface.

Subcommands cover the common workflows without writing Python:

* ``experiment`` — run reproduction experiment grids through the
  parallel, resumable grid runner and print their reports
  (``python -m repro experiment FIG1A --workers 4 --store out.jsonl
  --resume``);
* ``demo`` — one crowd-powered top-K session on a synthetic workload with
  a chosen policy, printing the question/answer trace;
* ``list`` — every registered plugin (policies, measures, crowd models,
  workloads, scenarios, distributions, engines) from the
  :mod:`repro.api` registries;
* ``inspect`` — uncertainty diagnostics for a synthetic workload (how many
  orderings, which ranks are contested, what to ask first);
* ``serve`` — the concurrent multi-session HTTP service speaking the
  versioned ``/v1`` wire protocol (shared TPO cache, durable event log,
  resumable: ``python -m repro serve --port 8080 --log events.jsonl
  --resume``);
* ``eval`` — the fidelity gate: calibration / regret / golden-dataset /
  paper-claim suites scored into a provenance-stamped report
  (``python -m repro eval --suite golden --json EVAL_report.json``);
* ``check`` — the repo's own static analyzer: one parse of ``src/repro``
  runs the per-file domain rules (RPL) and the whole-program call-graph
  checks (RPC) against a ratcheting baseline
  (``python -m repro check --format github``).

Everything is constructed through the typed :mod:`repro.api` specs — the
CLI is just an argparse veneer over ``SessionSpec``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from repro import __version__
from repro.api import (
    BudgetSpec,
    CrowdSpec,
    InstanceSpec,
    PolicySpec,
    SessionSpec,
    all_registries,
    prepare_session,
)
from repro.api.catalog import POLICIES, STORES, WORKLOADS
from repro.api.specs import EngineSpec
from repro.devtools.formats import FORMATS
from repro.tpo.analysis import (
    overlap_statistics,
    profile_space,
    question_impact_table,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Crowdsourcing for top-K query processing over uncertain data "
            "(ICDE'16 reproduction)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.experiments import EXPERIMENTS

    experiment = sub.add_parser(
        "experiment",
        help="run reproduction experiment grids (parallel, resumable)",
    )
    experiment.add_argument(
        "ids",
        nargs="+",
        metavar="ID",
        help=(
            "experiment ids, case-insensitive, or 'all': "
            + ", ".join(sorted(EXPERIMENTS))
        ),
    )
    experiment.add_argument(
        "--full",
        action="store_true",
        help="paper-sized grid instead of the fast profile",
    )
    experiment.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pool workers; 0 or 1 runs serially in-process",
    )
    experiment.add_argument(
        "--store",
        default=None,
        help="JSON-lines result store (appended to as cells finish)",
    )
    experiment.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already present in --store",
    )
    experiment.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy filter (e.g. T1-on,naive)",
    )
    experiment.add_argument(
        "--budgets",
        default=None,
        help="comma-separated budget filter (e.g. 0,5)",
    )
    experiment.add_argument(
        "--list",
        action="store_true",
        dest="list_cells",
        help="print the cell ids and parameters without running anything",
    )
    experiment.add_argument(
        "--output",
        default=None,
        help="write a consolidated Markdown report to this path",
    )
    experiment.add_argument(
        "--csv-dir",
        default=None,
        help="dump raw per-experiment CSV records into this directory",
    )

    demo = sub.add_parser("demo", help="run one crowd-powered session")
    demo.add_argument(
        "--policy", default="T1-on", choices=POLICIES.available()
    )
    demo.add_argument("--n", type=int, default=12, help="number of tuples")
    demo.add_argument("--k", type=int, default=6, help="top-K depth")
    demo.add_argument("--budget", type=int, default=10)
    demo.add_argument("--width", type=float, default=0.3, help="pdf width")
    demo.add_argument(
        "--accuracy", type=float, default=1.0, help="worker accuracy"
    )
    demo.add_argument("--seed", type=int, default=0)

    listing = sub.add_parser(
        "list", help="list every registered plugin (the repro.api catalog)"
    )
    listing.add_argument(
        "--kind",
        default=None,
        choices=sorted(all_registries()),
        help="restrict to one registry",
    )
    listing.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable output",
    )

    inspect = sub.add_parser(
        "inspect", help="diagnose a workload's ordering uncertainty"
    )
    inspect.add_argument(
        "--workload", default="uniform", choices=WORKLOADS.available()
    )
    inspect.add_argument("--n", type=int, default=12)
    inspect.add_argument("--k", type=int, default=6)
    inspect.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="run the concurrent multi-session HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="append-only JSONL event log (enables durable sessions)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore every session recorded in --log before serving",
    )
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=64,
        help="TPO cache entries shared across sessions (0 disables)",
    )
    serve.add_argument(
        "--resolution",
        type=int,
        default=1024,
        help="grid-builder resolution for session TPOs",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes; >1 runs the sharded router runtime "
            "(sessions placed by BLAKE2b of the session id)"
        ),
    )
    serve.add_argument(
        "--store",
        default=None,
        choices=["none", *STORES.available()],
        help=(
            "cold-tier store backend behind the per-worker hot cache "
            "(default: none for --workers 1, disk-npz otherwise)"
        ),
    )
    serve.add_argument(
        "--store-path",
        default=None,
        metavar="DIR",
        help="cold-tier directory for the disk-npz backend",
    )

    evaluate = sub.add_parser(
        "eval",
        help=(
            "run the evaluation suites (calibration, regret, golden, "
            "paper) and score the report"
        ),
    )
    evaluate.add_argument(
        "--suite",
        action="append",
        dest="suites",
        default=None,
        metavar="NAME",
        help=(
            "suite to run (repeatable; default: all registered suites)"
        ),
    )
    evaluate.add_argument(
        "--full",
        action="store_true",
        help="nightly-sized grids instead of the fast smoke profile",
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pool workers; 0 or 1 runs serially in-process",
    )
    evaluate.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="per-suite JSONL result stores (enables --resume)",
    )
    evaluate.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already present in --store-dir",
    )
    evaluate.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the scored report (EVAL_report.json shape) here",
    )
    evaluate.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            "committed baseline report; exit non-zero on any "
            "pass-to-fail regression against it"
        ),
    )

    check = sub.add_parser(
        "check",
        help=(
            "run the static analyzer: per-file rules (RPL) and "
            "whole-program checks (RPC), ratcheting baseline"
        ),
    )
    check.add_argument(
        "--root",
        default=".",
        help="repo root holding src/repro (fixture trees are roots too)",
    )
    check.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=FORMATS,
        help="report format (github emits PR annotations)",
    )
    check.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            "ratcheting JSONL baseline of deliberate, reason-annotated "
            "exceptions (default: <root>/check_baseline.jsonl)"
        ),
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to cover the current violations "
            "(existing reasons are kept; new entries get a TODO reason "
            "you must edit)"
        ),
    )
    check.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated check codes to run (default: all)",
    )
    check.add_argument(
        "--list-checks",
        action="store_true",
        help="print the check table and exit",
    )
    check.add_argument(
        "--graph-dump",
        default=None,
        metavar="PATH",
        help=(
            "also write the resolved call graph (modules, edges, lazy "
            "refs, external calls) as a JSON artifact"
        ),
    )
    return parser


def _print_progress(done: int, total: int, cell: Any) -> None:
    print(f"  [{done}/{total}] {cell.experiment} {cell.cell_id}")


def _command_experiment(args) -> int:
    from repro.api.canonical import canonical_json
    from repro.experiments import EXPERIMENTS
    from repro.experiments.report import run_report
    from repro.experiments.runner import run_grid
    from repro.experiments.store import ResultStore

    wanted = [name.upper() for name in args.ids]
    if "ALL" in wanted:
        wanted = sorted(EXPERIMENTS)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment ids {unknown}; "
            f"available: {', '.join(sorted(EXPERIMENTS))} or all",
            file=sys.stderr,
        )
        return 2
    if args.resume and args.store is None:
        print("--resume requires --store", file=sys.stderr)
        return 2
    store = ResultStore(args.store) if args.store is not None else None
    policies = (
        [p.strip() for p in args.policies.split(",")]
        if args.policies
        else None
    )
    try:
        budgets = (
            [int(b) for b in args.budgets.split(",")]
            if args.budgets
            else None
        )
    except ValueError:
        print(
            f"--budgets must be comma-separated integers, "
            f"got {args.budgets!r}",
            file=sys.stderr,
        )
        return 2

    reports = {}
    for name in wanted:
        module = EXPERIMENTS[name]
        grid = module.grid(fast=not args.full).filter(
            policies=policies, budgets=budgets
        )
        if len(grid) == 0:
            print(
                f"{name}: no cells match the given filters; skipping",
                file=sys.stderr,
            )
            continue
        if args.list_cells:
            print(f"{name}: {len(grid)} cells")
            for cell in grid:
                print(f"  {cell.cell_id}  {canonical_json(cell.params)}")
            continue
        report = run_grid(
            grid,
            workers=args.workers,
            store=store,
            resume=args.resume,
            progress=_print_progress,
        )
        reports[name] = report
        print(report.summary())
        print(module.report(report.table))
        print()
    if reports and (args.output is not None or args.csv_dir is not None):
        run_report(
            reports,
            fast=not args.full,
            output=args.output,
            csv_dir=args.csv_dir,
        )
        if args.output is not None:
            print(f"report written to {args.output}")
    return 0


def _command_demo(args) -> int:
    spec = SessionSpec(
        instance=InstanceSpec(
            n=args.n,
            k=args.k,
            workload="uniform",
            seed=args.seed,
            params={"width": args.width},
        ),
        policy=PolicySpec(args.policy),
        crowd=CrowdSpec(accuracy=args.accuracy),
        budget=BudgetSpec(args.budget),
        engine=EngineSpec("grid", {"resolution": 800}),
    )
    prepared = prepare_session(spec)
    result = prepared.run()
    true_top = [int(t) for t in prepared.truth.top_k(spec.instance.k)]
    print(f"true top-{spec.instance.k}: {true_top}")
    print(result.summary())
    for answer in result.answers:
        print(f"  {answer}")
    best = result.final_space.most_probable_ordering()
    print(f"most probable top-{spec.instance.k}: {[int(t) for t in best]}")
    return 0


def _command_list(args) -> int:
    registries = all_registries()
    if args.kind is not None:
        registries = {args.kind: registries[args.kind]}
    if args.as_json:
        print(
            json.dumps(
                {
                    kind: registry.available()
                    for kind, registry in registries.items()
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for kind, registry in sorted(registries.items()):
        names = registry.available()
        print(f"{kind} ({len(names)}): {', '.join(names)}")
    return 0


def _command_inspect(args) -> int:
    scores = WORKLOADS.create(args.workload, args.n, rng=args.seed)
    stats = overlap_statistics(scores)
    print(f"workload: {args.workload}, n={args.n}")
    for key, value in stats.items():
        print(f"  {key}: {value:g}")
    engine = EngineSpec("grid", {"resolution": 800}).build()
    space = engine.build(scores, args.k).to_space()
    print()
    print(profile_space(space).format())
    print()
    print("best questions to ask:")
    for question, residual, reduction in question_impact_table(space, top=5):
        print(
            f"  {question}  residual={residual:.3f}  "
            f"reduction={reduction:.3f}"
        )
    return 0


def _serve_spec_from_args(args) -> Any:
    """The ``repro serve`` flags are a thin parser over ``ServeSpec``."""
    from repro.api.specs import ServeSpec, StoreSpec

    backend = args.store
    if backend is None:
        # A fleet without a shared tier would rebuild every TPO per
        # worker; the single process keeps its historical plain cache.
        backend = "disk-npz" if args.workers > 1 else "none"
    path = args.store_path
    if backend == "disk-npz" and path is None:
        path = (
            f"{args.log}.store" if args.log else "repro-tpo-store"
        )
    store = StoreSpec(
        backend=backend, hot_capacity=args.cache_capacity, path=path
    )
    return ServeSpec(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store=store,
        log=args.log,
        resolution=args.resolution,
    )


def _command_serve(args) -> int:
    import asyncio

    from repro.service.manager import SessionManager
    from repro.service.server import serve

    if args.resume and args.log is None:
        print("--resume requires --log", file=sys.stderr)
        return 2
    try:
        spec = _serve_spec_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if spec.workers > 1:
        from repro.service.sharding import run_sharded

        try:
            run_sharded(spec, resume=args.resume)
        except KeyboardInterrupt:
            print("service stopped")
        return 0
    kwargs = dict(
        cache=spec.store.build(),
        builder=EngineSpec(
            "grid", {"resolution": spec.resolution}
        ).build(),
    )
    if args.resume:
        manager = SessionManager.resume(spec.log, **kwargs)
        restored = len(manager.session_ids(status=None))
        print(f"restored {restored} session(s) from {spec.log}")
    else:
        manager = SessionManager(log_path=spec.log, **kwargs)
    try:
        asyncio.run(serve(manager, host=spec.host, port=spec.port))
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _command_eval(args) -> int:
    from pathlib import Path

    from repro.api.catalog import EVALS
    from repro.evals.report import (
        compare_to_baseline,
        load_report,
        run_eval,
        summarize,
        write_report,
    )

    available = EVALS.available()
    unknown = [s for s in (args.suites or []) if s not in available]
    if unknown:
        print(
            f"unknown eval suites {unknown}; "
            f"available: {', '.join(sorted(available))}",
            file=sys.stderr,
        )
        return 2
    if args.resume and args.store_dir is None:
        print("--resume requires --store-dir", file=sys.stderr)
        return 2

    report = run_eval(
        suites=args.suites,
        fast=not args.full,
        workers=args.workers,
        store_dir=Path(args.store_dir) if args.store_dir else None,
        resume=args.resume,
        progress=_print_progress,
    )
    print(summarize(report))
    if args.json is not None:
        write_report(report, Path(args.json))
        print(f"report written to {args.json}")
    exit_code = 0 if report["passed"] else 1
    if args.baseline is not None:
        baseline = load_report(Path(args.baseline))
        if args.suites:
            # An explicit --suite selection is not a regression of the
            # suites deliberately left out; compare only what ran.
            baseline = dict(
                baseline,
                suites={
                    name: section
                    for name, section in baseline.get("suites", {}).items()
                    if name in args.suites
                },
            )
        regressions = compare_to_baseline(report, baseline)
        for line in regressions:
            print(f"REGRESSION: {line}", file=sys.stderr)
        if regressions:
            exit_code = 1
        else:
            print(f"no regressions against {args.baseline}")
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "demo":
        return _command_demo(args)
    if args.command == "list":
        return _command_list(args)
    if args.command == "inspect":
        return _command_inspect(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "eval":
        return _command_eval(args)
    if args.command == "check":
        from repro.devtools.cli import run_check

        return run_check(args)
    return 2  # unreachable: argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
