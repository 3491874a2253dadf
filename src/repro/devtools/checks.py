"""The check framework of ``repro check`` and the whole-program checks.

One run parses every file under ``src/repro`` once, into the
:class:`~repro.devtools.graph.CallGraph`, and drives two kinds of
:class:`Check` over that one module index:

* **per-file checks** (:class:`FileCheck`, the RPL rules of
  :mod:`repro.devtools.rules`) judge one module at a time.  They ride
  the graph's own walk: each module is walked once, and that walk both
  records the graph's facts and hands every node to the module's
  :class:`FileContext`, which feeds it to the applicable rules that read
  its node type and keeps their context (numpy aliases, spec bindings);
* **whole-program checks** (RPC101–RPC104, below) judge *call paths*:
  each runs once over the graph and one of the fixed-point engines in
  :mod:`repro.devtools.dataflow`, so a violation can involve three
  functions in three modules none of which is individually wrong.

Every check is a plugin in the one ``CHECKS`` registry of
:mod:`repro.api.catalog`, keyed by its code, and reports ordinary
:class:`~repro.devtools.findings.Violation` objects.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools import dataflow
from repro.devtools.findings import Violation
from repro.devtools.graph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    build_graph,
    dotted_name,
)


class Check:
    """Base class for whole-program check plugins.

    Subclasses set :attr:`code` / :attr:`name` / :attr:`rationale` and
    yield violations from :meth:`run`, called once with the resolved
    graph.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        return iter(())

    def violation_at(
        self,
        graph: CallGraph,
        function: FunctionInfo,
        message: str,
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=function.path,
            line=function.line,
            col=function.col + 1,
            message=message,
            line_text=graph.line_text(function.qname),
        )


class FileContext:
    """Everything per-file checks may need about the module being walked.

    The graph's walk calls :meth:`visit` once per node, parents before
    children, and :meth:`leave_function` after each ``def``'s children.
    """

    def __init__(
        self, module: ModuleInfo, checks: Sequence["FileCheck"]
    ) -> None:
        self.module = module
        self.path = module.path
        self.checks = checks
        #: The applicable checks by the AST node type they read.
        self.dispatch: Dict[type, List[FileCheck]] = {}
        for check in checks:
            for kind in check.node_types:
                self.dispatch.setdefault(kind, []).append(check)
        self.violations: List[Violation] = []
        #: Local names bound to the numpy module (``import numpy as np``).
        self.numpy_aliases = {"numpy"} | {
            alias
            for alias, target in module.imports.items()
            if target == "numpy"
        }
        #: Per-function sets of names bound to frozen-spec constructor
        #: calls (for RPL003).
        self.spec_bindings: List[set] = [set()]

    def visit(self, node: ast.AST) -> None:
        for check in self.dispatch.get(type(node), ()):
            self.violations.extend(check.visit_node(node, self))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.spec_bindings.append(set())
        elif isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Call
        ):
            callee = dotted_name(node.value.func)
            terminal = callee.rsplit(".", 1)[-1] if callee else ""
            if terminal in SPEC_CONSTRUCTORS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.spec_bindings[-1].add(target.id)

    def leave_function(self) -> None:
        self.spec_bindings.pop()

    def resolve_numpy(self, dotted: Optional[str]) -> Optional[str]:
        """Normalize ``np.random.seed`` → ``numpy.random.seed``."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.numpy_aliases:
            return "numpy." + rest if rest else "numpy"
        return dotted

    def line_text(self, node: ast.AST) -> str:
        return self.module.line_text(getattr(node, "lineno", 0))


class FileCheck(Check):
    """Base class for per-file check plugins (the RPL rules).

    Subclasses optionally narrow :meth:`applies_to`, list the AST node
    classes they read in :attr:`node_types`, and yield violations from
    :meth:`visit_node` — called by the graph's walk once per node of
    those classes in every applicable module.
    """

    node_types: Tuple[type, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this check runs on ``path`` (repo-relative posix)."""
        return True

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        return iter(())

    def violation(
        self, node: ast.AST, ctx: FileContext, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            line_text=ctx.line_text(node),
        )


#: Frozen spec constructors whose instances must never be mutated
#: (see RPL003 and :mod:`repro.api.specs`).
SPEC_CONSTRUCTORS = frozenset(
    {
        "InstanceSpec",
        "PolicySpec",
        "MeasureSpec",
        "CrowdSpec",
        "BudgetSpec",
        "SessionSpec",
        "as_instance_spec",
    }
)


def analyze(
    root: Path, checks: Sequence[Check]
) -> Tuple[CallGraph, List[Violation]]:
    """Build the graph of ``<root>/src/repro`` and run ``checks`` on it.

    Per-file checks run inside the graph's one walk per module; the
    whole-program checks run on the finished graph.  Findings come
    sorted by (path, line, col, rule).  Files that did not parse are
    always reported (``RPL000``): no check could look at them.
    """
    file_checks = [c for c in checks if isinstance(c, FileCheck)]
    contexts: List[FileContext] = []

    def file_context(module: ModuleInfo) -> Optional[FileContext]:
        applicable = [c for c in file_checks if c.applies_to(module.path)]
        if not applicable:
            return None
        contexts.append(FileContext(module, applicable))
        return contexts[-1]

    graph = build_graph(root, file_context)
    violations: List[Violation] = list(graph.parse_errors)
    for ctx in contexts:
        violations.extend(ctx.violations)
    for check in checks:
        if not isinstance(check, FileCheck):
            violations.extend(check.run(graph))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return graph, violations


def _chain(facts: Dict[str, dataflow.TaintEvidence], start: str) -> str:
    return " -> ".join(dataflow.witness_chain(facts, start))


def _seed_taints(
    graph: CallGraph,
    matches_external: "SeedPredicate",
    sanctioned_modules: FrozenSet[str] = frozenset(),
) -> Dict[str, dataflow.TaintEvidence]:
    seeds: Dict[str, dataflow.TaintEvidence] = {}
    for qname, info in sorted(graph.functions.items()):
        if info.module in sanctioned_modules:
            continue
        for site in info.calls:
            if site.target is not None:
                continue
            primitive = matches_external(site.external, site.attr)
            if primitive is not None and qname not in seeds:
                seeds[qname] = dataflow.TaintEvidence(
                    primitive=primitive, via=None, line=site.line
                )
    return seeds


class SeedPredicate:
    """Classifies an unresolved call as a taint primitive (or not)."""

    def __init__(
        self,
        names: FrozenSet[str] = frozenset(),
        prefixes: Sequence[str] = (),
        attrs: FrozenSet[str] = frozenset(),
    ) -> None:
        #: Exact external names, bare (``open``) or dotted (``time.sleep``).
        self.names = names
        self.prefixes = tuple(prefixes)
        self.attrs = attrs

    def __call__(
        self, external: Optional[str], attr: Optional[str]
    ) -> Optional[str]:
        if external is not None:
            if external in self.names:
                return external
            for prefix in self.prefixes:
                if external.startswith(prefix):
                    return external
        if attr is not None and attr in self.attrs:
            return f".{attr}"
        return None


#: Primitives that block the calling thread (RPC101 seeds).
BLOCKING = SeedPredicate(
    names=frozenset(
        {
            "open",
            "input",
            "time.sleep",
            "os.system",
            "os.popen",
            "os.waitpid",
            "socket.create_connection",
            "select.select",
            "urllib.request.urlopen",
            "numpy.load",
            "numpy.save",
            "numpy.savez",
            "numpy.savez_compressed",
        }
    ),
    prefixes=("subprocess.", "shutil."),
    attrs=frozenset(
        {
            "recv",
            "recv_into",
            "accept",
            "sendall",
            "read_text",
            "write_text",
            "read_bytes",
            "write_bytes",
        }
    ),
)

#: Nondeterminism primitives (RPC102 seeds).
NONDETERMINISM = SeedPredicate(
    names=frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
            "os.urandom",
            "os.getenv",
            "os.getpid",
            "os.environ.get",
            "uuid.uuid1",
            "uuid.uuid4",
            "secrets.token_hex",
            "secrets.token_bytes",
            "numpy.random.default_rng",
            "numpy.random.seed",
        }
    ),
    prefixes=("random.", "numpy.random.rand", "numpy.random.choice"),
)


class AsyncBlockingPropagation(Check):
    """Blocking primitives must not be reachable from service coroutines.

    The service is a single asyncio loop: one blocking ``open`` /
    ``time.sleep`` / ``subprocess`` / socket ``.recv`` /
    ``Path.write_text`` in a handler — directly, or any number of
    synchronous helpers down — stalls every concurrent session, not just
    the caller.
    (This subsumes the retired per-file rule RPL004, which only saw
    direct calls.)  Blocking work must hop through
    ``loop.run_in_executor``: a function handed over by reference is
    never called, and a coroutine's nested sync ``def`` is a deferred
    edge, so the sanctioned hop carries no taint.
    """

    code = "RPC101"
    name = "async-blocking-propagation"
    rationale = (
        "blocking I/O in a coroutine, direct or through sync helpers, "
        "stalls the single event loop for every connected session"
    )

    #: Statically blocking functions whose runtime path is sanctioned:
    #: handlers swap in BufferedEventLog (``defer_log_writes``) and the
    #: real append runs on the log executor, so taint must not cross.
    sanctioned_barriers = frozenset(
        {"repro.service.manager:EventLog.append"}
    )

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        seeds = _seed_taints(graph, BLOCKING)
        facts = dataflow.taint_closure(
            graph, seeds, barriers=self.sanctioned_barriers
        )
        for qname, info in sorted(graph.functions.items()):
            if not info.is_async:
                continue
            if not info.path.startswith("src/repro/service/"):
                continue
            if qname not in facts:
                continue
            yield self.violation_at(
                graph,
                info,
                f"async def {info.name} may block the event loop: "
                f"{_chain(facts, qname)}",
            )


class ContentKeyPurity(Check):
    """Content-key producers must be deterministic.

    ``content_key`` / ``canonical_json`` / spec ``to_dict`` outputs are
    cache keys and golden-dataset authenticators; any call path from
    them into wall clocks, unseeded RNGs, process state, or environment
    reads silently breaks replay.  ``repro.utils.rng`` is the sanctioned
    seed-derivation module and is exempt — determinism there is
    established by construction (``ensure_rng`` / ``derive_seed``).
    """

    code = "RPC102"
    name = "content-key-purity"
    rationale = (
        "a nondeterministic content key breaks cache identity and "
        "golden-dataset authentication on replay"
    )

    sanctioned_modules = frozenset({"repro.utils.rng"})

    def _is_producer(self, graph: CallGraph, info: FunctionInfo) -> bool:
        if info.name in {"content_key", "canonical_json"}:
            return True
        if info.name == "to_dict" and info.cls is not None:
            cls = graph.classes.get(info.cls)
            return cls is not None and "Spec" in cls.name
        return False

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        seeds = _seed_taints(
            graph, NONDETERMINISM, sanctioned_modules=self.sanctioned_modules
        )
        facts = dataflow.taint_closure(graph, seeds)
        for qname, info in sorted(graph.functions.items()):
            if not self._is_producer(graph, info):
                continue
            if qname not in facts:
                continue
            yield self.violation_at(
                graph,
                info,
                f"content-key producer {info.name} can reach "
                f"nondeterminism: {_chain(facts, qname)}",
            )


def _export_resolves(
    graph: CallGraph, module: str, attr: str, depth: int = 0
) -> bool:
    """Whether ``module:attr`` resolves to an import-time binding."""
    if depth > 6:
        return False
    mod = graph.modules.get(module)
    if mod is None:
        return False
    if attr in mod.top_names:
        return True
    target = mod.imports.get(attr)
    if target is not None:
        if target in graph.modules:
            return True
        owner, _, leaf = target.rpartition(".")
        return _export_resolves(graph, owner, leaf, depth + 1)
    return False


class RegistryClosure(Check):
    """Every lazy ``"module:attr"`` reference must statically resolve.

    The registries defer imports until first use, so a typo in
    ``repro.api.catalog`` (or a refactor that moves a builder) only
    explodes when a user asks for that exact plugin — possibly from
    ``/v1/meta`` in production.  This closes the registry over the
    actual module map: the module must exist under ``src/repro`` and
    the attribute must be bound at import time.  Literal
    ``REGISTRY.create("name")`` / ``REGISTRY.get("name")`` lookups are
    held to the statically registered name set as well.
    """

    code = "RPC103"
    name = "registry-closure"
    rationale = (
        "a dangling lazy factory turns a registry lookup into an "
        "ImportError at the first production use"
    )

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        registered: Dict[str, Set[str]] = {}
        for ref in graph.lazy_refs:
            if ref.registry is not None and ref.plugin is not None:
                registered.setdefault(ref.registry, set()).add(ref.plugin)
            message = None
            if ref.module not in graph.modules:
                message = (
                    f"lazy reference {ref.text!r} points at module "
                    f"{ref.module!r} which does not exist"
                )
            elif not _export_resolves(graph, ref.module, ref.attr):
                message = (
                    f"lazy reference {ref.text!r}: module {ref.module!r} "
                    f"has no attribute {ref.attr!r}"
                )
            if message is None:
                continue
            if ref.plugin is not None and ref.registry is not None:
                message += (
                    f" (registered as {ref.plugin!r} in {ref.registry})"
                )
            owner = graph.modules[ref.function.split(":", 1)[0]]
            yield Violation(
                rule=self.code,
                path=ref.path,
                line=ref.line,
                col=1,
                message=message,
                line_text=owner.line_text(ref.line),
            )
        for lookup in graph.lookups:
            plugins = registered.get(lookup.registry)
            if plugins is None or lookup.plugin in plugins:
                continue
            module = graph.modules[lookup.module]
            yield Violation(
                rule=self.code,
                path=module.path,
                line=lookup.line,
                col=lookup.col + 1,
                message=(
                    f"{lookup.registry}.{lookup.method}({lookup.plugin!r}) "
                    f"names an unregistered plugin; registered: "
                    f"{sorted(plugins)}"
                ),
                line_text=module.line_text(lookup.line),
            )


class ExceptionContract(Check):
    """Code reachable from ``/v1`` handlers only raises mapped types.

    The protocol error envelope maps ``HttpError`` (explicit status),
    ``ProtocolError`` → 400, ``UnknownSessionError`` → 404 and
    ``ClosedSessionError`` → 409; anything else escaping a handler is a
    generic 500 with no machine-readable error code — a client-visible
    contract break.  The may-raise sets are propagated along call edges
    with subclass-aware caught-at-callsite filtering, so a
    ``ValueError`` raised three frames down but wrapped at the call site
    in ``except (TypeError, ValueError)`` is correctly silent.
    """

    code = "RPC104"
    name = "exception-contract"
    rationale = (
        "an unmapped exception escaping a /v1 handler becomes an opaque "
        "500 instead of a protocol error envelope"
    )

    #: Exception types the protocol envelope maps to status codes.
    allowed = frozenset(
        {
            "HttpError",
            "ProtocolError",
            "UnknownSessionError",
            "ClosedSessionError",
            "CancelledError",
        }
    )

    def _is_handler(self, info: FunctionInfo) -> bool:
        return (
            info.is_async
            and info.path.startswith("src/repro/service/")
            and info.name.startswith("_handle_")
        )

    def run(self, graph: CallGraph) -> Iterator[Violation]:
        may_raise = dataflow.propagate_exceptions(graph)
        for qname, info in sorted(graph.functions.items()):
            if not self._is_handler(info):
                continue
            facts = may_raise.get(qname, set())
            reported: Set[str] = set()
            for fact in sorted(facts, key=lambda f: (f.exc, f.origin)):
                if fact.exc in self.allowed:
                    continue
                if graph.exception_ancestors(fact.exc) & self.allowed:
                    continue
                if fact.exc in reported:
                    continue
                reported.add(fact.exc)
                origin = (
                    "raised locally"
                    if fact.origin == qname
                    else f"raised in {fact.origin}"
                )
                yield self.violation_at(
                    graph,
                    info,
                    f"handler {info.name} may leak {fact.exc} "
                    f"({origin} at line {fact.line}) — not mapped by the "
                    f"protocol error envelope",
                )


__all__ = [
    "BLOCKING",
    "Check",
    "FileCheck",
    "FileContext",
    "NONDETERMINISM",
    "SeedPredicate",
    "AsyncBlockingPropagation",
    "ContentKeyPurity",
    "ExceptionContract",
    "RegistryClosure",
    "analyze",
]
