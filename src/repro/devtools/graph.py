"""Whole-program import/call-graph construction over ``src/repro``.

Two passes build a package-wide :class:`CallGraph` whose nodes are
*functions* (including methods and a synthetic ``<module>`` node per
module for import-time code) and whose edges are resolved call sites.
The index pass reads every module's imports, top-level names, classes
and ``__init__`` attribute types; then one walk per module resolves its
call sites against that index.  Resolution is deliberately static but
domain-aware; it follows

* plain intra-module calls (``helper()``),
* imported names (``from repro.x import f`` / ``import repro.x as y``
  followed by ``y.f()``), chasing re-exports through ``__init__``
  modules,
* ``self.method()`` / ``cls.method()`` dispatch, walking internal base
  classes,
* *annotation-typed receivers*: when a parameter, local, or attribute is
  annotated with an internal class (``manager: SessionManager``,
  ``self._log: Optional[EventLog]``), calls through it resolve to that
  class's methods — this is what lets blocking-I/O facts travel from an
  ``async def`` handler through ``ctx.manager.submit_answer`` into the
  event-log code three layers down,
* the registries' lazy ``"module:attr"`` factory strings (and any other
  ``repro.…:attr`` literal, e.g. grid-cell runner references): each one
  becomes a :class:`LazyRef` plus a call edge from its enclosing
  function, so ``repro.api.catalog`` really does "call" every builtin
  plugin it registers.

Unresolved calls are kept as *external* dotted names (normalized through
import aliases, so ``sleep`` imported from ``time`` reports as
``time.sleep``) — the raw material for the blocking/nondeterminism seed
sets of :mod:`repro.devtools.checks`.

Every call and raise site also records which exception types enclosing
``try`` bodies catch, which is what makes the exception-contract check
(RPC104) usable: a ``ValueError`` raised under
``except (TypeError, ValueError)`` does not escape.

The same walk hands every node to the per-file RPL checks (see
:func:`repro.devtools.checks.analyze`) and records the literal
``NAME.create/get("plugin")`` lookups that RPC103 holds to the
registrations: each file under the package is read and parsed exactly
once per run and walked once after indexing, and a file that does not
parse is reported as ``RPL000`` rather than skipped.

Known static limitations (documented, deliberate): property accesses are
not call sites, and functions passed as values (e.g. into
``run_in_executor``) create no edge — which is exactly the sanctioned
way to move blocking work off the event loop.  A nested ``def`` gets an
assumed-call edge from its parent; when the parent is a coroutine and
the nested function is synchronous, that edge is *deferred* (the
function runs wherever it is handed, typically an executor), so it
carries may-raise facts but no blocking taint.  A direct call of the
nested function by name is an ordinary edge.
"""

from __future__ import annotations

import ast
import builtins
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.devtools.findings import Violation

if TYPE_CHECKING:
    from repro.devtools.checks import FileContext

#: Matches the registries' lazy factory strings (``repro.x.y:attr``).
LAZY_REF_PATTERN = re.compile(r"^(?P<module>[A-Za-z_][\w.]*):(?P<attr>[A-Za-z_]\w*)$")

#: Marker inside a caught-set meaning "catches everything".
CATCH_ALL = "*"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    #: Resolved internal target (function qname), or ``None``.
    target: Optional[str]
    line: int
    #: Exception type names caught by enclosing ``try`` bodies.
    caught: FrozenSet[str] = frozenset()
    #: Normalized dotted name for unresolved calls (``time.sleep``).
    external: Optional[str] = None
    #: Bare attribute name for unresolved attribute calls (``recv``).
    attr: Optional[str] = None
    #: Assumed edge from a coroutine to its nested sync ``def``.
    deferred: bool = False


@dataclass(frozen=True)
class RaiseSite:
    """One explicit ``raise SomeError(...)`` statement."""

    exc: str  # leaf class name (``TPOSizeError``)
    qname: Optional[str]  # internal class qname when resolvable
    line: int
    caught: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class LazyRef:
    """One ``"module:attr"`` string constant (registry factory, runner)."""

    text: str
    module: str
    attr: str
    path: str
    line: int
    function: str  # enclosing function qname
    registry: Optional[str] = None  # registry variable for .register() calls
    plugin: Optional[str] = None  # plugin name for .register() calls


@dataclass(frozen=True)
class RegistryLookup:
    """One literal ``NAME.create("plugin")`` / ``NAME.get("plugin")`` call."""

    registry: str
    method: str
    plugin: str
    module: str
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One call-graph node."""

    qname: str
    module: str
    name: str
    cls: Optional[str]
    path: str
    line: int
    col: int
    is_async: bool
    #: Dotted return annotation (typing locals bound to call results).
    returns: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    qname: str
    module: str
    name: str
    bases: List[str] = field(default_factory=list)  # resolved qnames/dotted
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    source_lines: List[str]
    imports: Dict[str, str] = field(default_factory=dict)
    top_names: Set[str] = field(default_factory=set)

    def line_text(self, lineno: int) -> str:
        """Stripped source line ``lineno`` (1-based; ``""`` if absent)."""
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""


def module_node(name: str) -> str:
    """Qname of the synthetic import-time node of module ``name``."""
    return f"{name}:<module>"


class CallGraph:
    """The resolved whole-program graph (see module docstring)."""

    def __init__(self, root: Path, package: str) -> None:
        self.root = root
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.lazy_refs: List[LazyRef] = []
        #: Every literal registry lookup, anywhere in a module.
        self.lookups: List[RegistryLookup] = []
        #: ``RPL000`` findings for package files that do not parse.
        self.parse_errors: List[Violation] = []
        self._reverse: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None
        #: Class leaf name → its bases' leaf names (every class so named).
        self._bases_by_leaf: Optional[Dict[str, List[str]]] = None

    # -- topology ------------------------------------------------------

    def callers_of(self, qname: str) -> List[Tuple[str, CallSite]]:
        """``(caller, site)`` pairs whose resolved target is ``qname``."""
        if self._reverse is None:
            reverse: Dict[str, List[Tuple[str, CallSite]]] = {}
            for caller, info in self.functions.items():
                for site in info.calls:
                    if site.target is not None:
                        reverse.setdefault(site.target, []).append(
                            (caller, site)
                        )
            self._reverse = reverse
        return self._reverse.get(qname, [])

    def edges(self) -> List[Tuple[str, str]]:
        pairs = {
            (caller, site.target)
            for caller, info in self.functions.items()
            for site in info.calls
            if site.target is not None
        }
        return sorted(pairs)

    def line_text(self, qname: str) -> str:
        info = self.functions.get(qname)
        module = self.modules.get(info.module) if info else None
        return module.line_text(info.line) if info and module else ""

    # -- class/exception hierarchy -------------------------------------

    def lookup_method(self, class_qname: str, method: str) -> Optional[str]:
        """Resolve ``method`` on a class, walking internal bases (BFS)."""
        seen: Set[str] = set()
        queue = [class_qname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def exception_ancestors(self, leaf: str) -> Set[str]:
        """Leaf names of every ancestor of exception class ``leaf``.

        Internal classes contribute their resolved bases (read from a
        leaf-name index built on first use); builtin exceptions
        contribute their real MRO.  Unknown names fall back to
        ``{leaf, "Exception"}``.
        """
        if self._bases_by_leaf is None:
            self._bases_by_leaf = {}
            for info in self.classes.values():
                self._bases_by_leaf.setdefault(info.name, []).extend(
                    base.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
                    for base in info.bases
                )
        ancestors: Set[str] = set()
        queue = deque([leaf])
        while queue:
            name = queue.popleft()
            if name in ancestors:
                continue
            ancestors.add(name)
            bases = self._bases_by_leaf.get(name)
            if bases is None:
                builtin = getattr(builtins, name, None)
                if isinstance(builtin, type) and issubclass(builtin, BaseException):
                    bases = [c.__name__ for c in builtin.__mro__[1:]]
            if bases is None:
                ancestors.add("Exception")
            else:
                queue.extend(bases)
        return ancestors

    def is_caught(self, exc: str, caught: FrozenSet[str]) -> bool:
        if not caught:
            return False
        if CATCH_ALL in caught:
            return True
        return bool(self.exception_ancestors(exc) & set(caught))

    # -- serialization (--graph-dump) ----------------------------------

    def to_dict(self) -> Dict[str, object]:
        externals: Dict[str, int] = {}
        for info in self.functions.values():
            for site in info.calls:
                if site.target is None and site.external:
                    externals[site.external] = (
                        externals.get(site.external, 0) + 1
                    )
        return {
            "format_version": 1,
            "package": self.package,
            "counts": {
                "modules": len(self.modules),
                "functions": len(self.functions),
                "classes": len(self.classes),
                "edges": len(self.edges()),
                "lazy_refs": len(self.lazy_refs),
            },
            "modules": sorted(self.modules),
            "functions": [
                {
                    "qname": info.qname,
                    "path": info.path,
                    "line": info.line,
                    "async": info.is_async,
                    "calls": len(info.calls),
                    "raises": sorted({r.exc for r in info.raises}),
                }
                for _, info in sorted(self.functions.items())
            ],
            "edges": [list(edge) for edge in self.edges()],
            "lazy_refs": [
                {
                    "text": ref.text,
                    "path": ref.path,
                    "line": ref.line,
                    "function": ref.function,
                    "registry": ref.registry,
                    "plugin": ref.plugin,
                }
                for ref in self.lazy_refs
            ],
            "external_calls": dict(sorted(externals.items())),
        }


# ----------------------------------------------------------------------
# Pass 1: module discovery
# ----------------------------------------------------------------------


def _module_name(rel: Path) -> str:
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_imports(
    module: str, tree: ast.Module, imports: Dict[str, str]
) -> None:
    package_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    imports.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # ``from ..x import y`` — resolve against this module's
                # package (``__init__`` modules count as their package).
                prefix = ".".join(
                    package_parts[: len(package_parts) - node.level]
                    if len(package_parts) >= node.level
                    else []
                )
                source = (
                    f"{prefix}.{node.module}" if node.module else prefix
                )
            else:
                source = node.module or ""
            if not source:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{source}.{alias.name}"
                )


def _annotation_dotted(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort dotted class name from an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return dotted_name(node)
    if isinstance(node, ast.Subscript):
        base = _annotation_dotted(node.value)
        if base in {"Optional", "typing.Optional"}:
            return _annotation_dotted(node.slice)
        if base in {"Union", "typing.Union"} and isinstance(
            node.slice, ast.Tuple
        ):
            for element in node.slice.elts:
                if isinstance(element, ast.Constant) and element.value is None:
                    continue
                resolved = _annotation_dotted(element)
                if resolved is not None:
                    return resolved
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Pass 2: one walk per module
# ----------------------------------------------------------------------

_Def = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class _Scope:
    """A function body being walked: where its call, raise and lazy-ref
    facts go.  Lambdas and comprehensions are inlined into it; nested
    ``def``s get scopes of their own."""

    function: FunctionInfo
    env: Dict[str, str]  # typed locals → class qnames
    cls: Optional[ClassInfo]
    caught_stack: List[FrozenSet[str]] = field(default_factory=list)
    #: Nested ``def`` names bound so far in this body → their qnames.
    nested: Dict[str, str] = field(default_factory=dict)
    #: The scopes of those nested ``def``s, in the order they were met.
    children: List["_Scope"] = field(default_factory=list)
    lazy_refs: List[LazyRef] = field(default_factory=list)

    @property
    def caught(self) -> FrozenSet[str]:
        return frozenset().union(*self.caught_stack)


def _handler_types(node: Optional[ast.AST]) -> Set[str]:
    if node is None:
        return {CATCH_ALL}
    if isinstance(node, ast.Tuple):
        merged: Set[str] = set()
        for element in node.elts:
            merged |= _handler_types(element)
        return merged
    dotted = dotted_name(node)
    if dotted is None:
        return {CATCH_ALL}
    leaf = dotted.rsplit(".", 1)[-1]
    if leaf in {"Exception", "BaseException"}:
        return {CATCH_ALL}
    return {leaf}


class GraphBuilder:
    """Two-pass builder producing a :class:`CallGraph`.

    The index pass reads imports, top-level names, classes and
    ``__init__`` attribute types of every module; resolution needs all
    of them.  Then one walk per module hands every node to the module's
    :class:`~repro.devtools.checks.FileContext` (when checks run) and
    records graph facts.  Call, raise and lazy-ref sites are recorded
    for the innermost function body, and for module-level statements
    outside ``def``/``class``; never for class bodies, the decorators
    and defaults of top-level functions and methods, or function-local
    classes.  Literal ``NAME.create/get("plugin")`` lookups are
    recorded everywhere.
    """

    def __init__(
        self,
        root: Path,
        package_dir: Path,
        file_context: Optional[
            Callable[[ModuleInfo], Optional["FileContext"]]
        ] = None,
    ) -> None:
        #: ``root`` is the repo root; ``package_dir`` the package source
        #: tree (``<root>/src/repro``) whose files become the graph.
        self.root = root
        self.package_dir = package_dir
        self.graph = CallGraph(root, package_dir.name)
        #: Per-module context handed every node of the walk (or None).
        self.file_context = file_context
        #: Indexed ``def`` (and module) nodes → their graph nodes.
        self.pending: Dict[ast.AST, FunctionInfo] = {}
        #: The body scopes the walk opened for those nodes.
        self.scopes: Dict[ast.AST, _Scope] = {}
        #: Factory constant of a ``NAME.register(...)`` → (NAME, plugin).
        self._registrations: Dict[ast.AST, Tuple[str, Optional[str]]] = {}
        self._module: ModuleInfo
        self._ctx: Optional[FileContext] = None

    # -- pass 1 --------------------------------------------------------

    def discover(self) -> None:
        src_root = self.package_dir.parent
        for file_path in sorted(self.package_dir.rglob("*.py")):
            rel_to_src = file_path.relative_to(src_root)
            name = _module_name(rel_to_src)
            rel = file_path.relative_to(self.root).as_posix()
            source = file_path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                self.graph.parse_errors.append(
                    Violation(
                        rule="RPL000",
                        path=rel,
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            module = ModuleInfo(
                name=name,
                path=rel,
                tree=tree,
                source_lines=source.splitlines(),
            )
            _collect_imports(name, tree, module.imports)
            self.graph.modules[name] = module

        for module in self.graph.modules.values():
            self._index_module(module)

    def _index_module(self, module: ModuleInfo) -> None:
        mod_fn = FunctionInfo(
            qname=module_node(module.name),
            module=module.name,
            name="<module>",
            cls=None,
            path=module.path,
            line=1,
            col=0,
            is_async=False,
        )
        self.graph.functions[mod_fn.qname] = mod_fn
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.top_names.add(node.name)
                self.add_function(node, module, cls=None)
            elif isinstance(node, ast.ClassDef):
                module.top_names.add(node.name)
                self._index_class(node, module)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        module.top_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                module.top_names.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "*":
                        module.top_names.add(
                            alias.asname or alias.name.split(".", 1)[0]
                        )
        self.pending[module.tree] = mod_fn

    def _index_class(self, node: ast.ClassDef, module: ModuleInfo) -> None:
        qname = f"{module.name}:{node.name}"
        info = ClassInfo(qname=qname, module=module.name, name=node.name)
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is None:
                continue
            internal, external = self.resolve_dotted(dotted, module)
            info.bases.append(internal or external or dotted)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self.add_function(stmt, module, cls=info)
                info.methods[stmt.name] = method.qname
                if stmt.name == "__init__":
                    self._collect_init_attrs(stmt, info)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                dotted = _annotation_dotted(stmt.annotation)
                if dotted:
                    info.attr_types[stmt.target.id] = dotted
        self.graph.classes[qname] = info

    def _collect_init_attrs(self, init: _Def, info: ClassInfo) -> None:
        params: Dict[str, str] = {}
        args = init.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            dotted = _annotation_dotted(arg.annotation)
            if dotted:
                params[arg.arg] = dotted
        for node in ast.walk(init):
            target = None
            value_name: Optional[str] = None
            annotation: Optional[str] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if isinstance(value, ast.IfExp):
                    # ``self.x = x if x is not None else Default()`` —
                    # the annotated parameter branch carries the type.
                    for branch in (value.body, value.orelse):
                        if (
                            isinstance(branch, ast.Name)
                            and branch.id in params
                        ):
                            value = branch
                            break
                if isinstance(value, ast.Name):
                    value_name = value.id
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                annotation = _annotation_dotted(node.annotation)
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if annotation:
                    info.attr_types.setdefault(target.attr, annotation)
                elif value_name and value_name in params:
                    info.attr_types.setdefault(
                        target.attr, params[value_name]
                    )

    def add_function(
        self, node: _Def, module: ModuleInfo, cls: Optional[ClassInfo]
    ) -> FunctionInfo:
        """Index a top-level function or a method."""
        qname = f"{module.name}:{cls.name + '.' if cls else ''}{node.name}"
        info = self.new_function(node, module, qname, cls.qname if cls else None)
        self.graph.functions[qname] = self.pending[node] = info
        return info

    @staticmethod
    def new_function(
        node: _Def, module: ModuleInfo, qname: str, cls: Optional[str] = None
    ) -> FunctionInfo:
        return FunctionInfo(
            qname=qname,
            module=module.name,
            name=node.name,
            cls=cls,
            path=module.path,
            line=node.lineno,
            col=node.col_offset,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            returns=_annotation_dotted(node.returns),
        )

    # -- resolution ----------------------------------------------------

    def resolve_type(
        self, dotted: Optional[str], module: ModuleInfo
    ) -> Optional[str]:
        """Dotted annotation → internal class qname (or ``None``)."""
        if not dotted:
            return None
        internal, _ = self.resolve_dotted(dotted, module)
        if internal in self.graph.classes:
            return internal
        # Same-module class referenced before/after its definition.
        candidate = f"{module.name}:{dotted}"
        if candidate in self.graph.classes:
            return candidate
        return None

    def _resolve_in_module(
        self, module_name: str, parts: List[str], depth: int = 0
    ) -> Tuple[Optional[str], Optional[str]]:
        """Resolve an attr chain inside an internal module."""
        if depth > 6 or not parts:
            return None, None
        module = self.graph.modules.get(module_name)
        if module is None:
            return None, None
        head, rest = parts[0], parts[1:]
        fn = f"{module_name}:{head}"
        if fn in self.graph.functions and not rest:
            return fn, None
        cls = f"{module_name}:{head}"
        if cls in self.graph.classes:
            if not rest:
                return cls, None
            if len(rest) == 1:
                method = self.graph.lookup_method(cls, rest[0])
                if method is not None:
                    return method, None
            return None, None
        if head in module.imports:
            # Re-export chase (``repro.api.__init__`` style).
            return self._resolve_chain(
                module.imports[head].split(".") + rest, depth + 1
            )
        return None, None

    def _resolve_chain(
        self, parts: List[str], depth: int = 0
    ) -> Tuple[Optional[str], Optional[str]]:
        """Resolve a fully-expanded dotted chain (module-first)."""
        if depth > 6:
            return None, None
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.graph.modules:
                remainder = parts[cut:]
                if not remainder:
                    return None, None  # bare module reference
                return self._resolve_in_module(prefix, remainder, depth)
        return None, ".".join(parts)

    def resolve_dotted(
        self,
        dotted: str,
        module: ModuleInfo,
        env: Optional[Dict[str, str]] = None,
        cls: Optional[ClassInfo] = None,
    ) -> Tuple[Optional[str], Optional[str]]:
        """Resolve a call/base expression to ``(internal, external)``.

        Exactly one of the results is non-``None`` (or both are ``None``
        for unresolvable attribute chains on untyped receivers).
        """
        parts = dotted.split(".")
        head = parts[0]

        # Typed receivers first: ``self`` / ``cls`` / annotated locals.
        receiver: Optional[str] = None
        if head in {"self", "cls"} and cls is not None:
            receiver = cls.qname
        elif env is not None and head in env:
            receiver = env[head]
        if receiver is not None and len(parts) > 1:
            return self._resolve_via_receiver(receiver, parts[1:], module)

        if head in module.imports:
            expanded = module.imports[head].split(".") + parts[1:]
            return self._resolve_chain(expanded)
        if head in module.top_names:
            return self._resolve_in_module(module.name, parts)
        if len(parts) == 1:
            return None, head  # builtin / global (``open``, ``print``)
        return self._resolve_chain(parts)

    def _resolve_via_receiver(
        self, class_qname: str, parts: List[str], module: ModuleInfo
    ) -> Tuple[Optional[str], Optional[str]]:
        current = class_qname
        for attr in parts[:-1]:
            info = self.graph.classes.get(current)
            if info is None:
                return None, None
            dotted = info.attr_types.get(attr)
            if dotted is None:
                return None, None
            owner = self.graph.modules.get(info.module)
            resolved = self.resolve_type(
                dotted, owner if owner is not None else module
            )
            if resolved is None:
                return None, None
            current = resolved
        method = self.graph.lookup_method(current, parts[-1])
        if method is not None:
            return method, None
        return None, None

    # -- pass 2: one walk per module ----------------------------------

    def resolve(self) -> None:
        """Walk each module once, then lay nested functions and lazy refs
        out breadth-first: the order in which walking one body at a
        time, nested bodies queued last, would have met them."""
        for module in self.graph.modules.values():
            self._module = module
            self._ctx = self.file_context(module) if self.file_context else None
            scope = self._scope(module.tree, self.pending[module.tree])
            self.scopes[module.tree] = scope
            self._visit(module.tree, scope)
        order = [self.scopes[node] for node in self.pending]
        for scope in order:
            order.extend(scope.children)
        for scope in order[len(self.pending) :]:
            self.graph.functions[scope.function.qname] = scope.function
        self.graph.lazy_refs = [ref for scope in order for ref in scope.lazy_refs]
        self._expand_virtual_calls()

    def _scope(self, node: ast.AST, function: FunctionInfo) -> _Scope:
        """``function``'s body scope: typed parameters, ``self``'s class."""
        env: Dict[str, str] = {}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                resolved = self.resolve_type(
                    _annotation_dotted(arg.annotation), self._module
                )
                if resolved:
                    env[arg.arg] = resolved
        cls = self.graph.classes.get(function.cls) if function.cls else None
        return _Scope(function, env, cls)

    def _visit(self, node: ast.AST, scope: Optional[_Scope]) -> None:
        """Hand ``node`` to the file context, record its facts in
        ``scope`` (if any), then visit its children."""
        if self._ctx is not None:
            self._ctx.visit(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_def(node, scope)
            if self._ctx is not None:
                self._ctx.leave_function()
            return
        if isinstance(node, ast.Call):
            self._record_lookup(node)
        if scope is None or isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                self._visit(child, None)
            return
        if isinstance(node, ast.Try):
            handled: Set[str] = set()
            for handler in node.handlers:
                handled |= _handler_types(handler.type)
            scope.caught_stack.append(frozenset(handled))
            for stmt in node.body:
                self._visit(stmt, scope)
            scope.caught_stack.pop()
            for handler in node.handlers:
                if self._ctx is not None:
                    self._ctx.visit(handler)
                if handler.type is not None:
                    self._visit(handler.type, None)
                for stmt in handler.body:
                    self._visit(stmt, scope)
            for stmt in node.orelse + node.finalbody:
                self._visit(stmt, scope)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node, scope)
            # fall through: the constructor call inside is still a call
        if isinstance(node, ast.Call):
            self._record_call(node, scope)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            self._record_lazy_ref(node, scope)
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            resolved = self.resolve_type(
                _annotation_dotted(node.annotation), self._module
            )
            if resolved:
                scope.env[node.target.id] = resolved
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            constructed = self._constructed_class(node.value, scope)
            if constructed:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        scope.env[target.id] = constructed
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope)

    def _visit_def(self, node: _Def, scope: Optional[_Scope]) -> None:
        """A ``def``'s body is a scope of its own.  Any ``def`` inside a
        scope but not indexed is nested in it: its decorators evaluate
        in the enclosing scope, which gains an assumed call of it."""
        outer: Optional[_Scope] = None
        body: Optional[_Scope] = None  # methods of function-local classes
        if node in self.pending:
            body = self.scopes[node] = self._scope(node, self.pending[node])
        elif scope is not None:
            qname = f"{scope.function.qname}.<locals>.{node.name}"
            function = self.new_function(node, self._module, qname)
            outer, body = scope, self._scope(node, function)
            scope.nested[node.name] = qname
            scope.children.append(body)
        self._visit(node.args, None)
        for stmt in node.body:
            self._visit(stmt, body)
        for decorator in node.decorator_list:
            self._visit(decorator, outer)
        for child in [node.returns, *getattr(node, "type_params", ())]:
            if child is not None:
                self._visit(child, None)
        if outer is not None and body is not None:
            nested = body.function
            deferred = outer.function.is_async and not nested.is_async
            outer.function.calls.append(
                CallSite(nested.qname, node.lineno, outer.caught, deferred=deferred)
            )

    def _constructed_class(self, call: ast.Call, scope: _Scope) -> Optional[str]:
        """Static type of a call result: constructors and annotated
        returns (``q = self._get(sid)`` types ``q`` via ``_get``'s
        ``-> ManagedSession`` annotation)."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        internal, _ = self.resolve_dotted(
            dotted, self._module, env=scope.env, cls=scope.cls
        )
        if internal is None:
            return None
        if internal in self.graph.classes:
            return internal
        callee = self.graph.functions.get(internal)
        if callee is not None and callee.returns is not None:
            owner = self.graph.modules.get(callee.module)
            if owner is not None:
                return self.resolve_type(callee.returns, owner)
        return None

    def _record_raise(self, node: ast.Raise, scope: _Scope) -> None:
        exc = node.exc
        if exc is None:
            return  # bare re-raise: the original site already recorded it
        if isinstance(exc, ast.Call):
            exc = exc.func
        dotted = dotted_name(exc)
        if dotted is None:
            return
        internal, _ = self.resolve_dotted(dotted, self._module)
        qname = internal if internal in self.graph.classes else None
        leaf = (qname or dotted).rsplit(":", 1)[-1].rsplit(".", 1)[-1]
        scope.function.raises.append(
            RaiseSite(exc=leaf, qname=qname, line=node.lineno, caught=scope.caught)
        )

    def _record_call(self, node: ast.Call, scope: _Scope) -> None:
        dotted = dotted_name(node.func)
        target: Optional[str] = None
        external: Optional[str] = None
        attr: Optional[str] = None
        if dotted is not None and dotted in scope.nested:
            target = scope.nested[dotted]
        elif dotted is not None:
            target, external = self.resolve_dotted(
                dotted, self._module, env=scope.env, cls=scope.cls
            )
            if target is not None and target in self.graph.classes:
                # Constructing a class "calls" its (possibly inherited)
                # __init__.
                target = self.graph.lookup_method(target, "__init__")
                external = None
        if target is None and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
        scope.function.calls.append(
            CallSite(target, node.lineno, scope.caught, external, attr)
        )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "register"
            and isinstance(node.func.value, ast.Name)
        ):
            # ``NAME.register(plugin, "m:attr")``: the factory string's
            # lazy ref, met next in the walk, carries both names.
            plugin: Optional[str] = None
            factory: Optional[ast.Constant] = None
            for arg in node.args + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    if LAZY_REF_PATTERN.match(arg.value):
                        factory = arg
                    elif plugin is None:
                        plugin = arg.value
            if factory is not None:
                self._registrations[factory] = (node.func.value.id, plugin)

    def _record_lazy_ref(self, node: ast.Constant, scope: _Scope) -> None:
        """Record a ``"repro.…:attr"`` literal plus its call edge."""
        match = LAZY_REF_PATTERN.match(node.value)
        if match is None:
            return
        target_module = match.group("module")
        if not target_module.startswith(self.graph.package + "."):
            return
        registry, plugin = self._registrations.get(node, (None, None))
        scope.lazy_refs.append(
            LazyRef(
                text=node.value,
                module=target_module,
                attr=match.group("attr"),
                path=self._module.path,
                line=node.lineno,
                function=scope.function.qname,
                registry=registry,
                plugin=plugin,
            )
        )
        internal, _ = self._resolve_in_module(target_module, [match.group("attr")])
        if internal is not None and internal in self.graph.classes:
            internal = self.graph.lookup_method(internal, "__init__")
        if internal is not None:
            scope.function.calls.append(CallSite(internal, node.lineno, scope.caught))

    def _record_lookup(self, node: ast.Call) -> None:
        func, args = node.func, node.args
        if (
            isinstance(func, ast.Attribute)
            and func.attr in {"create", "get"}
            and isinstance(func.value, ast.Name)
            and args
            and isinstance(args[0], ast.Constant)
            and isinstance(args[0].value, str)
        ):
            self.graph.lookups.append(
                RegistryLookup(
                    func.value.id,
                    func.attr,
                    args[0].value,
                    self._module.name,
                    node.lineno,
                    node.col_offset,
                )
            )

    def _expand_virtual_calls(self) -> None:
        """Union subclass overrides into method call edges (CHA).

        A call resolved to ``Base.m`` may dispatch to any internal
        subclass override at runtime (``self.builder.build`` on a
        ``TPOBuilder`` runs a ``GridBuilder.extend``), so each such
        site gains one extra edge per override — the over-approximation
        that makes the may-block / may-raise closures sound across
        abstract template methods.
        """
        subclasses: Dict[str, List[str]] = {}
        for qname, info in self.graph.classes.items():
            for base in info.bases:
                if base in self.graph.classes:
                    subclasses.setdefault(base, []).append(qname)

        def overrides(class_qname: str, method: str) -> List[str]:
            found: List[str] = []
            for sub in subclasses.get(class_qname, ()):  # noqa: B007
                sub_info = self.graph.classes[sub]
                if method in sub_info.methods:
                    found.append(sub_info.methods[method])
                found.extend(overrides(sub, method))
            return found

        for info in self.graph.functions.values():
            extra: List[CallSite] = []
            for site in info.calls:
                if site.target is None or ":" not in site.target:
                    continue
                _, local = site.target.split(":", 1)
                if "." not in local or "<locals>" in local:
                    continue
                cls_name, method = local.rsplit(".", 1)
                owner = f"{site.target.rsplit(':', 1)[0]}:{cls_name}"
                for target in overrides(owner, method):
                    if target != site.target:
                        extra.append(CallSite(target, site.line, site.caught))
            info.calls.extend(extra)

    def build(self) -> CallGraph:
        self.discover()
        self.resolve()
        return self.graph


def build_graph(
    root: Path,
    file_context: Optional[
        Callable[[ModuleInfo], Optional["FileContext"]]
    ] = None,
) -> CallGraph:
    """Build the whole-program graph of ``<root>/src/repro``.

    ``file_context(module)`` gives the context the walk hands each node
    of ``module`` to (see :func:`repro.devtools.checks.analyze`).
    """
    root = Path(root).resolve()
    return GraphBuilder(root, root / "src" / "repro", file_context).build()


__all__ = [
    "CATCH_ALL",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "GraphBuilder",
    "LazyRef",
    "LAZY_REF_PATTERN",
    "ModuleInfo",
    "RaiseSite",
    "RegistryLookup",
    "build_graph",
    "dotted_name",
    "module_node",
]
