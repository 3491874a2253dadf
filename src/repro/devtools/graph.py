"""Whole-program import/call-graph construction over ``src/repro``.

One AST pass per module builds a package-wide :class:`CallGraph` whose
nodes are *functions* (including methods and a synthetic ``<module>``
node per module for import-time code) and whose edges are resolved call
sites.  Resolution is deliberately static but domain-aware; it follows

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

The parsed modules double as the index the per-file RPL checks walk:
each file under the package is read and parsed exactly once per run, and
a file that does not parse is reported as ``RPL000`` rather than
skipped.

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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.devtools.findings import Violation

#: Matches the registries' lazy factory strings (``repro.x.y:attr``).
LAZY_REF_PATTERN = re.compile(r"^(?P<module>[A-Za-z_][\w.]*):(?P<attr>[A-Za-z_]\w*)$")

#: Marker inside a caught-set meaning "catches everything".
CATCH_ALL = "*"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    #: Resolved internal target (function qname), or ``None``.
    target: Optional[str]
    #: Normalized dotted name for unresolved calls (``time.sleep``).
    external: Optional[str]
    #: Bare attribute name for unresolved attribute calls (``recv``).
    attr: Optional[str]
    line: int
    #: Exception type names caught by enclosing ``try`` bodies.
    caught: FrozenSet[str] = frozenset()
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
        #: ``RPL000`` findings for package files that do not parse.
        self.parse_errors: List[Violation] = []
        self._reverse: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None

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

        Internal classes contribute their resolved bases; builtin
        exceptions contribute their real MRO.  Unknown names fall back
        to ``{leaf, "Exception"}``.
        """
        ancestors: Set[str] = set()
        queue = [leaf]
        while queue:
            name = queue.pop(0)
            if name in ancestors:
                continue
            ancestors.add(name)
            matched = False
            for info in self.classes.values():
                if info.name == name:
                    matched = True
                    for base in info.bases:
                        queue.append(base.rsplit(":", 1)[-1].rsplit(".", 1)[-1])
            if not matched:
                builtin = getattr(builtins, name, None)
                if isinstance(builtin, type) and issubclass(
                    builtin, BaseException
                ):
                    queue.extend(
                        c.__name__ for c in builtin.__mro__[1:]
                    )
                    matched = True
            if not matched:
                ancestors.add("Exception")
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
# Pass 2: body resolution
# ----------------------------------------------------------------------


class _BodyWalker:
    """Collects call/raise/lazy-ref sites for one function body.

    Nested ``def``s become their own nodes (with an assumed-call edge
    from the parent — the "define and hand to the framework" pattern);
    lambdas and comprehensions are inlined into the enclosing function.
    """

    def __init__(
        self,
        builder: "GraphBuilder",
        function: FunctionInfo,
        module: ModuleInfo,
        env: Dict[str, str],
        cls: Optional[ClassInfo],
    ) -> None:
        self.builder = builder
        self.function = function
        self.module = module
        self.env = env
        self.cls = cls
        self.caught_stack: List[FrozenSet[str]] = []
        #: Nested ``def`` names bound so far in this body → their qnames.
        self.nested: Dict[str, str] = {}

    @property
    def caught(self) -> FrozenSet[str]:
        merged: Set[str] = set()
        for level in self.caught_stack:
            merged |= level
        return frozenset(merged)

    def walk(self, nodes: List[ast.stmt]) -> None:
        for node in nodes:
            self._visit(node)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = self.builder.add_function(
                node,
                self.module,
                cls=None,
                parent=self.function.qname,
            )
            self.nested[node.name] = nested.qname
            # Decorators evaluate in the enclosing scope.
            for decorator in node.decorator_list:
                self._visit(decorator)
            self.function.calls.append(
                CallSite(
                    target=nested.qname,
                    external=None,
                    attr=None,
                    line=node.lineno,
                    caught=self.caught,
                    deferred=self.function.is_async and not nested.is_async,
                )
            )
            return
        if isinstance(node, ast.ClassDef):
            return  # function-local classes: out of scope
        if isinstance(node, ast.Try):
            handled: Set[str] = set()
            for handler in node.handlers:
                handled |= self._handler_types(handler.type)
            self.caught_stack.append(frozenset(handled))
            for stmt in node.body:
                self._visit(stmt)
            self.caught_stack.pop()
            for handler in node.handlers:
                for stmt in handler.body:
                    self._visit(stmt)
            for stmt in list(node.orelse) + list(node.finalbody):
                self._visit(stmt)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node)
            # fall through: the constructor call inside is still a call
        if isinstance(node, ast.Call):
            self._record_call(node)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.builder.record_lazy_ref(
                node.value, self.module, self.function, node.lineno, self.caught
            )
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            resolved = self.builder.resolve_type(
                _annotation_dotted(node.annotation), self.module
            )
            if resolved:
                self.env[node.target.id] = resolved
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Call
        ):
            constructed = self._constructed_class(node.value)
            if constructed:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.env[target.id] = constructed
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _handler_types(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None:
            return {CATCH_ALL}
        if isinstance(node, ast.Tuple):
            merged: Set[str] = set()
            for element in node.elts:
                merged |= self._handler_types(element)
            return merged
        dotted = dotted_name(node)
        if dotted is None:
            return {CATCH_ALL}
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf in {"Exception", "BaseException"}:
            return {CATCH_ALL}
        return {leaf}

    def _constructed_class(self, call: ast.Call) -> Optional[str]:
        """Static type of a call result: constructors and annotated
        returns (``q = self._get(sid)`` types ``q`` via ``_get``'s
        ``-> ManagedSession`` annotation)."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        internal, _ = self.builder.resolve_dotted(
            dotted, self.module, env=self.env, cls=self.cls
        )
        if internal is None:
            return None
        graph = self.builder.graph
        if internal in graph.classes:
            return internal
        callee = graph.functions.get(internal)
        if callee is not None and callee.returns is not None:
            owner = graph.modules.get(callee.module)
            if owner is not None:
                return self.builder.resolve_type(callee.returns, owner)
        return None

    def _record_raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if exc is None:
            return  # bare re-raise: the original site already recorded it
        if isinstance(exc, ast.Call):
            exc = exc.func
        dotted = dotted_name(exc)
        if dotted is None:
            return
        internal, _ = self.builder.resolve_dotted(dotted, self.module)
        qname = (
            internal if internal in self.builder.graph.classes else None
        )
        leaf = (
            qname.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
            if qname
            else dotted.rsplit(".", 1)[-1]
        )
        self.function.raises.append(
            RaiseSite(
                exc=leaf, qname=qname, line=node.lineno, caught=self.caught
            )
        )

    def _record_call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        target: Optional[str] = None
        external: Optional[str] = None
        attr: Optional[str] = None
        if dotted is not None and dotted in self.nested:
            target = self.nested[dotted]
        elif dotted is not None:
            target, external = self.builder.resolve_dotted(
                dotted, self.module, env=self.env, cls=self.cls
            )
            if target is not None and target in self.builder.graph.classes:
                # Constructing a class "calls" its (possibly inherited)
                # __init__.
                init = self.builder.graph.lookup_method(target, "__init__")
                target = init if init is not None else None
                external = None
        if target is None and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
        self.function.calls.append(
            CallSite(
                target=target,
                external=external,
                attr=attr,
                line=node.lineno,
                caught=self.caught,
            )
        )


class GraphBuilder:
    """Two-pass builder producing a :class:`CallGraph`."""

    def __init__(self, root: Path, package_dir: Path) -> None:
        #: ``root`` is the repo root; ``package_dir`` the package source
        #: tree (``<root>/src/repro``) whose files become the graph.
        self.root = root
        self.package_dir = package_dir
        package = package_dir.name
        self.graph = CallGraph(root, package)
        self._pending: List[Tuple[FunctionInfo, ast.AST, Optional[str]]] = []

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
        self._pending.append((mod_fn, module.tree, None))

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
                    self._collect_init_attrs(stmt, info, module)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                dotted = _annotation_dotted(stmt.annotation)
                if dotted:
                    info.attr_types[stmt.target.id] = dotted
        self.graph.classes[qname] = info

    def _collect_init_attrs(
        self,
        init: ast.AST,
        info: ClassInfo,
        module: ModuleInfo,
    ) -> None:
        params: Dict[str, str] = {}
        args = init.args  # type: ignore[attr-defined]
        for arg in list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        ):
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
        self,
        node: ast.AST,
        module: ModuleInfo,
        cls: Optional[ClassInfo],
        parent: Optional[str] = None,
    ) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        if cls is not None:
            qname = f"{module.name}:{cls.name}.{name}"
        elif parent is not None:
            qname = f"{parent}.<locals>.{name}"
        else:
            qname = f"{module.name}:{name}"
        info = FunctionInfo(
            qname=qname,
            module=module.name,
            name=name,
            cls=cls.qname if cls is not None else None,
            path=module.path,
            line=node.lineno,  # type: ignore[attr-defined]
            col=getattr(node, "col_offset", 0),
            is_async=isinstance(node, ast.AsyncFunctionDef),
            returns=_annotation_dotted(
                getattr(node, "returns", None)
            ),
        )
        self.graph.functions[qname] = info
        self._pending.append((info, node, cls.qname if cls else None))
        return info

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

    # -- lazy refs -----------------------------------------------------

    def record_lazy_ref(
        self,
        text: str,
        module: ModuleInfo,
        function: FunctionInfo,
        line: int,
        caught: FrozenSet[str],
    ) -> None:
        """Record a ``"repro.…:attr"`` literal plus its call edge."""
        match = LAZY_REF_PATTERN.match(text)
        if match is None:
            return
        target_module = match.group("module")
        if not target_module.startswith(self.graph.package + "."):
            return
        self.graph.lazy_refs.append(
            LazyRef(
                text=text,
                module=target_module,
                attr=match.group("attr"),
                path=module.path,
                line=line,
                function=function.qname,
            )
        )
        internal, _ = self._resolve_in_module(
            target_module, [match.group("attr")]
        )
        if internal is not None and internal in self.graph.classes:
            internal = self.graph.lookup_method(internal, "__init__")
        if internal is not None:
            function.calls.append(
                CallSite(
                    target=internal,
                    external=None,
                    attr=None,
                    line=line,
                    caught=caught,
                )
            )

    def _annotate_registrations(self) -> None:
        """Attach registry/plugin names to ``.register(name, "m:attr")``."""
        by_site = {
            (ref.path, ref.line, ref.text): index
            for index, ref in enumerate(self.graph.lazy_refs)
        }
        for module in self.graph.modules.values():
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register"
                    and isinstance(node.func.value, ast.Name)
                ):
                    continue
                registry = node.func.value.id
                plugin: Optional[str] = None
                factory: Optional[ast.Constant] = None
                strings = [
                    arg
                    for arg in list(node.args)
                    + [kw.value for kw in node.keywords]
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                ]
                for arg in strings:
                    if LAZY_REF_PATTERN.match(arg.value):
                        factory = arg
                    elif plugin is None:
                        plugin = arg.value
                if factory is None:
                    continue
                key = (module.path, factory.lineno, factory.value)
                index = by_site.get(key)
                if index is not None:
                    self.graph.lazy_refs[index] = replace(
                        self.graph.lazy_refs[index],
                        registry=registry,
                        plugin=plugin,
                    )

    # -- pass 2 --------------------------------------------------------

    def resolve_bodies(self) -> None:
        for info, node, cls_qname in self._pending:
            module = self.graph.modules[info.module]
            cls = self.graph.classes.get(cls_qname) if cls_qname else None
            env: Dict[str, str] = {}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                ):
                    resolved = self.resolve_type(
                        _annotation_dotted(arg.annotation), module
                    )
                    if resolved:
                        env[arg.arg] = resolved
                body = list(node.body)
            else:  # the synthetic <module> node
                body = [
                    stmt
                    for stmt in node.body  # type: ignore[attr-defined]
                    if not isinstance(
                        stmt,
                        (
                            ast.FunctionDef,
                            ast.AsyncFunctionDef,
                            ast.ClassDef,
                        ),
                    )
                ]
            walker = _BodyWalker(self, info, module, env, cls)
            walker.walk(body)
        self._annotate_registrations()
        self._expand_virtual_calls()

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
                        extra.append(
                            CallSite(
                                target=target,
                                external=None,
                                attr=None,
                                line=site.line,
                                caught=site.caught,
                            )
                        )
            info.calls.extend(extra)

    def build(self) -> CallGraph:
        self.discover()
        self.resolve_bodies()
        return self.graph


def build_graph(root: Path) -> CallGraph:
    """Build the whole-program graph of ``<root>/src/repro``."""
    root = Path(root).resolve()
    return GraphBuilder(root, root / "src" / "repro").build()


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
    "build_graph",
    "dotted_name",
    "module_node",
]
