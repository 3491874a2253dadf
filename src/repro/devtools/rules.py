"""The per-file domain rules of ``repro check``: RPL001–RPL010.

Each rule encodes one correctness *convention* the code base relies on —
things a generic linter cannot know, and that used to live only in review
comments and docstrings.  The docstring of every rule class states the
invariant and why breaking it is a real bug here, not a style nit.
(RPL004, blocking calls in service coroutines, retired into RPC101;
RPL006 retired with the shims it policed.)

Rules are :class:`~repro.devtools.checks.FileCheck` plugins, fed each
node of a ``node_types`` type by the call graph's one walk (no rule walks a
tree itself), and path-aware: ``applies_to`` receives the repo-relative
posix path, so e.g. the dtype rule only runs on the flat-table hot
paths.  Fixture self-tests exercise this by laying files out under a
fake root with the mirrored layout (see ``tests/devtools/``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.checks import FileCheck, FileContext
from repro.devtools.findings import Violation
from repro.devtools.graph import dotted_name

#: numpy.random attributes that are fine anywhere: types, and the
#: explicitly-seeded constructor path.
_NUMPY_RANDOM_OK = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)


class SeededRngRule(FileCheck):
    """RNG must be an explicitly passed, derived ``np.random.Generator``.

    Process-stable reproducibility (parallel == serial, resume ==
    uninterrupted) rests on every random stream being derived through
    ``repro.utils.rng.derive_seed``.  The stdlib ``random`` module,
    ``np.random.seed`` (hidden global state), the legacy ``np.random.*``
    sampling functions, and a default-seeded ``np.random.default_rng()``
    (fresh OS entropy per call) all silently break that contract.
    """

    code = "RPL001"
    node_types = (ast.Import, ast.ImportFrom, ast.Call)
    name = "derived-generator-rng"
    rationale = (
        "global or default-seeded RNG breaks process-stable seeding via "
        "utils.rng.derive_seed"
    )

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield self.violation(
                        node,
                        ctx,
                        "stdlib `random` is banned in src/: pass a "
                        "np.random.Generator derived via derive_seed",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield self.violation(
                    node,
                    ctx,
                    "stdlib `random` is banned in src/: pass a "
                    "np.random.Generator derived via derive_seed",
                )
        elif isinstance(node, ast.Call):
            resolved = ctx.resolve_numpy(dotted_name(node.func))
            if not resolved or not resolved.startswith("numpy.random."):
                return
            attr = resolved[len("numpy.random."):]
            if attr == "seed":
                yield self.violation(
                    node,
                    ctx,
                    "np.random.seed mutates hidden global state; derive a "
                    "Generator via derive_seed instead",
                )
            elif attr == "default_rng":
                if not node.args and not node.keywords:
                    yield self.violation(
                        node,
                        ctx,
                        "default-seeded np.random.default_rng() draws fresh "
                        "OS entropy; seed it from derive_seed",
                    )
            elif "." not in attr and attr not in _NUMPY_RANDOM_OK:
                yield self.violation(
                    node,
                    ctx,
                    f"legacy np.random.{attr}() uses the global stream; "
                    "use an explicitly passed Generator",
                )


class ContentKeyRule(FileCheck):
    """All digests flow through ``repro.api.canonical.content_key``.

    Cache keys, grid-cell ids, and TPO instance keys must be identical
    across processes, machines, and releases; builtin ``hash()`` is
    per-process salted, and an ad-hoc ``hashlib`` recipe forks the key
    space the moment its serialization drifts from the canonical one.
    The only sanctioned digest sites are ``api/canonical.py`` (the recipe)
    and ``utils/rng.py`` (``derive_seed``'s label hashing).
    """

    code = "RPL002"
    node_types = (ast.Call, ast.Import, ast.ImportFrom)
    name = "canonical-content-keys"
    rationale = (
        "builtin hash() is salted per process; ad-hoc digests fork the "
        "content-key space owned by api.canonical"
    )

    ALLOWED = frozenset(
        {"src/repro/api/canonical.py", "src/repro/utils/rng.py"}
    )

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "hash"
                and len(node.args) == 1
            ):
                yield self.violation(
                    node,
                    ctx,
                    "builtin hash() is process-salted and must never feed "
                    "keys; use api.canonical.content_key",
                )
        if ctx.path in self.ALLOWED:
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "hashlib":
                    yield self.violation(
                        node,
                        ctx,
                        "ad-hoc hashlib digests are banned outside "
                        "api/canonical.py; use content_key",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "hashlib" and node.level == 0:
                yield self.violation(
                    node,
                    ctx,
                    "ad-hoc hashlib digests are banned outside "
                    "api/canonical.py; use content_key",
                )


class FrozenSpecRule(FileCheck):
    """Frozen spec instances are immutable outside their own module.

    ``repro.api`` specs hash to content keys at construction; mutating an
    instance afterwards desynchronizes the object from every cache entry,
    log line, and session key already derived from it.  Both the
    back-door (``object.__setattr__``) and plain attribute assignment on
    a name bound to a spec constructor are flagged.
    ``object.__setattr__(self, …)`` is exempt: a frozen class
    canonicalizing *itself* during ``__post_init__`` is the defining
    module's prerogative (e.g. :class:`repro.questions.model.Question`).
    """

    code = "RPL003"
    node_types = (ast.Call, ast.Assign)
    name = "frozen-spec-immutability"
    rationale = (
        "specs are hashed at construction; later mutation desyncs content "
        "keys, caches, and event-log replay"
    )

    DEFINING_MODULE = "src/repro/api/specs.py"

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        if ctx.path == self.DEFINING_MODULE:
            return
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            mutates_self = bool(
                node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
            )
            if (
                callee
                and callee.endswith("object.__setattr__")
                and not mutates_self
            ):
                yield self.violation(
                    node,
                    ctx,
                    "object.__setattr__ on frozen instances is reserved "
                    "for the defining module (api/specs.py)",
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and any(
                        target.value.id in bound
                        for bound in ctx.spec_bindings
                    )
                ):
                    yield self.violation(
                        node,
                        ctx,
                        f"attribute assignment on frozen spec "
                        f"{target.value.id!r}; build a new spec instead",
                    )


#: Allocation constructors whose dtype must be spelled out (RPL005).
_DTYPE_REQUIRED = frozenset(
    {"numpy.array", "numpy.zeros", "numpy.empty", "numpy.ones", "numpy.full"}
)
#: Hot-path files under the int32/intp/float64 level-table contract.
_DTYPE_FILES = frozenset(
    {
        "src/repro/tpo/tree.py",
        "src/repro/tpo/builders.py",
        "src/repro/tpo/space.py",
        "src/repro/questions/residual.py",
    }
)


class ExplicitDtypeRule(FileCheck):
    """Array allocations in the flat-table hot paths pass an explicit dtype.

    The PR-5 level tables contract dtypes precisely (tuple_ids int32,
    parent_idx intp, probs float64); a bare ``np.zeros(n)`` silently
    picks float64 today and whatever the input promotes to tomorrow,
    which is exactly how a 2x-memory int64 id column or a float32
    precision regression sneaks past the 1e-9 parity gates.
    """

    code = "RPL005"
    node_types = (ast.Call,)
    name = "explicit-hot-path-dtypes"
    rationale = (
        "the level tables contract int32/intp/float64; inferred dtypes "
        "drift silently past the parity gates"
    )

    def applies_to(self, path: str) -> bool:
        return path in _DTYPE_FILES

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        if not isinstance(node, ast.Call):
            return
        resolved = ctx.resolve_numpy(dotted_name(node.func))
        if resolved not in _DTYPE_REQUIRED:
            return
        short = resolved.replace("numpy.", "np.")
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        # zeros/empty/ones/full accept dtype as the second (full: third)
        # positional argument.
        positional_slot = {"numpy.full": 3}.get(resolved, 2)
        if resolved != "numpy.array" and len(node.args) >= positional_slot:
            return
        yield self.violation(
            node,
            ctx,
            f"{short}(...) without an explicit dtype in a level-table hot "
            "path; spell out int32/intp/float64",
        )


class TornTailAppendRule(FileCheck):
    """Append-mode JSONL writes go through the torn-tail-safe helpers.

    ``ResultStore`` / ``EventLog`` heal a torn final line with
    ``ensure_trailing_newline`` before they append, so a record glued
    onto a killed run's torn tail can never lose both records.  A raw
    ``open(path, "a")`` anywhere else reintroduces exactly that
    corruption on the next crash.
    """

    code = "RPL007"
    node_types = (ast.Call,)
    name = "torn-tail-safe-appends"
    rationale = (
        "raw append-mode writes glue records onto a torn tail after a "
        "kill; EventLog/ResultStore heal it first"
    )

    ALLOWED = frozenset(
        {"src/repro/experiments/store.py", "src/repro/service/manager.py"}
    )

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        if ctx.path in self.ALLOWED or not isinstance(node, ast.Call):
            return
        callee = dotted_name(node.func)
        is_open = callee == "open" or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "open"
        )
        if not is_open:
            return
        mode = None
        offset = 1 if callee == "open" else 0
        if len(node.args) >= 1 + offset:
            mode = node.args[offset]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and "a" in mode.value
        ):
            yield self.violation(
                node,
                ctx,
                "raw append-mode open(); route through the torn-tail-safe "
                "EventLog/ResultStore helpers",
            )


class MutableDefaultRule(FileCheck):
    """No mutable default arguments on public ``src/repro`` functions.

    A shared ``[]`` / ``{}`` default on an API entry point leaks state
    across calls — and across *sessions* in the long-lived service
    process.  Use ``None`` and materialize inside.
    """

    code = "RPL008"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)
    name = "no-mutable-public-defaults"
    rationale = (
        "shared mutable defaults leak state across calls in the "
        "long-lived service process"
    )

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if node.name.startswith("_") and node.name != "__init__":
            return
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                yield self.violation(
                    default,
                    ctx,
                    f"mutable default argument on public function "
                    f"{node.name!r}; default to None and materialize "
                    "inside",
                )


#: The concrete TPO engine classes whose construction is spec-gated.
_ENGINE_CLASSES = frozenset(
    {"GridBuilder", "ExactBuilder", "MonteCarloBuilder"}
)


class EngineSpecConstructionRule(FileCheck):
    """TPO engines are constructed through ``EngineSpec`` / ``ENGINES``.

    Cache keys, event-log replay, and the sharded runtime all fingerprint
    builders through ``EngineSpec.signature_for``; a ``GridBuilder(...)``
    call sprinkled elsewhere ships configuration (resolution, beam
    epsilon/width) that no spec records, so an equal-looking deployment
    silently stops sharing TPOs — or worse, replays against a
    differently-shaped tree.  Construct via
    ``EngineSpec(name, params).build()`` or ``ENGINES.create(name, ...)``.
    """

    code = "RPL009"
    node_types = (ast.Call,)
    name = "engines-built-from-specs"
    rationale = (
        "direct engine construction bypasses the EngineSpec fingerprint "
        "that cache keys and replay depend on"
    )

    #: The spec layer itself and the defining module.
    ALLOWED = frozenset(
        {
            "src/repro/api/specs.py",
            "src/repro/tpo/builders.py",
        }
    )

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        if ctx.path in self.ALLOWED or not isinstance(node, ast.Call):
            return
        callee = dotted_name(node.func)
        if not callee:
            return
        leaf = callee.rsplit(".", 1)[-1]
        if leaf in _ENGINE_CLASSES:
            yield self.violation(
                node,
                ctx,
                f"direct {leaf}(...) construction; build engines through "
                "repro.api.EngineSpec(...).build() or ENGINES.create() so "
                "the builder fingerprint stays canonical",
            )


#: Session machinery the evaluation harness must not construct directly.
_SESSION_CLASSES = frozenset(
    {"SessionManager", "UncertaintyReductionSession", "InteractiveSession"}
)


class EvalSessionDisciplineRule(FileCheck):
    """Eval and experiment code runs sessions through ``repro.api.run``
    and derives RNG via ``derive_seed``.

    The evaluation harness *is* the fidelity gate, and the figure
    drivers feed it (``repro eval --suite paper`` scores their grids):
    golden replays are only bit-identical, and calibration numbers and
    paper gates only comparable across machines, if every session
    flows through the one sanctioned seed-derivation and construction
    path (``prepare_session``/``run_session``/``replay_session``).  A
    hand-rolled ``UncertaintyReductionSession(...)`` or ad-hoc
    ``default_rng(42)`` inside a suite or a driver silently forks the
    determinism contract the suites exist to certify.
    ``evals/service_replay.py`` is the one sanctioned exception —
    exercising the ``SessionManager`` event-log path is its entire
    purpose.
    """

    code = "RPL010"
    node_types = (ast.ImportFrom, ast.Call)
    name = "evals-through-api-run"
    rationale = (
        "eval or experiment sessions built outside repro.api.run (or "
        "RNG not derived via derive_seed) fork the determinism contract "
        "the suites certify"
    )

    ALLOWED = frozenset({"src/repro/evals/service_replay.py"})

    def applies_to(self, path: str) -> bool:
        return path.startswith(("src/repro/evals/", "src/repro/experiments/"))

    def visit_node(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Violation]:
        if ctx.path in self.ALLOWED:
            return
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _SESSION_CLASSES:
                    yield self.violation(
                        node,
                        ctx,
                        f"eval/experiment code imports {alias.name!r}; "
                        "construct sessions through repro.api.run "
                        "(prepare_session / run_session / replay_session)",
                    )
        elif isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if not callee:
                return
            parts = callee.split(".")
            direct = set(parts) & _SESSION_CLASSES
            if direct:
                yield self.violation(
                    node,
                    ctx,
                    f"direct {sorted(direct)[0]} use in eval/experiment "
                    "code; go through repro.api.run instead",
                )
                return
            resolved = ctx.resolve_numpy(callee)
            if resolved == "numpy.random.default_rng":
                seed = node.args[0] if node.args else None
                derived = (
                    isinstance(seed, ast.Call)
                    and (dotted_name(seed.func) or "").rsplit(".", 1)[-1]
                    == "derive_seed"
                )
                if not derived:
                    yield self.violation(
                        node,
                        ctx,
                        "eval/experiment RNG must be seeded through "
                        "utils.rng.derive_seed(seed, *labels)",
                    )


__all__ = [
    "SeededRngRule",
    "ContentKeyRule",
    "FrozenSpecRule",
    "ExplicitDtypeRule",
    "TornTailAppendRule",
    "MutableDefaultRule",
    "EngineSpecConstructionRule",
    "EvalSessionDisciplineRule",
]
