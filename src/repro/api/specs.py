"""Frozen, validated spec dataclasses — the typed front door.

A *spec* is the canonical, JSON-portable description of something the
system can build: an uncertain instance (:class:`InstanceSpec`), a
question-selection policy (:class:`PolicySpec`), an uncertainty measure
(:class:`MeasureSpec`), a simulated crowd (:class:`CrowdSpec`), a question
budget (:class:`BudgetSpec`), and their composition into one runnable
crowd-powered top-K session (:class:`SessionSpec`).

Every spec is

* **frozen** — validated once at construction, immutable afterwards;
* **round-trippable** — ``to_dict`` / ``from_dict`` are exact inverses and
  ``canonical_json`` is byte-stable, so ``content_key()`` plugs directly
  into the BLAKE2b content-addressing used by the TPO cache
  (:mod:`repro.service.cache`) and the experiment grid
  (:mod:`repro.experiments.grid`);
* **registry-checked** — names are validated against the
  :mod:`repro.api.catalog` registries at construction, with close-match
  suggestions on typos.

:class:`InstanceSpec` keeps the exact canonical dict shape the service
historically used (``workload``/``n``/``k``/``seed``/``params``), so
TPO-cache keys, event-log replay, and grid-cell hashes are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

if TYPE_CHECKING:  # deferred: specs must import nothing heavy at runtime
    from repro.crowd.simulator import SimulatedCrowd
    from repro.distributions.base import ScoreDistribution

from repro.api.canonical import canonical_json, content_key
from repro.api.catalog import (
    CROWD_MODELS,
    ENGINES,
    MEASURES,
    POLICIES,
    STORES,
    WORKLOADS,
)
from repro.utils.validation import check_fraction, check_int


def _canonical_params(params: Any, owner: str) -> Dict[str, Any]:
    """Copy ``params`` into a str-keyed, key-sorted plain dict."""
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise ValueError(
            f"{owner} params must be a dict of keyword arguments, "
            f"got {type(params).__name__}"
        )
    return {str(key): params[key] for key in sorted(params, key=str)}


def _require_keys(payload: Mapping, allowed: set, owner: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown {owner} fields: {sorted(unknown)}")


@dataclass(frozen=True)
class InstanceSpec:
    """One uncertain top-K instance: workload, size, depth, RNG stream.

    The canonical dict form has exactly the keys ``workload``/``n``/``k``/
    ``seed``/``params``, so equal instances hash equal regardless of how
    the caller phrased them.  ``n``, ``k`` and ``seed`` must be integers
    (a float, string or bool is rejected, never truncated); ``k`` is
    clamped to ``n``.
    """

    n: int
    k: int
    workload: str = "uniform"
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            WORKLOADS.get(self.workload)  # raises UnknownNameError
        n = check_int("n", self.n)
        if n < 2:
            raise ValueError(f"spec needs n >= 2 tuples, got {n}")
        k = check_int("k", self.k)
        if k < 1:
            raise ValueError(f"spec needs k >= 1, got {k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", min(k, n))
        object.__setattr__(self, "seed", check_int("seed", self.seed))
        object.__setattr__(
            self, "params", _canonical_params(self.params, "spec")
        )

    # -- round trip ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-portable form (the historical service shape)."""
        return {
            "workload": self.workload,
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "InstanceSpec":
        """Validate a wire-shaped dict into a spec (exact inverse of
        :meth:`to_dict`)."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"spec must be a dict, got {type(payload).__name__}"
            )
        _require_keys(
            payload, {"workload", "n", "k", "seed", "params"}, "spec"
        )
        return cls(
            n=payload.get("n", 0),
            k=payload.get("k", 0),
            workload=payload.get("workload", "uniform"),
            seed=payload.get("seed", 0),
            params=payload.get("params", {}),
        )

    def canonical_json(self) -> str:
        """Byte-stable canonical JSON of :meth:`to_dict`."""
        return canonical_json(self.to_dict())

    def content_key(self) -> str:
        """BLAKE2b content address of this instance."""
        return content_key(self.to_dict())

    # -- construction --------------------------------------------------

    def materialize(self) -> List[ScoreDistribution]:
        """The score distributions this spec describes.

        The RNG stream derives from the spec seed via the process-stable
        :func:`~repro.utils.rng.derive_seed` (same label the service has
        always used), so the same spec materializes the same instance in
        every process — which is what lets a resumed session manager
        rebuild sessions from the event log alone.
        """
        from repro.utils.rng import derive_seed, ensure_rng

        rng = ensure_rng(derive_seed(self.seed, "service-instance"))
        return WORKLOADS.create(self.workload, self.n, rng=rng, **self.params)


@dataclass(frozen=True)
class PolicySpec:
    """A question-selection policy by paper name, plus constructor args."""

    name: str = "T1-on"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in POLICIES:
            POLICIES.get(self.name)
        object.__setattr__(
            self, "params", _canonical_params(self.params, "policy")
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Any) -> "PolicySpec":
        if isinstance(payload, str):  # shorthand: just the name
            return cls(name=payload)
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"policy spec must be a dict or name, "
                f"got {type(payload).__name__}"
            )
        _require_keys(payload, {"name", "params"}, "policy spec")
        return cls(
            name=payload.get("name", "T1-on"),
            params=payload.get("params", {}),
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def build(self) -> Any:
        """Instantiate the policy."""
        return POLICIES.create(self.name, **self.params)


@dataclass(frozen=True)
class MeasureSpec:
    """An ordering-uncertainty measure by paper name, plus args."""

    name: str = "H"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in MEASURES:
            MEASURES.get(self.name)
        object.__setattr__(
            self, "params", _canonical_params(self.params, "measure")
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Any) -> "MeasureSpec":
        if isinstance(payload, str):
            return cls(name=payload)
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"measure spec must be a dict or name, "
                f"got {type(payload).__name__}"
            )
        _require_keys(payload, {"name", "params"}, "measure spec")
        return cls(
            name=payload.get("name", "H"), params=payload.get("params", {})
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def build(self) -> Any:
        """Instantiate the measure."""
        return MEASURES.create(self.name, **self.params)


@dataclass(frozen=True)
class CrowdSpec:
    """A simulated crowd configuration (accuracy, replication, model)."""

    accuracy: float = 1.0
    replication: int = 1
    assumed_accuracy: Optional[float] = None
    cost_per_assignment: float = 0.05
    model: str = "auto"

    def __post_init__(self) -> None:
        check_fraction("accuracy", self.accuracy)
        object.__setattr__(self, "accuracy", float(self.accuracy))
        replication = int(self.replication)
        if replication < 1:
            raise ValueError(
                f"crowd replication must be >= 1, got {replication}"
            )
        object.__setattr__(self, "replication", replication)
        if self.assumed_accuracy is not None:
            check_fraction("assumed_accuracy", self.assumed_accuracy)
            object.__setattr__(
                self, "assumed_accuracy", float(self.assumed_accuracy)
            )
        cost = float(self.cost_per_assignment)
        if cost < 0:
            raise ValueError(f"cost_per_assignment must be >= 0, got {cost}")
        object.__setattr__(self, "cost_per_assignment", cost)
        if self.model != "auto" and self.model not in CROWD_MODELS:
            CROWD_MODELS.get(self.model)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "accuracy": self.accuracy,
            "replication": self.replication,
            "assumed_accuracy": self.assumed_accuracy,
            "cost_per_assignment": self.cost_per_assignment,
            "model": self.model,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "CrowdSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"crowd spec must be a dict, got {type(payload).__name__}"
            )
        _require_keys(
            payload,
            {
                "accuracy",
                "replication",
                "assumed_accuracy",
                "cost_per_assignment",
                "model",
            },
            "crowd spec",
        )
        return cls(**dict(payload))

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def build(self, truth: Any, rng: Any = None) -> SimulatedCrowd:
        """A :class:`~repro.crowd.simulator.SimulatedCrowd` over ``truth``."""
        from repro.crowd.simulator import SimulatedCrowd

        return SimulatedCrowd(
            truth,
            worker_accuracy=self.accuracy,
            replication=self.replication,
            assumed_accuracy=self.assumed_accuracy,
            cost_per_assignment=self.cost_per_assignment,
            worker_model=None if self.model == "auto" else self.model,
            rng=rng,
        )


@dataclass(frozen=True)
class BudgetSpec:
    """How many crowd questions a session may spend."""

    questions: int = 10

    def __post_init__(self) -> None:
        questions = int(self.questions)
        if questions < 0:
            raise ValueError(f"budget must be >= 0, got {questions}")
        object.__setattr__(self, "questions", questions)

    def to_dict(self) -> Dict[str, Any]:
        return {"questions": self.questions}

    @classmethod
    def from_dict(cls, payload: Any) -> "BudgetSpec":
        if isinstance(payload, int) and not isinstance(payload, bool):
            return cls(questions=payload)  # shorthand: just the number
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"budget spec must be a dict or int, "
                f"got {type(payload).__name__}"
            )
        _require_keys(payload, {"questions"}, "budget spec")
        return cls(questions=payload.get("questions", 10))

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())


@dataclass(frozen=True)
class EngineSpec:
    """A TPO construction engine by registry name, plus constructor args.

    The single typed description of *how a tree is built* — exact
    engines and anytime beams alike (``params`` carries ``beam_epsilon``
    / ``beam_width`` for the latter, exactly as the builder constructors
    spell them).  :meth:`signature_for` is the one canonical builder
    fingerprint used for TPO cache keys: exact-mode engines produce the
    exact dict shape the service has always hashed (``type`` /
    ``min_probability`` / ``max_orderings`` / ``resolution``), and a
    ``beam`` block is appended *only* when a beam is active — so every
    historical cache key and event-log replay stays byte-identical.
    """

    name: str = "grid"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in ENGINES:
            ENGINES.get(self.name)  # raises UnknownNameError
        object.__setattr__(
            self, "params", _canonical_params(self.params, "engine")
        )

    # -- round trip ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Any) -> "EngineSpec":
        if isinstance(payload, str):  # shorthand: just the name
            return cls(name=payload)
        if isinstance(payload, EngineSpec):
            return payload
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"engine spec must be a dict or name, "
                f"got {type(payload).__name__}"
            )
        _require_keys(payload, {"name", "params"}, "engine spec")
        return cls(
            name=payload.get("name", "grid"),
            params=payload.get("params", {}),
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def content_key(self) -> str:
        """BLAKE2b content address of this engine configuration."""
        return content_key(self.to_dict())

    # -- construction --------------------------------------------------

    def build(self) -> Any:
        """Instantiate the engine via the ``ENGINES`` registry."""
        return ENGINES.create(self.name, **self.params)

    def signature(self) -> Dict[str, Any]:
        """Canonical fingerprint of the engine this spec builds."""
        return self.signature_for(self.build())

    @staticmethod
    def signature_for(builder: Any) -> Dict[str, Any]:
        """Canonical cache fingerprint of a builder instance.

        Exact-mode builders yield the historical four-key dict, so cache
        content keys computed before beams existed still match; beam
        builders append a ``beam`` block, keying their approximate trees
        separately from exact ones.
        """
        signature: Dict[str, Any] = {
            "type": type(builder).__name__,
            "min_probability": builder.min_probability,
            "max_orderings": builder.max_orderings,
            "resolution": getattr(builder, "resolution", None),
        }
        if getattr(builder, "beam_active", False):
            signature["beam"] = {
                "epsilon": builder.beam_epsilon,
                "width": builder.beam_width,
            }
        return signature


@dataclass(frozen=True)
class SessionSpec:
    """One complete crowd-powered top-K session, declaratively.

    Composes the five component specs with the TPO engine configuration.
    ``repro.api.run_session`` turns a :class:`SessionSpec` into a
    finished :class:`~repro.core.session.SessionResult`; the interactive
    service consumes the :attr:`instance` component.

    The engine is configured with a typed :class:`EngineSpec` (pass one
    — or its dict form — as ``engine``); the loose ``engine`` string +
    ``engine_params`` dict pair is the storage/wire shape, and a string
    engine plus params folds through :class:`EngineSpec`, so both
    spellings get the same validation.
    """

    instance: InstanceSpec
    policy: PolicySpec = field(default_factory=PolicySpec)
    measure: MeasureSpec = field(default_factory=MeasureSpec)
    crowd: CrowdSpec = field(default_factory=CrowdSpec)
    budget: BudgetSpec = field(default_factory=BudgetSpec)
    engine: Any = "grid"
    engine_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.instance, InstanceSpec):
            raise ValueError(
                "SessionSpec.instance must be an InstanceSpec, "
                f"got {type(self.instance).__name__}"
            )
        # Coerce component shorthands ("T1-on", {"name": "H"}, 10) into
        # their spec types so every composed spec is validated here, not
        # deep inside run_session.
        if not isinstance(self.policy, PolicySpec):
            object.__setattr__(
                self, "policy", PolicySpec.from_dict(self.policy)
            )
        if not isinstance(self.measure, MeasureSpec):
            object.__setattr__(
                self, "measure", MeasureSpec.from_dict(self.measure)
            )
        if not isinstance(self.crowd, CrowdSpec):
            object.__setattr__(
                self, "crowd", CrowdSpec.from_dict(self.crowd)
            )
        if not isinstance(self.budget, BudgetSpec):
            object.__setattr__(
                self, "budget", BudgetSpec.from_dict(self.budget)
            )
        if isinstance(self.engine, (EngineSpec, Mapping)):
            if self.engine_params:
                raise ValueError(
                    "pass engine parameters inside the EngineSpec, not "
                    "also through the engine_params field"
                )
            spec = EngineSpec.from_dict(self.engine)
        else:
            spec = EngineSpec(name=self.engine, params=self.engine_params)
        object.__setattr__(self, "engine", spec.name)
        object.__setattr__(self, "engine_params", dict(spec.params))

    # -- round trip ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "instance": self.instance.to_dict(),
            "policy": self.policy.to_dict(),
            "measure": self.measure.to_dict(),
            "crowd": self.crowd.to_dict(),
            "budget": self.budget.to_dict(),
            "engine": self.engine,
            "engine_params": dict(self.engine_params),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "SessionSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"session spec must be a dict, got {type(payload).__name__}"
            )
        _require_keys(
            payload,
            {
                "instance",
                "policy",
                "measure",
                "crowd",
                "budget",
                "engine",
                "engine_params",
            },
            "session spec",
        )
        if "instance" not in payload:
            raise ValueError("session spec needs an 'instance' field")
        return cls(
            instance=InstanceSpec.from_dict(payload["instance"]),
            policy=PolicySpec.from_dict(payload.get("policy", {})),
            measure=MeasureSpec.from_dict(payload.get("measure", {})),
            crowd=CrowdSpec.from_dict(payload.get("crowd", {})),
            budget=BudgetSpec.from_dict(payload.get("budget", {})),
            engine=payload.get("engine", "grid"),
            engine_params=payload.get("engine_params", {}),
        )

    def canonical_json(self) -> str:
        """Byte-stable canonical JSON of :meth:`to_dict`."""
        return canonical_json(self.to_dict())

    def content_key(self) -> str:
        """BLAKE2b content address of this session configuration."""
        return content_key(self.to_dict())

    # -- construction --------------------------------------------------

    @property
    def engine_spec(self) -> EngineSpec:
        """The engine configuration as a typed :class:`EngineSpec`."""
        return EngineSpec(name=self.engine, params=self.engine_params)

    def build_builder(self) -> Any:
        """Instantiate the configured TPO construction engine."""
        return self.engine_spec.build()


@dataclass(frozen=True)
class StoreSpec:
    """The TPO store a serve worker runs: hot LRU, optional cold tier.

    :meth:`build` always yields a :class:`~repro.service.cache.TPOCache`
    of ``hot_capacity`` hot entries.  ``backend`` is either ``"none"`` —
    the historical single-process configuration, no cold tier — or a
    name from the ``STORES`` registry (``memory``/``disk-npz``), whose
    cold tier the per-worker hot cache then sits over.  ``path`` is the
    cold-tier directory (required for ``disk-npz``, ignored by
    ``memory``); ``params`` passes backend keyword arguments through
    verbatim (e.g. ``lock_timeout`` for ``disk-npz``).
    """

    backend: str = "none"
    hot_capacity: int = 64
    path: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.backend != "none" and self.backend not in STORES:
            STORES.get(self.backend)  # raises UnknownNameError
        hot = check_int("hot_capacity", self.hot_capacity)
        if hot < 0:
            raise ValueError(f"hot_capacity must be >= 0, got {hot}")
        object.__setattr__(self, "hot_capacity", hot)
        if self.path is not None:
            object.__setattr__(self, "path", str(self.path))
        if self.backend == "disk-npz" and self.path is None:
            raise ValueError("disk-npz store needs a path")
        object.__setattr__(
            self, "params", _canonical_params(self.params, "store")
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "hot_capacity": self.hot_capacity,
            "path": self.path,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "StoreSpec":
        if isinstance(payload, str):  # shorthand: just the backend name
            return cls(backend=payload)
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"store spec must be a dict or backend name, "
                f"got {type(payload).__name__}"
            )
        _require_keys(
            payload,
            {"backend", "hot_capacity", "path", "params"},
            "store spec",
        )
        return cls(
            backend=payload.get("backend", "none"),
            hot_capacity=payload.get("hot_capacity", 64),
            path=payload.get("path"),
            params=payload.get("params", {}),
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def content_key(self) -> str:
        """BLAKE2b content address of this store configuration."""
        return content_key(self.to_dict())

    def build(self) -> Any:
        """The configured :class:`~repro.service.cache.TPOCache`, over
        the registered cold tier unless the backend is ``"none"``."""
        from repro.service.cache import TPOCache

        cold = None
        if self.backend != "none":
            kwargs = dict(self.params)
            if self.backend == "disk-npz":
                kwargs["path"] = self.path
            cold = STORES.create(self.backend, **kwargs)
        return TPOCache(capacity=self.hot_capacity, cold=cold)


@dataclass(frozen=True)
class ServeSpec:
    """One ``repro serve`` deployment, declaratively.

    ``workers == 1`` is the historical single-process service (one
    asyncio loop, behavior unchanged); ``workers > 1`` runs the sharded
    runtime of :mod:`repro.service.sharding` — a router on
    ``host:port`` over ``workers`` session-manager processes, sessions
    placed by BLAKE2b of the session key, TPOs shared through
    :attr:`store`.  The CLI's ``repro serve`` flags are a thin parser
    over this spec.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    store: StoreSpec = field(default_factory=StoreSpec)
    log: Optional[str] = None
    resolution: int = 1024

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("serve spec needs a host")
        port = check_int("port", self.port)
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {port}")
        object.__setattr__(self, "port", port)
        workers = check_int("workers", self.workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        object.__setattr__(self, "workers", workers)
        if not isinstance(self.store, StoreSpec):
            object.__setattr__(
                self, "store", StoreSpec.from_dict(self.store)
            )
        if self.log is not None:
            object.__setattr__(self, "log", str(self.log))
        resolution = check_int("resolution", self.resolution)
        if resolution < 2:
            raise ValueError(
                f"resolution must be >= 2, got {resolution}"
            )
        object.__setattr__(self, "resolution", resolution)
        if self.workers > 1 and self.store.backend in ("none", "memory"):
            # A fleet without a cross-process tier silently rebuilds
            # every TPO per worker; require an explicit shared backend.
            raise ValueError(
                f"workers={self.workers} needs a cross-process store "
                f"backend (disk-npz), got {self.store.backend!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "store": self.store.to_dict(),
            "log": self.log,
            "resolution": self.resolution,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "ServeSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"serve spec must be a dict, got {type(payload).__name__}"
            )
        _require_keys(
            payload,
            {
                "host",
                "port",
                "workers",
                "store",
                "log",
                "resolution",
            },
            "serve spec",
        )
        return cls(
            host=payload.get("host", "127.0.0.1"),
            port=payload.get("port", 8080),
            workers=payload.get("workers", 1),
            store=StoreSpec.from_dict(payload.get("store", {})),
            log=payload.get("log"),
            resolution=payload.get("resolution", 1024),
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def content_key(self) -> str:
        """BLAKE2b content address of this deployment configuration."""
        return content_key(self.to_dict())


def as_instance_spec(value: Any) -> InstanceSpec:
    """Coerce an :class:`InstanceSpec` or wire-shaped dict into a spec."""
    if isinstance(value, InstanceSpec):
        return value
    return InstanceSpec.from_dict(value)


__all__: List[str] = [
    "InstanceSpec",
    "PolicySpec",
    "MeasureSpec",
    "CrowdSpec",
    "BudgetSpec",
    "EngineSpec",
    "SessionSpec",
    "StoreSpec",
    "ServeSpec",
    "as_instance_spec",
]
