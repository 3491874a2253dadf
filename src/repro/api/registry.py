"""One generic, typed plugin registry for every pluggable axis.

The reproduction historically grew four parallel name→factory lookups
(uncertainty measures, question policies, workload generators, TPO
engines), each with its own error message and no way to extend the others.
:class:`Registry` unifies them: one subsystem with

* **lazy registration** — factories may be registered as ``"module:attr"``
  dotted paths, resolved on first use, so the catalog of built-in plugins
  imports nothing heavy and never cycles;
* **collision detection** — re-registering a name raises
  :class:`DuplicateNameError` unless ``overwrite=True`` is passed;
* **actionable unknown-name errors** — :class:`UnknownNameError` carries
  close-match suggestions (``difflib.get_close_matches``) so a typo like
  ``"Hww"`` answers "did you mean 'Hw'?" instead of only dumping the list.

Registries are read-only mappings of names: ``sorted(registry)``,
``name in registry`` and ``registry[name]`` behave like the ad-hoc dicts
they replace, which is what lets the module-level tables
(``repro.core.POLICIES``, ``repro.workloads.GENERATORS``, …) be aliases
of the shared instances.  There is no item assignment or deletion:
``register`` (collision-checked) and ``unregister`` are the only writes.
"""

from __future__ import annotations

import difflib
import importlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

#: A factory is a callable, or a lazily-resolved ``"module:attr"`` path.
FactorySpec = Union[Callable[..., Any], str]


def close_matches(name: str, available: List[str], n: int = 3) -> List[str]:
    """Case-insensitive close matches of ``name`` among ``available``.

    Case-folding before matching is what lets ``"t1"`` suggest
    ``"T1-on"`` and ``"hw"`` suggest ``"Hw"`` — the paper names mix case
    and users reliably type them lowercased.
    """
    folded: Dict[str, str] = {}
    for candidate in available:
        folded.setdefault(candidate.lower(), candidate)
    matches = difflib.get_close_matches(
        str(name).lower(), list(folded), n=n, cutoff=0.4
    )
    return [folded[match] for match in matches]


class RegistryError(ValueError):
    """Base class for registry failures (a :class:`ValueError` so legacy
    ``except ValueError`` callers keep working)."""


class UnknownNameError(RegistryError, KeyError):
    """An unregistered name was looked up.

    Subclasses both :class:`ValueError` (what spec validation raises) and
    :class:`KeyError` (what dict-style lookups raise), so both handling
    styles catch it.  ``suggestions`` holds the
    close matches embedded in the message.
    """

    def __init__(self, kind: str, name: str, available: List[str]) -> None:
        self.kind = kind
        self.name = name
        self.available = available
        self.suggestions = close_matches(str(name), available)
        hint = (
            f"did you mean {self.suggestions[0]!r}? "
            if self.suggestions
            else ""
        )
        super().__init__(
            f"unknown {kind} {name!r}; {hint}available: {available}"
        )

    def __str__(self) -> str:  # KeyError would repr() the message tuple
        return self.args[0]


class DuplicateNameError(RegistryError):
    """A name was registered twice without ``overwrite=True``."""

    def __init__(self, kind: str, name: str) -> None:
        self.kind = kind
        self.name = name
        super().__init__(
            f"{kind} {name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )


class Registry:
    """A named, ordered mapping of plugin names to factories.

    Parameters
    ----------
    kind:
        Human-readable singular noun used in error messages and the
        ``repro list`` / ``/v1/meta`` enumerations (e.g. ``"policy"``).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, FactorySpec] = {}

    # -- registration --------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[FactorySpec] = None,
        *,
        overwrite: bool = False,
    ) -> FactorySpec:
        """Register ``factory`` (callable or ``"module:attr"``) under ``name``.

        Usable directly (``registry.register("H", EntropyMeasure)``) or as
        a decorator (``@registry.register("H")``).  Registering an existing
        name raises :class:`DuplicateNameError` unless ``overwrite=True``.
        """
        if factory is None:  # decorator form
            def decorator(func: FactorySpec) -> FactorySpec:
                self.register(name, func, overwrite=overwrite)
                return func

            return decorator
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"{self.kind} names must be non-empty strings, got {name!r}"
            )
        if name in self._factories and not overwrite:
            raise DuplicateNameError(self.kind, name)
        if not callable(factory) and not (
            isinstance(factory, str) and ":" in factory
        ):
            raise RegistryError(
                f"{self.kind} factory must be callable or a 'module:attr' "
                f"path, got {factory!r}"
            )
        self._factories[name] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registration (unknown names raise)."""
        if name not in self._factories:
            raise UnknownNameError(self.kind, name, self.available())
        del self._factories[name]

    # -- lookup --------------------------------------------------------

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name``, resolving lazy paths."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise UnknownNameError(
                self.kind, name, self.available()
            ) from None
        if isinstance(factory, str):
            module_name, _, attr = factory.partition(":")
            resolved = getattr(importlib.import_module(module_name), attr)
            self._factories[name] = resolved
            return resolved
        return factory

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the plugin ``name`` with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def available(self) -> List[str]:
        """Sorted names of all registered plugins."""
        return sorted(self._factories)

    def suggest(self, name: str, n: int = 3) -> List[str]:
        """Close matches for a (possibly misspelled) name."""
        return close_matches(str(name), self.available(), n=n)

    # -- mapping protocol (compatibility with the replaced dicts) ------

    def __getitem__(self, name: str) -> Callable[..., Any]:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={self.available()})"


__all__ = [
    "Registry",
    "RegistryError",
    "UnknownNameError",
    "DuplicateNameError",
]
