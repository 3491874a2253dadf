"""Exception ancestry by scanning every class per name.

:func:`exception_ancestors` is the reference for
:meth:`repro.devtools.graph.CallGraph.exception_ancestors`, which reads a
leaf-name index built once per graph: for every name it looks at every
class of the graph, so the two must agree on every exception a repo
raises or catches.
"""

from __future__ import annotations

import builtins
from typing import Set

from repro.devtools.graph import CallGraph


def exception_ancestors(graph: CallGraph, leaf: str) -> Set[str]:
    """Leaf names of every ancestor of exception class ``leaf``."""
    ancestors: Set[str] = set()
    queue = [leaf]
    while queue:
        name = queue.pop(0)
        if name in ancestors:
            continue
        ancestors.add(name)
        matched = False
        for info in graph.classes.values():
            if info.name == name:
                matched = True
                for base in info.bases:
                    queue.append(base.rsplit(":", 1)[-1].rsplit(".", 1)[-1])
        if not matched:
            builtin = getattr(builtins, name, None)
            if isinstance(builtin, type) and issubclass(builtin, BaseException):
                queue.extend(c.__name__ for c in builtin.__mro__[1:])
                matched = True
        if not matched:
            ancestors.add("Exception")
    return ancestors
