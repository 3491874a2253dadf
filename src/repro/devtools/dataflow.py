"""Fixed-point dataflow over the whole-program call graph.

Two engines drive all the interprocedural RPC checks:

* :func:`taint_closure` — backward reachability with witness chains.
  Seed functions carry *evidence* (the primitive call that makes them
  blocking / nondeterministic); the worklist propagates the taint to
  every caller until nothing changes, remembering for each tainted
  function the callee and call site it got the taint through.
  :func:`witness_chain` then replays that trail into the human-readable
  ``a -> b -> c -> open(...)`` chains the findings print.

* :func:`propagate_exceptions` — forward union of raise-sets along
  call edges, the classic may-raise analysis.  A callee's escaping
  exceptions join the caller's set *minus* whatever the call site's
  enclosing ``try`` bodies catch (subclass-aware via
  :meth:`CallGraph.exception_ancestors`), again iterated to a fixed
  point because call cycles exist.

Both engines are deliberately monotone (sets only grow), so the fixed
point exists and the iteration terminates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.devtools.graph import CallGraph, CallSite


@dataclass(frozen=True)
class TaintEvidence:
    """Why a function is tainted.

    Seed functions have ``via=None`` and a ``primitive`` (the external
    call, e.g. ``time.sleep``); propagated functions have ``via`` = the
    tainted callee qname reached at ``line``.
    """

    primitive: Optional[str]
    via: Optional[str]
    line: int


def taint_closure(
    graph: CallGraph,
    seeds: Dict[str, TaintEvidence],
    barriers: FrozenSet[str] = frozenset(),
) -> Dict[str, TaintEvidence]:
    """Propagate taint from ``seeds`` to all (transitive) callers.

    ``barriers`` are functions the taint must not propagate *through*:
    they may be tainted themselves but their callers stay clean (used
    for sanctioned wrappers, e.g. the buffered event-log path).
    Deferred edges (a coroutine's nested sync ``def``, handed off rather
    than run in the coroutine's frame) carry no taint either.  The
    first evidence to reach a function wins, which keeps witness chains
    minimal-ish and deterministic (worklist is seeded in sorted order).
    """
    facts: Dict[str, TaintEvidence] = dict(seeds)
    worklist = deque(sorted(seeds))
    while worklist:
        callee = worklist.popleft()
        if callee in barriers:
            continue
        for caller, site in graph.callers_of(callee):
            if caller in facts or site.deferred:
                continue
            facts[caller] = TaintEvidence(
                primitive=None, via=callee, line=site.line
            )
            worklist.append(caller)
    return facts


def witness_chain(
    facts: Dict[str, TaintEvidence], start: str, limit: int = 12
) -> List[str]:
    """Replay evidence into a readable call chain ending at a primitive.

    Returns e.g. ``["repro.service.server:_handle_next",
    "repro.service.manager:SessionManager.flush_log", "open(...)"]``.
    """
    chain: List[str] = []
    current: Optional[str] = start
    seen: Set[str] = set()
    while current is not None and current not in seen and len(chain) < limit:
        seen.add(current)
        chain.append(current)
        evidence = facts.get(current)
        if evidence is None:
            break
        if evidence.primitive is not None:
            chain.append(f"{evidence.primitive}(...)")
            break
        current = evidence.via
    return chain


@dataclass(frozen=True)
class RaiseFact:
    """One exception type that may escape a function."""

    exc: str  # leaf class name
    origin: str  # qname of the function with the original raise
    line: int  # line of the original raise statement


def _escaping_through(
    graph: CallGraph, site: CallSite, facts: Set[RaiseFact]
) -> Set[RaiseFact]:
    return {
        fact
        for fact in facts
        if not graph.is_caught(fact.exc, site.caught)
    }


def propagate_exceptions(
    graph: CallGraph,
) -> Dict[str, Set[RaiseFact]]:
    """May-raise sets per function, to a fixed point.

    Each function starts with its own uncaught explicit raises; every
    iteration folds in callees' escaping sets filtered by what each call
    site catches.  Origins survive propagation, so a finding can point
    at the actual ``raise`` statement three frames down.
    """
    raises: Dict[str, Set[RaiseFact]] = {}
    for qname, info in graph.functions.items():
        own: Set[RaiseFact] = set()
        for site in info.raises:
            if graph.is_caught(site.exc, site.caught):
                continue
            own.add(RaiseFact(exc=site.exc, origin=qname, line=site.line))
        raises[qname] = own

    changed = True
    while changed:
        changed = False
        for qname, info in graph.functions.items():
            current = raises[qname]
            before = len(current)
            for site in info.calls:
                if site.target is None:
                    continue
                callee_facts = raises.get(site.target)
                if not callee_facts:
                    continue
                current |= _escaping_through(graph, site, callee_facts)
            if len(current) != before:
                changed = True
    return raises


__all__ = [
    "RaiseFact",
    "TaintEvidence",
    "propagate_exceptions",
    "taint_closure",
    "witness_chain",
]
