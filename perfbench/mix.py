"""Workload definitions and the seeded session lists.

Session cost grows with the number of possible top-K orderings of the
instance, and on these generators that number spans two to three orders
of magnitude from one random instance to the next.  A plain random draw
of a hundred instances therefore moves even the median session time by
double-digit percentages between seeds.  So the session list is a
systematic sample of a larger natural draw: the seed draws ``POOL`` times
as many instances as there are sessions, sorts them by size, and keeps
every ``POOL``-th inside the workload's quantile band.  The kept
instances follow the natural size distribution over that band, with a
quarter of the quantile noise of a plain draw of the same length.  The
bands and what they leave out are in ``README.md``.  Size is ``log2(possible top-K
prefixes)``, counted combinatorially from the score supports (under two
milliseconds per instance, no TPO build); it tracks the engine's ordering
count closely (log correlation 0.99 on the uniform generator).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

K = 5
WIDTH = 0.35
#: Natural draws per kept session.
POOL = 16


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    budget: int
    policy: str
    #: Sessions per second of ``--seconds``: about the rate the reference
    #: machine (2 cores) runs them at, so the timed window lasts about
    #: ``--seconds`` (longer where steadiness needs more sessions).
    sessions_per_second: float
    #: The part of the natural size distribution sampled, as a quantile
    #: range.
    band: Tuple[float, float] = (0.0, 1.0)

    def session_count(self, seconds: int) -> int:
        """Sessions in one run; at least 100, so that ten lie beyond p90."""
        return max(100, math.ceil(seconds * self.sessions_per_second))


WORKLOADS: Dict[str, Workload] = {
    "coff-batch": Workload("coff-batch", 10, 10, "C-off", 16.0, (0.0, 0.95)),
    "t1-online": Workload("t1-online", 18, 15, "T1-on", 8.0, (0.0, 0.95)),
    # The served instances, each shared by many sessions: the middle fifth
    # of the natural sizes.  Every size is served from the same few
    # instances, so the tail would decide the reweight path's cost alone.
    "serve-http": Workload("serve-http", 16, 15, "T1-on", 30.0, (0.4, 0.6)),
}


def prefix_count(distributions: Sequence, k: int = K) -> int:
    """Number of top-``k`` prefixes consistent with the score supports.

    Tuple ``x`` can take the next position once every tuple whose support
    lies entirely above ``x``'s is already placed.  Counted by a memoized
    walk over placed-sets.
    """
    lower = [d.lower for d in distributions]
    upper = [d.upper for d in distributions]
    n = len(distributions)
    above = [
        sum(1 << y for y in range(n) if lower[y] >= upper[x]) for x in range(n)
    ]
    memo: Dict[int, int] = {}

    def completions(placed: int, depth: int) -> int:
        if depth == k:
            return 1
        cached = memo.get(placed)
        if cached is not None:
            return cached
        total = 0
        for x in range(n):
            if not (placed >> x) & 1 and above[x] & ~placed == 0:
                total += completions(placed | (1 << x), depth + 1)
        memo[placed] = total
        return total

    return completions(0, 0)


def stratified_instances(workload: Workload, seed: int, count: int) -> List[int]:
    """``count`` distinct instance seeds sampled systematically by size.

    The seed draws enough distinct instances that the workload's quantile
    band holds ``POOL * count`` of them; sorted by size, the middle one of
    each run of ``POOL`` in the band is kept.  The kept seeds come back in
    a seeded order, so sizes interleave through the run.  A pure function
    of the arguments.
    """
    from repro.api import InstanceSpec

    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    low, high = workload.band
    draws = math.ceil(POOL * count / (high - low))
    pool: Dict[int, float] = {}
    while len(pool) < draws:
        instance_seed = int(rng.integers(1 << 31))
        spec = InstanceSpec(
            n=workload.n, k=K, seed=instance_seed, params={"width": WIDTH}
        )
        pool[instance_seed] = prefix_count(spec.materialize())
    ordered = sorted(pool, key=lambda s: (pool[s], s))
    first = round(low * draws)
    chosen = ordered[first : first + POOL * count][POOL // 2 :: POOL]
    return [chosen[i] for i in rng.permutation(count)]


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (``q`` in (0, 100)).

    A mean of all order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    mass of their rank interval, rather than the one order statistic at the
    rank, so less noise from which sessions happen to sit near the rank.
    The Beta mass is integrated numerically on a fine grid.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = np.linspace(0.0, 1.0, 200001)
    inner = grid[1:-1]
    log_density = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    density = np.exp(log_density - log_density.max())
    mass = np.concatenate(([0.0], np.cumsum(density), [density.sum()]))
    edges = np.interp(np.arange(n + 1) / n, grid, mass / mass[-1])
    return float(np.diff(edges) @ ordered)
