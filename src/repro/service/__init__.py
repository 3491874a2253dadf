"""Concurrent multi-session service layer.

Runs many crowdsourcing sessions against shared, cached state:

* :mod:`repro.service.cache` — :class:`TPOCache`, the one TPO store: a
  bounded LRU of built TPOs keyed by a BLAKE2b content hash of the
  canonical instance, over an optional cold tier, so N sessions over the
  same (or hashed-equal) instance pay one tree build;
* :mod:`repro.service.manager` — :class:`SessionManager`: session
  lifecycle (create / next-question / submit-answer / snapshot / resume),
  an append-only JSONL event log that makes a killed manager resumable,
  and a per-state memo of next-question rankings that sessions in equal
  states share;
* :mod:`repro.service.server` — a dependency-free asyncio HTTP front end
  (``repro serve``);
* :mod:`repro.service.store` — the cold tiers behind the cache: a
  cross-process content-addressed store of binary (npz) level tables,
  so a fleet builds each TPO once;
* :mod:`repro.service.sharding` — the multi-worker runtime behind
  ``repro serve --workers N``: a router that shards sessions across
  worker processes by BLAKE2b of the session key, with per-shard event
  logs and crash-restart resume.
"""

from repro.service.cache import TPOCache, instance_key
from repro.service.manager import SessionManager

__all__ = ["TPOCache", "SessionManager", "instance_key"]
