"""TPO serialization: the level tables as one uncompressed npz archive.

:func:`tree_to_npz` / :func:`tree_from_npz` (and the in-memory
:func:`tree_to_npz_bytes` / :func:`tree_from_npz_bytes` pair) store the
level tables verbatim — per-level ``tuple_ids`` (int32), ``parent_idx``
(int64) and ``probs`` (float64) members plus a ``meta`` header — so a
TPO built by one worker process is shared with the others through the
cold tiers of :mod:`repro.service.store` without re-building it.  Engine
caches are not stored: a decoded tree can be pruned and flattened with
``to_space`` but not extended.  The cold tiers rely on three properties:

* **leaf-order identity** — rows round-trip in place, so the rebuilt
  tree's leaf order (and therefore every derived space) is identical to
  the source tree's;
* **atomic writes** — :func:`tree_to_npz` writes to a same-directory
  temporary file, fsyncs, and ``os.replace``\\ s it into place, so a
  reader never observes a half-written archive at the final path (the
  event-log tmp+rename discipline);
* **torn-file tolerance** — a truncated or corrupt archive (a crash
  between a non-atomic copy, a torn scp) raises
  :class:`TPOSerializationError` rather than a random numpy/zipfile
  error, so callers can treat it as a cache miss and rebuild.

Reads go through ``np.load``, which copies each member onto the heap.
"""

from __future__ import annotations

import io
import os
import tempfile
import zipfile
from pathlib import Path
from typing import BinaryIO, Dict, Sequence, Union

import numpy as np

from repro.distributions.base import ScoreDistribution
from repro.tpo.tree import TPOTree

#: Version stamp of the binary level-table layout (bump on layout change).
NPZ_FORMAT_VERSION = 1

#: Anything :class:`pathlib.Path` accepts.
PathLike = Union[str, Path]


class TPOSerializationError(ValueError):
    """A serialized TPO payload that cannot be decoded.

    Raised for truncated/corrupt npz archives and structurally invalid
    level tables, so the cold store can treat damage as a miss instead of
    crashing on a raw ``zipfile``/``numpy`` error.
    """


def _npz_payload(tree: TPOTree) -> Dict[str, np.ndarray]:
    """The named arrays of the binary form (level tables + metadata)."""
    payload: Dict[str, np.ndarray] = {
        "meta": np.array(
            [NPZ_FORMAT_VERSION, tree.k, tree.n_tuples, tree.built_depth],
            dtype=np.int64,
        )
    }
    for depth, level in enumerate(tree.levels, start=1):
        payload[f"level{depth}_tuple_ids"] = np.ascontiguousarray(
            level.tuple_ids, dtype=np.int32
        )
        # intp is stored widened to int64 so 32- and 64-bit readers agree
        # on the byte layout; append_level narrows it back on load.
        payload[f"level{depth}_parent_idx"] = np.ascontiguousarray(
            level.parent_idx, dtype=np.int64
        )
        payload[f"level{depth}_probs"] = np.ascontiguousarray(
            level.probs, dtype=np.float64
        )
    if tree.lost_mass > 0.0:
        # Optional members, written only for beam-approximate trees —
        # exact-mode archives stay byte-identical (same version, same
        # member list) and old readers of exact archives are unaffected.
        payload["lost"] = np.array(
            [tree.lost_mass, tree.lost_node_max, tree.lost_leaves],
            dtype=np.float64,
        )
        payload["level_lost"] = np.asarray(
            tree.level_lost, dtype=np.float64
        )
    return payload


def _tree_from_archive(
    archive: np.lib.npyio.NpzFile,
    distributions: Sequence[ScoreDistribution],
) -> TPOTree:
    """Rebuild a tree from the members of an open npz archive."""
    meta = np.asarray(archive["meta"], dtype=np.int64).reshape(-1)
    if meta.size != 4:
        raise TPOSerializationError(
            f"npz meta must have 4 fields, got {meta.size}"
        )
    version, k, n_tuples, built_depth = (int(value) for value in meta)
    if version != NPZ_FORMAT_VERSION:
        raise TPOSerializationError(
            f"unsupported npz format version {version} "
            f"(this build reads {NPZ_FORMAT_VERSION})"
        )
    if n_tuples != len(distributions):
        raise TPOSerializationError(
            f"npz payload describes {n_tuples} tuples but "
            f"{len(distributions)} distributions were supplied"
        )
    tree = TPOTree(distributions, k)
    for depth in range(1, built_depth + 1):
        tree.append_level(
            archive[f"level{depth}_tuple_ids"],
            archive[f"level{depth}_parent_idx"],
            archive[f"level{depth}_probs"],
        )
    if "lost" in archive.files:
        lost = np.asarray(archive["lost"], dtype=np.float64).reshape(-1)
        if lost.size != 3:
            raise TPOSerializationError(
                f"npz lost member must have 3 fields, got {lost.size}"
            )
        tree.lost_mass, tree.lost_node_max, tree.lost_leaves = (
            float(value) for value in lost
        )
        if "level_lost" in archive.files:
            level_lost = [
                float(value)
                for value in np.asarray(
                    archive["level_lost"], dtype=np.float64
                ).reshape(-1)
            ]
            if len(level_lost) != tree.built_depth:
                raise TPOSerializationError(
                    f"level_lost has {len(level_lost)} entries for "
                    f"{tree.built_depth} level(s)"
                )
            tree.level_lost = level_lost
    return tree


def _load(
    source: Union[Path, BinaryIO],
    distributions: Sequence[ScoreDistribution],
) -> TPOTree:
    """Decode an npz source, mapping every decode failure to one error."""
    try:
        with np.load(source, allow_pickle=False) as archive:
            return _tree_from_archive(archive, distributions)
    except TPOSerializationError:
        raise
    except (
        OSError,
        EOFError,
        ValueError,
        TypeError,
        KeyError,
        zipfile.BadZipFile,
    ) as exc:
        raise TPOSerializationError(
            f"unreadable TPO npz archive: {exc}"
        ) from exc


def tree_to_npz(tree: TPOTree, path: PathLike) -> Path:
    """Atomically write the binary level-table form of ``tree`` to ``path``.

    The archive is staged in a same-directory temporary file, flushed and
    fsynced, then ``os.replace``\\ d into place — a concurrent reader sees
    either the previous content or the complete new archive, never a torn
    one.  Returns the final path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _npz_payload(tree)
    handle = tempfile.NamedTemporaryFile(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp", delete=False
    )
    try:
        with handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def tree_to_npz_bytes(tree: TPOTree) -> bytes:
    """The binary level-table form of ``tree`` as in-memory bytes.

    Byte-compatible with :func:`tree_to_npz` — the memory cold tier
    stores exactly what the disk tier would.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **_npz_payload(tree))
    return buffer.getvalue()


def tree_from_npz(
    path: PathLike, distributions: Sequence[ScoreDistribution]
) -> TPOTree:
    """Rebuild a tree from a :func:`tree_to_npz` archive.

    ``distributions`` must be the family the tree was built over (the
    archive stores only tuple indices).  Damaged or truncated archives
    raise :class:`TPOSerializationError`.
    """
    return _load(Path(path), distributions)


def tree_from_npz_bytes(
    data: bytes, distributions: Sequence[ScoreDistribution]
) -> TPOTree:
    """Rebuild a tree from :func:`tree_to_npz_bytes` output."""
    return _load(io.BytesIO(data), distributions)


__all__ = [
    "tree_to_npz",
    "tree_from_npz",
    "tree_to_npz_bytes",
    "tree_from_npz_bytes",
    "TPOSerializationError",
    "NPZ_FORMAT_VERSION",
]
