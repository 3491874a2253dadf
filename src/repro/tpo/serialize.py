"""TPO serialization: JSON-friendly dicts, binary npz, and DOT export.

The dict form round-trips a built tree (structure + probabilities, not the
engine caches); the DOT form is for eyeballing small trees, mirroring the
figures of Soliman & Ilyas.

The JSON wire format is unchanged from the pointer-tree era — a nested
``{"tuple", "p", "children"}`` payload — so cached artifacts and service
event logs replay byte-identically across the flat level-table refactor.
Internally, serialization converts directly between that nesting and the
flat ``(tuple_ids, parent_idx, probs)`` level tables: ``tree_to_dict``
links per-level dict rows through ``parent_idx`` (no recursion), and
``tree_from_dict`` flattens the payload one breadth-first level at a
time, which preserves the parent-major row order the tree requires.

Alongside the JSON wire dict there is a **binary** form for the
cross-process cold tier (:mod:`repro.service.store`):
:func:`tree_to_npz` / :func:`tree_from_npz` store the level tables
verbatim — per-level ``tuple_ids`` (int32), ``parent_idx`` (int64), and
``probs`` (float64) arrays in one uncompressed ``.npz`` archive — so a
TPO built by one worker process is shared with the others without
re-building or re-parsing JSON.  Three properties the store relies on:

* **leaf-order identity** — rows round-trip in place, so the rebuilt
  tree's leaf order (and therefore every derived space) is identical to
  the source tree's, exactly like the JSON path;
* **atomic writes** — :func:`tree_to_npz` writes to a same-directory
  temporary file, fsyncs, and ``os.replace``\\ s it into place, so a
  reader never observes a half-written archive at the final path (the
  event-log tmp+rename discipline);
* **torn-file tolerance** — a truncated or corrupt archive (a crash
  between a non-atomic copy, a torn scp) raises
  :class:`TPOSerializationError` rather than a random numpy/zipfile
  error, so callers can treat it as a cache miss and rebuild.

Because ``np.savez`` stores members uncompressed (``ZIP_STORED``), each
member is a contiguous, well-aligned ``.npy`` byte range inside the
archive — :func:`tree_from_npz` exploits that to **memory-map** the level
tables straight out of the file (``mmap=True``, the default), so N worker
processes loading the same cached TPO share one set of physical pages
instead of N heap copies.
"""

from __future__ import annotations

import io
import os
import tempfile
import zipfile
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.distributions.base import ScoreDistribution
from repro.tpo.node import TPONodeView
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


def tree_to_dict(tree: TPOTree) -> Dict:
    """Serialize structure and probabilities to plain Python data."""
    root: Dict = {"tuple": -1, "p": 1.0, "children": []}
    parent_rows: List[Dict] = [root]
    for level in tree.levels:
        rows = [
            {"tuple": int(t), "p": float(p), "children": []}
            for t, p in zip(level.tuple_ids, level.probs, strict=True)
        ]
        for row, parent in zip(rows, level.parent_idx, strict=True):
            parent_rows[parent]["children"].append(row)
        parent_rows = rows
    payload = {
        "k": tree.k,
        "n_tuples": tree.n_tuples,
        "built_depth": tree.built_depth,
        "root": root,
    }
    if tree.lost_mass > 0.0:
        # Only beam-approximate trees carry the block, so exact-mode
        # payloads (and their cached/logged JSON bytes) are unchanged.
        payload["approximation"] = {
            "lost_mass": float(tree.lost_mass),
            "lost_node_max": float(tree.lost_node_max),
            "lost_leaves": float(tree.lost_leaves),
            "level_lost": [float(value) for value in tree.level_lost],
        }
    return payload


def tree_from_dict(
    data: Dict, distributions: Sequence[ScoreDistribution]
) -> TPOTree:
    """Rebuild a tree from :func:`tree_to_dict` output.

    ``distributions`` must be the same family used when serializing (the
    dict stores only indices).  Engine caches are not restored, so the tree
    can be inspected and pruned but not extended.
    """
    tree = TPOTree(distributions, data["k"])
    frontier = data["root"]["children"]
    parent_of = [0] * len(frontier)
    while frontier:
        tree.append_level(
            np.array([row["tuple"] for row in frontier], dtype=np.int32),
            np.array(parent_of, dtype=np.intp),
            np.array([row["p"] for row in frontier], dtype=float),
        )
        next_frontier: List[Dict] = []
        next_parent: List[int] = []
        for index, row in enumerate(frontier):
            for child in row["children"]:
                next_frontier.append(child)
                next_parent.append(index)
        frontier, parent_of = next_frontier, next_parent
    if tree.built_depth != data["built_depth"]:
        raise ValueError(
            f"serialized built_depth {data['built_depth']} does not match "
            f"the {tree.built_depth} materialized level(s)"
        )
    approximation = data.get("approximation")
    if approximation:
        _restore_loss(
            tree,
            float(approximation["lost_mass"]),
            float(approximation.get("lost_node_max", 0.0)),
            float(approximation.get("lost_leaves", 0.0)),
            [float(v) for v in approximation.get("level_lost", [])],
        )
    return tree


def _restore_loss(
    tree: TPOTree,
    lost_mass: float,
    lost_node_max: float,
    lost_leaves: float,
    level_lost: Sequence[float],
) -> None:
    """Reattach deserialized beam-loss bookkeeping to a rebuilt tree."""
    if level_lost and len(level_lost) != tree.built_depth:
        raise TPOSerializationError(
            f"level_lost has {len(level_lost)} entries for "
            f"{tree.built_depth} level(s)"
        )
    tree.lost_mass = lost_mass
    tree.lost_node_max = lost_node_max
    tree.lost_leaves = lost_leaves
    if level_lost:
        tree.level_lost = list(level_lost)


# ----------------------------------------------------------------------
# Binary (npz) level-table serialization
# ----------------------------------------------------------------------


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


def _tree_from_arrays(
    fetch: Callable[[str], np.ndarray],
    distributions: Sequence[ScoreDistribution],
) -> TPOTree:
    """Rebuild a tree from named arrays (shared npz/memmap decode path)."""
    try:
        meta = np.asarray(fetch("meta"), dtype=np.int64).reshape(-1)
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
                fetch(f"level{depth}_tuple_ids"),
                fetch(f"level{depth}_parent_idx"),
                fetch(f"level{depth}_probs"),
            )
        try:
            lost = np.asarray(fetch("lost"), dtype=np.float64).reshape(-1)
        except (KeyError, TPOSerializationError):
            lost = None
        if lost is not None:
            if lost.size != 3:
                raise TPOSerializationError(
                    f"npz lost member must have 3 fields, got {lost.size}"
                )
            try:
                level_lost = np.asarray(
                    fetch("level_lost"), dtype=np.float64
                ).reshape(-1)
            except (KeyError, TPOSerializationError):
                level_lost = np.zeros(0)
            _restore_loss(
                tree,
                float(lost[0]),
                float(lost[1]),
                float(lost[2]),
                [float(v) for v in level_lost],
            )
    except TPOSerializationError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise TPOSerializationError(
            f"invalid TPO npz payload: {exc}"
        ) from exc
    return tree


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


def _load_npz_copying(
    source: Union[Path, BinaryIO],
    distributions: Sequence[ScoreDistribution],
) -> TPOTree:
    """Decode via ``np.load`` (heap copies; works for any npz source)."""
    try:
        with np.load(source, allow_pickle=False) as archive:
            return _tree_from_arrays(archive.__getitem__, distributions)
    except TPOSerializationError:
        raise
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise TPOSerializationError(
            f"unreadable TPO npz archive: {exc}"
        ) from exc


def _memmap_npz_members(path: Path) -> Dict[str, np.ndarray]:
    """Memory-map every array member of an uncompressed npz archive.

    ``np.savez`` stores members with ``ZIP_STORED``, so each ``.npy``
    payload is a contiguous byte range of the archive file: seek past the
    member's local zip header, parse the npy header, and hand the
    remaining range to :class:`np.memmap`.  Raises
    :class:`TPOSerializationError` on anything unexpected (compressed
    members, truncation, foreign formats) — callers fall back to the
    copying loader or treat the file as torn.
    """
    arrays: Dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        with open(path, "rb") as handle:
            for member in members:
                if member.compress_type != zipfile.ZIP_STORED:
                    raise TPOSerializationError(
                        f"npz member {member.filename!r} is compressed; "
                        "cannot memory-map"
                    )
                handle.seek(member.header_offset)
                local = handle.read(30)
                if len(local) != 30 or local[:4] != b"PK\x03\x04":
                    raise TPOSerializationError(
                        f"bad local zip header for {member.filename!r}"
                    )
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                handle.seek(
                    member.header_offset + 30 + name_len + extra_len
                )
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_1_0(handle)
                    )
                elif version == (2, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_2_0(handle)
                    )
                else:
                    raise TPOSerializationError(
                        f"unsupported npy version {version} in "
                        f"{member.filename!r}"
                    )
                name = member.filename
                if name.endswith(".npy"):
                    name = name[: -len(".npy")]
                arrays[name] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=handle.tell(),
                    shape=shape,
                    order="F" if fortran else "C",
                )
    except TPOSerializationError:
        raise
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise TPOSerializationError(
            f"unreadable TPO npz archive: {exc}"
        ) from exc
    return arrays


def tree_from_npz(
    path: PathLike,
    distributions: Sequence[ScoreDistribution],
    mmap: bool = True,
) -> TPOTree:
    """Rebuild a tree from a :func:`tree_to_npz` archive.

    With ``mmap=True`` (the default) the level tables are read-only
    memory maps over the archive file — concurrent processes loading the
    same cached TPO share physical pages, and nothing is copied until a
    structural update (prune/renormalize) replaces an array wholesale.
    Damaged or truncated archives raise :class:`TPOSerializationError`.

    Like :func:`tree_from_dict`, engine caches are not restored: the tree
    can be inspected, converted to a space, and pruned, but not extended.
    """
    path = Path(path)
    if mmap:
        arrays = _memmap_npz_members(path)

        def fetch(name: str) -> np.ndarray:
            if name not in arrays:
                raise TPOSerializationError(f"npz member {name!r} missing")
            return arrays[name]

        return _tree_from_arrays(fetch, distributions)
    return _load_npz_copying(path, distributions)


def tree_from_npz_bytes(
    data: bytes, distributions: Sequence[ScoreDistribution]
) -> TPOTree:
    """Rebuild a tree from :func:`tree_to_npz_bytes` output."""
    return _load_npz_copying(io.BytesIO(data), distributions)


def tree_to_dot(
    tree: TPOTree,
    labels: Optional[List[str]] = None,
    max_nodes: int = 500,
) -> str:
    """Graphviz DOT rendering (truncated after ``max_nodes`` nodes)."""
    lines = [
        "digraph TPO {",
        '  node [shape=box, fontsize=10];',
        '  root [label="⊥", shape=circle];',
    ]
    counter = 0

    def label(node: TPONodeView) -> str:
        if labels and 0 <= node.tuple_index < len(labels):
            text = labels[node.tuple_index]
        else:
            text = f"t{node.tuple_index}"
        return f"{text}\\np={node.probability:.3f}"

    stack = [(tree.root, "root")]
    while stack and counter < max_nodes:
        node, node_name = stack.pop()
        for child in node.children:
            counter += 1
            child_name = f"n{counter}"
            lines.append(f'  {child_name} [label="{label(child)}"];')
            lines.append(f"  {node_name} -> {child_name};")
            stack.append((child, child_name))
    if stack:
        lines.append('  truncated [label="…", shape=plaintext];')
    lines.append("}")
    return "\n".join(lines)


__all__ = [
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_npz",
    "tree_from_npz",
    "tree_to_npz_bytes",
    "tree_from_npz_bytes",
    "tree_to_dot",
    "TPOSerializationError",
    "NPZ_FORMAT_VERSION",
]
