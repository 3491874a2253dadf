"""Binary (npz) TPO serialization: the one serialized form of a tree.

The cold tier (:mod:`repro.service.store`) stands on three promises made
by :mod:`repro.tpo.serialize`: npz round-trips are leaf-order-identical
to the source tree, writes are atomic, and torn archives surface as
:class:`TPOSerializationError` (a miss) rather than arbitrary
numpy/zipfile noise.  The property tests drive those promises across
mixed uniform / triangular / histogram / point-mass instances.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Histogram, PointMass, Triangular, Uniform
from repro.service.cache import instance_key
from repro.tpo import GridBuilder
from repro.tpo.serialize import (
    NPZ_FORMAT_VERSION,
    TPOSerializationError,
    tree_from_npz,
    tree_from_npz_bytes,
    tree_to_npz,
    tree_to_npz_bytes,
)

KINDS = ("uniform", "triangular", "histogram", "point")


@st.composite
def mixed_instances(draw):
    """A small instance mixing all four distribution families."""
    n = draw(st.integers(min_value=3, max_value=6))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kinds = draw(
        st.lists(st.sampled_from(KINDS), min_size=n, max_size=n)
    )
    rng = np.random.default_rng(seed)
    distributions = []
    for kind in kinds:
        lower = float(rng.uniform(0.0, 8.0))
        width = float(rng.uniform(0.3, 3.0))
        if kind == "uniform":
            distributions.append(Uniform(lower, lower + width))
        elif kind == "triangular":
            mode = lower + float(rng.uniform(0.0, 1.0)) * width
            distributions.append(Triangular(lower, mode, lower + width))
        elif kind == "histogram":
            edges = lower + np.linspace(0.0, width, 4)
            masses = rng.random(3) + 0.1
            distributions.append(Histogram(edges, masses / masses.sum()))
        else:
            distributions.append(PointMass(lower))
    return distributions, k


def _assert_same_levels(rebuilt, reference):
    assert rebuilt.built_depth == reference.built_depth
    for level, other in zip(rebuilt.levels, reference.levels, strict=True):
        assert np.array_equal(level.tuple_ids, other.tuple_ids)
        assert np.array_equal(level.parent_idx, other.parent_idx)
        assert np.array_equal(level.probs, other.probs)


@given(mixed_instances())
@settings(max_examples=30, deadline=None)
def test_npz_roundtrip_is_level_identical(tmp_path_factory, instance):
    """File and byte archives decode to the source tree's exact levels."""
    distributions, k = instance
    tree = GridBuilder(resolution=220).build(distributions, k)
    path = tmp_path_factory.mktemp("npz") / "tree.npz"
    tree_to_npz(tree, path)

    for rebuilt in (
        tree_from_npz(path, distributions),
        tree_from_npz_bytes(tree_to_npz_bytes(tree), distributions),
    ):
        assert rebuilt.k == tree.k
        # Leaf order is identical — not merely set-equal — so every
        # derived space is too.
        _assert_same_levels(rebuilt, tree)
        space, expected = rebuilt.to_space(), tree.to_space()
        assert np.array_equal(space.paths, expected.paths)
        assert np.array_equal(space.probabilities, expected.probabilities)


@given(mixed_instances())
@settings(max_examples=30, deadline=None)
def test_instance_key_independent_of_serialization(instance):
    """The cache key is a pure function of the canonical instance spec.

    A key that crossed a JSON boundary (an event log, a request body)
    must address the npz cold-tier entry by byte-identical text.
    """
    distributions, k = instance
    spec = {
        "n": len(distributions),
        "k": k,
        "families": [type(d).__name__ for d in distributions],
    }
    payload = {"spec": spec, "builder": "grid:220"}
    key = instance_key(payload)
    assert key == instance_key(json.loads(json.dumps(payload)))
    assert key.isalnum()


class TestAtomicWrites:
    def test_no_temporaries_left_behind(self, small_tree, tmp_path):
        tree_to_npz(small_tree, tmp_path / "tree.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["tree.npz"]

    def test_overwrite_replaces_in_place(
        self, small_tree, overlapping_uniforms, tmp_path
    ):
        path = tmp_path / "tree.npz"
        tree_to_npz(small_tree, path)
        tree_to_npz(small_tree, path)
        rebuilt = tree_from_npz(path, overlapping_uniforms)
        _assert_same_levels(rebuilt, small_tree)

    def test_creates_parent_directories(
        self, small_tree, overlapping_uniforms, tmp_path
    ):
        path = tmp_path / "a" / "b" / "tree.npz"
        tree_to_npz(small_tree, path)
        assert path.exists()


def _decode(path, distributions, via_bytes):
    """Decode an archive file directly or through its bytes."""
    if via_bytes:
        return tree_from_npz_bytes(path.read_bytes(), distributions)
    return tree_from_npz(path, distributions)


class TestTornFiles:
    @pytest.mark.parametrize("via_bytes", [True, False])
    def test_truncated_archive_raises(
        self, small_tree, overlapping_uniforms, tmp_path, via_bytes
    ):
        path = tmp_path / "tree.npz"
        tree_to_npz(small_tree, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TPOSerializationError):
            _decode(path, overlapping_uniforms, via_bytes)

    @pytest.mark.parametrize("via_bytes", [True, False])
    def test_garbage_bytes_raise(
        self, overlapping_uniforms, tmp_path, via_bytes
    ):
        path = tmp_path / "tree.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(TPOSerializationError):
            _decode(path, overlapping_uniforms, via_bytes)

    def test_torn_bytes_raise(self, small_tree, overlapping_uniforms):
        data = tree_to_npz_bytes(small_tree)
        with pytest.raises(TPOSerializationError):
            tree_from_npz_bytes(data[: len(data) // 2], overlapping_uniforms)

    def test_wrong_tuple_count_raises(
        self, small_tree, overlapping_uniforms, tmp_path
    ):
        path = tmp_path / "tree.npz"
        tree_to_npz(small_tree, path)
        with pytest.raises(TPOSerializationError):
            tree_from_npz(path, overlapping_uniforms[:-1])

    def test_unknown_version_raises(
        self, small_tree, overlapping_uniforms, tmp_path
    ):
        from repro.tpo import serialize

        payload = serialize._npz_payload(small_tree)
        payload["meta"] = payload["meta"].copy()
        payload["meta"][0] = NPZ_FORMAT_VERSION + 1
        path = tmp_path / "tree.npz"
        np.savez(path, **payload)
        with pytest.raises(TPOSerializationError):
            tree_from_npz(path, overlapping_uniforms)

