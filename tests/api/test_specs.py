"""Spec round-trip, canonical-JSON stability, and validation tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BudgetSpec,
    CrowdSpec,
    EngineSpec,
    InstanceSpec,
    MeasureSpec,
    PolicySpec,
    SessionSpec,
    as_instance_spec,
    canonical_json,
    content_key,
    prepare_session,
    run_session,
)
from repro.api.catalog import POLICIES, WORKLOADS

# ----------------------------------------------------------------------
# Property tests: spec → JSON → spec identity, canonical JSON stability
# ----------------------------------------------------------------------

instance_specs = st.builds(
    InstanceSpec,
    n=st.integers(min_value=2, max_value=50),
    k=st.integers(min_value=1, max_value=60),
    workload=st.sampled_from(sorted(WORKLOADS)),
    seed=st.integers(min_value=-(2**31), max_value=2**31),
    params=st.dictionaries(
        st.sampled_from(["width", "span", "alpha"]),
        st.floats(
            min_value=0.01, max_value=10, allow_nan=False, width=64
        ),
        max_size=2,
    ),
)

session_specs = st.builds(
    SessionSpec,
    instance=instance_specs,
    policy=st.sampled_from([PolicySpec(n) for n in sorted(POLICIES)]),
    measure=st.sampled_from(
        [MeasureSpec("H"), MeasureSpec("Hw"), MeasureSpec("ORA")]
    ),
    crowd=st.builds(
        CrowdSpec,
        accuracy=st.floats(min_value=0.5, max_value=1.0, allow_nan=False),
        replication=st.integers(min_value=1, max_value=5),
    ),
    budget=st.builds(BudgetSpec, questions=st.integers(0, 100)),
    engine=st.sampled_from(["grid", "exact", "mc"]),
)


class TestRoundTripProperties:
    @settings(max_examples=100)
    @given(spec=instance_specs)
    def test_instance_round_trip_identity(self, spec):
        assert InstanceSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=100)
    @given(spec=instance_specs)
    def test_instance_canonical_json_byte_stable(self, spec):
        via_json = InstanceSpec.from_dict(json.loads(spec.canonical_json()))
        assert via_json.canonical_json() == spec.canonical_json()
        assert via_json.content_key() == spec.content_key()

    @settings(max_examples=50)
    @given(spec=session_specs)
    def test_session_round_trip_identity(self, spec):
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=50)
    @given(spec=session_specs)
    def test_session_canonical_json_byte_stable(self, spec):
        rebuilt = SessionSpec.from_dict(json.loads(spec.canonical_json()))
        assert rebuilt.canonical_json() == spec.canonical_json()
        assert rebuilt.content_key() == spec.content_key()

    @settings(max_examples=100)
    @given(spec=instance_specs)
    def test_key_order_never_matters(self, spec):
        payload = spec.to_dict()
        reversed_payload = dict(reversed(list(payload.items())))
        assert (
            InstanceSpec.from_dict(reversed_payload).canonical_json()
            == spec.canonical_json()
        )


class TestCanonicalPrimitives:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_content_key_matches_historic_recipes(self):
        # Byte-compatible with GridCell.cell_id (8) / instance_key (16).
        import hashlib

        payload = {"x": 1}
        expected = hashlib.blake2b(
            b'{"x":1}', digest_size=8
        ).hexdigest()
        assert content_key(payload, digest_size=8) == expected
        assert len(content_key(payload)) == 32


class TestValidation:
    def test_instance_normalizes_like_the_service_always_did(self):
        spec = InstanceSpec.from_dict(
            {"workload": "uniform", "n": 6, "k": 30, "params": {"width": 0.2}}
        )
        assert spec.k == 6  # clamped to n
        assert spec.seed == 0
        assert list(spec.to_dict()) == ["workload", "n", "k", "seed", "params"]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n=1, k=1),
            dict(n=5, k=0),
            dict(n=5, k=2, workload="nope"),
            dict(n=5, k=2, params="width"),
            # Integer fields are never coerced: floats, strings and bools
            # are refused rather than truncated.
            dict(n=10.7, k=3),
            dict(n=10, k=3.5),
            dict(n=10, k=3, seed=1.5),
            dict(n="10", k=3),
            dict(n=10, k=3, seed=True),
        ],
    )
    def test_bad_instances_rejected(self, bad):
        with pytest.raises(ValueError):
            InstanceSpec(**bad)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            InstanceSpec.from_dict({"n": 5, "k": 2, "bogus": 1})
        with pytest.raises(ValueError, match="unknown session spec fields"):
            SessionSpec.from_dict(
                {"instance": {"n": 5, "k": 2}, "bogus": 1}
            )

    def test_specs_are_frozen(self):
        spec = InstanceSpec(n=5, k=2)
        with pytest.raises(AttributeError):
            spec.n = 6

    def test_unknown_names_suggest(self):
        with pytest.raises(ValueError, match="did you mean 'T1-on'"):
            PolicySpec("T1on")
        with pytest.raises(ValueError, match="did you mean 'Hw'"):
            MeasureSpec("hw")

    def test_crowd_validation(self):
        with pytest.raises(ValueError):
            CrowdSpec(accuracy=1.5)
        with pytest.raises(ValueError):
            CrowdSpec(replication=0)
        with pytest.raises(ValueError):
            CrowdSpec(model="psychic")

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            BudgetSpec(-1)
        assert BudgetSpec.from_dict(7).questions == 7

    def test_session_spec_coerces_component_shorthands(self):
        spec = SessionSpec(
            instance=InstanceSpec(n=12, k=5),
            policy="T1-on",
            measure={"name": "Hw"},
            budget=10,
        )
        assert spec.policy == PolicySpec("T1-on")
        assert spec.measure == MeasureSpec("Hw")
        assert spec.budget == BudgetSpec(10)
        with pytest.raises(ValueError):
            SessionSpec(instance=InstanceSpec(n=4, k=2), policy=42)
        with pytest.raises(ValueError):
            SessionSpec(instance=InstanceSpec(n=4, k=2), crowd="noisy")

    def test_as_instance_spec_coerces(self):
        spec = InstanceSpec(n=5, k=2)
        assert as_instance_spec(spec) is spec
        assert as_instance_spec(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            as_instance_spec(42)


class TestExecution:
    def test_run_session_is_deterministic(self):
        spec = SessionSpec(
            instance=InstanceSpec(n=8, k=3, seed=5, params={"width": 0.3}),
            budget=BudgetSpec(5),
            engine=EngineSpec("grid", {"resolution": 256}),
        )
        first = run_session(spec)
        second = run_session(spec)
        assert first.distance_to_truth == second.distance_to_truth
        assert [a.question for a in first.answers] == [
            a.question for a in second.answers
        ]

    def test_prepare_exposes_truth_and_crowd(self):
        spec = SessionSpec(
            instance=InstanceSpec(n=6, k=2, seed=1),
            crowd=CrowdSpec(accuracy=0.8, replication=3),
            engine=EngineSpec("grid", {"resolution": 256}),
        )
        prepared = prepare_session(spec)
        assert len(prepared.distributions) == 6
        assert len(prepared.truth.top_k(2)) == 2
        assert prepared.crowd.replication == 3

    def test_materialize_matches_service_instance_stream(self):
        # The spec's materialization must be the one the service has always
        # used, or resumed event logs would rebuild different instances.
        from repro.utils.rng import derive_seed, ensure_rng
        from repro.workloads.synthetic import uniform_intervals

        spec = InstanceSpec(n=7, k=3, seed=11, params={"width": 0.25})
        expected = uniform_intervals(
            7, width=0.25, rng=ensure_rng(derive_seed(11, "service-instance"))
        )
        assert [d.support for d in spec.materialize()] == [
            d.support for d in expected
        ]

    def test_forced_crowd_model(self):
        spec = SessionSpec(
            instance=InstanceSpec(n=6, k=2, seed=3),
            crowd=CrowdSpec(model="adversarial"),
            budget=BudgetSpec(3),
            engine=EngineSpec("grid", {"resolution": 256}),
        )
        prepared = prepare_session(spec)
        assert all(w.accuracy == 0.0 for w in prepared.crowd.workers)


# ----------------------------------------------------------------------
# Serve / store deployment specs
# ----------------------------------------------------------------------


class TestStoreSpec:
    def test_round_trip_identity(self):
        from repro.api import StoreSpec

        spec = StoreSpec(
            backend="disk-npz", hot_capacity=8, path="/tmp/cold"
        )
        assert StoreSpec.from_dict(spec.to_dict()) == spec
        assert StoreSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_backend_name_shorthand(self):
        from repro.api import StoreSpec

        spec = StoreSpec.from_dict("memory")
        assert spec.backend == "memory"
        assert spec.hot_capacity == 64

    def test_content_key_is_byte_stable(self):
        from repro.api import StoreSpec

        a = StoreSpec(backend="memory", hot_capacity=8)
        b = StoreSpec.from_dict(
            {"hot_capacity": 8, "backend": "memory"}
        )
        assert a.content_key() == b.content_key()
        assert a.canonical_json() == b.canonical_json()

    def test_unknown_backend_suggests(self):
        from repro.api import StoreSpec
        from repro.api.registry import UnknownNameError

        with pytest.raises(UnknownNameError, match="disk-npz"):
            StoreSpec(backend="disk_npz")

    def test_disk_backend_requires_path(self):
        from repro.api import StoreSpec

        with pytest.raises(ValueError, match="path"):
            StoreSpec(backend="disk-npz")

    def test_negative_hot_capacity_rejected(self):
        from repro.api import StoreSpec

        with pytest.raises(ValueError):
            StoreSpec(hot_capacity=-1)
        for bad in (2.7, True, "12"):
            with pytest.raises(ValueError, match="hot_capacity"):
                StoreSpec(hot_capacity=bad)

    def test_build_none_is_bare_cache(self):
        from repro.api import StoreSpec
        from repro.service.cache import TPOCache

        store = StoreSpec(backend="none", hot_capacity=3).build()
        assert isinstance(store, TPOCache)
        assert store.capacity == 3

    def test_build_backend_is_two_tier(self, tmp_path):
        from repro.api import StoreSpec
        from repro.service.cache import TPOCache
        from repro.service.store import DiskNpzColdTier

        store = StoreSpec(
            backend="disk-npz", hot_capacity=3, path=str(tmp_path)
        ).build()
        assert isinstance(store, TPOCache)
        assert isinstance(store.cold, DiskNpzColdTier)
        assert store.capacity == 3


class TestServeSpec:
    def test_round_trip_identity(self):
        from repro.api import ServeSpec

        spec = ServeSpec(
            host="0.0.0.0",
            port=9999,
            workers=4,
            store={"backend": "disk-npz", "path": "/tmp/cold"},
            log="/tmp/events.jsonl",
            resolution=512,
        )
        assert ServeSpec.from_dict(spec.to_dict()) == spec
        assert ServeSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_defaults_are_the_historical_single_process_service(self):
        from repro.api import ServeSpec

        spec = ServeSpec()
        assert spec.workers == 1
        assert spec.store.backend == "none"

    def test_store_dict_and_shorthand_coerced(self, tmp_path):
        from repro.api import ServeSpec, StoreSpec

        spec = ServeSpec(
            workers=2,
            store={"backend": "disk-npz", "path": str(tmp_path)},
        )
        assert isinstance(spec.store, StoreSpec)
        shorthand = ServeSpec(store="memory")
        assert shorthand.store.backend == "memory"

    def test_fleet_requires_cross_process_store(self):
        from repro.api import ServeSpec

        for backend in ("none", "memory"):
            with pytest.raises(ValueError, match="cross-process"):
                ServeSpec(workers=2, store=backend)

    def test_invalid_fields_rejected(self):
        from repro.api import ServeSpec

        with pytest.raises(ValueError):
            ServeSpec(port=70000)
        with pytest.raises(ValueError):
            ServeSpec(workers=0)
        with pytest.raises(ValueError):
            ServeSpec(resolution=1)
        for field in ("port", "workers", "resolution"):
            for bad in (1024.5, True, "1024"):
                with pytest.raises(ValueError, match=field):
                    ServeSpec(**{field: bad})

    def test_unknown_fields_rejected(self):
        from repro.api import ServeSpec

        with pytest.raises(ValueError, match="wokers"):
            ServeSpec.from_dict({"wokers": 2})
        # Placement is always BLAKE2b of the session key: no knob.
        with pytest.raises(ValueError, match="shard_by"):
            ServeSpec.from_dict({"shard_by": "blake2b"})
        assert "shard_by" not in ServeSpec().to_dict()

    def test_content_key_is_byte_stable(self):
        from repro.api import ServeSpec

        a = ServeSpec(port=8080, workers=1)
        b = ServeSpec.from_dict({"workers": 1, "port": 8080})
        assert a.content_key() == b.content_key()
