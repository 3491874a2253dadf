"""EngineSpec: the frozen engine surface and its byte-stability contract.

Exact-mode signatures, cache keys, and SessionSpec content keys are
pinned to the literal values produced before EngineSpec existed — any
drift here silently invalidates every cached TPO artifact and replay
log, so the hashes are spelled out rather than recomputed.
"""

import warnings

import pytest

from repro.api import EngineSpec, InstanceSpec, SessionSpec
from repro.service.cache import instance_key
from repro.service.manager import builder_signature
from repro.tpo.builders import ExactBuilder, GridBuilder, MonteCarloBuilder

#: Pre-EngineSpec cache key for the default grid engine on the
#: canonical instance (n=8, k=3, uniform, seed=7).  Frozen.
PINNED_TPO_KEY = "20ed40f10ec56fc8f8d921d4f23bdd88"
#: Pre-EngineSpec SessionSpec.content_key() for the same instance.
PINNED_SESSION_KEY = "42d0a30fb308cbe916d8ffc016a230b5"

PINNED_SIGNATURES = {
    "grid": {
        "type": "GridBuilder",
        "min_probability": 1e-09,
        "max_orderings": 200000,
        "resolution": 1024,
    },
    "exact": {
        "type": "ExactBuilder",
        "min_probability": 1e-12,
        "max_orderings": 200000,
        "resolution": None,
    },
    "mc": {
        "type": "MonteCarloBuilder",
        "min_probability": 0.0,
        "max_orderings": 200000,
        "resolution": None,
    },
}


class TestConstructionAndValidation:
    def test_defaults(self):
        spec = EngineSpec()
        assert spec.name == "grid"
        assert spec.params == {}

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError):
            EngineSpec("quantum")

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError):
            EngineSpec("grid", {"warp": 9}).build()

    def test_build_returns_engine_instances(self):
        assert isinstance(EngineSpec("grid").build(), GridBuilder)
        assert isinstance(EngineSpec("exact").build(), ExactBuilder)
        assert isinstance(
            EngineSpec("mc", {"samples": 100, "seed": 1}).build(),
            MonteCarloBuilder,
        )

    def test_round_trip(self):
        spec = EngineSpec("grid", {"resolution": 256, "beam_epsilon": 0.1})
        assert EngineSpec.from_dict(spec.to_dict()) == spec
        assert EngineSpec.from_dict(spec) is spec
        assert EngineSpec.from_dict("exact") == EngineSpec("exact")

    def test_from_dict_rejects_unknown_keys(self):
        assert EngineSpec.from_dict({"name": "grid"}) == EngineSpec("grid")
        with pytest.raises(ValueError):
            EngineSpec.from_dict(
                {"name": "grid", "params": {}, "extra": 1}
            )


class TestByteStability:
    """Exact-mode keys must be byte-identical to their pre-spec values."""

    @pytest.mark.parametrize("name", sorted(PINNED_SIGNATURES))
    def test_signature_matches_pinned(self, name):
        assert EngineSpec(name).signature() == PINNED_SIGNATURES[name]

    def test_signature_for_matches_builder_signature(self):
        for builder in (
            GridBuilder(resolution=256),
            ExactBuilder(),
            MonteCarloBuilder(samples=10, seed=0),
        ):
            assert builder_signature(builder) == EngineSpec.signature_for(
                builder
            )

    def test_exact_mode_signature_has_no_beam_key(self):
        assert "beam" not in EngineSpec("grid").signature()
        beamed = EngineSpec("grid", {"beam_epsilon": 0.05}).signature()
        assert beamed["beam"] == {"epsilon": 0.05, "width": None}

    def test_canonical_json(self):
        assert EngineSpec().canonical_json() == '{"name":"grid","params":{}}'

    def test_pinned_tpo_key(self):
        ispec = InstanceSpec(n=8, k=3, workload="uniform", seed=7)
        key = instance_key(
            {
                "spec": ispec.to_dict(),
                "builder": EngineSpec().signature(),
            }
        )
        assert key == PINNED_TPO_KEY

    def test_pinned_session_content_key(self):
        ispec = InstanceSpec(n=8, k=3, workload="uniform", seed=7)
        assert SessionSpec(instance=ispec).content_key() == PINNED_SESSION_KEY

    def test_beam_changes_tpo_key(self):
        ispec = InstanceSpec(n=8, k=3, workload="uniform", seed=7)
        key = instance_key(
            {
                "spec": ispec.to_dict(),
                "builder": EngineSpec(
                    "grid", {"beam_epsilon": 0.05}
                ).signature(),
            }
        )
        assert key != PINNED_TPO_KEY


class TestSessionSpecIntegration:
    @pytest.fixture
    def ispec(self):
        return InstanceSpec(n=8, k=3, workload="uniform", seed=7)

    def test_engine_spec_accepted_directly(self, ispec):
        spec = SessionSpec(
            instance=ispec,
            engine=EngineSpec("grid", {"resolution": 256}),
        )
        assert spec.engine == "grid"
        assert spec.engine_params == {"resolution": 256}
        assert spec.engine_spec == EngineSpec("grid", {"resolution": 256})
        assert isinstance(spec.build_builder(), GridBuilder)

    def test_engine_params_constructor_path_folds(self, ispec):
        # A string engine plus params folds through EngineSpec: silently,
        # to the same spec, and with the same validation.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spec = SessionSpec(
                instance=ispec, engine_params={"resolution": 256}
            )
        assert spec.engine_params == {"resolution": 256}
        assert spec == SessionSpec(
            instance=ispec, engine=EngineSpec("grid", {"resolution": 256})
        )
        with pytest.raises(ValueError, match="did you mean"):
            SessionSpec(
                instance=ispec, engine="gird", engine_params={"resolution": 8}
            )
        with pytest.raises(ValueError, match="dict"):
            SessionSpec(instance=ispec, engine_params="resolution")

    def test_engine_spec_plus_engine_params_rejected(self, ispec):
        with pytest.raises(ValueError, match="engine_params"):
            SessionSpec(
                instance=ispec,
                engine=EngineSpec("grid"),
                engine_params={"resolution": 256},
            )

    def test_from_dict_replay_never_warns(self, ispec):
        payload = {
            "instance": ispec.to_dict(),
            "engine": "grid",
            "engine_params": {"resolution": 256},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spec = SessionSpec.from_dict(payload)
        assert spec.engine_params == {"resolution": 256}

    def test_wire_shape_unchanged(self, ispec):
        spec = SessionSpec(
            instance=ispec, engine=EngineSpec("grid", {"resolution": 256})
        )
        payload = spec.to_dict()
        assert payload["engine"] == "grid"
        assert payload["engine_params"] == {"resolution": 256}
        assert SessionSpec.from_dict(payload) == spec
