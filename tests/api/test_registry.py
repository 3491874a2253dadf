"""Tests for the generic plugin registry subsystem."""

import pytest

from repro.api import all_registries
from repro.api.registry import (
    DuplicateNameError,
    Registry,
    RegistryError,
    UnknownNameError,
)


@pytest.fixture
def registry():
    r = Registry("widget")
    r.register("alpha", lambda **kw: ("alpha", kw))
    r.register("beta", lambda **kw: ("beta", kw))
    return r


class TestRegistration:
    def test_register_and_create(self, registry):
        assert registry.create("alpha", size=3) == ("alpha", {"size": 3})

    def test_decorator_form(self, registry):
        @registry.register("gamma")
        def gamma(**kw):
            return ("gamma", kw)

        assert registry.create("gamma") == ("gamma", {})

    def test_collision_detected(self, registry):
        with pytest.raises(DuplicateNameError, match="already registered"):
            registry.register("alpha", lambda: None)

    def test_collision_is_a_value_error(self, registry):
        # Legacy callers catch ValueError; the hierarchy must serve them.
        with pytest.raises(ValueError):
            registry.register("alpha", lambda: None)

    def test_overwrite_allowed_explicitly(self, registry):
        registry.register("alpha", lambda **kw: "replaced", overwrite=True)
        assert registry.create("alpha") == "replaced"

    def test_bad_names_and_factories_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.register("", lambda: None)
        with pytest.raises(RegistryError):
            registry.register("x", "not-a-dotted-path")

    def test_unregister(self, registry):
        registry.unregister("beta")
        assert "beta" not in registry
        with pytest.raises(UnknownNameError):
            registry.unregister("beta")


class TestLazyResolution:
    def test_dotted_path_resolves_on_first_get(self):
        r = Registry("measure")
        r.register("H", "repro.uncertainty.entropy:EntropyMeasure")
        from repro.uncertainty.entropy import EntropyMeasure

        assert r.get("H") is EntropyMeasure
        assert isinstance(r.create("H"), EntropyMeasure)


class TestUnknownNames:
    def test_close_match_suggested(self, registry):
        with pytest.raises(UnknownNameError, match="did you mean 'alpha'"):
            registry.get("alpa")

    def test_suggestions_recorded_on_error(self, registry):
        try:
            registry.get("alpa")
        except UnknownNameError as exc:
            assert exc.suggestions == ["alpha"]
            assert exc.available == ["alpha", "beta"]

    def test_no_suggestion_still_lists_available(self, registry):
        with pytest.raises(UnknownNameError, match=r"available: \['alpha'"):
            registry.get("zzzzz")

    def test_error_is_both_value_and_key_error(self, registry):
        with pytest.raises(ValueError):
            registry.get("nope")
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_catalog_suggestions(self):
        # The satellite-task acceptance examples from the issue.
        from repro.api import MEASURES, POLICIES

        with pytest.raises(UnknownNameError, match="did you mean 'Hw'"):
            MEASURES.create("hw")
        with pytest.raises(UnknownNameError, match="did you mean 'T1-on'"):
            POLICIES.create("t1")


class TestMappingProtocol:
    def test_iteration_membership_indexing(self, registry):
        assert sorted(registry) == ["alpha", "beta"]
        assert "alpha" in registry and "nope" not in registry
        assert len(registry) == 2
        assert registry["alpha"] is registry.get("alpha")

    def test_available_is_sorted(self, registry):
        registry.register("aaa", lambda: None)
        assert registry.available() == ["aaa", "alpha", "beta"]

    def test_dict_style_mutation_is_refused(self):
        # Writes go through register/unregister only: item assignment
        # would skip collision detection, deletion the unknown-name check.
        from repro.api.catalog import ENGINES, POLICIES

        policies, engines = POLICIES.available(), ENGINES.available()
        with pytest.raises(TypeError):
            POLICIES["x"] = lambda: None
        with pytest.raises(TypeError):
            del ENGINES["grid"]
        assert POLICIES.available() == policies
        assert ENGINES.available() == engines


class TestCatalog:
    def test_every_registry_enumerable(self):
        registries = all_registries()
        assert set(registries) == {
            "policies",
            "measures",
            "workloads",
            "scenarios",
            "crowd_models",
            "distributions",
            "engines",
            "stores",
            "evals",
            "checks",
        }
        for registry in registries.values():
            assert len(registry) > 0

    def test_every_built_in_factory_resolves(self):
        for registry in all_registries().values():
            for name in registry:
                assert callable(registry.get(name))
