"""Call-graph builder contract: name resolution, typed receivers, lazy
registry edges, caught-exception tracking, and the graph dump shape.

The heavyweight assertions run against the *real* repo graph (built once
per session, ``conftest.repo_graph``) so the resolver is tested against the idioms it exists for —
the catalog's lazy ``"module:attr"`` registrations and the service's
async→sync→blocking call chains — not against toy inputs only.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from oracles.exception_ancestry import exception_ancestors

from repro.devtools import dataflow
from repro.devtools.checks import BLOCKING, _seed_taints
from repro.devtools.graph import CATCH_ALL, build_graph, module_node

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def rpc101_bad_graph():
    return build_graph(FIXTURES / "rpc101" / "bad")


class TestModuleMap:
    def test_package_modules_discovered(self, repo_graph):
        assert "repro.api.catalog" in repo_graph.modules
        assert "repro.service.server" in repo_graph.modules
        # __init__.py files name their package, not "...__init__".
        assert "repro.api" in repo_graph.modules
        assert not any("__init__" in name for name in repo_graph.modules)

    def test_functions_methods_and_module_nodes(self, repo_graph):
        assert "repro.api.canonical:content_key" in repo_graph.functions
        assert (
            "repro.service.manager:SessionManager.create_session"
            in repo_graph.functions
        )
        assert module_node("repro.api.catalog") in repo_graph.functions

    def test_async_flag(self, repo_graph):
        handler = repo_graph.functions["repro.service.server:_handle_next"]
        assert handler.is_async
        helper = repo_graph.functions[
            "repro.service.manager:SessionManager._create"
        ]
        assert not helper.is_async


class TestResolution:
    def test_self_method_call_resolves(self, repo_graph):
        info = repo_graph.functions[
            "repro.service.manager:SessionManager.create_session"
        ]
        targets = {site.target for site in info.calls}
        assert "repro.service.manager:SessionManager._create" in targets

    def test_annotated_receiver_resolves_across_modules(self, repo_graph):
        """``ctx.manager.submit_answer`` resolves through the
        ``manager: SessionManager`` attribute annotation on Context."""
        info = repo_graph.functions["repro.service.server:_handle_answer"]
        targets = {site.target for site in info.calls}
        assert (
            "repro.service.manager:SessionManager.submit_answer" in targets
        )

    def test_lazy_registry_edge_is_followed(self, repo_graph):
        """The catalog's ``"repro.tpo.builders:GridBuilder"`` string is a
        real call edge from the catalog's import-time code."""
        refs = {
            (ref.registry, ref.plugin): ref for ref in repo_graph.lazy_refs
        }
        grid = refs[("ENGINES", "grid")]
        assert grid.text == "repro.tpo.builders:GridBuilder"
        catalog = repo_graph.functions[module_node("repro.api.catalog")]
        assert (
            "repro.tpo.builders:GridBuilder.__init__"
            in {site.target for site in catalog.calls}
        )

    def test_every_catalog_registration_is_annotated(self, repo_graph):
        catalog_refs = [
            ref
            for ref in repo_graph.lazy_refs
            if ref.path == "src/repro/api/catalog.py"
        ]
        assert len(catalog_refs) >= 30
        assert all(
            ref.registry is not None and ref.plugin is not None
            for ref in catalog_refs
        )

    def test_virtual_dispatch_unions_subclass_overrides(self, repo_graph):
        """A call through the abstract ``TPOBuilder`` template method
        gains edges to every concrete ``extend`` override (CHA)."""
        build = repo_graph.functions["repro.tpo.builders:TPOBuilder.build"]
        targets = {site.target for site in build.calls}
        assert "repro.tpo.builders:GridBuilder.extend" in targets
        assert "repro.tpo.builders:MonteCarloBuilder.extend" in targets


class TestCaughtTracking:
    def test_call_sites_record_enclosing_handlers(self, repo_graph):
        info = repo_graph.functions["repro.service.server:_handle_answer"]
        submit_sites = [
            site
            for site in info.calls
            if site.target
            == "repro.service.manager:SessionManager.submit_answer"
        ]
        assert submit_sites
        assert {"TypeError", "ValueError"} <= set(submit_sites[0].caught)
        # The create handler's executor hop sits under all three handlers.
        create = repo_graph.functions[
            "repro.service.server:_handle_create_session"
        ]
        assert any(
            {"TypeError", "ValueError", "TPOSizeError"} <= set(site.caught)
            for site in create.calls
        )

    def test_subclass_aware_is_caught(self, repo_graph):
        # ProtocolError subclasses ValueError in the protocol module.
        assert repo_graph.is_caught("ProtocolError", frozenset({"ValueError"}))
        assert not repo_graph.is_caught("KeyError", frozenset({"ValueError"}))
        assert repo_graph.is_caught("KeyError", frozenset({"*"}))

    def test_indexed_ancestry_matches_the_class_scan(self, repo_graph):
        """Every exception the repo raises or catches gets the same
        ancestors from the leaf-name index as from scanning every class."""
        names = set()
        for info in repo_graph.functions.values():
            names |= {site.exc for site in info.raises}
            for site in [*info.calls, *info.raises]:
                names |= site.caught - {CATCH_ALL}
        assert {"ProtocolError", "TPOSizeError", "KeyError"} <= names
        for name in sorted(names):
            assert repo_graph.exception_ancestors(name) == exception_ancestors(
                repo_graph, name
            ), name


class TestDataflow:
    def test_async_sync_blocking_chain(self, rpc101_bad_graph):
        """The canonical interprocedural case: taint enters at ``open``
        three frames below the coroutine and propagates all the way up."""
        graph = rpc101_bad_graph
        seeds = _seed_taints(graph, BLOCKING)
        assert "repro.service.handlers:_write_row" in seeds
        facts = dataflow.taint_closure(graph, seeds)
        handler = "repro.service.handlers:_handle_export"
        assert handler in facts
        chain = dataflow.witness_chain(facts, handler)
        assert chain == [
            "repro.service.handlers:_handle_export",
            "repro.service.handlers:persist_rows",
            "repro.service.handlers:_write_row",
            "open(...)",
        ]

    def test_nested_sync_def_of_a_coroutine_is_a_deferred_edge(self):
        """A coroutine's nested sync ``def`` handed to ``run_in_executor``
        keeps its edge (may-raise facts still flow) but carries no
        blocking taint; calling the nested function by name does."""
        graph = build_graph(FIXTURES / "rpl004" / "ok")
        handler = "repro.service.handlers:handle_dump"
        nested = f"{handler}.<locals>._read"
        (site,) = [s for s in graph.functions[handler].calls if s.target == nested]
        assert site.deferred
        facts = dataflow.taint_closure(graph, _seed_taints(graph, BLOCKING))
        assert nested in facts and handler not in facts

    def test_direct_call_of_a_nested_def_is_an_ordinary_edge(self, tmp_path):
        service = tmp_path / "src" / "repro" / "service"
        service.mkdir(parents=True)
        (service / "handlers.py").write_text(
            "async def handle(path):\n"
            "    def _read():\n"
            "        return open(path).read()\n"
            "\n"
            "    return _read()\n"
        )
        graph = build_graph(tmp_path)
        facts = dataflow.taint_closure(graph, _seed_taints(graph, BLOCKING))
        assert dataflow.witness_chain(facts, "repro.service.handlers:handle") == [
            "repro.service.handlers:handle",
            "repro.service.handlers:handle.<locals>._read",
            "open(...)",
        ]

    def test_barriers_stop_propagation(self, rpc101_bad_graph):
        graph = rpc101_bad_graph
        seeds = _seed_taints(graph, BLOCKING)
        facts = dataflow.taint_closure(
            graph,
            seeds,
            barriers=frozenset({"repro.service.handlers:_write_row"}),
        )
        assert "repro.service.handlers:_handle_export" not in facts

    def test_exception_propagation_to_fixed_point(self, repo_graph):
        may_raise = dataflow.propagate_exceptions(repo_graph)
        creator = may_raise[
            "repro.service.manager:SessionManager.create_session"
        ]
        # TPOSizeError escapes the manager (the handler maps it to 413).
        assert "TPOSizeError" in {fact.exc for fact in creator}
        handler = may_raise[
            "repro.service.server:_handle_create_session"
        ]
        assert "TPOSizeError" not in {fact.exc for fact in handler}


class TestGraphDump:
    def test_to_dict_shape(self, repo_graph):
        dump = repo_graph.to_dict()
        assert dump["format_version"] == 1
        assert set(dump["counts"]) == {
            "modules",
            "functions",
            "classes",
            "edges",
            "lazy_refs",
        }
        assert dump["counts"]["modules"] == len(dump["modules"])
        assert dump["counts"]["functions"] == len(dump["functions"])
        assert dump["counts"]["edges"] == len(dump["edges"])
        assert all(len(edge) == 2 for edge in dump["edges"])
        assert dump["counts"]["lazy_refs"] == len(dump["lazy_refs"])
        assert "open" in dump["external_calls"]
