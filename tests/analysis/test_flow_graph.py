"""Flow substrate: symbol table, call resolution, summaries, dataflow."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.context import ModuleContext
from repro.analysis.flow import build_flow_project, module_name_for
from repro.analysis.flow.dataflow import reachable_from


def _project(tmp_path: Path, files: dict[str, str]):
    ctxs = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        ctxs.append(ModuleContext.parse(path, display=path.as_posix()))
    return build_flow_project(ctxs)


class TestModuleNaming:
    @pytest.mark.parametrize("display,expected", [
        ("src/repro/core/bo.py", "repro.core.bo"),
        ("src/repro/__init__.py", "repro"),
        ("src/repro/core/__init__.py", "repro.core"),
        ("/tmp/x/src/repro/ml/tree.py", "repro.ml.tree"),
        ("benchmarks/test_perf.py", "benchmarks.test_perf"),
    ])
    def test_display_to_dotted(self, display, expected):
        assert module_name_for(display) == expected


class TestSymbolsAndCalls:
    def test_functions_classes_and_methods_indexed(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/eng.py": """\
                class Engine:
                    def step(self):
                        return self._inner()

                    def _inner(self):
                        return 1


                def helper():
                    return 2
            """})
        graph = project.graph
        assert "repro.core.eng.helper" in graph.functions
        assert "repro.core.eng.Engine.step" in graph.functions
        cls = graph.classes["repro.core.eng.Engine"]
        assert cls.methods["_inner"] == "repro.core.eng.Engine._inner"

    def test_self_call_resolves_to_method(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/eng.py": """\
                class Engine:
                    def step(self):
                        return self._inner()

                    def _inner(self):
                        return 1
            """})
        summary = project.summaries["repro.core.eng.Engine.step"]
        assert "repro.core.eng.Engine._inner" in summary.resolved_callees

    def test_relative_import_call_resolves(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/a.py": """\
                from ..utils.helpers import work


                def run():
                    return work()
            """,
            "src/repro/utils/helpers.py": """\
                def work():
                    return 1
            """})
        summary = project.summaries["repro.core.a.run"]
        assert "repro.utils.helpers.work" in summary.resolved_callees

    def test_base_class_method_resolves_across_modules(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/base.py": """\
                class Base:
                    def fold(self):
                        return 0
            """,
            "src/repro/core/child.py": """\
                from .base import Base


                class Child(Base):
                    def go(self):
                        return self.fold()
            """})
        summary = project.summaries["repro.core.child.Child.go"]
        assert "repro.core.base.Base.fold" in summary.resolved_callees

    def test_unresolvable_call_grows_no_edge(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/a.py": """\
                import numpy as np


                def run():
                    return np.mean([1.0])
            """})
        assert project.summaries["repro.core.a.run"].resolved_callees == set()

    def test_render_lists_modules_and_edges(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/a.py": """\
                def inner():
                    return 1


                def outer():
                    return inner()
            """})
        dump = project.render()
        assert "module repro.core.a" in dump
        assert "-> repro.core.a.inner" in dump


class TestSummaries:
    def test_fresh_vs_spawned_rngs(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/a.py": """\
                import numpy as np

                from ..utils.rng import spawn


                def run(seed):
                    rng = np.random.default_rng(seed)
                    children = spawn(rng, 3)
                    child = children[0]
                    return rng, child
            """})
        summary = project.summaries["repro.core.a.run"]
        assert "rng" in summary.fresh_rngs
        assert "children" in summary.spawned_rngs
        assert "child" not in summary.fresh_rngs

    def test_submit_site_captures_closure_and_defaults(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/a.py": """\
                def run(pool, runner, threshold):
                    pool.submit(lambda r=runner: r(threshold))
            """})
        summary = project.summaries["repro.core.a.run"]
        assert len(summary.submit_sites) == 1
        captured = set(summary.submit_sites[0].captured)
        assert {"runner", "threshold"} <= captured

    def test_tracer_calls_and_with_items(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/a.py": """\
                def run(tracer, name):
                    tracer.count("evals", 1)
                    tracer.emit(name, {})
                    with tracer.span("bo"):
                        pass
            """})
        calls = {c.method: c
                 for c in project.summaries["repro.core.a.run"].tracer_calls}
        assert calls["count"].name == "evals" and calls["count"].literal
        assert not calls["emit"].literal
        assert calls["span"].with_item

    def test_open_sites_record_storage_target(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/a.py": """\
                class Sink:
                    def start(self, path):
                        self._fh = open(path, "a")


                def scratch(path):
                    fh = open(path, "w")
                    return fh


                def managed(path):
                    with open(path, "w") as fh:
                        fh.write("x")
            """})
        start = project.summaries["repro.core.a.Sink.start"]
        assert [o.target for o in start.opens] == ["self._fh"]
        scratch = project.summaries["repro.core.a.scratch"]
        assert [o.target for o in scratch.opens] == ["fh"]
        assert project.summaries["repro.core.a.managed"].opens == []


class TestDataflow:
    def test_escape_propagates_through_call_chain(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/sink.py": """\
                def dispatch(pool, rng):
                    pool.submit(lambda r=rng: r.random())
            """,
            "src/repro/core/mid.py": """\
                from .sink import dispatch


                def relay(pool, generator):
                    dispatch(pool, generator)
            """})
        sink = project.summaries["repro.core.sink.dispatch"]
        mid = project.summaries["repro.core.mid.relay"]
        assert "rng" in sink.escaping_params
        assert "generator" in mid.escaping_params

    def test_keyword_forwarding_escapes(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/sink.py": """\
                def dispatch(pool, rng):
                    pool.submit(lambda r=rng: r.random())


                def relay(pool, generator):
                    dispatch(pool, rng=generator)
            """})
        relay = project.summaries["repro.core.sink.relay"]
        assert "generator" in relay.escaping_params

    def test_reachability_returns_witness_path(self, tmp_path):
        project = _project(tmp_path, {
            "src/repro/core/a.py": """\
                def leaf():
                    return 1


                def mid():
                    return leaf()


                def root():
                    return mid()
            """})
        paths = reachable_from(("repro.core.a.root",), project.summaries,
                               project.graph)
        assert paths["repro.core.a.leaf"] == (
            "repro.core.a.root", "repro.core.a.mid", "repro.core.a.leaf")
