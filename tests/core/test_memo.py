"""Tests for the parameter-selection cache and config memoization buffer."""

import json
import os

import pytest

from repro.core import ConfigMemoizationBuffer, ParameterSelectionCache


class TestParameterSelectionCache:
    def test_miss_returns_none(self):
        cache = ParameterSelectionCache()
        assert cache.get("pagerank") is None
        assert "pagerank" not in cache

    def test_put_and_get(self):
        cache = ParameterSelectionCache()
        cache.put("pagerank", ["a", "b"])
        assert cache.get("pagerank") == ["a", "b"]
        assert "pagerank" in cache
        assert len(cache) == 1

    def test_returned_list_is_a_copy(self):
        cache = ParameterSelectionCache()
        cache.put("wl", ["a"])
        cache.get("wl").append("mutated")
        assert cache.get("wl") == ["a"]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            ParameterSelectionCache().put("wl", [])

    def test_json_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ParameterSelectionCache(path)
        cache.put("pagerank", ["spark.executor.cores"])
        reloaded = ParameterSelectionCache(path)
        assert reloaded.get("pagerank") == ["spark.executor.cores"]
        assert json.loads(path.read_text()) == {
            "pagerank": ["spark.executor.cores"]}


class TestConfigMemoizationBuffer:
    def test_miss_is_empty(self):
        buf = ConfigMemoizationBuffer()
        assert buf.best("pagerank") == []
        assert "pagerank" not in buf

    def test_best_sorted_by_objective(self):
        buf = ConfigMemoizationBuffer()
        buf.add("wl", {"p": 1}, 30.0)
        buf.add("wl", {"p": 2}, 10.0)
        buf.add("wl", {"p": 3}, 20.0)
        best = buf.best("wl", 2)
        assert [m.objective for m in best] == [10.0, 20.0]
        assert best[0].config == {"p": 2}

    def test_capacity_evicts_worst(self):
        buf = ConfigMemoizationBuffer(capacity=2)
        for i, t in enumerate((30.0, 10.0, 20.0)):
            buf.add("wl", {"i": i}, t)
        kept = [m.objective for m in buf.best("wl", 10)]
        assert kept == [10.0, 20.0]

    def test_worse_than_worst_into_full_buffer_dropped(self):
        buf = ConfigMemoizationBuffer(capacity=2)
        buf.add("wl", {}, 10.0)
        buf.add("wl", {}, 20.0)
        buf.add("wl", {}, 99.0)
        assert [m.objective for m in buf.best("wl", 10)] == [10.0, 20.0]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ConfigMemoizationBuffer().best("wl", -1)
        with pytest.raises(ValueError):
            ConfigMemoizationBuffer(capacity=0)

    def test_dataset_tag_recorded(self):
        buf = ConfigMemoizationBuffer()
        buf.add("wl", {"p": 1}, 5.0, dataset="D2")
        assert buf.best("wl")[0].dataset == "D2"

    def test_json_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "memo.json"
        buf = ConfigMemoizationBuffer(path)
        buf.add("pagerank", {"spark.executor.cores": 8}, 42.5, dataset="D1")
        reloaded = ConfigMemoizationBuffer(path)
        best = reloaded.best("pagerank")
        assert best[0].objective == 42.5
        assert best[0].config == {"spark.executor.cores": 8}
        assert best[0].dataset == "D1"

    def test_block_removes_and_refuses(self):
        buf = ConfigMemoizationBuffer()
        buf.add("wl", {"p": 1}, 10.0)
        buf.add("wl", {"p": 2}, 20.0)
        buf.block("wl", {"p": 1})
        assert buf.is_blocked("wl", {"p": 1})
        assert [m.config for m in buf.best("wl")] == [{"p": 2}]
        buf.add("wl", {"p": 1}, 5.0)          # silently refused
        assert [m.config for m in buf.best("wl")] == [{"p": 2}]

    def test_block_is_per_workload(self):
        buf = ConfigMemoizationBuffer()
        buf.block("wl-a", {"p": 1})
        assert not buf.is_blocked("wl-b", {"p": 1})
        buf.add("wl-b", {"p": 1}, 10.0)
        assert len(buf.best("wl-b")) == 1

    def test_block_before_any_add(self):
        buf = ConfigMemoizationBuffer()
        buf.block("wl", {"p": 1})             # no table bucket yet
        buf.block("wl", {"p": 1})             # idempotent
        buf.add("wl", {"p": 1}, 10.0)
        assert buf.best("wl") == []

    def test_block_emits_event(self):
        from repro.obs import InMemorySink, Tracer
        buf = ConfigMemoizationBuffer()
        sink = InMemorySink()
        buf.tracer = Tracer([sink])
        buf.block("wl", {"p": 1})
        events = [e for e in sink.events() if e["type"] == "memo.block"]
        assert len(events) == 1
        assert events[0]["data"]["workload"] == "wl"
        assert events[0]["data"]["blocked"] == 1

    def test_blocklist_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "memo.json"
        buf = ConfigMemoizationBuffer(path)
        buf.add("wl", {"p": 2}, 20.0)
        buf.block("wl", {"p": 1})
        raw = json.loads(path.read_text())
        assert raw["__blocked__"] == {"wl": [{"p": 1}]}
        reloaded = ConfigMemoizationBuffer(path)
        assert reloaded.is_blocked("wl", {"p": 1})
        reloaded.add("wl", {"p": 1}, 5.0)     # still refused after reload
        assert [m.config for m in reloaded.best("wl")] == [{"p": 2}]

    def test_blocklist_key_absent_when_empty(self, tmp_path):
        path = tmp_path / "memo.json"
        buf = ConfigMemoizationBuffer(path)
        buf.add("wl", {"p": 1}, 10.0)
        assert "__blocked__" not in json.loads(path.read_text())

    def test_empty_buffer_is_falsy_but_shareable(self):
        """Regression test: ROBOTune must keep a passed-in empty store."""
        from repro.core import ROBOTune
        buf = ConfigMemoizationBuffer()
        cache = ParameterSelectionCache()
        tuner = ROBOTune(selection_cache=cache, memo_buffer=buf)
        assert tuner.memo_buffer is buf
        assert tuner.selection_cache is cache


class TestAtomicWrites:
    """Each write replaces the store's file atomically: a crash between
    the temp write and the rename leaves the previous table loadable."""

    WRITES = {
        ParameterSelectionCache: lambda store, i: store.put(f"wl{i}", ["a"]),
        ConfigMemoizationBuffer: lambda store, i: store.add(
            f"wl{i}", {"p": i}, 10.0 + i, dataset="D1"),
    }

    @pytest.mark.parametrize("cls", list(WRITES), ids=lambda c: c.__name__)
    def test_failed_replace_keeps_the_previous_file(self, tmp_path,
                                                    monkeypatch, cls):
        path = tmp_path / "store.json"
        self.WRITES[cls](cls(path), 0)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("killed before the rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="before the rename"):
                self.WRITES[cls](cls(path), 1)
        assert path.read_bytes() == before
        reloaded = cls(path)
        assert "wl0" in reloaded and "wl1" not in reloaded

    def test_written_bytes_are_indented_json(self, tmp_path):
        cache = ParameterSelectionCache(tmp_path / "cache.json")
        cache.put("wl", ["a", "b"])
        assert (tmp_path / "cache.json").read_text() == json.dumps(
            {"wl": ["a", "b"]}, indent=2)
        buf = ConfigMemoizationBuffer(tmp_path / "memo.json")
        buf.add("wl", {"p": 1}, 10.0, dataset="D1")
        assert (tmp_path / "memo.json").read_text() == json.dumps(
            {"wl": [{"config": {"p": 1}, "objective": 10.0,
                     "dataset": "D1"}]}, indent=2)

    @pytest.mark.parametrize("cls", list(WRITES), ids=lambda c: c.__name__)
    def test_corrupt_file_loads_empty_and_is_replaced(self, tmp_path, cls):
        path = tmp_path / "store.json"
        self.WRITES[cls](cls(path), 0)
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])   # torn mid-document
        with pytest.warns(RuntimeWarning, match="store.json"):
            store = cls(path)
        assert len(store) == 0
        self.WRITES[cls](store, 1)
        json.loads(path.read_text())
        reloaded = cls(path)
        assert "wl1" in reloaded and "wl0" not in reloaded
