"""Unit tests for the tracer, the null tracer and the sinks."""

import json
import threading

import numpy as np
import pytest

from repro.obs import (NULL_TRACER, InMemorySink, JsonlTraceWriter, NullTracer,
                       Tracer, as_tracer, validate_trace)


class FakeClock:
    """Deterministic monotonic clock advancing a fixed step per read."""

    def __init__(self, step: float = 0.5):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def make(**kwargs):
    sink = InMemorySink()
    return Tracer(sink, clock=FakeClock(), **kwargs), sink


class TestTracer:
    def test_meta_record_opens_the_trace(self):
        tracer, sink = make(meta={"tuner": "ROBOTune", "seed": 7})
        tracer.close()
        first = sink.records[0]
        assert first["kind"] == "meta"
        assert isinstance(first["schema"], int)
        assert first["tuner"] == "ROBOTune"
        assert first["seed"] == 7

    def test_emit_assigns_increasing_ids(self):
        tracer, sink = make()
        ids = [tracer.emit("eval.result", {"i": i}) for i in range(5)]
        tracer.close()
        assert ids == [0, 1, 2, 3, 4]
        assert validate_trace(sink.records) == []

    def test_timestamps_use_the_injected_clock(self):
        tracer, sink = make()
        tracer.emit("eval.result", {})
        tracer.emit("eval.result", {})
        t = [r["t"] for r in sink.records if r.get("kind") == "event"]
        # FakeClock steps 0.5 per read; t0 was read at construction.
        assert t == [0.5, 1.0]

    def test_span_nesting(self):
        tracer, sink = make()
        with tracer.span("tune", budget=10):
            tracer.emit("eval.result", {"i": 0})
            with tracer.span("bo"):
                tracer.emit("bo.iteration", {"iteration": 0})
        tracer.emit("eval.result", {"i": 1})
        tracer.close()
        events = sink.events()
        starts = [e for e in events if e["type"] == "span.start"]
        outer, inner = starts
        assert outer["data"]["name"] == "tune"
        assert outer["data"]["budget"] == 10
        assert outer["span"] is None
        assert inner["span"] == outer["id"]
        by_type = {e["type"]: e for e in events}
        assert by_type["bo.iteration"]["span"] == inner["id"]
        first_eval = next(e for e in events if e["type"] == "eval.result")
        assert first_eval["span"] == outer["id"]
        # The trailing emit is outside every span again.
        assert events[-1]["span"] is None
        ends = [e for e in events if e["type"] == "span.end"]
        assert [e["data"]["name"] for e in ends] == ["bo", "tune"]
        assert all(e["data"]["dur"] > 0 for e in ends)
        assert validate_trace(sink.records) == []

    def test_counters_and_timers_flush_into_metrics_record(self):
        tracer, sink = make()
        tracer.count("evals")
        tracer.count("evals", 2)
        with tracer.timer("gp.fit"):
            pass
        with tracer.timer("gp.fit"):
            pass
        assert tracer.counters == {"evals": 3}
        assert tracer.timers["gp.fit"]["count"] == 2
        assert tracer.timers["gp.fit"]["total_s"] > 0
        tracer.close()
        metrics = sink.records[-1]
        assert metrics["kind"] == "metrics"
        assert metrics["counters"] == {"evals": 3}
        assert metrics["timers"]["gp.fit"]["count"] == 2

    def test_close_is_idempotent_and_drops_late_events(self):
        tracer, sink = make()
        tracer.emit("eval.result", {})
        tracer.close()
        n = len(sink.records)
        assert tracer.emit("eval.result", {}) == -1
        tracer.close()
        assert len(sink.records) == n

    def test_payloads_are_scrubbed_to_json_types(self):
        tracer, sink = make()
        tracer.emit("gp.fit", {"n": np.int64(3),
                               "theta": np.array([1.0, 2.0]),
                               "nested": {"y": np.float32(0.5)}})
        tracer.close()
        text = json.dumps(sink.records)  # must not raise
        data = sink.events()[0]["data"]
        assert data["n"] == 3 and data["theta"] == [1.0, 2.0]
        assert isinstance(data["nested"]["y"], float)
        assert "numpy" not in text

    def test_fans_out_to_multiple_sinks(self):
        a, b = InMemorySink(), InMemorySink()
        tracer = Tracer([a, b], clock=FakeClock())
        tracer.emit("eval.result", {})
        tracer.close()
        assert a.records == b.records

    def test_thread_safety_and_per_thread_spans(self):
        tracer, sink = make()

        def worker():
            for _ in range(50):
                tracer.emit("eval.result", {})

        with tracer.span("tune"):
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        tracer.close()
        events = sink.events()
        ids = [e["id"] for e in events]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        # Worker threads have their own (empty) span stack: their events
        # must not claim membership of the main thread's span.
        workers = [e for e in events if e["type"] == "eval.result"]
        assert len(workers) == 200
        assert all(e["span"] is None for e in workers)


class TestNullTracer:
    def test_as_tracer_normalizes_none(self):
        assert as_tracer(None) is NULL_TRACER
        tracer, _ = make()
        assert as_tracer(tracer) is tracer

    def test_all_methods_are_no_ops(self):
        tracer = NullTracer()
        assert tracer.active is False
        assert tracer.emit("eval.result", {"i": 0}) is None
        tracer.count("evals")
        with tracer.span("tune", budget=5):
            with tracer.timer("gp.fit"):
                pass
        tracer.close()


class TestJsonlTraceWriter:
    def test_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceWriter(path), clock=FakeClock(),
                        meta={"tuner": "x"})
        tracer.emit("eval.result", {"i": 0})
        tracer.close()
        records = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["meta", "event", "metrics"]
        assert validate_trace(records) == []

    def test_flushes_per_record_and_fsyncs_once_at_close(self, tmp_path,
                                                        fsyncs):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlTraceWriter(path), clock=FakeClock(),
                        meta={"tuner": "x"})
        for i in range(5):
            tracer.emit("eval.result", {"i": i})
            # Readable as soon as it is written: a kill loses nothing.
            assert len(path.read_text().splitlines()) == 2 + i
        assert fsyncs == []
        tracer.close()
        assert fsyncs == [path.stat().st_size]

    def test_refuses_non_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "meta", "schema": 1}\n')
        with pytest.raises(FileExistsError):
            JsonlTraceWriter(path)

    def test_accepts_empty_existing_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.touch()
        JsonlTraceWriter(path).write({"kind": "meta", "schema": 1})

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        writer = JsonlTraceWriter(path)
        writer.write({"kind": "meta", "schema": 1})
        writer.close()
        assert path.exists()
