"""WorkerPool: submit/collect protocol, abandonment, bounded shutdown.

The hung-task scenarios use real threads wedged on events; every wait in
here is bounded, so a regression shows up as a failed assertion, not a
hung test run.
"""

import threading
import time

import pytest

from repro.obs import InMemorySink, Tracer
from repro.utils.parallel import PoolTimeout, WorkerPool


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            WorkerPool(1, backend="process")

    def test_rejects_negative_drain_timeout(self):
        with pytest.raises(ValueError):
            WorkerPool(1, drain_timeout_s=-1.0)


class TestSubmitCollect:
    def test_round_trip_with_tags(self):
        with WorkerPool(2) as pool:
            pool.submit(lambda: 10, tag="a")
            pool.submit(lambda: 20, tag="b")
            got = dict(pool.next_completed() for _ in range(2))
        assert got == {"a": 10, "b": 20}

    def test_full_pool_rejects_submission(self):
        release = threading.Event()
        with WorkerPool(1) as pool:
            pool.submit(lambda: release.wait(10.0), tag=0)
            assert pool.free_workers == 0
            with pytest.raises(RuntimeError, match="pool is full"):
                pool.submit(lambda: 1, tag=1)
            release.set()
            pool.next_completed()
        assert pool.abandoned_tasks == 0

    def test_ties_resolve_in_submission_order(self):
        gate = threading.Event()
        with WorkerPool(3) as pool:
            for i in (0, 1, 2):
                pool.submit(lambda v=i: gate.wait(10.0) or v, tag=i)
            gate.set()
            time.sleep(0.2)           # let all three finish before collecting
            tags = [pool.next_completed()[0] for _ in range(3)]
        assert tags == [0, 1, 2]

    def test_exception_propagates_and_frees_slot(self):
        with WorkerPool(1) as pool:
            pool.submit(lambda: 1 / 0, tag="boom")
            with pytest.raises(ZeroDivisionError):
                pool.next_completed()
            assert pool.pending == 0
            pool.submit(lambda: "ok", tag="next")
            assert pool.next_completed() == ("next", "ok")

    def test_collect_without_tasks_raises(self):
        with WorkerPool(1) as pool:
            with pytest.raises(RuntimeError, match="no tasks in flight"):
                pool.next_completed()

    def test_timeout_raises_pool_timeout_and_keeps_task(self):
        release = threading.Event()
        with WorkerPool(1) as pool:
            pool.submit(lambda: release.wait(10.0) and "late", tag=0)
            with pytest.raises(PoolTimeout, match="1 in flight"):
                pool.next_completed(timeout=0.05)
            assert pool.pending == 1  # the wait expired, the task did not
            release.set()
            assert pool.next_completed(timeout=5.0) == (0, "late")


class TestAbandon:
    def test_abandon_frees_slot_and_counts(self):
        sink = InMemorySink()
        tracer = Tracer([sink])
        release = threading.Event()
        with WorkerPool(1, tracer=tracer) as pool:
            pool.submit(lambda: release.wait(10.0), tag="hung")
            assert pool.abandon("hung")
            assert pool.free_workers == 1
            assert pool.abandoned_tasks == 1
            pool.submit(lambda: "fresh", tag="next")
            assert pool.next_completed() == ("next", "fresh")
            release.set()
        assert tracer.counters["pool.abandoned_tasks"] == 1

    def test_abandon_unknown_tag_is_false(self):
        with WorkerPool(1) as pool:
            assert not pool.abandon("never-submitted")
        assert pool.abandoned_tasks == 0

    def test_late_result_of_abandoned_task_is_dropped(self):
        release = threading.Event()
        with WorkerPool(2) as pool:
            pool.submit(lambda: release.wait(10.0) or "stale", tag="old")
            pool.abandon("old")
            release.set()             # the orphan thread now finishes
            time.sleep(0.2)
            pool.submit(lambda: "live", tag="new")
            # Only the live task's result surfaces; the stale one dropped.
            assert pool.next_completed(timeout=5.0) == ("new", "live")
            assert pool.pending == 0

    def test_abandon_completed_but_uncollected_task(self):
        with WorkerPool(2) as pool:
            pool.submit(lambda: "done", tag=0)
            time.sleep(0.2)           # finished, sitting in the queue
            pool.next_completed(timeout=5.0)  # absorb into ready
            pool.submit(lambda: "done2", tag=1)
            time.sleep(0.2)
            assert pool.abandon(1)
            pool.submit(lambda: "after", tag=2)
            assert pool.next_completed(timeout=5.0) == (2, "after")


class TestBoundedClose:
    def test_close_does_not_block_on_hung_task(self):
        release = threading.Event()
        pool = WorkerPool(2, drain_timeout_s=0.2)
        pool.submit(lambda: release.wait(30.0), tag="hung")
        start = time.monotonic()
        pool.close()
        assert time.monotonic() - start < 5.0
        assert pool.abandoned_tasks == 1
        release.set()

    def test_close_joins_finishing_tasks_cleanly(self):
        pool = WorkerPool(2, drain_timeout_s=5.0)
        pool.submit(lambda: time.sleep(0.05), tag=0)
        pool.close()
        assert pool.abandoned_tasks == 0

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()


class TestSerialBackend:
    def test_fifo_execution_deferred_to_collect(self):
        ran = []
        with WorkerPool(2, backend="serial") as pool:
            pool.submit(lambda: ran.append("a") or 1, tag="a")
            pool.submit(lambda: ran.append("b") or 2, tag="b")
            assert ran == []          # nothing executes at submit time
            assert pool.next_completed() == ("a", 1)
            assert pool.next_completed() == ("b", 2)
        assert ran == ["a", "b"]

    def test_serial_abandon_drops_queued_task(self):
        ran = []
        with WorkerPool(2, backend="serial") as pool:
            pool.submit(lambda: ran.append("a"), tag="a")
            pool.submit(lambda: ran.append("b") or "b", tag="b")
            assert pool.abandon("a")
            assert not pool.abandon("a")
            assert pool.next_completed() == ("b", "b")
        assert ran == ["b"]
        assert pool.abandoned_tasks == 1

    def test_serial_collect_empty_raises(self):
        with WorkerPool(1, backend="serial") as pool:
            with pytest.raises(RuntimeError, match="no tasks in flight"):
                pool.next_completed()
