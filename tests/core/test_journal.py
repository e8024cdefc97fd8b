"""Tests for the crash-safe evaluation journal and its objective wrapper."""

import errno
import json

import numpy as np
import pytest

import repro.core.journal as journal_module
from repro.core.journal import EvalRecord, EvaluationJournal, JournaledObjective
from repro.obs import durable
from repro.obs.durable import JsonlAppender, read_jsonl
from repro.space import spark_space
from repro.sparksim import RunStatus
from repro.tuners import RandomSearch, WorkloadObjective
from repro.tuners.base import Evaluation
from repro.workloads import get_workload


def make_eval(x=0.25, objective=42.0, **kw):
    defaults = dict(
        vector=np.array([x, 1.0 - x]),
        config={"spark.executor.cores": 8},
        objective=objective,
        cost_s=objective,
        status=RunStatus.SUCCESS,
    )
    defaults.update(kw)
    return Evaluation(**defaults)


class RecordingObjective:
    """Fake objective that logs rng-state and skip interactions."""

    def __init__(self):
        self.state = {"counter": 0}
        self.restored_states = []
        self.skipped = 0
        self.calls = 0

    @property
    def space(self):
        return None

    @property
    def time_limit_s(self):
        return 480.0

    def rng_state(self):
        return dict(self.state)

    def set_rng_state(self, state):
        self.restored_states.append(state)
        self.state = dict(state)

    def skip(self, n=1):
        self.skipped += n

    def __call__(self, u, time_limit_s=None):
        # The outcome depends on the "noise state", exactly like the real
        # objective's simulator noise — so a resume is only bit-identical
        # if the state snapshot was restored correctly.
        self.calls += 1
        self.state["counter"] += 1
        return make_eval(vector=np.asarray(u, dtype=float).copy(),
                         objective=10.0 * self.state["counter"])


class TestJournalFile:
    def test_round_trip(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        journal.write_meta({"tuner": "ROBOTune", "workload": "pagerank/D1"})
        evs = [make_eval(x=0.1), make_eval(x=0.9, objective=7.0,
                                           status=RunStatus.TIMEOUT,
                                           truncated=True, transient=True,
                                           fault="straggler_node",
                                           attempts=3)]
        for i, ev in enumerate(evs):
            journal.append(ev, {"step": i})
        journal.close()

        meta, records = EvaluationJournal(tmp_path / "run.jsonl").load()
        assert meta == {"tuner": "ROBOTune", "workload": "pagerank/D1"}
        assert len(records) == 2
        for rec, ev in zip(records, evs):
            back = rec.to_evaluation()
            assert np.array_equal(back.vector, ev.vector)
            assert back.config == ev.config
            assert back.objective == ev.objective
            assert back.cost_s == ev.cost_s
            assert back.status is ev.status
            assert back.truncated == ev.truncated
            assert back.transient == ev.transient
            assert back.fault == ev.fault
            assert back.attempts == ev.attempts
        assert records[1].rng_state == {"step": 1}

    def test_numpy_values_serialized(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        ev = make_eval(config={"cores": np.int64(8), "frac": np.float64(0.5)})
        journal.append(ev, {"key": np.array([1, 2])})
        journal.close()
        _, records = journal.load()
        assert records[0].config == {"cores": 8, "frac": 0.5}
        assert records[0].rng_state == {"key": [1, 2]}

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = EvaluationJournal(path)
        journal.write_meta({"tuner": "RandomSearch"})
        journal.append(make_eval())
        journal.append(make_eval())
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "eval", "vector": [0.3')   # crash mid-write
        meta, records = EvaluationJournal(path).load()
        assert meta["tuner"] == "RandomSearch"
        assert len(records) == 2
        assert len(EvaluationJournal(path)) == 2

    def test_write_meta_refuses_existing_session(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = EvaluationJournal(path)
        journal.write_meta({"tuner": "ROBOTune"})
        journal.close()
        with pytest.raises(FileExistsError, match="already holds a session"):
            EvaluationJournal(path).write_meta({"tuner": "ROBOTune"})

    def test_missing_journal(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "absent.jsonl")
        assert len(journal) == 0
        with pytest.raises(FileNotFoundError):
            journal.load()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.jsonl"
        journal = EvaluationJournal(path)
        journal.append(make_eval())
        journal.close()
        assert path.exists()


class FakeSpace:
    dim = 2

    def decode(self, u):
        return {"x": float(np.asarray(u)[0])}


class RecoverableObjective(RecordingObjective):
    """RecordingObjective with a decodable space (censor recovery path)."""

    @property
    def space(self):
        return FakeSpace()


class SpawnableObjective(RecordingObjective):
    def spawn_view(self):
        return self


class TestDispatchSettle:
    def test_live_calls_write_dispatch_then_settle(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = EvaluationJournal(path)
        journal.write_meta({"tuner": "ROBOTune"})
        wrapped = JournaledObjective(RecordingObjective(), journal)
        wrapped(np.array([0.2, 0.8]))
        wrapped(np.array([0.4, 0.6]))
        journal.close()
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert [p["kind"] for p in lines] == ["meta", "dispatch", "eval",
                                              "dispatch", "eval"]
        # Each eval settles the dispatch immediately preceding it.
        assert lines[2]["seq"] == lines[1]["seq"] == 0
        assert lines[4]["seq"] == lines[3]["seq"] == 1
        _, _, pending, next_seq = journal.recovery()
        assert pending == []
        assert next_seq == 2

    def test_unsettled_dispatch_is_pending(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        journal.write_meta({"tuner": "ROBOTune"})
        wrapped = JournaledObjective(RecordingObjective(), journal)
        wrapped(np.array([0.2, 0.8]))
        # Simulate a crash mid-evaluation: dispatch written, no settle.
        journal.append_dispatch(1, np.array([0.4, 0.6]))
        journal.close()
        _, _, pending, next_seq = journal.recovery()
        assert len(pending) == 1
        assert pending[0].seq == 1
        assert pending[0].vector == [0.4, 0.6]
        assert next_seq == 2
        assert len(journal) == 1      # only the settled record counts

    def test_record_censored_settles_immediately(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = EvaluationJournal(path)
        journal.write_meta({"tuner": "ROBOTune"})
        wrapped = JournaledObjective(RecordingObjective(), journal)
        censored = make_eval(status=RunStatus.TIMEOUT, truncated=True,
                             transient=True, fault="deadline")
        wrapped.record_censored(censored)
        journal.close()
        _, records, pending, next_seq = journal.recovery()
        assert pending == []
        assert len(records) == 1
        assert records[0].fault == "deadline"
        assert records[0].seq == 0
        assert next_seq == 1

    def test_v1_journal_loads_unchanged(self, tmp_path):
        # A pre-supervision journal: eval records with no seq, no dispatches.
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        journal.write_meta({"tuner": "ROBOTune"})
        journal.append(make_eval(x=0.1))
        journal.append(make_eval(x=0.9))
        journal.close()
        meta, records = journal.load()
        assert meta == {"tuner": "ROBOTune"}
        assert len(records) == 2
        assert all(rec.seq is None for rec in records)
        assert journal.recovery() == (meta, records, [], 0)


class TestDurability:
    """Which records are fsync'd: each dispatch before its evaluation
    runs, censored settles, and the rest at close."""

    def test_one_fsync_per_dispatch_plus_one_at_close(self, tmp_path,
                                                     fsyncs):
        path = tmp_path / "run.jsonl"
        result = RandomSearch().checkpoint(TestTornTail._objective("kmeans"),
                                           5, path, rng=2)
        assert len(result.evaluations) == 5
        # checkpoint closed the journal it opened: the last sync covers
        # the whole file.
        assert len(fsyncs) == 5 + 1
        assert fsyncs[-1] == path.stat().st_size

    def test_each_dispatch_is_synced_before_its_evaluation(self, tmp_path,
                                                          fsyncs):
        synced_at_call = []

        class Probe(RecordingObjective):
            def __call__(self, u, time_limit_s=None):
                synced_at_call.append(list(fsyncs))
                return super().__call__(u, time_limit_s)

        path = tmp_path / "run.jsonl"
        journal = EvaluationJournal(path)
        wrapped = JournaledObjective(Probe(), journal)
        for x in (0.2, 0.4, 0.6):
            wrapped(np.array([x, 1.0 - x]))
        lines = path.read_bytes().splitlines(keepends=True)
        ends = np.cumsum([len(line) for line in lines]).tolist()
        # Evaluation i runs after exactly i + 1 fsyncs, the last ending
        # at its own dispatch line (settles wait for the next dispatch).
        assert synced_at_call == [ends[:1], ends[:3:2], ends[:5:2]]
        journal.close()
        assert fsyncs == [ends[0], ends[2], ends[4], ends[5]]

    def test_settle_is_readable_before_any_fsync(self, tmp_path, fsyncs):
        path = tmp_path / "run.jsonl"
        journal = EvaluationJournal(path)
        journal.append_dispatch(0, [0.25, 0.75])
        assert len(fsyncs) == 1
        journal.append(make_eval(), None, seq=0)
        assert [r["kind"] for r in read_jsonl(path)] == ["dispatch", "eval"]
        assert len(fsyncs) == 1  # flushed, which survives SIGKILL
        journal.close()
        assert fsyncs == [fsyncs[0], path.stat().st_size]

    def test_record_censored_fsyncs_its_settle(self, tmp_path, fsyncs):
        path = tmp_path / "run.jsonl"
        journal = EvaluationJournal(path)
        wrapped = JournaledObjective(RecordingObjective(), journal)
        wrapped(np.array([0.2, 0.8]))
        assert len(fsyncs) == 1  # the live settle is only flushed
        wrapped.record_censored(make_eval(
            x=0.4, status=RunStatus.TIMEOUT, truncated=True, transient=True,
            fault="deadline"))
        # Its dispatch and its settle are both on disk when it returns.
        assert fsyncs[-1] == path.stat().st_size
        assert [r["kind"] for r in read_jsonl(path)][-2:] == ["dispatch",
                                                             "eval"]
        journal.close()
        assert fsyncs[-1] == path.stat().st_size

    def test_close_releases_the_file_when_its_sync_fails(self, tmp_path,
                                                         monkeypatch):
        def failing(fd):
            raise OSError(errno.EIO, "fsync failed")

        path = tmp_path / "run.jsonl"
        appender = JsonlAppender(path)
        appender.write({"kind": "eval", "seq": 0})
        handle = appender._fh
        monkeypatch.setattr(durable.os, "fsync", failing)
        with pytest.raises(OSError, match="fsync failed"):
            appender.close()
        assert handle.closed and appender._fh is None
        appender.close()  # already closed: a no-op, not a second error


class TestCrashRecovery:
    def _crashed_session(self, tmp_path, objective_cls=RecordingObjective):
        """One settled evaluation plus one dispatch that never settled."""
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        journal.write_meta({"tuner": "ROBOTune"})
        inner = objective_cls()
        wrapped = JournaledObjective(inner, journal)
        wrapped(np.array([0.2, 0.8]))
        journal.append_dispatch(1, np.array([0.4, 0.6]))
        journal.close()
        return journal

    def test_invalid_recover_mode_rejected(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        with pytest.raises(ValueError, match="recover"):
            JournaledObjective(RecordingObjective(), journal,
                               recover="retry")

    def test_redispatch_reexecutes_and_reuses_seq(self, tmp_path):
        journal = self._crashed_session(tmp_path)
        _, records, pending, next_seq = journal.recovery()
        fresh = RecordingObjective()
        resumed = JournaledObjective(fresh, journal, replay=records,
                                     pending=pending, next_seq=next_seq)
        assert resumed.n_pending == 1
        resumed(np.array([0.2, 0.8]))          # served from the journal
        ev = resumed(np.array([0.4, 0.6]))     # re-executes the crashed one
        assert fresh.calls == 1
        assert ev.fault is None
        assert resumed.n_pending == 0
        journal.close()
        # The re-execution settled the *original* dispatch record.
        _, records, pending, _ = journal.recovery()
        assert pending == []
        assert records[-1].seq == 1
        # New work continues from the next unused sequence number.
        resumed(np.array([0.6, 0.4]))
        journal.close()
        _, records = journal.load()
        assert records[-1].seq == 2

    def test_censor_writes_off_pending_without_execution(self, tmp_path):
        journal = self._crashed_session(tmp_path, RecoverableObjective)
        _, records, pending, next_seq = journal.recovery()
        fresh = RecoverableObjective()
        resumed = JournaledObjective(fresh, journal, replay=records,
                                     pending=pending, next_seq=next_seq,
                                     recover="censor")
        resumed(np.array([0.2, 0.8]))
        skipped_before = fresh.skipped
        ev = resumed(np.array([0.4, 0.6]))
        assert fresh.calls == 0                # cluster time not re-paid
        assert ev.fault == "crash_recovery"
        assert ev.status is RunStatus.TIMEOUT
        assert ev.truncated and ev.transient
        assert ev.objective == fresh.time_limit_s
        assert ev.cost_s == fresh.time_limit_s
        assert ev.config == {"x": 0.4}
        # Fault-plan coordinates stay aligned past the censored slot.
        assert fresh.skipped == skipped_before + 1
        assert resumed.n_pending == 0
        journal.close()
        assert journal.recovery()[2] == []

    def test_censor_prefers_censor_value_hook(self, tmp_path):
        class Hooked(RecoverableObjective):
            def censor_value(self, config, limit_s):
                return 999.0

        journal = self._crashed_session(tmp_path, Hooked)
        _, records, pending, next_seq = journal.recovery()
        resumed = JournaledObjective(Hooked(), journal, replay=records,
                                     pending=pending, next_seq=next_seq,
                                     recover="censor")
        resumed(np.array([0.2, 0.8]))
        ev = resumed(np.array([0.4, 0.6]))
        journal.close()
        assert ev.objective == 999.0

    def test_censor_mode_runs_unrelated_vectors_live(self, tmp_path):
        journal = self._crashed_session(tmp_path, RecoverableObjective)
        _, records, pending, next_seq = journal.recovery()
        fresh = RecoverableObjective()
        resumed = JournaledObjective(fresh, journal, replay=records,
                                     pending=pending, next_seq=next_seq,
                                     recover="censor")
        resumed(np.array([0.2, 0.8]))
        ev = resumed(np.array([0.9, 0.1]))     # never dispatched pre-crash
        journal.close()
        assert fresh.calls == 1
        assert ev.fault is None
        assert resumed.n_pending == 1          # the crashed one still owed


class TestJournaledViews:
    def test_spawn_view_shares_journal_and_sequence(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        journal.write_meta({"tuner": "ROBOTune"})
        wrapped = JournaledObjective(SpawnableObjective(), journal)
        assert wrapped.spawn_view_capable
        views = [wrapped.spawn_view() for _ in range(3)]
        for i, view in enumerate(views):
            view(np.array([0.1 * (i + 1), 0.5]))
        journal.close()
        _, records, pending, next_seq = journal.recovery()
        assert sorted(rec.seq for rec in records) == [0, 1, 2]
        assert pending == []
        assert next_seq == 3

    def test_spawn_view_capable_tracks_inner(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        wrapped = JournaledObjective(RecordingObjective(), journal)
        assert not wrapped.spawn_view_capable  # inner has no spawn_view


class TestJournaledObjective:
    def test_recording_appends_with_rng_snapshot(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        inner = RecordingObjective()
        wrapped = JournaledObjective(inner, journal)
        wrapped(np.array([0.2, 0.8]))
        wrapped(np.array([0.4, 0.6]))
        journal.close()
        _, records = journal.load()
        assert len(records) == 2
        # The snapshot is taken *after* the evaluation consumed its noise.
        assert records[0].rng_state == {"counter": 1}
        assert records[1].rng_state == {"counter": 2}
        assert wrapped.n_replayed == 0

    def test_replay_serves_without_executing(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        inner = RecordingObjective()
        wrapped = JournaledObjective(inner, journal)
        u = [np.array([0.2, 0.8]), np.array([0.4, 0.6])]
        originals = [wrapped(v) for v in u]
        journal.close()

        _, records = journal.load()
        fresh = RecordingObjective()
        resumed = JournaledObjective(fresh, journal, replay=records)
        served = [resumed(v) for v in u]
        assert fresh.calls == 0                 # nothing re-executed
        assert fresh.skipped == 2               # fault index kept aligned
        assert resumed.n_replayed == 2
        for orig, again in zip(originals, served):
            assert np.array_equal(orig.vector, again.vector)
            assert orig.objective == again.objective

    def test_rng_restored_when_replay_drains(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        inner = RecordingObjective()
        wrapped = JournaledObjective(inner, journal)
        straight = [wrapped(np.array([0.1 * i, 0.5])) for i in range(3)]

        _, records = journal.load()
        fresh = RecordingObjective()
        resumed = JournaledObjective(fresh, journal, replay=records[:2])
        resumed(np.array([0.0, 0.5]))
        resumed(np.array([0.1, 0.5]))
        live = resumed(np.array([0.2, 0.5]))
        journal.close()
        # State restored from the second snapshot before the live call.
        assert fresh.restored_states == [{"counter": 2}]
        assert live.objective == straight[2].objective
        assert fresh.calls == 1

    def test_vector_mismatch_raises(self, tmp_path):
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        wrapped = JournaledObjective(RecordingObjective(), journal)
        wrapped(np.array([0.2, 0.8]))
        _, records = journal.load()
        resumed = JournaledObjective(RecordingObjective(), journal,
                                     replay=records)
        with pytest.raises(ValueError, match="journal replay mismatch"):
            resumed(np.array([0.3, 0.7]))
        journal.close()

    def test_inner_without_hooks_is_fine(self, tmp_path):
        class Bare:
            space = None
            time_limit_s = 480.0

            def __call__(self, u, time_limit_s=None):
                return make_eval(x=float(np.asarray(u)[0]))

        journal = EvaluationJournal(tmp_path / "run.jsonl")
        wrapped = JournaledObjective(Bare(), journal)
        wrapped(np.array([0.2, 0.8]))
        _, records = journal.load()
        assert records[0].rng_state is None
        resumed = JournaledObjective(Bare(), journal, replay=records)
        ev = resumed(np.array([0.2, 0.8]))     # no skip/set_rng_state hooks
        journal.close()
        assert ev.objective == 42.0


class TestTornTail:
    """A crash tears the journal's final record; resume, crash and tear
    again, resume again: no evaluation is lost or written twice."""

    VECTORS = [np.array([0.125 * i, 1.0 - 0.125 * i]) for i in range(1, 5)]

    def _run(self, path, n, *, resume):
        """The session's first *n* evaluations, fresh or resumed."""
        journal = EvaluationJournal(path)
        if resume:
            _, records, pending, next_seq = journal.recovery()
            wrapped = JournaledObjective(
                RecordingObjective(), journal, replay=records,
                pending=pending, next_seq=next_seq)
        else:
            journal.write_meta({"tuner": "RandomSearch"})
            wrapped = JournaledObjective(RecordingObjective(), journal)
        for u in self.VECTORS[:n]:
            wrapped(u)
        journal.close()

    def test_every_tear_offset_resumes_to_the_uninterrupted_bytes(
            self, tmp_path):
        ref_path = tmp_path / "straight.jsonl"
        self._run(ref_path, len(self.VECTORS), resume=False)
        ref = ref_path.read_bytes()
        lines = ref.splitlines(keepends=True)  # meta, (dispatch, eval) * 4
        after_three = len(b"".join(lines[:7]))
        path = tmp_path / "run.jsonl"
        for torn in (3, 4):                    # evaluation 2's two records
            start = len(b"".join(lines[:torn]))
            # The last offset drops only the record's newline.
            for cut in range(start, start + len(lines[torn])):
                path.write_bytes(ref[:cut])
                _, before = EvaluationJournal(path).load()
                self._run(path, 3, resume=True)
                resumed = path.read_bytes()
                assert resumed == ref[:after_three], cut
                _, after = EvaluationJournal(path).load()
                assert len(after) == 3 and after[:len(before)] == before
                for tear in (1, 9):            # newline only, mid-record
                    path.write_bytes(resumed[:-tear])
                    self._run(path, len(self.VECTORS), resume=True)
                    assert path.read_bytes() == ref, (cut, tear)
                    assert len(EvaluationJournal(path)) == len(self.VECTORS)

    @staticmethod
    def _objective(workload):
        return WorkloadObjective(get_workload(workload, "D1"), spark_space(),
                                 rng=5)

    def test_torn_header_starts_afresh_under_its_identity(self, tmp_path):
        ref_path = tmp_path / "straight.jsonl"
        RandomSearch().checkpoint(self._objective("kmeans"), 3, ref_path,
                                  rng=2)
        ref = ref_path.read_bytes()
        header = len(ref.splitlines(keepends=True)[0])
        path = tmp_path / "run.jsonl"
        # No journal at all (killed before the header): also afresh.
        RandomSearch().resume(self._objective("kmeans"), 3, path, rng=2)
        assert path.read_bytes() == ref
        # The last offset drops only the header's newline.
        for cut in range(header):
            path.write_bytes(ref[:cut])
            RandomSearch().resume(self._objective("kmeans"), 3, path, rng=2)
            assert path.read_bytes() == ref, cut
            with pytest.raises(ValueError, match="workload"):
                RandomSearch().resume(self._objective("pagerank"), 3, path,
                                      rng=2)

    def test_a_resume_parses_its_journal_once(self, tmp_path, monkeypatch):
        ref_path = tmp_path / "straight.jsonl"
        RandomSearch().checkpoint(self._objective("kmeans"), 6, ref_path,
                                  rng=2)
        ref = ref_path.read_bytes()
        path = tmp_path / "run.jsonl"
        path.write_bytes(ref[:len(ref) // 2])  # torn mid-record
        parses = []

        def counted(journal_path):
            parses.append(journal_path)
            return read_jsonl(journal_path)
        monkeypatch.setattr(journal_module, "read_jsonl", counted)
        RandomSearch().resume(self._objective("kmeans"), 6, path, rng=2)
        assert parses == [path]
        assert path.read_bytes() == ref

    def test_records_without_a_header_refuse_to_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RandomSearch().checkpoint(self._objective("kmeans"), 3, path, rng=2)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[1:]))
        with pytest.raises(ValueError, match="no session header"):
            RandomSearch().resume(self._objective("kmeans"), 3, path, rng=2)
        with pytest.raises(FileExistsError):
            EvaluationJournal(path).write_meta({"tuner": "RandomSearch"})
