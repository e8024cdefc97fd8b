"""The objective-wrapper protocol shared by the fault, hang, journal and
cancel wrappers (``repro.tuners.base.ObjectiveWrapper``), replay skips
through stacked injectors, and the censored write-off."""

import numpy as np
import pytest

from repro.core.journal import EvaluationJournal, JournaledObjective
from repro.faults import FaultInjector, FaultPlan, HangInjector, HangPlan
from repro.serve.runner import CancellableObjective
from repro.sparksim import RunStatus
from repro.tuners import SyntheticObjective, synthetic_space
from repro.tuners.base import ObjectiveWrapper, can_spawn, censored_write_off

#: What every wrapper inherits from the base instead of re-implementing.
PROTOCOL = {"space", "time_limit_s", "with_space", "spawn_view",
            "spawn_view_capable", "__getattr__"}


class _Plain:
    """A delegating wrapper with no ``spawn_view`` of its own."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, u, time_limit_s=None):
        return self._inner(u, time_limit_s)


@pytest.fixture(params=["FaultInjector", "HangInjector",
                        "JournaledObjective", "CancellableObjective"])
def wrap(request, tmp_path):
    journals = []

    def make(objective):
        if request.param == "FaultInjector":
            return FaultInjector(objective, FaultPlan(0.0, seed=1))
        if request.param == "HangInjector":
            return HangInjector(objective, HangPlan(0.0))
        if request.param == "JournaledObjective":
            journals.append(EvaluationJournal(
                tmp_path / f"run{len(journals)}.jsonl"))
            return JournaledObjective(objective, journals[-1])
        return CancellableObjective(objective, lambda: False)

    yield make
    for journal in journals:
        journal.close()


class TestObjectiveWrapperProtocol:
    def test_forwards_the_protocol_and_unknown_attributes(self, wrap):
        objective = SyntheticObjective(synthetic_space(4), rng=0)
        wrapper = wrap(objective)
        assert wrapper.space is objective.space
        assert wrapper.time_limit_s == objective.time_limit_s
        assert wrapper.optimum == objective.optimum
        assert wrapper.n_evaluations == 0
        with pytest.raises(AttributeError):
            wrapper.no_such_attribute
        mro = type(wrapper).__mro__
        for cls in mro[:mro.index(ObjectiveWrapper)]:
            assert not PROTOCOL & set(vars(cls)), cls.__name__

    def test_views_keep_the_class_and_share_its_state(self, wrap):
        space = synthetic_space(4)
        objective = SyntheticObjective(space, rng=0)
        wrapper = wrap(objective)
        sub = space.subspace(["x0", "x1"])
        rebound, spawned = wrapper.with_space(sub), wrapper.spawn_view()
        assert rebound.space is sub
        for view in (rebound, spawned):
            assert type(view) is type(wrapper) and view is not wrapper
            assert view._objective is not objective
            for name, value in vars(wrapper).items():
                if name != "_objective":
                    assert vars(view)[name] is value, name
        spawned(np.full(space.dim, 0.5))
        assert wrapper.n_evaluations == 1  # the inner counter is shared

    def test_spawn_capability_follows_the_inner_objective(self, wrap):
        objective = SyntheticObjective(rng=0)
        assert wrap(objective).spawn_view_capable
        assert can_spawn(wrap(objective))
        assert not wrap(_Plain(objective)).spawn_view_capable
        assert not can_spawn(wrap(_Plain(objective)))
        assert not can_spawn(_Plain(objective))


class TestSkipThroughStackedInjectors:
    @pytest.mark.parametrize("fault_outside", [True, False])
    def test_skip_advances_every_plan_index(self, fault_outside):
        objective = SyntheticObjective(rng=0)
        if fault_outside:
            hang = HangInjector(objective, HangPlan(0.0))
            fault = top = FaultInjector(hang, FaultPlan(0.0))
        else:
            fault = FaultInjector(objective, FaultPlan(0.0))
            hang = top = HangInjector(fault, HangPlan(0.0))
        top.skip(3)
        assert fault.stats["index"] == 3
        assert hang.stats["index"] == 3
        with pytest.raises(ValueError):
            top.skip(-1)

    def test_journal_replay_keeps_both_injectors_aligned(self, tmp_path):
        def stack():
            hang = HangInjector(SyntheticObjective(rng=0), HangPlan(0.0))
            return FaultInjector(hang, FaultPlan(0.0)), hang

        U = [np.full(10, 0.1 * (i + 1)) for i in range(4)]
        journal = EvaluationJournal(tmp_path / "run.jsonl")
        journal.write_meta({"tuner": "RandomSearch"})
        fault, hang = stack()
        recording = JournaledObjective(fault, journal)
        for u in U[:3]:
            recording(u)
        journal.close()
        _, records, _, next_seq = journal.recovery()
        fault, hang = stack()
        resumed = JournaledObjective(fault, journal, replay=records,
                                     next_seq=next_seq)
        for u in U[:3]:
            resumed(u)
        assert resumed.n_replayed == 3
        assert fault.stats["index"] == hang.stats["index"] == 3
        resumed(U[3])  # live: the fourth coordinate on both plans
        assert fault.stats["index"] == hang.stats["index"] == 4
        journal.close()


class TestCensoredWriteOff:
    def test_charges_the_limit_it_is_given(self):
        objective = SyntheticObjective(rng=0, time_limit_s=480.0)
        u = np.full(objective.space.dim, 0.5)
        full = censored_write_off(objective, u, status=RunStatus.TIMEOUT,
                                  fault="deadline")
        assert full.cost_s == full.objective == 480.0
        tight = censored_write_off(objective, u, status=RunStatus.TIMEOUT,
                                   fault="crash_recovery", limit_s=90.0)
        assert tight.cost_s == tight.objective == 90.0

    def test_censoring_hook_values_the_full_cap(self):
        class Hooked(SyntheticObjective):
            def censor_value(self, config, limit_s):
                return 2.0 * (self.time_limit_s if limit_s is None
                              else limit_s)

        objective = Hooked(rng=0, time_limit_s=480.0)
        ev = censored_write_off(objective, np.full(objective.space.dim, 0.5),
                                status=RunStatus.RUNTIME_ERROR,
                                fault="worker_death", limit_s=90.0)
        assert ev.cost_s == 90.0
        assert ev.objective == 960.0
