"""End-to-end decision-sequence parity with the pre-observability tuners.

The golden digests below were produced by this exact script at the commit
*before* the observability layer landed (tracing did not exist yet;
ROBOTune's was re-pinned since, see ``GOLDEN``).  If
any of them changes, instrumentation has leaked into a decision path —
an RNG draw, a clock read, a reordered operation — which breaks the
contract that tracing only ever observes.

Reproduction (at any commit):

    tuner, seed = <row below>
    objective = SyntheticObjective(synthetic_space(6), n_effective=2,
                                   name="golden", rng=seed + 1)
    result = tuner.tune(objective, 30, rng=seed)
    digest(result)  # sha256 over (vector bytes, objective bytes), 16 hex
"""

import hashlib

import numpy as np
import pytest

from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.obs import InMemorySink, Tracer
from repro.tuners.bestconfig import BestConfig
from repro.tuners.gunther import Gunther
from repro.tuners.random_search import RandomSearch
from repro.tuners.synthetic import SyntheticObjective, synthetic_space

GOLDEN = {
    # Re-pinned on purpose when the acquisition refine and the likelihood
    # fit moved from scipy's L-BFGS-B to the lockstep repro.gp.lbfgs, and
    # again when the kernel algebra became one closed-form kernel (both
    # through the paired-quality gate, docs/PERFORMANCE.md).  The other
    # three tuners never touch the GP and keep their digests.
    "ROBOTune": "104f3b0bb29030c3",
    "BestConfig": "0ccfb94ddcd088ba",
    "Gunther": "75b71643a8e147bf",
    "RandomSearch": "49eb07eee9cc8517",
}


def make_tuner(name: str):
    if name == "ROBOTune":
        return ROBOTune(selector=ParameterSelector(n_samples=12, n_trees=25,
                                                   n_repeats=3, rng=7),
                        init_samples=6, rng=0), 0
    if name == "BestConfig":
        return BestConfig(round_size=10), 1
    if name == "Gunther":
        return Gunther(population=8), 2
    return RandomSearch(), 3


def digest(result) -> str:
    h = hashlib.sha256()
    for e in result.evaluations:
        h.update(np.ascontiguousarray(
            np.asarray(e.vector, dtype=float)).tobytes())
        h.update(np.float64(e.objective).tobytes())
    return h.hexdigest()[:16]


def run(name: str, tracer=None):
    tuner, seed = make_tuner(name)
    objective = SyntheticObjective(synthetic_space(6), n_effective=2,
                                   name="golden", rng=seed + 1)
    return tuner.tune(objective, 30, rng=seed, tracer=tracer)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_untraced_decisions_match_pre_observability_head(name):
    assert digest(run(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_traced_decisions_match_pre_observability_head(name):
    tracer = Tracer(InMemorySink(), meta={"tuner": name})
    result = run(name, tracer=tracer)
    tracer.close()
    assert digest(result) == GOLDEN[name]


def run_async(tracer=None):
    """The ROBOTune golden row with the async engine at one worker.

    ``async_workers=1`` is the degenerate asynchronous case: never more
    than one point in flight, so no busy-point penalization fires and the
    proposal sequence must be bit-identical to the serial loop.
    """
    tuner = ROBOTune(selector=ParameterSelector(n_samples=12, n_trees=25,
                                                n_repeats=3, rng=7),
                     init_samples=6, async_workers=1, rng=0)
    objective = SyntheticObjective(synthetic_space(6), n_effective=2,
                                   name="golden", rng=1)
    return tuner.tune(objective, 30, rng=0, tracer=tracer)


def test_async_single_worker_matches_golden_head():
    assert digest(run_async()) == GOLDEN["ROBOTune"]


def test_traced_async_single_worker_matches_golden_head():
    tracer = Tracer(InMemorySink(), meta={"tuner": "ROBOTune-async"})
    result = run_async(tracer=tracer)
    tracer.close()
    assert digest(result) == GOLDEN["ROBOTune"]
