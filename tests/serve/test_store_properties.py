"""Hypothesis properties over the durable session store.

Random interleavings of submit/claim/complete/fail/cancel across TWO
handles onto the same store directory (a client and a daemon, or two
daemons) must uphold the store's three core invariants:

* **Never lose a session**: every submitted sid stays visible with a
  legal lifecycle state.
* **Never double-claim**: at most one live claim per session; a second
  handle claiming while the first's lock is live gets nothing.
* **One copy of each fact**: after any operation sequence the store root
  holds only ``sessions/``, and each ``state.json`` only the state and
  its error (the number is the directory name's, the rest the spec's).
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.serve import SessionSpec, SessionStore
from repro.serve.session import TERMINAL_STATES, TRANSITIONS

# Each op: (kind, handle_index, value)
ops = st.lists(
    st.tuples(st.sampled_from(["submit", "claim", "complete", "fail",
                               "cancel", "crash"]),
              st.integers(0, 1), st.integers(0, 9)),
    min_size=1, max_size=30)


def _apply(stores, claims, op):
    kind, h, value = op
    store = stores[h]
    if kind == "submit":
        store.submit(SessionSpec(workload="pagerank", seed=value,
                                 priority=value % 3))
    elif kind == "claim":
        claim = store.claim(f"h{h}")
        if claim is not None:
            claims[h].append(claim)
    elif kind in ("complete", "fail", "crash") and claims[h]:
        claim = claims[h].pop(value % len(claims[h]))
        if kind == "complete":
            store.complete(claim, {"v": value})
        elif kind == "fail":
            store.fail(claim, f"err{value}")
        else:
            # The claim holder dies: the kernel releases its lock, so the
            # RUNNING session is adoptable.
            store.release(claim)
    elif kind == "cancel":
        sessions = store.list_sessions()
        if sessions:
            store.cancel(sessions[value % len(sessions)]["sid"])


@given(ops)
@settings(max_examples=60, deadline=None)
def test_interleavings_uphold_store_invariants(tmp_path_factory, operations):
    root = tmp_path_factory.mktemp("serve-prop") / "store"
    stores = [SessionStore(root), SessionStore(root)]
    claims: list[list] = [[], []]
    submitted = 0
    for op in operations:
        if op[0] == "submit":
            submitted += 1
        _apply(stores, claims, op)

        # Invariant: no session lost, every state legal.
        sessions = stores[0].list_sessions()
        assert len(sessions) == submitted
        for entry in sessions:
            assert entry["state"] in TRANSITIONS
            assert stores[0].state(entry["sid"]) == entry["state"]

        # Invariant: at most one live claim per sid across both handles.
        live = [c.sid for handle in claims for c in handle]
        assert len(live) == len(set(live))
        for handle in claims:
            for claim in handle:
                assert stores[0].lock_holder(claim.sid) is not None

    # Invariant: one copy of each fact, whichever handle wrote it.
    sessions = stores[1].list_sessions()
    assert [s["seq"] for s in sessions] == list(range(submitted))
    if submitted:
        assert [p.name for p in root.iterdir()] == ["sessions"]
    for entry in sessions:
        state = json.loads(
            (stores[1].session_dir(entry["sid"]) / "state.json").read_text())
        assert set(state) == {"state", "error"}
    for h, handle in enumerate(claims):
        for claim in handle:
            stores[h].release(claim)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_terminal_states_are_absorbing(tmp_path_factory, seeds):
    root = tmp_path_factory.mktemp("serve-prop") / "store"
    store = SessionStore(root)
    sids = [store.submit(SessionSpec(workload="pagerank", seed=s))
            for s in seeds]
    while (claim := store.claim()) is not None:
        store.complete(claim, {})
    for sid in sids:
        state = store.state(sid)
        assert state in TERMINAL_STATES
        assert store.cancel(sid) == state  # cancel cannot resurrect
        assert store.state(sid) == state
