"""Hypothesis properties over the durable session store.

Random interleavings of submit/claim/complete/fail/cancel across TWO
handles onto the same store directory (a client and a daemon, or two
daemons) must uphold the store's three core invariants:

* **Never lose a session**: every submitted sid stays visible with a
  legal lifecycle state.
* **Never double-claim**: at most one live claim per session; a second
  handle claiming while the first's lock is live gets nothing.
* **Index round-trips from disk**: after any operation sequence,
  rebuilding the index from the per-session files reproduces the cached
  index exactly (state.json is the truth, index.json only a cache).
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.serve import SessionSpec, SessionStore
from repro.serve.session import TERMINAL_STATES, TRANSITIONS

# Each op: (kind, handle_index, value)
ops = st.lists(
    st.tuples(st.sampled_from(["submit", "claim", "complete", "fail",
                               "cancel", "crash", "lose_index"]),
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
            # The claim holder dies: its lock records a dead pid, so the
            # RUNNING session is adoptable.
            lock = store._lock_path(claim.sid)
            holder = json.loads(lock.read_text())
            holder["pid"] = 2 ** 22 + 1
            lock.write_text(json.dumps(holder))
    elif kind == "cancel":
        sessions = store.list_sessions()
        if sessions:
            store.cancel(sessions[value % len(sessions)]["sid"])
    elif kind == "lose_index":
        (store.root / "index.json").unlink(missing_ok=True)


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

    # Invariant: the cache equals a from-disk rebuild, from either handle.
    assert stores[0].rebuild_index() == stores[0].load_index()
    assert stores[1].rebuild_index() == stores[1].load_index()


@given(ops)
@settings(max_examples=40, deadline=None)
def test_index_cache_loss_never_loses_sessions(tmp_path_factory, operations):
    root = tmp_path_factory.mktemp("serve-prop") / "store"
    stores = [SessionStore(root), SessionStore(root)]
    claims: list[list] = [[], []]
    for op in operations:
        _apply(stores, claims, op)
    before = {s["sid"]: s for s in stores[0].list_sessions()}
    index_path = root / "index.json"
    if index_path.exists():
        index_path.unlink()  # lose the cache entirely
    after = {s["sid"]: s for s in stores[1].list_sessions()}
    assert after == before


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
