"""The sessions each workload runs, and how one run drives them.

``run.py`` imports this module after pinning the BLAS pools to one
thread.  Run as a script it is a set-up probe::

    python3 tunebench/sessions.py SESSIONS

which builds a cold run's sessions as the run itself does, prints
``ready`` and exits; ``run.py`` times it from spawn to that line.

Session lists.  Session *i* tunes Table-1 workload ``i mod 5`` from
seeds fixed by *i*, except that the run's last session (terasort) draws
its tuning seed from ``--seed``, which also orders the sessions.  The
seeds move the reduced dimension and the BO trajectory, and with them
the tuner's think time by up to a half from seed to seed on one
session; fixing all other sessions keeps that out of the run-to-run
spread while the quality metrics still follow ``--seed``.  A cold
session's selection phase and simulator noise stay fixed even then; a
served spec has one seed for everything.

Every session runs through a :class:`clock.ClockedObjective`, so its
times read at the reference speed (see :mod:`clock`).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.core.selection import ParameterSelector
from repro.core.tuner import ROBOTune
from repro.serve import ServiceClient, SessionSpec, evaluation_digest
from repro.space.spark_params import spark_space
from repro.tuners.objective import WorkloadObjective
from repro.workloads.registry import get_workload

import checks
from clock import ClockedObjective, NOMINAL_S, reference_block, \
    scaled_calls, steal_s
from layers import install
from spans import SpanRecorder, dump

HERE = Path(__file__).resolve().parent

TABLE1 = ("pagerank", "kmeans", "connectedcomponents", "logisticregression",
          "terasort")
#: paper settings: 100 selection samples, 150 trees, 10 repeats,
#: 20 initial samples, budget 100 (the ParameterSelector/ROBOTune defaults).
BUDGET = 100
SELECTION_SAMPLES = 100
#: smoke-scale served sessions.
SERVE_SPEC = {"dataset": "D1", "budget": 30, "init_samples": 10,
              "selection_samples": 30, "selection_repeats": 3}
SESSION_TIMEOUT_S = 120.0
#: entropy behind every session's fixed seed.
SEED_BASE = 12


class SetupError(RuntimeError):
    """A set-up probe or a ``repro serve`` process did not come up."""


def session_seed(i: int) -> int:
    return int(np.random.SeedSequence([SEED_BASE, i]).generate_state(1)[0])


def tuning_seed(i: int, n: int, seed: int) -> int:
    if i != n - 1:
        return session_seed(i)
    return int(np.random.SeedSequence([SEED_BASE, i, seed])
               .generate_state(1)[0])


def order(seed: int, n: int) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


def timed_setup(start) -> float:
    """Set-up time of ``start()`` (which returns its own elapsed
    seconds), less steal, at the reference speed measured around it."""
    before, steal = reference_block(), steal_s()
    elapsed = start() - (steal_s() - steal)
    return elapsed * NOMINAL_S * 2 / (before + reference_block())


def session_record(sid: str, log: list, wall: float, cpu: float,
                   steal: float, n_bo: int) -> dict:
    """Wall time, CPU time and think times of a clocked session at the
    reference speed.  *wall* and the machine's *steal* span the
    session; *cpu* is the CPU time its process spent in it.  The time
    it spent not running (*wall* less *cpu* and *steal*) stays as is."""
    speed, gaps = scaled_calls(log)
    cpu_s = (cpu - sum(entry[2] for entry in log)) * speed
    return {"sid": sid, "wall_s": max(0.0, wall - steal - cpu) + cpu_s,
            "raw_wall_s": wall, "cpu_s": cpu_s,
            "decide_ms": [g * 1e3 for g in gaps[len(gaps) - n_bo:]]}


# -- in-process sessions -------------------------------------------------------------
def cold_session(i: int):
    """A paper-settings D1 session with fresh in-memory stores; its
    selection phase and simulator noise are fixed by *i*."""
    seed = session_seed(i)
    objective = WorkloadObjective(get_workload(TABLE1[i % 5], "D1"),
                                  spark_space(), rng=seed)
    return ROBOTune(selector=ParameterSelector(rng=seed), rng=seed), objective


def tune_once(tuner, objective, seed: int, *, rec: SpanRecorder | None,
              sid: str) -> dict:
    log: list = []
    scope = rec.session(sid) if rec is not None else nullcontext()
    steal0, cpu0, t0 = steal_s(), time.process_time(), time.perf_counter()
    with scope:
        result = tuner.tune(ClockedObjective(objective, log), BUDGET,
                            rng=seed)
    wall = time.perf_counter() - t0
    cpu, steal = time.process_time() - cpu0, steal_s() - steal0
    out = session_record(sid, log, wall, cpu, steal,
                         len(result.bo_records))
    out.update(
        best_s=float(result.best_time_s),
        search_cost_s=float(result.search_cost_s),
        digest=evaluation_digest(list(result.selection_evaluations)
                                 + list(result.evaluations)),
        failures=checks.session_checks(result, [ev for *_, ev in log],
                                       budget=BUDGET,
                                       selection=SELECTION_SAMPLES))
    return out


def attempt(sid: str, run) -> dict:
    """One session; an exception fails it instead of the whole run."""
    try:
        return run()
    except Exception as exc:  # reported as the session's failure
        return {"sid": sid, "failures": [f"raised {exc!r}"]}


def traced(rec: SpanRecorder, run):
    """*run* with the layer wrappers installed."""
    patches = install(rec)
    try:
        return run()
    finally:
        patches.restore()


def probe(n: int) -> float:
    """Spawn to ready of a fresh process that imports and builds a cold
    run's sessions, then exits."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "sessions.py"),
                             str(n)], stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.monotonic() - t0
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def run_cold(seed: int, n: int, rec, probes: int) -> dict:
    """Cold sessions; with *rec* each is followed by a traced twin.
    Set-up is timed on *probes* fresh processes."""
    setup = [timed_setup(lambda: probe(n)) for _ in range(probes)]
    built = [cold_session(i) for i in range(n)]
    out: dict = {"setup_s": setup, "sessions": [], "traced": []}
    for i in order(seed, n):
        sid = f"{i}:{TABLE1[i % 5]}/D1"
        out["sessions"].append(attempt(sid, lambda: tune_once(
            *built[i], tuning_seed(i, n, seed), rec=None, sid=sid)))
        if rec is not None:
            out["traced"].append(attempt(sid, lambda: traced(
                rec, lambda: tune_once(*cold_session(i),
                                       tuning_seed(i, n, seed), rec=rec,
                                       sid=sid))))
    return out


# -- served sessions -----------------------------------------------------------------
class Daemon:
    """A ``repro serve`` process on a store directory, shipped defaults.

    The benchmark's launcher starts it, so that every objective call is
    clocked; with *trace* it also installs the layer wrappers.  Its
    clock logs and spans land in ``<store>.json`` when it stops.
    """

    def __init__(self, store: Path, trace: bool = False) -> None:
        self.store = store
        self.report = store.with_suffix(".json")
        self.client = ServiceClient.for_store(store)
        self.proc = None
        self.rusage = None
        self.setup_s = timed_setup(lambda: self._start(trace))

    def _start(self, trace: bool) -> float:
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(self.report),
             str(int(trace)), "serve", "--store", str(self.store)],
            stdout=subprocess.DEVNULL)
        info = self.store / "daemon.json"
        while time.monotonic() < spawned + 60.0:
            if self.proc.poll() is not None:
                raise SetupError(f"daemon exited with {self.proc.returncode}")
            try:
                if json.loads(info.read_text()).get("pid") == self.proc.pid:
                    return time.monotonic() - spawned
            except (FileNotFoundError, json.JSONDecodeError):
                pass
            time.sleep(0.002)
        self.stop()
        raise SetupError("daemon did not register within 60 s")

    def cpu_s(self) -> float:
        """utime + stime of the daemon from /proc."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def session(self, spec: SessionSpec) -> dict:
        """One closed-loop session: submit, wait at the client's default
        poll and fetch the result.  Checks come after the run."""
        steal0, cpu0, t0 = steal_s(), self.cpu_s(), time.monotonic()
        sid = self.client.submit(spec)
        view = self.client.wait(sid, timeout_s=SESSION_TIMEOUT_S)
        t1 = time.monotonic()
        cpu1, steal1 = self.cpu_s(), steal_s()
        return {"sid": sid, "spec": spec, "state": view["state"],
                "result": self.client.results(sid), "window": (t0, t1),
                "cpu_s": cpu1 - cpu0, "steal_s": steal1 - steal0}

    def stop(self, timeout_s: float = 30.0) -> dict:
        """SIGTERM, wait (SIGKILL past *timeout_s*), keep its rusage and
        return its report."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + timeout_s
            while True:
                pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, status, rusage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rusage = rusage
        if not self.report.exists():
            return {}
        return json.loads(self.report.read_text())


def served(daemon: Daemon, raw: dict, clocks: dict) -> dict:
    """A served session's record: its checks, and times only when it
    settled DONE."""
    if "failures" in raw:
        return raw
    spec = raw["spec"]
    failures, best, cost, digest = checks.served_checks(
        spec, raw["state"], raw["result"],
        daemon.store / "sessions" / raw["sid"] / "journal.jsonl")
    out = {"sid": raw["sid"], "digest": digest, "failures": failures}
    if str(spec.seed) not in clocks:
        failures.append("the daemon logged no objective calls")
    elif raw["state"] == "DONE":
        t0, t1 = raw["window"]
        out.update(session_record(
            raw["sid"], clocks[str(spec.seed)], t1 - t0, raw["cpu_s"],
            raw["steal_s"], spec.budget - spec.init_samples),
            best_s=best, search_cost_s=cost)
    return out


def serve_specs(seed: int, n: int) -> list[SessionSpec]:
    return [SessionSpec(workload=TABLE1[i % 5], seed=tuning_seed(i, n, seed),
                        **SERVE_SPEC) for i in range(n)]


def run_serve(seed: int, n: int, work: Path, rec, probes: int) -> dict:
    """Sessions on a daemon with shipped defaults; traced, each also on
    a second, traced daemon, alternately.  Set-up is timed on *probes*
    extra daemons besides the measured one."""
    setup = []
    for k in range(probes):
        daemon = Daemon(work / f"probe-{k}")
        setup.append(daemon.setup_s)
        daemon.stop()
    daemons = [Daemon(work / "store")]
    setup.append(daemons[0].setup_s)
    specs = serve_specs(seed, n)
    plain, twins = [], []
    try:
        if rec is not None:
            daemons.append(Daemon(work / "traced", trace=True))
        for i in order(seed, n):
            sid = f"{i}:{specs[i].workload}/D1"
            plain.append(attempt(sid, lambda: daemons[0].session(specs[i])))
            if rec is not None:
                twins.append(attempt(sid, lambda: traced(
                    rec, lambda: daemons[1].session(specs[i]))))
    finally:
        reports = [daemon.stop() for daemon in daemons]
    out = {"setup_s": setup, "peak_rss_mb":
           daemons[0].rusage.ru_maxrss / 1024.0,
           "sessions": [served(daemons[0], s, reports[0].get("clock", {}))
                        for s in plain],
           "traced": [served(daemons[-1], s, reports[-1].get("clock", {}))
                      for s in twins]}
    done = [s for s in out["sessions"] if "wall_s" in s]
    windows = [s["window"] for s in plain if s.get("state") == "DONE"]
    if done:
        # The client's window, less what rescaling took off its sessions.
        out["sessions_per_hour"] = 3600.0 * len(done) / (
            windows[-1][1] - windows[0][0]
            - sum(s["raw_wall_s"] - s["wall_s"] for s in done))
    if rec is not None:
        out["spans"] = merge_served(rec, reports[1], twins)
    return out


def merge_served(rec: SpanRecorder, daemon: dict, sessions: list[dict]
                 ) -> dict:
    """Client and daemon spans plus one ``session`` span per served
    session (submit to DONE as the client saw it), and the poll waits."""
    client = dump(rec)
    spans = client["spans"] + daemon["spans"]
    counters = dict(client["counters"])
    for name, value in daemon["counters"].items():
        counters[name] = counters.get(name, 0.0) + value
    done = [s for s in sessions if s.get("state") == "DONE"]
    claim_wait = settle_wait = 0.0
    for i, s in enumerate(done):
        t0, t1 = s["window"]
        spans.append({"id": -(i + 1), "name": "session", "start": t0,
                      "end": t1, "parent": None, "session": s["sid"]})
        mine = [x for x in spans if x["session"] == s["sid"]]

        def end(name):
            return max(x["end"] for x in mine if x["name"] == name)
        claim_wait += end("store.claim") - end("store.submit")
        settle_wait += end("client.status") - end("store.settle")
    n = max(len(done), 1)
    return {"spans": spans, "counters": counters,
            "waits": {"claim_wait_s": claim_wait / n,
                      "settle_wait_s": settle_wait / n}}


if __name__ == "__main__":
    for index in range(int(sys.argv[1])):
        cold_session(index)
    print("ready", flush=True)
