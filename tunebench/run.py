"""Tuning-session benchmark: cold and serve workloads.

    python3 tunebench/run.py --workload cold|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout, in a fresh process per run.  The run
pins the BLAS pools to one thread and unsets ``ROBOTUNE_JOBS``, so every
``n_jobs`` stays serial, in itself and in every process it starts.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics, from traced twins of the run's
sessions whose digests must equal the untraced ones'.  The line before
it records the machine, versions and source tree.  Any failed check
fails the run (exit 1).

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``cold`` — paper-settings ``ROBOTune`` sessions on D1, fresh stores.
* ``serve`` — a closed-loop client of a ``repro serve`` daemon process
  with the shipped defaults, submitting smoke-scale D1 sessions.

Times read in seconds at a reference machine speed (see ``clock.py``);
the env line also carries the raw median session wall time.
``--seconds`` sets the session count: the base counts below measure
about 40 s on a 2-vCPU machine, and scale with it.  The count never
depends on measured time, so a run's quality metrics repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER_METRICS, layer_metrics
from spans import SpanRecorder, dump, load
from stats import geomean, median, percentile, reportable_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for stores, spans and saved digests, inside the checkout.
WORK = ROOT / ".tunebench"

BASE_SECONDS = 40
#: sessions at BASE_SECONDS: one cycle of the Table-1 workloads for
#: cold, two for serve; both give >= 200 BO iterations (80 per cold
#: session, 20 per served one), so decide_ms_p95 has >= 10 beyond it.
BASE_SESSIONS = {"cold": 5, "serve": 10}
#: set-ups timed per run; setup_s is their median.  Serve times as many
#: daemons, the measured one among them.
SETUP_SAMPLES = 5
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")

END_TO_END = {
    "session_s": "s", "session_cpu_s": "s", "decide_ms_p50": "ms",
    "decide_ms_p95": "ms", "sessions_per_hour": "1/h",
    "best_runtime_s": "s", "search_cost_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}
RATIOS = ("store.claim_hit_ratio", "trace_overhead")


class RunError(RuntimeError):
    """The run could not produce a result."""


def session_count(workload: str, seconds: int) -> int:
    base = BASE_SESSIONS[workload]
    return max(base, round(base * seconds / BASE_SECONDS))


def pin_environment() -> None:
    """One compute thread here and in every process started from here.
    Must run before numpy loads."""
    os.environ.pop("ROBOTUNE_JOBS", None)
    os.environ.update({name: "1" for name in BLAS_THREADS})
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))


def run_sessions(args, n: int, work: Path, rec: SpanRecorder | None
                 ) -> dict:
    """The workload's sessions; with *rec* each is paired with a traced
    twin, and set-up is not timed."""
    import sessions  # loads numpy: only after pin_environment
    if args.workload == "serve":
        return sessions.run_serve(args.seed, n, work, rec,
                                  0 if rec else SETUP_SAMPLES - 1)
    out = sessions.run_cold(args.seed, n, rec, 0 if rec else SETUP_SAMPLES)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if rec is not None:
        out["spans"] = dump(rec)
    return out


# -- metrics -------------------------------------------------------------------------
def end_to_end(out: dict) -> dict[str, float]:
    measured = [s for s in out["sessions"] if "wall_s" in s]
    if not measured:
        raise RunError("no session completed")
    walls = [s["wall_s"] for s in measured]
    decide = [g for s in measured for g in s["decide_ms"]]
    if (reportable_percentile(len(decide)) or 0) < 95:
        raise RunError(f"{len(decide)} BO iterations are too few for "
                       "decide_ms_p95")
    # Means, not medians: a run's sessions tune five different workloads,
    # so the median is one session's time and carries its noise alone.
    return {
        "session_s": sum(walls) / len(walls),
        "session_cpu_s": sum(s["cpu_s"] for s in measured) / len(measured),
        "decide_ms_p50": percentile(decide, 50),
        "decide_ms_p95": percentile(decide, 95),
        "sessions_per_hour": out.get("sessions_per_hour",
                                     3600.0 * len(walls) / sum(walls)),
        "best_runtime_s": geomean([s["best_s"] for s in measured]),
        "search_cost_s": sum(s["search_cost_s"] for s in measured)
        / len(measured),
        "setup_s": median(out["setup_s"]),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def per_layer(out: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced twins, and the run's problems."""
    base, twins = out["sessions"], out["traced"]
    problems = []
    if [s.get("digest") for s in twins] != [s.get("digest") for s in base]:
        problems.append("traced session digests differ from the untraced "
                        "ones")
    spans, counters = load(out["spans"])
    sessions = [s for s in spans if s.name == "session"]
    pairs = [(t["wall_s"], u["wall_s"]) for t, u in zip(twins, base)
             if "wall_s" in t and "wall_s" in u]
    if not sessions or not pairs:
        raise RunError("no traced session completed")
    metrics = layer_metrics(spans, counters, sessions,
                            out["spans"].get("waits"))
    metrics["trace_overhead"] = median([t / u - 1.0 for t, u in pairs])
    return {name: metrics[name] for name in PER_LAYER_METRICS}, problems


# -- records -------------------------------------------------------------------------
def source_hash() -> str:
    """Hash of the program and of the benchmark that drives it."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_ticks() -> list[int]:
    """The machine-wide CPU tick counters of /proc/stat; the share of
    steal during a run tells a noisy neighbour from a slow change."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def compare_saved(args, n: int, digests: list, source: str) -> list[str]:
    """Save this run's session digests; fail when an earlier run of the
    same source tree, seed and session count saved different ones."""
    path = WORK / "digests" / f"{args.workload}-seed{args.seed}-n{n}.json"
    problems = []
    if path.exists():
        saved = json.loads(path.read_text())
        if saved["source"] == source and saved["digests"] != digests:
            problems.append("session digests differ from an earlier run of "
                            "this source tree")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": source, "digests": digests}))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BASE_SESSIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=BASE_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    ticks = cpu_ticks()
    n = session_count(args.workload, args.seconds)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = run_sessions(args, n, work,
                           SpanRecorder() if args.trace else None)
        if args.trace:
            metrics, problems = per_layer(out)
            sessions = out["sessions"] + out["traced"]
        else:
            metrics, problems = end_to_end(out), []
            sessions = out["sessions"]
    except RuntimeError as exc:  # RunError, or a set-up that did not start
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ticks = [b - a for a, b in zip(ticks, cpu_ticks())]
    source = source_hash()
    digests = [s.get("digest") for s in out["sessions"]]
    problems += compare_saved(args, n, digests, source)
    failed = sum(bool(s["failures"]) for s in sessions)
    for s in sessions:
        for failure in s["failures"]:
            print(f"FAIL {s['sid']}: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL run: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:6s} {name:26s} {value:14.6g} {unit(name)}")
    env = {"workload": args.workload, "seed": args.seed, "sessions": n,
           "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count(), "machine": platform.machine(),
           "python": platform.python_version(),
           "numpy": sys.modules["numpy"].__version__,
           "scipy": sys.modules["scipy"].__version__,
           **{name: os.environ[name] for name in BLAS_THREADS},
           "steal_share": ticks[7] / max(sum(ticks), 1),
           "raw_session_s": median([s["raw_wall_s"] for s in sessions
                                    if "raw_wall_s" in s] or [0.0]),
           "git_commit": git_commit(), "source_sha256": source,
           "digests": digests}
    print(json.dumps({"env": env}))
    ok = failed == 0 and not problems
    print(json.dumps({
        "correct": ok, "attempted": len(sessions), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()}}))
    return 0 if ok else 1


def unit(name: str) -> str:
    """Unit of a metric: the end-to-end table's, else by its suffix."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name in RATIOS:
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    # A stop request still runs the finally blocks that stop daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_environment()
    raise SystemExit(main())
