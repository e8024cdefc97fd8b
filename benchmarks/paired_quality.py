"""Paired tuning-quality comparison between builds of ``repro``.

A change that alters BO decisions must show that tuning quality did not
regress.  This script runs the same ROBOTune sessions (the five Table-1
workloads on dataset D1, paper settings, one session per workload and
seed) on whichever ``repro`` is importable, records each session's
best-so-far curve and CPU time, and compares recorded builds pair by
pair.  Each session is ``repro.serve.run_session`` of
``SessionSpec(workload, "D1", budget, seed)``: the session ``repro tune``
and ``repro submit`` run for those flags.

Run it once per build, pointing ``PYTHONPATH`` at that checkout::

    PYTHONPATH=<parent>/src python benchmarks/paired_quality.py run \\
        --out parent.json
    PYTHONPATH=src python benchmarks/paired_quality.py run --out change.json
    python benchmarks/paired_quality.py compare parent.json change.json

``compare`` takes the reference build first and prints, for every other
build against it:

* the geometric mean of best-found ratios (build / reference) and the
  counts of sessions that found the same, a better or a worse best;
* the worst single-session ratio;
* the median number of evaluations each side needed to get within 5%
  and within 10% of the pair's common best (the better of the two);
* total CPU time relative to the reference.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# One BLAS thread per session process, so CPU times compare like for like.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

WORKLOADS = ("pagerank", "kmeans", "connectedcomponents",
             "logisticregression", "terasort")
FRACTIONS = (0.05, 0.10)


def session(workload: str, seed: int, budget: int) -> dict:
    """One paper-settings session; returns its curve and costs."""
    from repro.serve import SessionSpec, run_session

    spec = SessionSpec(workload, "D1", budget, seed)
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = run_session(spec)
    return {"workload": workload, "seed": seed,
            "best_s": float(result.best_time_s),
            "curve": [float(v) for v in result.best_curve()],
            "cpu_s": time.process_time() - cpu0,
            "wall_s": time.perf_counter() - t0}


def run(args: argparse.Namespace) -> None:
    jobs = [(w, s, args.budget) for s in args.seeds for w in WORKLOADS]
    with ProcessPoolExecutor(max_workers=args.jobs,
                             mp_context=multiprocessing.get_context("spawn")
                             ) as pool:
        sessions = list(pool.map(session, *zip(*jobs)))
    for rec in sessions:
        print(f"{rec['workload']:>20} seed {rec['seed']}: best "
              f"{rec['best_s']:.2f} s, cpu {rec['cpu_s']:.1f} s")
    with open(args.out, "w") as fh:
        json.dump({"budget": args.budget, "sessions": sessions}, fh)


def within(curve: np.ndarray, target: float) -> int:
    """1-based evaluation at which *curve* first reaches *target*
    (``len(curve) + 1`` if it never does)."""
    hits = np.nonzero(curve <= target)[0]
    return int(hits[0]) + 1 if hits.size else len(curve) + 1


def pair_stats(ref: list[dict], other: list[dict]) -> dict:
    """Paired verdict of *other* against the reference sessions."""
    by_key = {(r["workload"], r["seed"]): r for r in ref}
    ratios, steps = [], {f: ([], []) for f in FRACTIONS}
    cpu_ref = cpu_other = 0.0
    for o in other:
        r = by_key[(o["workload"], o["seed"])]
        ratios.append(o["best_s"] / r["best_s"])
        common = min(o["best_s"], r["best_s"])
        for f in FRACTIONS:
            steps[f][0].append(within(np.asarray(r["curve"]),
                                      common * (1 + f)))
            steps[f][1].append(within(np.asarray(o["curve"]),
                                      common * (1 + f)))
        cpu_ref += r["cpu_s"]
        cpu_other += o["cpu_s"]
    ratio = np.asarray(ratios)
    better, worse = int(np.sum(ratio < 1.0)), int(np.sum(ratio > 1.0))
    return {
        "n": len(ratio),
        "geo_mean": float(np.exp(np.mean(np.log(ratio)))),
        "same": len(ratio) - better - worse,
        "better": better,
        "worse": worse,
        "worst": float(ratio.max()),
        "median_steps": {f: (float(np.median(a)), float(np.median(b)))
                         for f, (a, b) in steps.items()},
        "cpu_ratio": cpu_other / cpu_ref,
    }


def compare(args: argparse.Namespace) -> None:
    records = []
    for path in args.files:
        with open(path) as fh:
            records.append(json.load(fh))
    ref = records[0]["sessions"]
    print(f"reference: {args.files[0]}")
    for path, rec in zip(args.files[1:], records[1:]):
        s = pair_stats(ref, rec["sessions"])
        print(f"\n{path}, {s['n']} paired sessions:")
        print(f"  best-found ratio, geometric mean: {s['geo_mean']:.4f} "
              f"({s['same']} same, {s['better']} better, "
              f"{s['worse']} worse; worst {s['worst']:.4f})")
        for f, (a, b) in s["median_steps"].items():
            print(f"  median evaluations to within {f:.0%} of the common "
                  f"best: reference {a:g}, this build {b:g}")
        print(f"  CPU time: {s['cpu_ratio'] - 1:+.1%} against the "
              f"reference")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="record one build's sessions")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p_run.add_argument("--budget", type=int, default=100)
    p_run.add_argument("--jobs", type=int, default=2)
    p_cmp = sub.add_parser("compare", help="reference file first")
    p_cmp.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        run(args)
    else:
        compare(args)


if __name__ == "__main__":
    main(sys.argv[1:])
