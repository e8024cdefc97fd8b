"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``workloads``
    List the Table 1 workloads and datasets.
``tune``
    Run one ROBOTune session on a workload; optionally persist the
    knowledge stores and write the best configuration as a
    ``spark-defaults.conf`` file.
``compare``
    Compare ROBOTune with BestConfig / Gunther / Random Search through
    the paper-figure study harness (:class:`repro.bench.ComparisonStudy`).
``importance``
    Rank parameter groups for a workload (RF + grouped MDA).
``simulate``
    Execute one configuration on the simulated cluster and print the
    per-stage breakdown and bottleneck profile.
``serve``
    Run the tuning-as-a-service daemon over a durable session store.
``submit`` / ``status`` / ``results`` / ``cancel``
    Thin service client verbs against a store directory (``--store``)
    or a live daemon socket (``--socket``) — see docs/SERVING.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import tempfile
import threading
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .bench.harness import TUNER_NAMES, ComparisonStudy
from .bench.reporting import format_table
from .core.journal import EvaluationJournal
from .core.memo import ConfigMemoizationBuffer, ParameterSelectionCache
from .core.selection import ParameterSelector
from .core.warmstart import journal_paths
from .obs import (InMemorySink, JsonlTraceWriter, Tracer, render_aggregate,
                  render_summary, summarize)
from .space.encoder import ConfigurationEncoder
from .space.spark_params import spark_space
from .sparksim.analysis import TraceAnalyzer
from .sparksim.conf import SparkConf
from .sparksim.simulator import SparkSimulator
from .tuners.objective import WorkloadObjective
from .workloads.datasets import DATASET_LABELS, SCALE_UNITS, TABLE1
from .workloads.registry import WORKLOADS, get_workload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ROBOTune reproduction: tune simulated Spark workloads.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list Table 1 workloads and datasets")

    p_tune = sub.add_parser("tune", help="run one ROBOTune session")
    _common(p_tune)
    p_tune.add_argument("--metric", default="time",
                        choices=["time", "core_seconds"],
                        help="objective to minimize")
    p_tune.add_argument("--store-dir", default=None,
                        help="directory for persistent JSON knowledge stores")
    p_tune.add_argument("--emit-conf", default=None, metavar="FILE",
                        help="write the best configuration as "
                             "spark-defaults.conf text")
    _async_workers(p_tune)
    _resilience(p_tune)
    p_tune.add_argument("--warm-start", default=None, metavar="DIR",
                        dest="warm_start",
                        help="fold prior-session evaluation journals from "
                             "DIR into the surrogate before iteration 0 "
                             "(LOCAT-style transfer; journals from other "
                             "datasets of the same workload contribute via "
                             "a normalized-datasize feature) — see "
                             "docs/PERFORMANCE.md")
    p_tune.add_argument("--trace", default=None, metavar="FILE",
                        help="write a structured JSONL trace of the session "
                             "(schema v1 — see docs/OBSERVABILITY.md); the "
                             "file must not already exist")
    p_tune.add_argument("--trace-summary", action="store_true",
                        help="print the per-component fold-up (time "
                             "breakdown, hedge trajectory, guard/memo/fault "
                             "counts) after the run")
    p_tune.add_argument("--journal", default=None, metavar="FILE",
                        help="crash-safe evaluation journal (JSONL); every "
                             "evaluation is journaled as it runs so a "
                             "killed run can be resumed")
    p_tune.add_argument("--resume", action="store_true",
                        help="resume a killed session from --journal "
                             "(bit-identical for the same seed)")
    p_tune.add_argument("--recover", default="redispatch",
                        choices=["redispatch", "censor"],
                        help="what --resume does with evaluations that were "
                             "in flight at the kill point: re-execute them "
                             "(default) or write them off as censored runs")

    p_cmp = sub.add_parser("compare", help="compare the four tuners")
    _common(p_cmp)
    p_cmp.add_argument("--trials", type=int, default=1)
    _async_workers(p_cmp)
    _resilience(p_cmp)
    p_cmp.add_argument("--warm-start", default=None, metavar="DIR",
                       dest="warm_start",
                       help="warm-start every ROBOTune session from the "
                            "evaluation journals in DIR (other tuners are "
                            "unaffected)")
    p_cmp.add_argument("--map-workloads", action="store_true",
                       dest="map_workloads",
                       help="share a signature-based workload mapper across "
                            "the compared workloads: a workload whose probe "
                            "signature matches an earlier one reuses its "
                            "selected parameters instead of paying the full "
                            "selection run (ROBOTune only; probe cost is "
                            "charged to search cost); pass several "
                            "workloads as --workload a,b,c")
    p_cmp.add_argument("--trace", default=None, metavar="DIR",
                       help="write one JSONL trace per session into DIR "
                            "({tuner}-{workload}-{dataset}-trial{n}-"
                            "s{seed}.jsonl)")
    p_cmp.add_argument("--trace-summary", action="store_true",
                       help="print the cross-tuner trace aggregation table "
                            "after the comparison")

    p_imp = sub.add_parser("importance", help="rank parameter importance")
    _common(p_imp)
    p_imp.add_argument("--samples", type=int, default=100)
    p_imp.add_argument("--top", type=int, default=12)

    p_sim = sub.add_parser("simulate", help="run one configuration")
    _common(p_sim)
    p_sim.add_argument("--conf", default=None, metavar="FILE",
                       help="spark-defaults.conf file (default: Spark "
                            "defaults)")
    p_sim.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override single parameters (repeatable)")

    p_srv = sub.add_parser("serve", help="run the tuning service daemon")
    p_srv.add_argument("--store", required=True, metavar="DIR",
                       help="session store directory (created on first use)")
    p_srv.add_argument("--workers", type=int, default=1, metavar="N",
                       help="concurrent session-runner threads (default: 1)")
    p_srv.add_argument("--poll", type=float, default=0.05, metavar="S",
                       help="seconds between an idle worker's full claim "
                            "rescan and queue-depth events (default: 0.05); "
                            "a submission is claimed when the store's index "
                            "changes, and --drain/--max-sessions exit when "
                            "a session settles, without waiting for it")
    p_srv.add_argument("--drain", action="store_true",
                       help="exit once the store holds no runnable session "
                            "(batch mode; default serves until SIGTERM)")
    p_srv.add_argument("--max-sessions", type=int, default=None, metavar="N",
                       dest="max_sessions",
                       help="exit after settling N sessions")
    p_srv.add_argument("--socket", default=None, metavar="ADDR",
                       help='RPC endpoint: "host:port", a unix-socket path, '
                            'or "auto" (ephemeral 127.0.0.1 port); omitted '
                            "= clients reach the store directly")
    p_srv.add_argument("--recover", default="redispatch",
                       choices=["redispatch", "censor"],
                       help="journal recovery mode for sessions adopted "
                            "from a crashed daemon (default re-executes "
                            "in-flight evaluations bit-identically)")
    p_srv.add_argument("--trace", default=None, metavar="FILE",
                       help="write the daemon's serve.* event trace (JSONL; "
                            "per-session traces are always written into the "
                            "session directories unless --no-session-traces)")
    p_srv.add_argument("--no-session-traces", action="store_true",
                       dest="no_session_traces",
                       help="skip the per-session trace-<n>.jsonl files")

    p_sub = sub.add_parser("submit", help="submit a tuning session")
    _common(p_sub)
    p_sub.add_argument("--metric", default="time",
                       choices=["time", "core_seconds"])
    _service_endpoint(p_sub)
    p_sub.add_argument("--priority", type=int, default=0,
                       help="higher runs sooner; ties break by submission "
                            "order")
    p_sub.add_argument("--init-samples", type=int, default=20,
                       dest="init_samples",
                       help="BO training-set size (paper: 20)")
    p_sub.add_argument("--selection-samples", type=int, default=None,
                       dest="selection_samples", metavar="N",
                       help="parameter-selection sample count (default: the "
                            "paper's 100; smaller = faster smoke sessions)")
    p_sub.add_argument("--selection-repeats", type=int, default=None,
                       dest="selection_repeats", metavar="N",
                       help="permutation-importance repeats")
    p_sub.add_argument("--async-workers", type=int, default=0, metavar="K",
                       dest="async_workers",
                       help="asynchronous BO workers inside the session "
                            "(0 = the serial, bit-reproducible loop)")
    _resilience(p_sub)
    p_sub.add_argument("--tag", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="free-form session metadata (repeatable)")
    p_sub.add_argument("--wait", action="store_true",
                       help="block until the session settles and print its "
                            "final state and result digest")
    p_sub.add_argument("--timeout", type=float, default=600.0, metavar="S",
                       help="--wait budget in seconds (default: 600)")

    p_stat = sub.add_parser("status", help="show session state(s)")
    p_stat.add_argument("sid", nargs="?", default=None,
                        help="session id; omitted = list every session")
    _service_endpoint(p_stat)

    p_res = sub.add_parser("results", help="fetch a settled session's result")
    p_res.add_argument("sid")
    _service_endpoint(p_res)

    p_can = sub.add_parser("cancel", help="cancel a session")
    p_can.add_argument("sid")
    _service_endpoint(p_can)
    return parser


def _service_endpoint(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", default=None, metavar="DIR",
                   help="session store directory (requests served in "
                        "this process)")
    p.add_argument("--socket", default=None, metavar="ADDR",
                   help='daemon RPC endpoint: "host:port", a unix-socket '
                        'path, or "auto" (resolve from --store\'s '
                        "daemon.json)")


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="pagerank",
                   help="workload name or abbreviation (PR/KM/CC/LR/TS); "
                        "the compare command also accepts a comma-"
                        "separated list")
    p.add_argument("--dataset", default="D1", choices=list(DATASET_LABELS))
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)


def _async_workers(p: argparse.ArgumentParser) -> None:
    p.add_argument("--async-workers", type=int, default=0, metavar="K",
                   dest="async_workers",
                   help="asynchronous BO worker count (default: 0; 0 and "
                        "1 are the paper's serial loop); K > 1 keeps K "
                        "evaluations in flight with busy-point "
                        "penalization and folds completions in as they "
                        "land — see docs/PERFORMANCE.md")


def _resilience(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", type=float, default=0.0, metavar="RATE",
                   help="transient-fault injection rate per evaluation "
                        "attempt, in [0, 1] (default: 0 = off); see "
                        "docs/ROBUSTNESS.md for the fault taxonomy")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="max retries for transient failures, with "
                        "exponential backoff charged to search cost "
                        "(default: 2; 0 disables retrying)")
    p.add_argument("--eval-timeout", type=float, default=None, metavar="S",
                   dest="eval_timeout",
                   help="supervised execution: hard per-evaluation wall "
                        "clock deadline in seconds; overruns are abandoned "
                        "and charged as censored runs (requires "
                        "--async-workers >= 1) — see docs/ROBUSTNESS.md")
    p.add_argument("--speculate", action="store_true",
                   help="supervised execution: launch a speculative twin "
                        "of a straggling evaluation on an idle worker "
                        "slot; first completion wins (requires "
                        "--eval-timeout)")
    p.add_argument("--quarantine-after", type=int, default=3, metavar="K",
                   dest="quarantine_after",
                   help="strikes (deadline hits or worker deaths) before "
                        "a configuration is quarantined as poison and "
                        "never re-proposed (default: 3; used with "
                        "--eval-timeout)")


def _validate_resilience(args) -> str | None:
    """Fail-fast message for bad resilience flags, or None when valid."""
    if getattr(args, "async_workers", 0) < 0:
        return f"--async-workers must be >= 0, got {args.async_workers}"
    if hasattr(args, "faults") and not 0.0 <= args.faults <= 1.0:
        return f"--faults rate must be in [0, 1], got {args.faults}"
    if hasattr(args, "retries") and args.retries < 0:
        return f"--retries must be >= 0, got {args.retries}"
    if getattr(args, "eval_timeout", None) is not None:
        if args.eval_timeout <= 0:
            return f"--eval-timeout must be positive, got {args.eval_timeout}"
        if getattr(args, "async_workers", 0) < 1:
            return "--eval-timeout requires --async-workers >= 1 " \
                   "(supervision wraps the asynchronous dispatch path)"
    elif getattr(args, "speculate", False):
        return "--speculate requires --eval-timeout S"
    if getattr(args, "quarantine_after", 3) < 1:
        return f"--quarantine-after must be >= 1, got {args.quarantine_after}"
    if getattr(args, "resume", False):
        if not args.journal:
            return "--resume requires --journal FILE"
        if not Path(args.journal).exists():
            return f"--resume requires an existing journal, " \
                   f"none at {args.journal}"
    elif getattr(args, "journal", None) and Path(args.journal).exists() \
            and Path(args.journal).stat().st_size > 0:
        return f"journal {args.journal} already holds a session; " \
               "pass --resume to continue it or remove the file"
    if getattr(args, "warm_start", None):
        try:
            journal_paths(args.warm_start)
        except ValueError as exc:
            return str(exc)
    return None


def _make_tracer(path, summary: bool, meta: dict):
    """Tracer + in-memory sink for --trace/--trace-summary.

    Returns ``(None, None)`` when both flags are off, so callers can pass
    the tracer straight through (``tune(..., tracer=None)`` is the no-op
    default).
    """
    if not path and not summary:
        return None, None
    sinks: list = []
    if path:
        sinks.append(JsonlTraceWriter(path))
    mem = InMemorySink() if summary else None
    if mem is not None:
        sinks.append(mem)
    return Tracer(sinks, meta=meta), mem


# -- commands ----------------------------------------------------------------------
def cmd_workloads(args) -> int:
    rows = [(WORKLOADS[name].abbrev, name,
             ", ".join(f"{d.scale:g}" for d in datasets),
             SCALE_UNITS[name])
            for name, datasets in TABLE1.items()]
    print(format_table(["Abbrev", "Workload", "D1, D2, D3", "Unit"], rows,
                       title="Table 1: workloads and datasets"))
    return 0


def cmd_tune(args) -> int:
    from .serve import SessionSpec
    from .serve.runner import build_objective, build_tuner, drive
    try:
        spec = SessionSpec(
            workload=args.workload, dataset=args.dataset,
            budget=args.budget, seed=args.seed, metric=args.metric,
            fault_rate=args.faults, retries=args.retries,
            async_workers=args.async_workers,
            eval_timeout_s=args.eval_timeout, speculate=args.speculate,
            quarantine_after=args.quarantine_after)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = get_workload(spec.workload, spec.dataset)
    cache = memo = None
    if args.store_dir:
        store = Path(args.store_dir)
        store.mkdir(parents=True, exist_ok=True)
        cache = ParameterSelectionCache(store / "selection_cache.json")
        memo = ConfigMemoizationBuffer(store / "memo_buffer.json")
    try:
        tracer, trace_mem = _make_tracer(
            args.trace, args.trace_summary,
            {"command": "tune", "tuner": "ROBOTune",
             "workload": workload.full_key, "budget": args.budget,
             "seed": args.seed})
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # run_session's steps, called one by one: the faults line below
    # reads the counters of the objective build_objective returns.
    objective = build_objective(spec, tracer=tracer)
    tuner = build_tuner(spec, selection_cache=cache, memo_buffer=memo,
                        warm_start=args.warm_start)
    result = drive(spec, tuner, objective, journal=args.journal,
                   resume=args.resume, recover=args.recover, tracer=tracer)
    if tracer is not None:
        tracer.close()

    print(f"workload:        {workload.full_key}")
    print(f"selection:       {'cache hit' if result.selection_cache_hit else 'cold'}"
          f" ({result.selection_cost_s / 60:.1f} min one-time cost)")
    print(f"selected params: {', '.join(result.selected_parameters)}")
    print(f"evaluations:     {result.n_evaluations} "
          f"(search cost {result.search_cost_s / 60:.1f} min)")
    if args.warm_start:
        print(f"warm start:      {result.warm_start_n} prior evaluation(s) "
              f"from {len(result.warm_start_sources)} journal(s) "
              f"in {args.warm_start}")
    print(f"best objective:  {result.best_time_s:.1f} "
          f"({'s' if args.metric == 'time' else args.metric})")
    if args.faults:
        s = objective.stats
        print(f"faults:          rate {args.faults:g}: {s['injected']} "
              f"injected, {s['transient']} transient failures surfaced, "
              f"{s['retries']} retries (+{s['backoff_s']:.0f}s backoff)")
    if args.eval_timeout is not None:
        print(f"supervised:      deadline {args.eval_timeout:g}s"
              f"{', speculative twins' if args.speculate else ''}; "
              f"{len(result.quarantined_configs)} config(s) quarantined")
    if args.journal:
        n = len(EvaluationJournal(args.journal))
        print(f"journal:         {args.journal} ({n} evaluations"
              f"{', resumed' if args.resume else ''})")
    if args.emit_conf:
        encoder = ConfigurationEncoder(objective.space)
        Path(args.emit_conf).write_text(  # repro: noqa RPF002 -- user-requested spark-defaults.conf export; a one-shot artifact after tuning ends, not evaluation state
            encoder.to_conf_file(result.best_config))
        print(f"best config written to {args.emit_conf}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if trace_mem is not None:
        print()
        print(render_summary(summarize(trace_mem.records)))
    return 0


def cmd_compare(args) -> int:
    workload_names = [w.strip() for w in args.workload.split(",")
                      if w.strip()]
    # --trace-summary alone still needs the study's per-session traces;
    # they go to a directory removed after the fold-up.
    with (tempfile.TemporaryDirectory() if args.trace_summary
          and not args.trace else nullcontext(args.trace)) as trace_dir:
        try:
            study = ComparisonStudy(
                budget=args.budget, trials=args.trials,
                workloads=workload_names, datasets=[args.dataset],
                fault_rate=args.faults, retries=args.retries,
                async_workers=args.async_workers,
                eval_timeout_s=args.eval_timeout, speculate=args.speculate,
                quarantine_after=args.quarantine_after,
                map_workloads=args.map_workloads, warm_start=args.warm_start,
                trace_dir=trace_dir, base_seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            study_result = study.run()
        except FileExistsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        summaries = study_result.trace_summaries() \
            if args.trace_summary else []
    rows = []
    for name in TUNER_NAMES:
        records = study_result.filter(tuner=name)
        bests = [r.best_time_s for r in records]
        rows.append([name, float(np.nanmean(bests)) if not
                     all(np.isnan(bests)) else float("nan"),
                     float(np.mean([r.search_cost_s for r in records]))
                     / 60.0])
    # TUNER_NAMES ends with RandomSearch, the ratios' baseline.
    _, baseline_best, baseline_cost = rows[-1]
    for row in rows:
        row.append(row[1] / baseline_best)
        row.append(row[2] / baseline_cost)
    print(format_table(
        ["Tuner", "best (s)", "cost (min)", "best/RS", "cost/RS"], rows,
        title=f"{','.join(workload_names)}/{args.dataset}, "
              f"budget {args.budget}, {args.trials} trial(s)"))
    if args.trace:
        print(f"traces written to {args.trace}/")
    if summaries:
        print()
        print(render_aggregate(summaries))
    return 0


def cmd_importance(args) -> int:
    space = spark_space()
    workload = get_workload(args.workload, args.dataset)
    objective = WorkloadObjective(workload, space, rng=args.seed)
    selector = ParameterSelector(n_samples=args.samples, rng=args.seed)
    result = selector.select(space, selector.collect(objective, space))
    rows = [(g.group, g.importance, g.std,
             "selected" if g.group in result.selected_groups else "")
            for g in result.importances[: args.top]]
    print(format_table(
        ["Parameter group", "MDA importance", "std", ""], rows,
        title=f"{workload.full_key}: top {args.top} groups "
              f"(OOB R2={result.oob_r2:.2f})", float_fmt="{:.3f}"))
    return 0


def cmd_simulate(args) -> int:
    space = spark_space()
    workload = get_workload(args.workload, args.dataset)
    native: dict = {}
    if args.conf:
        encoder = ConfigurationEncoder(space)
        strings = encoder.parse_conf_file(Path(args.conf).read_text())
        native = _strings_to_native(strings, space)
    for pair in args.set:
        if "=" not in pair:
            print(f"error: --set expects KEY=VALUE, got {pair!r}",
                  file=sys.stderr)
            return 2
        key, value = pair.split("=", 1)
        native[key] = _coerce(space, key, value)
    result = SparkSimulator().run(workload.build_stages(), SparkConf(native),
                                  rng=args.seed)
    print(f"{workload.full_key}: {result.status.value} "
          f"in {result.duration_s:.1f}s")
    if not result.ok:
        print(f"  reason: {result.failure_reason}")
        return 1
    rows = [(s.name, s.duration_s, s.tasks, s.waves, s.gc_factor,
             f"{s.cache_hit_fraction:.0%}")
            for s in result.stages]
    print(format_table(
        ["Stage", "seconds", "tasks", "waves", "gc", "cache hit"], rows))
    print("\n" + TraceAnalyzer().analyze(result).describe())
    return 0


def _service_client(args):
    """Build the client the service verbs share, or an error string."""
    from .serve import ServiceClient
    if args.socket:
        if args.socket == "auto" and not args.store:
            return '--socket auto needs --store DIR to find the daemon'
        try:
            return ServiceClient.for_socket(args.socket,
                                            store_root=args.store)
        except (ConnectionError, ValueError) as exc:
            return str(exc)
    if args.store:
        return ServiceClient.for_store(args.store)
    return "pass --store DIR or --socket ADDR to reach the service"


def cmd_serve(args) -> int:
    from .serve import SessionStore, TuningDaemon
    try:
        tracer, _ = _make_tracer(
            args.trace, False,
            {"command": "serve", "store": str(args.store),
             "workers": args.workers})
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        daemon = TuningDaemon(
            SessionStore(args.store), workers=args.workers,
            poll_s=args.poll, drain=args.drain,
            max_sessions=args.max_sessions, recover=args.recover,
            socket_address=args.socket, tracer=tracer,
            session_traces=not args.no_session_traces)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _stop(signum, frame):  # pragma: no cover - signal path
        daemon.stop()

    # Signal handlers only exist in the main thread; a daemon hosted in
    # a worker thread (tests) is stopped via --max-sessions/--drain.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    print(f"serving {args.store} with {args.workers} worker(s)"
          f"{' (drain mode)' if args.drain else ''}", flush=True)
    settled = daemon.run()
    if tracer is not None:
        tracer.close()
    print(f"daemon exiting: {settled} session(s) settled")
    return 0


def cmd_submit(args) -> int:
    from .serve import SessionSpec
    tags = {}
    for pair in args.tag:
        if "=" not in pair:
            print(f"error: --tag expects KEY=VALUE, got {pair!r}",
                  file=sys.stderr)
            return 2
        key, value = pair.split("=", 1)
        tags[key] = value
    try:
        spec = SessionSpec(
            workload=args.workload, dataset=args.dataset,
            budget=args.budget, seed=args.seed, metric=args.metric,
            priority=args.priority, init_samples=args.init_samples,
            selection_samples=args.selection_samples,
            selection_repeats=args.selection_repeats,
            fault_rate=args.faults, retries=args.retries,
            async_workers=args.async_workers,
            eval_timeout_s=args.eval_timeout, speculate=args.speculate,
            quarantine_after=args.quarantine_after, tags=tags)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = _service_client(args)
    if isinstance(client, str):
        print(f"error: {client}", file=sys.stderr)
        return 2
    sid = client.submit(spec)
    print(sid)
    if not args.wait:
        return 0
    from .serve import ServiceClient, WaitTimeout
    try:
        view = client.wait(sid, timeout_s=args.timeout)
    except WaitTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        # The daemon's socket went away mid-wait (e.g. it hit its
        # --max-sessions cap after claiming our session).  The session
        # itself is durable, so finish the wait against the store when
        # we know where it is.
        if not args.store:
            print(f"error: lost the daemon connection while waiting "
                  f"({exc}); re-run 'repro status {sid}' against the "
                  f"store", file=sys.stderr)
            return 1
        try:
            view = ServiceClient.for_store(args.store).wait(
                sid, timeout_s=args.timeout)
        except WaitTimeout as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"state: {view['state']}")
    result = view.get("result")
    if result is not None:
        print(f"digest: {result['digest']}")
        if result.get("best_objective") is not None:
            print(f"best objective: {result['best_objective']:.1f}")
    if view["state"] == "FAILED" and view.get("error"):
        print(f"error: {view['error']}", file=sys.stderr)
    return 0 if view["state"] == "DONE" else 1


def cmd_status(args) -> int:
    client = _service_client(args)
    if isinstance(client, str):
        print(f"error: {client}", file=sys.stderr)
        return 2
    if args.sid is None:
        try:
            sessions = client.list_sessions()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        rows = [(s["sid"], s["state"], s["workload"], s["dataset"],
                 s["priority"]) for s in sessions]
        print(format_table(
            ["Session", "State", "Workload", "Dataset", "Priority"], rows,
            title=f"{len(sessions)} session(s)"))
        return 0
    try:
        view = client.status(args.sid)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(view, indent=2, sort_keys=True))
    return 0


def cmd_results(args) -> int:
    client = _service_client(args)
    if isinstance(client, str):
        print(f"error: {client}", file=sys.stderr)
        return 2
    try:
        result = client.results(args.sid)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print(f"error: session {args.sid} has no result yet",
              file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_cancel(args) -> int:
    client = _service_client(args)
    if isinstance(client, str):
        print(f"error: {client}", file=sys.stderr)
        return 2
    try:
        state = client.cancel(args.sid)
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(state)
    return 0


def _strings_to_native(strings: dict[str, str], space) -> dict:
    native = {}
    for key, raw in strings.items():
        native[key] = _coerce(space, key, raw)
    return native


def _coerce(space, key: str, raw: str):
    """Parse a config-file string back to a native parameter value."""
    if key not in space:
        raise KeyError(f"unknown Spark parameter {key!r}")
    param = space[key]
    text = raw.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    # Strip a size/time suffix when the parameter carries a unit.
    unit = getattr(param, "unit", None)
    if unit is not None and text.endswith(unit):
        text = text[: -len(unit)]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


_COMMANDS = {
    "workloads": cmd_workloads,
    "tune": cmd_tune,
    "compare": cmd_compare,
    "importance": cmd_importance,
    "simulate": cmd_simulate,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "results": cmd_results,
    "cancel": cmd_cancel,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    # Fail fast on bad resilience flags, before any sampling starts.
    problem = _validate_resilience(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
