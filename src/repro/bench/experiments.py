"""One entry per paper artifact: renders tables/series from study data.

Index (see DESIGN.md §4):

=========  ==================================================================
E-T1       Table 1 — workloads and datasets
E-F2       Figure 2 — model R² comparison (Lasso/ElasticNet/RF/ET)
E-F3       Figure 3 — best-config execution time scaled to Random Search
E-F4       Figure 4 — search cost scaled to Random Search
E-F5       Figure 5 — execution-time distribution (medians, p90 tails)
E-F6       Figure 6 — min-execution-time-per-iteration, cold vs memoized
E-T2       Table 2 — iterations to reach within 1/5/10% of best
E-F7       Figure 7 — parameter-selection recall vs sample count
E-F8       Figure 8 — sampling behaviour in the cores×memory plane
E-F9       Figure 9 — GP response surface over tuning iterations
E-DEF      §5.2 text — tuned vs default-configuration comparison
E-ROB      docs/ROBUSTNESS.md — tuner quality degradation vs transient
           fault rate (not a paper artifact; added with the resilience
           layer)
=========  ==================================================================
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparksim.conf import SparkConf
from ..sparksim.simulator import SparkSimulator
from ..utils.stats import geometric_mean
from .asciiplot import ascii_heatmap, ascii_scatter
from .svgplot import svg_grouped_bars, svg_heatmap, svg_line_chart
from ..workloads.datasets import DATASET_LABELS, SCALE_UNITS, TABLE1
from ..workloads.registry import WORKLOADS, get_workload
from .figures import RecallPoint, response_surface
from .harness import ComparisonStudy, StudyResult
from .reporting import format_table, section

__all__ = [
    "render_table1",
    "render_fig2",
    "render_fig3",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_table2",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "run_default_comparison",
    "run_robustness_experiment",
    "svg_fig3",
    "svg_fig4",
    "svg_fig6",
    "svg_fig9",
]

_ABBREV = {name: cls.abbrev for name, cls in WORKLOADS.items()}


# --------------------------------------------------------------------------- E-T1
def render_table1() -> str:
    """Table 1 plus a sanity simulation of each cell under a sane config."""
    rows = []
    for name, datasets in TABLE1.items():
        scales = ", ".join(f"{d.scale:g}" for d in datasets)
        rows.append((f"{WORKLOADS[name].abbrev} ({name})",
                     f"{scales} ({SCALE_UNITS[name]})"))
    return format_table(["Workload", "Input Datasets (D1, D2, D3)"], rows,
                        title="Table 1: Workloads and their datasets")


# --------------------------------------------------------------------------- E-F2
def render_fig2(scores: dict[str, dict[str, float]]) -> str:
    """Figure 2 from ``{"PR-D1": {"Lasso": r2, ...}, ...}``."""
    models = list(next(iter(scores.values())).keys())
    rows = [[cell] + [scores[cell][m] for m in models] for cell in scores]
    return format_table(["Dataset"] + models, rows,
                        title="Figure 2: cross-validated R² per model "
                              "(higher is better)")


# --------------------------------------------------------------------------- E-F3/F4
def _scaled_table(study: StudyResult, metric: str, title: str,
                  baseline: str = "RandomSearch") -> str:
    tuners = [t for t in ("ROBOTune", "BestConfig", "Gunther", baseline)
              if study.filter(tuner=t)]
    getter = {"best": study.mean_best_time,
              "cost": study.mean_search_cost}[metric]
    rows = []
    ratios: dict[str, list[float]] = {t: [] for t in tuners}
    workloads = sorted({r.workload for r in study.records},
                       key=list(WORKLOADS).index)
    datasets = sorted({r.dataset for r in study.records})
    for wl in workloads:
        for ds in datasets:
            try:
                base = getter(baseline, wl, ds)
            except KeyError:
                continue
            row: list[object] = [f"{_ABBREV[wl]}-{ds}"]
            for t in tuners:
                val = getter(t, wl, ds) / base
                row.append(val)
                ratios[t].append(val)
            rows.append(row)
    gm_row: list[object] = ["geo-mean"]
    gm_row += [geometric_mean(ratios[t]) for t in tuners]
    rows.append(gm_row)
    return format_table(["Workload"] + tuners, rows, title=title)


def render_fig3(study: StudyResult) -> str:
    """Figure 3: execution time of suggested configs scaled to RS
    (lower is better)."""
    return _scaled_table(study, "best",
                         "Figure 3: best-config execution time scaled to "
                         "Random Search (lower is better)")


def render_fig4(study: StudyResult) -> str:
    """Figure 4: search cost scaled to RS (lower is better)."""
    return _scaled_table(study, "cost",
                         "Figure 4: search cost scaled to Random Search "
                         "(lower is better)")


def _ratio_series(study: StudyResult, metric: str,
                  baseline: str = "RandomSearch"):
    """(group labels, {tuner: ratios}) for the bar-chart figures."""
    tuners = [t for t in ("ROBOTune", "BestConfig", "Gunther", baseline)
              if study.filter(tuner=t)]
    getter = {"best": study.mean_best_time,
              "cost": study.mean_search_cost}[metric]
    workloads = sorted({r.workload for r in study.records},
                       key=list(WORKLOADS).index)
    datasets = sorted({r.dataset for r in study.records})
    groups: list[str] = []
    series: dict[str, list[float]] = {t: [] for t in tuners}
    for wl in workloads:
        for ds in datasets:
            try:
                base = getter(baseline, wl, ds)
            except KeyError:
                continue
            groups.append(f"{_ABBREV[wl]}-{ds}")
            for t in tuners:
                series[t].append(getter(t, wl, ds) / base)
    return groups, series


def svg_fig3(study: StudyResult) -> str:
    """Figure 3 as an SVG grouped bar chart."""
    groups, series = _ratio_series(study, "best")
    return svg_grouped_bars(
        groups, series, baseline=1.0,
        title="Figure 3: best-config execution time scaled to Random "
              "Search (lower is better)",
        y_label="time / RandomSearch")


def svg_fig4(study: StudyResult) -> str:
    """Figure 4 as an SVG grouped bar chart."""
    groups, series = _ratio_series(study, "cost")
    return svg_grouped_bars(
        groups, series, baseline=1.0,
        title="Figure 4: search cost scaled to Random Search "
              "(lower is better)",
        y_label="cost / RandomSearch")


def svg_fig6(study: StudyResult, workload: str = "pagerank") -> dict[str, str]:
    """Figure 6 as SVG line charts, one file per dataset."""
    out: dict[str, str] = {}
    for ds in ("D1", "D3"):
        series = {}
        for t in ("ROBOTune", "BestConfig", "Gunther", "RandomSearch"):
            recs = study.filter(tuner=t, workload=workload, dataset=ds)
            if not recs:
                continue
            n = min(len(r.curve) for r in recs)
            mean = np.nanmean(
                np.vstack([np.where(np.isfinite(r.curve[:n]), r.curve[:n],
                                    np.nan) for r in recs]), axis=0)
            series[t] = (np.arange(1, n + 1), mean)
        if series:
            out[f"fig6_{_ABBREV[workload]}_{ds}.svg"] = svg_line_chart(
                series,
                title=f"Figure 6 [{_ABBREV[workload]}-{ds}]: min execution "
                      "time per iteration",
                x_label="iteration", y_label="best time (s)")
    return out


def svg_fig9(result, at_iterations: Sequence[int] = (25, 50, 75)
             ) -> dict[str, str]:
    """Figure 9 as SVG heatmaps, one file per iteration snapshot."""
    surfaces = response_surface(result, at_iterations=at_iterations)
    out: dict[str, str] = {}
    for k, surf in surfaces.items():
        grid = surf["mean"].shape[0]
        pts = surf["points"] * (grid - 1)
        out[f"fig9_iter{k}.svg"] = svg_heatmap(
            surf["mean"], invert=True, points=pts,
            x_labels=[f"{surf['xs'][0]:.0f} cores",
                      f"{surf['xs'][-1]:.0f} cores"],
            y_labels=[f"{surf['ys'][0] / 1024:.0f} GB",
                      f"{surf['ys'][-1] / 1024:.0f} GB"],
            title=f"Figure 9: GP response surface after {k} iterations "
                  "(warm = predicted fast)")
    return out


# --------------------------------------------------------------------------- E-F5
def render_fig5(study: StudyResult,
                workloads: Sequence[str] = ("pagerank", "kmeans")) -> str:
    """Figure 5: distribution of per-evaluation execution time.

    The paper reports medians and the 90th-percentile tail of each tuner's
    sampled-configuration execution times, as multiples of ROBOTune's.
    """
    parts = []
    for wl in workloads:
        base = np.concatenate([r.exec_times
                               for r in study.filter(tuner="ROBOTune",
                                                     workload=wl)])
        if base.size == 0:
            continue
        rows = []
        for t in ("ROBOTune", "BestConfig", "Gunther", "RandomSearch"):
            recs = study.filter(tuner=t, workload=wl)
            if not recs:
                continue
            times = np.concatenate([r.exec_times for r in recs])
            rows.append((t,
                         float(np.median(times)),
                         float(np.median(times) / np.median(base)),
                         float(np.percentile(times, 90)),
                         float(np.percentile(times, 90)
                               / np.percentile(base, 90))))
        parts.append(format_table(
            ["Tuner", "median (s)", "median/ROBOTune", "p90 (s)",
             "p90/ROBOTune"],
            rows,
            title=f"Figure 5 [{_ABBREV[wl]}]: execution-time distribution"))
    return "\n\n".join(parts)


# --------------------------------------------------------------------------- E-F6
def render_fig6(study: StudyResult, workload: str = "pagerank",
                datasets: Sequence[str] = ("D1", "D3"),
                checkpoints: Sequence[int] = (1, 5, 10, 20, 30, 40, 60, 80,
                                              100)) -> str:
    """Figure 6: minimum execution time at each iteration, cold (D1) vs
    memoized (D3), all tuners."""
    parts = []
    for ds in datasets:
        rows = []
        tuners = ("ROBOTune", "BestConfig", "Gunther", "RandomSearch")
        for it in checkpoints:
            row: list[object] = [it]
            for t in tuners:
                recs = study.filter(tuner=t, workload=workload, dataset=ds)
                if not recs:
                    row.append(float("nan"))
                    continue
                vals = [r.curve[min(it, len(r.curve)) - 1] for r in recs]
                finite = [v for v in vals if np.isfinite(v)]
                row.append(float(np.mean(finite)) if finite else float("inf"))
            rows.append(row)
        parts.append(format_table(
            ["iteration"] + list(tuners), rows,
            title=f"Figure 6 [{_ABBREV[workload]}-{ds}]: min execution "
                  f"time (s) by iteration"))
    return "\n\n".join(parts)


# --------------------------------------------------------------------------- E-T2
def iterations_to_within(curve: np.ndarray, fraction: float) -> int | None:
    """First 1-based iteration whose best-so-far is within *fraction* of
    the session's final best."""
    finite = curve[np.isfinite(curve)]
    if finite.size == 0:
        return None
    target = finite.min() * (1.0 + fraction)
    hits = np.nonzero(curve <= target)[0]
    return int(hits[0]) + 1 if hits.size else None


def render_table2(study: StudyResult,
                  fractions: Sequence[float] = (0.01, 0.05, 0.10)) -> str:
    """Table 2: ROBOTune's average iterations to reach within 1/5/10% of
    the best achieved time."""
    rows = []
    workloads = sorted({r.workload for r in study.records},
                       key=list(WORKLOADS).index)
    for wl in workloads:
        recs = study.filter(tuner="ROBOTune", workload=wl)
        if not recs:
            continue
        row: list[object] = [wl]
        for frac in fractions:
            its = [iterations_to_within(r.curve, frac) for r in recs]
            its = [i for i in its if i is not None]
            row.append(float(np.mean(its)) if its else float("nan"))
        rows.append(row)
    headers = ["Workload"] + [f"Within {f:.0%}" for f in fractions]
    return format_table(headers, rows,
                        title="Table 2: avg iterations to reach within a "
                              "percentage of the best achieved time",
                        float_fmt="{:.0f}")


# --------------------------------------------------------------------------- E-F7
def render_fig7(points_by_workload: dict[str, list[RecallPoint]]) -> str:
    """Figure 7: recall vs number of parameter-selection samples."""
    counts = sorted({p.n_samples for pts in points_by_workload.values()
                     for p in pts}, reverse=True)
    rows = []
    for wl, pts in points_by_workload.items():
        by_n = {p.n_samples: p.recall for p in pts}
        rows.append([_ABBREV.get(wl, wl)] +
                    [by_n.get(n, float("nan")) for n in counts])
    data = np.array([[r[1 + i] for i in range(len(counts))] for r in rows],
                    dtype=float)
    rows.append(["average"] + [float(v) for v in np.nanmean(data, axis=0)])
    return format_table(["Workload"] + [str(n) for n in counts], rows,
                        title="Figure 7: recall of selected parameters vs "
                              "selection-sample count")


# --------------------------------------------------------------------------- E-F8
def render_fig8(study: StudyResult, workload: str = "pagerank",
                dataset: str = "D3") -> str:
    """Figure 8: sampling behaviour in the cores-vs-memory plane.

    The paper shows scatter plots; the textual rendering reports, per
    tuner, how concentrated the sampling is: the fraction of samples
    falling inside the densest 20%x20% cell of the (log-memory, cores)
    plane, plus overall coverage (fraction of a 5x5 grid's cells visited).
    A high densest-cell share with high coverage = exploitation plus
    exploration (ROBOTune); uniform low shares = pure exploration.
    """
    rows = []
    for t in ("ROBOTune", "BestConfig", "Gunther", "RandomSearch"):
        recs = study.filter(tuner=t, workload=workload, dataset=dataset)
        if not recs:
            continue
        pts = np.vstack([r.cores_mem for r in recs])
        cores = pts[:, 0] / 32.0
        logmem = np.log(pts[:, 1] / 1024.0) / np.log(180.0)
        gx = np.clip((cores * 5).astype(int), 0, 4)
        gy = np.clip((logmem * 5).astype(int), 0, 4)
        hist = np.zeros((5, 5))
        np.add.at(hist, (gx, gy), 1)
        densest = float(hist.max() / hist.sum())
        coverage = float((hist > 0).sum() / 25.0)
        rows.append((t, len(pts), densest, coverage))
    table = format_table(
        ["Tuner", "samples", "densest-cell share", "grid coverage"], rows,
        title=f"Figure 8 [{_ABBREV[workload]}-{dataset}]: cores x memory "
              "sampling concentration")
    plots = []
    for t in ("ROBOTune", "RandomSearch"):
        recs = study.filter(tuner=t, workload=workload, dataset=dataset)
        if not recs:
            continue
        pts = np.vstack([r.cores_mem for r in recs])
        plots.append(ascii_scatter(
            pts[:, 0], np.log(pts[:, 1]), width=36, height=12,
            title=f"\n{t} sampling (x = cores, y = log memory):",
            x_label="cores", y_label="log-mem"))
    return table + "\n" + "\n".join(plots)


# --------------------------------------------------------------------------- E-F9
def render_fig9(result, at_iterations: Sequence[int] = (25, 50, 75)) -> str:
    """Figure 9: GP response surface summary at several iterations.

    Prints, per iteration count, where the GP believes the best region is
    (the grid minimizer in native cores/memory units) and the fraction of
    the plane it considers within 20% of that minimum — shrinking values
    show the model sharpening around the promising region.
    """
    surfaces = response_surface(result, at_iterations=at_iterations)
    rows = []
    plots = []
    for k, surf in surfaces.items():
        mean = surf["mean"]
        i, j = np.unravel_index(np.argmin(mean), mean.shape)
        best = float(mean[i, j])
        near = float((mean <= best * 1.2).mean())
        rows.append((k, float(surf["xs"][j]), float(surf["ys"][i] / 1024.0),
                     best, near))
        grid = mean.shape[0]
        pts = surf["points"]
        # Map observed (x, y) unit-ish coordinates onto grid cells.
        xs, ys = surf["xs"], surf["ys"]
        px = np.interp(pts[:, 0], np.linspace(0, 1, grid),
                       np.arange(grid))
        py = np.interp(pts[:, 1], np.linspace(0, 1, grid),
                       np.arange(grid))
        plots.append(ascii_heatmap(
            mean, invert=True, points=np.column_stack([px, py]),
            x_labels=[f"{xs[0]:.0f}c", f"{xs[-1]:.0f}c"],
            y_labels=[f"{ys[0] / 1024:.0f}g", f"{ys[-1] / 1024:.0f}g"],
            title=f"\nGP posterior mean after {k} iterations "
                  "(dense = predicted fast):"))
    table = format_table(
        ["iteration", "best cores", "best memory (GB)",
         "perceived min (s)", "near-optimal area"],
        rows, title="Figure 9: GP perceived response surface over iterations")
    return table + "\n" + "\n".join(plots)


# --------------------------------------------------------------------------- E-DEF
def run_default_comparison(study: StudyResult | None = None, *,
                           simulator: SparkSimulator | None = None,
                           rng: int = 2024) -> str:
    """§5.2: tuned configurations vs the Spark default configuration.

    Defaults run uncapped (the paper reports their raw slowdowns and
    failures); the tuned reference is the mean ROBOTune best time from the
    study when available.
    """
    sim = simulator or SparkSimulator()
    rows = []
    for wl in WORKLOADS:
        for ds in DATASET_LABELS:
            workload = get_workload(wl, ds)
            res = sim.run(workload.build_stages(), SparkConf(), rng=rng)
            tuned: float | None = None
            if study is not None:
                try:
                    tuned = study.mean_best_time("ROBOTune", wl, ds)
                except KeyError:
                    tuned = None
            label = f"{_ABBREV[wl]}-{ds}"
            if not res.ok:
                rows.append((label, res.status.value,
                             float("nan"), tuned if tuned else float("nan"),
                             "default fails: " + res.failure_reason[:40]))
            else:
                speedup = res.duration_s / tuned if tuned else float("nan")
                rows.append((label, "success", res.duration_s,
                             tuned if tuned else float("nan"),
                             f"{speedup:.1f}x speedup" if tuned else "-"))
    return format_table(
        ["Workload", "default status", "default (s)", "tuned (s)", "note"],
        rows, title="§5.2: default configuration vs tuned (uncapped)")


# --------------------------------------------------------------------------- E-ROB
def run_robustness_experiment(*, workload: str = "pagerank",
                              dataset: str = "D1", budget: int = 50,
                              trials: int = 2,
                              fault_rates: Sequence[float] = (0.0, 0.05,
                                                              0.1, 0.2),
                              retries: int = 2,
                              tuners: Sequence[str] = ("ROBOTune",
                                                       "RandomSearch"),
                              base_seed: int = 0) -> str:
    """Tuner quality degradation under transient fault injection.

    Sweeps *fault_rates* over otherwise-identical comparison studies (one
    workload/dataset to keep the cost of the sweep reasonable).  Because
    the fault plan is seeded from the session's grid coordinates and the
    injector always executes the wrapped objective, the underlying
    simulator draws are identical across rates — differences in the
    reported best time are attributable to the faults themselves.

    Reports, per (rate, tuner): the mean best execution time (NaN-mean,
    since an all-failed session records NaN), its degradation relative to
    the same tuner's fault-free mean, the mean search cost (retry backoff
    included), and the total transient failures surfaced / retries spent.
    """
    first: dict[str, float] = {}
    rows = []
    for rate in fault_rates:
        study = ComparisonStudy(budget=budget, trials=trials,
                                workloads=[workload], datasets=[dataset],
                                tuners=list(tuners), fault_rate=rate,
                                retries=retries,
                                base_seed=base_seed).run()
        for tuner in tuners:
            recs = study.filter(tuner=tuner)
            best = float(np.nanmean([r.best_time_s for r in recs]))
            cost = float(np.mean([r.search_cost_s for r in recs]))
            first.setdefault(tuner, best)
            base = first[tuner]
            degr = (best - base) / base * 100.0 if base else float("nan")
            rows.append((f"{rate:.2f}", tuner, best, f"{degr:+.1f}%",
                         cost / 60.0,
                         sum(r.n_transient for r in recs),
                         sum(r.n_retries for r in recs)))
    table = format_table(
        ["fault rate", "tuner", "mean best (s)", "vs fault-free",
         "cost (min)", "transient", "retries"],
        rows,
        title=f"E-ROB: fault-rate sweep ({workload}/{dataset}, "
              f"budget {budget}, {trials} trials, {retries} retries)")
    return section("Robustness: tuning under transient faults") \
        + "\n" + table
