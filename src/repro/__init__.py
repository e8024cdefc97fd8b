"""ROBOTune reproduction: high-dimensional configuration tuning for
cluster-based data analytics (Khan & Yu, ICPP 2021).

Quickstart::

    from repro import ROBOTune, WorkloadObjective, get_workload, spark_space

    workload = get_workload("pagerank", "D1")
    objective = WorkloadObjective(workload, spark_space(), rng=0)
    result = ROBOTune(rng=0).tune(objective, budget=100)
    print(result.best_time_s, result.best_config)

Packages
--------
``repro.space``
    Typed parameters and the 44-dimensional Spark tuning space.
``repro.sampling``
    Latin Hypercube (plain and maximin space-filling) and random sampling.
``repro.ml``
    From-scratch trees, forests, linear models, CV, MDA importances.
``repro.gp``
    Gaussian-process regression on one kernel, a scaled Matérn 5/2 plus
    white noise.
``repro.sparksim``
    The discrete-event Spark cluster simulator (evaluation substrate).
``repro.workloads``
    The five SparkBench workloads of Table 1 as stage-DAG models.
``repro.core``
    ROBOTune itself: BO engine, GP-Hedge, parameter selection, memoization.
``repro.tuners``
    The common tuner interface and the BestConfig / Gunther / Random
    Search baselines.
``repro.faults``
    Resilience layer: deterministic transient-fault injection and retry
    policies (docs/ROBUSTNESS.md).
``repro.bench``
    The experiment harness that regenerates every table and figure.
"""

from .core import (
    BOEngine,
    ConfigMemoizationBuffer,
    EvaluationJournal,
    GPHedge,
    MedianGuard,
    ParameterSelectionCache,
    ParameterSelector,
    ROBOTune,
    ROBOTuneResult,
)
from .faults import FaultInjector, FaultPlan, RetryPolicy
from .space import ConfigSpace, ConfigurationEncoder, spark_space
from .sparksim import ExecutionResult, RunStatus, SparkConf, SparkSimulator
from .tuners import (
    BestConfig,
    Gunther,
    RandomSearch,
    TuningResult,
    WorkloadObjective,
)
from .workloads import Dataset, Workload, get_workload

__version__ = "1.0.0"

__all__ = [
    "ROBOTune",
    "ROBOTuneResult",
    "BOEngine",
    "GPHedge",
    "MedianGuard",
    "ParameterSelector",
    "ParameterSelectionCache",
    "ConfigMemoizationBuffer",
    "EvaluationJournal",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "ConfigSpace",
    "ConfigurationEncoder",
    "spark_space",
    "SparkSimulator",
    "SparkConf",
    "ExecutionResult",
    "RunStatus",
    "BestConfig",
    "Gunther",
    "RandomSearch",
    "TuningResult",
    "WorkloadObjective",
    "Dataset",
    "Workload",
    "get_workload",
    "__version__",
]
