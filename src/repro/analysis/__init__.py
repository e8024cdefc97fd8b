"""AST-based invariant linter for the repro codebase (docs/ANALYSIS.md).

The repo's headline guarantee — fixed-seed decision sequences stay
bit-identical across the perf, resilience, and gradient/batch layers — is
enforced end-to-end by the parity tests, but those catch violations only
on exercised paths and long after they are introduced.  This package
moves the underlying invariants from "tested" to "enforced by
construction": a small rule framework walks every module's AST and
rejects constructs that are known to break determinism, parallel safety,
fault discipline, or numerical hygiene, before any test runs.

Rule families (see :mod:`repro.analysis.rules`):

* ``RPD`` — determinism: no global-RNG calls, no wall-clock reads in
  decision paths, no iteration over unordered collections.
* ``RPP`` — parallel safety: workers handed to a pool's ``submit``
  must not mutate shared state, and no wait on them is unbounded.
* ``RPF`` — fault/journal discipline: no blind exception swallowing, no
  file writes that bypass the owned-I/O modules.
* ``RPN`` — numerical hygiene: factorizations stay inside ``gp/`` (which
  owns the jitter retry), no float-literal equality, guarded std
  denominators.
* ``RPA`` — linter hygiene: suppressions must name a rule and carry a
  justification, and must actually match a finding.
* ``RPX`` — whole-program dataflow (:mod:`repro.analysis.flow`): seed
  provenance across module boundaries, thread ownership of engine
  state, tracer names against the typed event catalogs, and file-handle
  lifecycles that span methods.

Per-module rules see one file at a time and cache per content hash;
``RPX`` rules run once per invocation over a project symbol table +
call graph + dataflow summaries and recompute whenever any scanned file
changes.

Run it as ``python -m repro.analysis [paths] [--select/--ignore]
[--format json|sarif] [--cache-dir DIR] [--baseline FILE |
--write-baseline FILE] [--graph]``; suppress a finding inline with
``# repro: noqa RULE-ID -- justification``.
"""

from __future__ import annotations

from .engine import (AnalysisReport, analyze_paths, build_project_for,
                     iter_python_files)
from .findings import Finding
from .registry import (FlowRule, Rule, all_rule_ids, build_rules, register,
                       rule_catalog)

__all__ = [
    "AnalysisReport",
    "Finding",
    "FlowRule",
    "Rule",
    "all_rule_ids",
    "analyze_paths",
    "build_project_for",
    "build_rules",
    "iter_python_files",
    "register",
    "rule_catalog",
]
