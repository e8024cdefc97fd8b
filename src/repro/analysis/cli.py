"""Command-line entry point: ``python -m repro.analysis``.

Exit codes: 0 clean, 1 active (unsuppressed, unbaselined) findings,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .engine import analyze_paths, build_project_for
from .registry import rule_catalog
from .reporters import render_json, render_sarif, render_text


def _split_ids(values: list[str]) -> list[str]:
    out: list[str] = []
    for value in values:
        out.extend(tok for tok in value.replace(",", " ").split() if tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("AST-based invariant linter: determinism, parallel "
                     "safety, fault discipline, numerical hygiene, and "
                     "whole-program dataflow rules (docs/ANALYSIS.md)"))
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--select", action="append", default=[], metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="IDS",
        help="comma-separated rule ids to skip")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings in text output")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=("content-hash result cache directory; unchanged files skip "
              "per-module rules, an unchanged tree skips the whole-program "
              "phase"))
    parser.add_argument(
        "--graph", action="store_true",
        help=("print the project symbol table / call graph the "
              "whole-program rules run on, instead of linting"))
    snapshot = parser.add_mutually_exclusive_group()
    snapshot.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=("compare against a findings snapshot: findings present in "
              "it are reported but do not fail the run"))
    snapshot.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write a findings snapshot for later --baseline runs and exit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_id, title, rationale in rule_catalog():
            print(f"{rule_id}  {title}")
            print(f"        {rationale}")
        return 0
    select = _split_ids(args.select) or None
    ignore = _split_ids(args.ignore) or None
    if args.graph:
        try:
            project = build_project_for(args.paths)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(project.render())
        return 0
    try:
        report = analyze_paths(args.paths, select=select, ignore=ignore,
                               cache_dir=args.cache_dir,
                               baseline=args.baseline)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline is not None:
        from .baseline import write_baseline
        count = write_baseline(report.findings, args.write_baseline)
        print(f"baseline written: {count} finding"
              f"{'s' if count != 1 else ''} -> {args.write_baseline}")
        return 0
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report, show_suppressed=args.show_suppressed))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
