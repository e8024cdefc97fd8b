"""Experiment harness regenerating every table and figure of the paper."""

from .experiments import (
    iterations_to_within,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_fig9,
    render_table1,
    render_table2,
    run_default_comparison,
)
from .figures import (
    FIG2_MODELS,
    collect_lhs_times,
    model_r2_scores,
    response_surface,
    selection_recall_sweep,
)
from .asciiplot import ascii_heatmap, ascii_scatter
from .harness import TUNER_NAMES, ComparisonStudy, SessionRecord, StudyResult
from .reporting import format_table, section

__all__ = [
    "ComparisonStudy",
    "StudyResult",
    "SessionRecord",
    "TUNER_NAMES",
    "render_table1",
    "render_fig2",
    "render_fig3",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_table2",
    "run_default_comparison",
    "iterations_to_within",
    "FIG2_MODELS",
    "collect_lhs_times",
    "model_r2_scores",
    "selection_recall_sweep",
    "response_surface",
    "format_table",
    "section",
    "ascii_heatmap",
    "ascii_scatter",
]
