"""Analysis: GTEPS accounting, BSP decomposition, scaling drivers."""

from .bsp import BspTerms, Table1Row, decompose, table1_check
from .gteps import traversal_gteps, traversed_edges
from .reporting import fmt, render_series, render_table
from .timeline import busy_fraction, render_timeline
from .validate import (
    assert_valid,
    validate_bfs,
    validate_cc,
    validate_pagerank,
    validate_sssp,
)
from .scaling import (
    ScalingPoint,
    geomean_speedups,
    run_speedup_sweep,
    strong_scaling,
    weak_edge_scaling,
    weak_vertex_scaling,
)

__all__ = [
    "BspTerms",
    "decompose",
    "Table1Row",
    "table1_check",
    "traversal_gteps",
    "traversed_edges",
    "render_table",
    "render_series",
    "fmt",
    "ScalingPoint",
    "run_speedup_sweep",
    "geomean_speedups",
    "strong_scaling",
    "weak_edge_scaling",
    "weak_vertex_scaling",
    "validate_bfs",
    "validate_sssp",
    "validate_cc",
    "validate_pagerank",
    "assert_valid",
    "render_timeline",
    "busy_fraction",
]
