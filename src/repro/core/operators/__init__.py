"""Gunrock-style frontier operators: advance, filter, compute, fusion."""

from .advance import advance_pull, advance_push, gather_neighbors
from .compute import (
    compute_op,
    dedup,
    member_mask,
    segment_first,
    segment_reduce_min,
    segment_reduce_sum,
)
from .filter import filter_predicate, filter_unvisited, unique_vertices
from .fused import fused_advance_filter

__all__ = [
    "advance_push",
    "advance_pull",
    "gather_neighbors",
    "filter_predicate",
    "filter_unvisited",
    "unique_vertices",
    "fused_advance_filter",
    "compute_op",
    "dedup",
    "member_mask",
    "segment_reduce_min",
    "segment_reduce_sum",
    "segment_first",
]
