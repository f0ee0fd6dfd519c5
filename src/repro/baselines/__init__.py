"""Serial reference oracles that every primitive is validated against.

The prior systems of the paper's Tables III and IV appear only as the
figures the paper reports (``benchmarks/test_table3_incore.py``,
``benchmarks/test_table4_outofcore.py``); nothing here models them.
"""

from .reference import (
    bc_reference,
    bfs_reference,
    cc_reference,
    pagerank_reference,
    sssp_reference,
)

__all__ = [
    "bfs_reference",
    "sssp_reference",
    "cc_reference",
    "bc_reference",
    "pagerank_reference",
]
