"""Negative ablation — per-EDGE communication scales poorly.

Section III-B: "We have not seen primitives that require per-edge
communication between GPUs, and argue that any such primitive will scale
poorly based on the large volume and computation workload required."

We test the argument by building a synthetic variant of BFS that, instead
of sending one update per remote border *vertex*, sends one message item
per cut *edge* (as e.g. the 2-D-partition codes effectively do).  The
volume ratio is exactly edge-cut / border-size, and the runtime gap grows
with it.
"""

import numpy as np
import pytest

from conftest import emit_report
from repro.analysis.reporting import render_table
from repro.core.enactor import Enactor
from repro.graph import datasets
from repro.partition.border import border_stats
from repro.primitives.bfs import BFSIteration, BFSProblem
from repro.sim.machine import Machine


class PerEdgeBFSIteration(BFSIteration):
    """BFS that ships one item per discovering *edge*, not per vertex.

    Implemented by disabling the framework's per-vertex dedup benefit:
    the output frontier repeats each discovered remote vertex once per
    incoming edge from this GPU (what a system without the
    border-vertex insight transmits).
    """

    def full_queue_core(self, ctx, frontier):
        from repro.core.operators.advance import advance_push

        labels = ctx.slice["labels"]
        label_val = ctx.iteration + 1
        if frontier.size == 0:
            return np.empty(0, dtype=np.int64), []
        nbrs, _, _, a_stats = advance_push(
            ctx.sub.csr, frontier, ids_bytes=ctx.ids_bytes
        )
        unvisited_mask = labels[nbrs] == -1
        discovered_edges = nbrs[unvisited_mask]  # one entry per edge!
        survivors = np.unique(discovered_edges)
        labels[survivors] = label_val
        # local continuation uses the deduped set, but the *output* that
        # the framework splits/sends carries the per-edge duplicates for
        # remote vertices (we emulate by emitting all duplicates; the
        # local part is deduped again by labels on the next iteration)
        hosted_mask = ctx.sub.is_hosted(discovered_edges)
        out = np.concatenate(
            [survivors[ctx.sub.is_hosted(survivors)],
             discovered_edges[~hosted_mask]]
        )
        return out, [a_stats]


@pytest.mark.benchmark(group="ablation")
def test_per_edge_communication_scales_poorly(benchmark):
    ds = "soc-orkut"
    g = datasets.load(ds)
    scale = datasets.machine_scale(ds)

    rows = []
    results = {}
    for label, iteration_cls in (
        ("per-vertex (ours)", BFSIteration),
        ("per-edge", PerEdgeBFSIteration),
    ):
        machine = Machine(4, scale=scale)
        prob = BFSProblem(g, machine)
        metrics = Enactor(prob, iteration_cls).enact(src=1)
        results[label] = (metrics, prob)
        rows.append(
            [label, f"{metrics.elapsed * 1e3:.3f}",
             metrics.total_items_sent]
        )

    m_vertex, prob_v = results["per-vertex (ours)"]
    m_edge, prob_e = results["per-edge"]
    # both compute the same BFS
    assert np.array_equal(prob_v.labels(), prob_e.labels())

    st = border_stats(g, prob_v.partition)
    rows.append(["(edge cut / border)", "-",
                 f"{st.edge_cut}/{st.total_border}"])
    emit_report(
        "ablation_per_edge_comm",
        render_table(
            ["communication unit", "ms", "items sent (H)"],
            rows,
            title=f"BFS on {ds}, 4 GPUs: per-vertex vs per-edge messages",
        ),
    )

    # the Section III-B argument, measured: per-edge H is several times
    # the border size, and runtime follows
    assert m_edge.total_items_sent > 3 * m_vertex.total_items_sent
    assert m_edge.elapsed > 1.3 * m_vertex.elapsed

    benchmark(lambda: None)
