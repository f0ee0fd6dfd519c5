"""Section VII-C (last paragraph) — comparison vs Daga et al.'s APU.

Paper result (1 K40 vs the Hybrid++ APU): "Gunrock shows 5 to 10x
performance (TEPS) ... with the exception of the road network, in which
Gunrock's performance and efficiency are only half of Daga's.  Although
the APU provides the GPU with direct access to the main memory, its
overall limited bandwidth bottlenecks its performance."

Each row prints our simulated 1xK40 BFS on the stand-in graph beside
the paper's Gunrock ÷ APU ratio.  The APU's rates are the paper's
reported figures, and the repository holds neither them nor the paper's
own Gunrock rate per graph: every row is "reported, not reproduced".
"""

import pytest

from conftest import emit_report
from repro.analysis.gteps import traversal_gteps
from repro.analysis.reporting import render_table
from repro.graph import datasets
from repro.primitives import run_bfs
from repro.sim.machine import Machine

# the Daga et al. comparison spans 8 usable graphs plus the road network
POWER_LAW = [
    "soc-LiveJournal1",
    "hollywood-2009",
    "soc-orkut",
    "soc-twitter-2010",
    "indochina-2004",
    "uk-2002",
    "rmat_n21_256",
    "coPapersCiteseer",
]
#: paper's Gunrock ÷ APU rate
PAPER_POWER_LAW = "5-10x"
PAPER_ROAD = "0.5x"


def _ours(ds_name):
    g = datasets.load(ds_name)
    scale = datasets.machine_scale(ds_name)
    labels, metrics, _ = run_bfs(g, Machine(1, scale=scale), src=1)
    return metrics.elapsed, traversal_gteps(g, labels, metrics)


@pytest.mark.benchmark(group="sec7c")
def test_sec7c_apu_comparison(benchmark):
    rows = []
    for ds in POWER_LAW + ["road-grid"]:
        seconds, gteps = _ours(ds)
        paper = PAPER_ROAD if ds == "road-grid" else PAPER_POWER_LAW
        rows.append(
            [ds, f"{seconds * 1e3:.3f}", f"{gteps:.2f}", paper,
             "reported, not reproduced"]
        )
    emit_report(
        "sec7c_apu",
        render_table(
            ["graph", "ours K40 ms", "ours GTEPS", "paper Gunrock/APU",
             "status"],
            rows,
            title="Sec VII-C: 1x K40 BFS, ours (simulated) beside the "
            "paper's reported ratio to Hybrid++(APU)",
        ),
    )

    benchmark(lambda: _ours("soc-LiveJournal1"))
