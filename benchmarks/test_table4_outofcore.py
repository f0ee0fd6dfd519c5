"""Table IV — comparison with out-of-core GPU and CPU systems.

Paper result: the in-core multi-GPU framework processes the *largest*
graphs those systems report, one to three orders of magnitude faster —
GraphReduce needs 49-162 s where Gunrock needs 0.06-2 s on uk-2002;
Frog and Totem are closer but still behind at equal processor count.

Each row prints our simulated runtime on the stand-in graph beside the
paper's figures.  For GraphReduce and GraphMap the paper gives both
sides' seconds, so those rows also print ours ÷ the paper's Gunrock
time.  For Frog and Totem the repository holds only the paper's
theirs ÷ Gunrock ratio, so those rows are "reported, not reproduced".
"""

import pytest

from conftest import emit_report
from repro.analysis.reporting import render_table
from repro.graph import datasets
from repro.graph.build import add_random_weights
from repro.primitives import RUNNERS
from repro.sim.machine import Machine
from repro.types import ID32_F32

SRC = 1

#: paper seconds, (theirs, Gunrock)
PAPER_GRAPHREDUCE = {"bfs": (49, 0.059), "sssp": (80, 0.76),
                     "cc": (153, 1.85), "pr": (162, 1.99)}
PAPER_GRAPHMAP = {"sssp": (126, 2.20), "cc": (304, 1.71),
                  "pr": (149, 49.7)}
#: paper ratios, theirs ÷ Gunrock
PAPER_FROG = {"bfs": 470, "cc": 17, "pr": 1.6}
PAPER_TOTEM = {"bfs": 8.9, "sssp": 1.6, "bc": 1.6, "pr": 1.2}


def _ours(prim, graph, scale, num_gpus):
    machine = Machine(num_gpus, scale=scale)
    runner = RUNNERS[prim]
    if prim in ("bfs", "sssp", "bc"):
        _, metrics, _ = runner(graph, machine, src=SRC)
    elif prim == "pr":
        # same fixed-iteration convention as the out-of-core systems
        _, metrics, _ = runner(graph, machine, max_iter=30)
    else:
        _, metrics, _ = runner(graph, machine)
    return metrics.elapsed


def _timed_row(label, ours, paper):
    theirs, gunrock = paper
    return [label, f"{ours:.3f}", f"{gunrock}", f"{theirs}",
            f"{theirs / gunrock:.1f}x",
            f"ours ÷ paper {ours / gunrock:.2f}"]


def _ratio_row(label, ours, paper_ratio):
    return [label, f"{ours:.3f}", "", "", f"{paper_ratio}x",
            "reported, not reproduced"]


@pytest.mark.benchmark(group="table4")
def test_table4_outofcore_comparisons(benchmark):
    rows = []

    # --- GraphReduce on uk-2002: {BFS, SSSP, CC, PR} x 1 GPU -------------
    uk = datasets.load("uk-2002")
    uk_scale = datasets.machine_scale("uk-2002")
    ukw = add_random_weights(uk, 1, 64, seed=2)
    for prim in ("bfs", "sssp", "cc", "pr"):
        g = ukw if prim == "sssp" else uk
        ours = _ours(prim, g, uk_scale, 1)
        rows.append(_timed_row(f"GraphReduce {prim} uk-2002 (1 GPU)", ours,
                               PAPER_GRAPHREDUCE[prim]))

    # --- Frog on twitter-rv stand-in -------------------------------------
    tw = datasets.load("twitter-rv")
    tw_scale = datasets.machine_scale("twitter-rv")
    for prim, gpus in (("bfs", 1), ("cc", 3), ("pr", 1)):
        ours = _ours(prim, tw, tw_scale, gpus)
        rows.append(_ratio_row(f"Frog {prim} twitter-rv ({gpus} GPU)", ours,
                               PAPER_FROG[prim]))

    # --- GraphMap (Lee) on twitter-rv: CPU cluster, 4 cores x 21 nodes ---
    # SSSP stores 32-bit edge values on the GPU (paper: ints in [0, 64])
    tw32 = datasets.load("twitter-rv", ids=ID32_F32)
    for prim, gpus in (("sssp", 2), ("cc", 3), ("pr", 1)):
        g = add_random_weights(tw32, 1, 64, seed=2) if prim == "sssp" else tw
        ours = _ours(prim, g, tw_scale, gpus)
        rows.append(_timed_row(f"GraphMap {prim} twitter-rv ({gpus} GPU)",
                               ours, PAPER_GRAPHMAP[prim]))

    # --- Totem on twitter-mpi stand-in (2 GPUs + CPUs vs our 4 GPUs) -----
    tm = datasets.load("twitter-mpi")
    tm_scale = datasets.machine_scale("twitter-mpi")
    tmw = add_random_weights(tm, 1, 64, seed=2)
    for prim in ("bfs", "sssp", "bc", "pr"):
        g = tmw if prim == "sssp" else tm
        ours = _ours(prim, g, tm_scale, 4)
        rows.append(_ratio_row(f"Totem {prim} twitter-mpi (4 GPU)", ours,
                               PAPER_TOTEM[prim]))

    emit_report(
        "table4_outofcore",
        render_table(
            ["comparison", "ours (s)", "paper Gunrock (s)", "paper theirs (s)",
             "paper theirs/Gunrock", "status"],
            rows,
            title="Table IV: out-of-core / CPU-hybrid, ours (simulated) "
            "beside the paper's reported figures",
        ),
    )

    benchmark(lambda: _ours("bfs", uk, uk_scale, 1))
