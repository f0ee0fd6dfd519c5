"""Bit-identity regression for the linear-time keyed kernels.

The dense-domain kernels in ``repro.core.operators.compute`` replaced
every sort / hash / whole-list ``ufunc.at`` idiom on the superstep hot
path.  They are pure wall-clock optimizations: result arrays and the
whole ``RunMetrics.to_dict()`` tree must equal what the sorting
formulations produced.  ``kernel_digests.json`` holds SHA-256 digests
captured from the commit *before* the kernels landed (319d4fe);
running this file as a script regenerates it from whatever ``repro`` is
on ``PYTHONPATH``::

    PYTHONPATH=<checkout>/src python tests/core/test_kernel_bit_identity.py

Six primitives x {1, 4} GPUs x {serial, processes:2} x predecessor
marking on/off where the primitive has it, on a small R-MAT and a small
road grid.

The ``rmat64/...`` cases (BFS, CC, SSSP) run the same R-MAT with 64-bit
vertex IDs and offsets, the ID-size row of the paper's Table V: a slice
array allocated at a fixed width instead of the graph's ``IdConfig``
changes ``RunMetrics.peak_memory`` there and nowhere else.  They were
captured from the commit before the static linter was removed
(95bf1e9).

The ``dobfs+preds`` cases digest DOBFS's predecessors beside its
labels; their digests were captured from the commit before the push
advance gathered its rows in one compiled call (5edeaa5).

The ``traced/...`` cases (BFS, SSSP, DOBFS at 4 GPUs) add a third
digest over the attached tracer's record stream as the event bus
delivers it — spans and events interleaved, in commit order, with
names, ``vt``, ``dur`` and args — so a change to *when* the enactor
charges the cost model cannot move, drop or reorder a traced op.  They
were captured from the commit before the per-superstep charge ledger
(PR 15, 0bc1a84).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import primitives
from repro.core.enactor import Enactor
from repro.graph.build import add_random_weights
from repro.graph.generators import generate_rmat, generate_road
from repro.obs import EventBus, Tracer
from repro.partition import make_partitioner
from repro.sim import FixedPrealloc, Machine
from repro.types import IdConfig

DIGEST_FILE = Path(__file__).with_name("kernel_digests.json")
BACKENDS = ("serial", "processes:2")

#: variant -> (problem class, iteration class, problem kwargs,
#:             enact kwargs, result accessors, enactor kwargs)
VARIANTS = {
    "bfs": (primitives.BFSProblem, primitives.BFSIteration,
            {}, {"src": 3}, ("labels",), {}),
    "bfs+preds": (primitives.BFSProblem, primitives.BFSIteration,
                  {"mark_predecessors": True}, {"src": 3},
                  ("labels", "predecessors"), {}),
    "dobfs": (primitives.DOBFSProblem, primitives.DOBFSIteration,
              {}, {"src": 3}, ("labels",),
              {"overlap_communication": True}),
    "dobfs+preds": (primitives.DOBFSProblem, primitives.DOBFSIteration,
                    {"mark_predecessors": True}, {"src": 3},
                    ("labels", "predecessors"),
                    {"overlap_communication": True}),
    "sssp": (primitives.SSSPProblem, primitives.SSSPIteration,
             {}, {"src": 3}, ("distances",), {}),
    "sssp+preds": (primitives.SSSPProblem, primitives.SSSPIteration,
                   {"mark_predecessors": True}, {"src": 3},
                   ("distances", "predecessors"), {}),
    "cc": (primitives.CCProblem, primitives.CCIteration,
           {}, {}, ("components",), {"fixed": True}),
    "bc": (primitives.BCProblem, primitives.BCIteration,
           {}, {"src": 3}, ("bc_values", "sigmas", "depths"), {}),
    "pr": (primitives.PRProblem, primitives.PRIteration,
           {"max_iter": 12}, {}, ("ranks",), {"fixed": True}),
}
GRAPHS = ("rmat", "road")
#: (graph, variant) pairs digested at every GPU count
CASES = ([(g, v) for g in GRAPHS for v in sorted(VARIANTS)]
         + [("rmat64", v) for v in ("bfs", "cc", "sssp")])
GPU_COUNTS = (1, 4)
TRACED_VARIANTS = ("bfs", "sssp", "dobfs")
#: wall-clock readings and what names the backend, not the run
_UNTRACED_FIELDS = {"wall", "wall_dur", "thread", "backend", "workers"}


def _graphs():
    rmat = generate_rmat(9, 8, seed=11)
    rmat64 = generate_rmat(9, 8, seed=11,
                           ids=IdConfig(np.int64, np.int64))
    road = generate_road(20, 20, seed=5)
    return {
        "rmat": (rmat, add_random_weights(rmat, 1, 64, seed=3)),
        "rmat64": (rmat64, add_random_weights(rmat64, 1, 64, seed=3)),
        "road": (road, add_random_weights(road, 1, 64, seed=3)),
    }


def _digest(arrays, metrics) -> dict:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return {
        "result": h.hexdigest(),
        "metrics": hashlib.sha256(
            json.dumps(metrics.to_dict()).encode()
        ).hexdigest(),
    }


def _stream_digest(records) -> str:
    """Digest of the tracer's record stream, in delivery order."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k not in _UNTRACED_FIELDS}
        return value

    kept = [strip(r) for r in records if r["type"] != "backend.dispatch"]
    return hashlib.sha256(
        json.dumps(kept, sort_keys=True).encode()
    ).hexdigest()


def run_case(graphs, graph_name, variant, num_gpus, backend,
             traced=False) -> dict:
    problem_cls, iteration_cls, pkw, ekw, accessors, opts = VARIANTS[variant]
    plain, weighted = graphs[graph_name]
    graph = weighted if variant.startswith("sssp") else plain
    problem = problem_cls(
        graph, Machine(num_gpus),
        partitioner=make_partitioner("random", seed=5), **pkw,
    )
    opts = dict(opts)
    if opts.pop("fixed", False):
        opts["scheme"] = FixedPrealloc(frontier_factor=1.05)
    records = []
    if traced:
        bus = EventBus()
        bus.subscribe(records.append)
        opts["tracer"] = Tracer(bus=bus)
    with Enactor(problem, iteration_cls, backend=backend, **opts) as enactor:
        metrics = enactor.enact(**ekw)
    digest = _digest([getattr(problem, a)() for a in accessors], metrics)
    if traced:
        digest["trace"] = _stream_digest(records)
    return digest


def case_key(graph_name, variant, num_gpus, traced=False) -> str:
    prefix = "traced/" if traced else ""
    return f"{prefix}{graph_name}/{variant}/{num_gpus}gpu"


@pytest.fixture(scope="module")
def graphs():
    return _graphs()


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGEST_FILE.read_text())


@pytest.mark.parametrize("num_gpus", GPU_COUNTS)
@pytest.mark.parametrize("graph_name,variant", CASES)
def test_equals_parent_commit_digest(graphs, digests, graph_name, variant,
                                     num_gpus):
    want = digests[case_key(graph_name, variant, num_gpus)]
    for backend in BACKENDS:
        got = run_case(graphs, graph_name, variant, num_gpus, backend)
        assert got == want, (backend, got, want)


@pytest.mark.parametrize("variant", TRACED_VARIANTS)
@pytest.mark.parametrize("graph_name", GRAPHS)
def test_traced_stream_equals_parent_commit_digest(graphs, digests,
                                                   graph_name, variant):
    want = digests[case_key(graph_name, variant, 4, traced=True)]
    # tracing is a pure observer: same result and metrics as untraced
    plain = digests[case_key(graph_name, variant, 4)]
    assert {k: want[k] for k in plain} == plain
    for backend in BACKENDS:
        got = run_case(graphs, graph_name, variant, 4, backend, traced=True)
        assert got == want, (backend, got, want)


if __name__ == "__main__":
    all_graphs = _graphs()
    table = {}
    for g, v in CASES:
        for n in GPU_COUNTS:
            per_backend = [
                run_case(all_graphs, g, v, n, b) for b in BACKENDS
            ]
            assert per_backend[0] == per_backend[1], (g, v, n)
            table[case_key(g, v, n)] = per_backend[0]
    for g in GRAPHS:
        for v in TRACED_VARIANTS:
            per_backend = [
                run_case(all_graphs, g, v, 4, b, traced=True)
                for b in BACKENDS
            ]
            assert per_backend[0] == per_backend[1], (g, v)
            table[case_key(g, v, 4, traced=True)] = per_backend[0]
    DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGEST_FILE}")
