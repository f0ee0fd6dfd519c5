"""Every primitive runs hazard-free under the sanitizer.

All six primitives on a small RMAT graph at 1, 2 and 4 virtual GPUs with
``Enactor(sanitize=True)``, and DOBFS once more with predecessors: the
BSP race sanitizer must report zero hazards, and the sanitized run must
not perturb results.
"""

import numpy as np
import pytest

from repro.core.enactor import Enactor
from repro.graph.build import add_random_weights
from repro.graph.generators.rmat import generate_rmat
from repro.primitives.bc import run_bc
from repro.primitives.bfs import run_bfs
from repro.primitives.cc import run_cc
from repro.primitives.dobfs import DOBFSIteration, DOBFSProblem, run_dobfs
from repro.primitives.pr import run_pagerank
from repro.primitives.sssp import run_sssp
from repro.sim.machine import Machine


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(8, 8, seed=3)


@pytest.fixture(scope="module")
def weighted(graph):
    return add_random_weights(graph, 1, 64, seed=2)


def _run_dobfs_preds(graph, machine, **kw):
    """DOBFS with predecessors: ``run_dobfs`` does not mark them, so the
    problem is built here and its predecessors read back directly."""
    problem = DOBFSProblem(graph, machine, mark_predecessors=True)
    with Enactor(problem, DOBFSIteration, overlap_communication=True,
                 **kw) as enactor:
        metrics = enactor.enact(src=0)
    return problem.extract("preds"), metrics, problem


def _runner(name, graph, weighted):
    return {
        "bfs": lambda m, **kw: run_bfs(
            graph, m, src=0, mark_predecessors=True, **kw
        ),
        "dobfs": lambda m, **kw: run_dobfs(graph, m, src=0, **kw),
        "dobfs+preds": lambda m, **kw: _run_dobfs_preds(graph, m, **kw),
        "sssp": lambda m, **kw: run_sssp(weighted, m, src=0, **kw),
        "cc": lambda m, **kw: run_cc(graph, m, **kw),
        "bc": lambda m, **kw: run_bc(graph, m, src=0, **kw),
        "pr": lambda m, **kw: run_pagerank(graph, m, max_iter=20, **kw),
    }[name]


PRIMITIVES = ["bfs", "dobfs", "dobfs+preds", "sssp", "cc", "bc", "pr"]


@pytest.mark.parametrize("num_gpus", [1, 2, 4])
@pytest.mark.parametrize("name", PRIMITIVES)
def test_no_hazards(name, num_gpus, graph, weighted):
    run = _runner(name, graph, weighted)
    _, metrics, _ = run(Machine(num_gpus), sanitize=True)
    hazards = metrics.sanitizer_hazards
    assert hazards is not None, "sanitize=True must attach a report"
    assert hazards == [], "\n".join(h["message"] for h in hazards)


@pytest.mark.parametrize("name", PRIMITIVES)
def test_sanitizer_does_not_perturb_results(name, graph, weighted):
    run = _runner(name, graph, weighted)
    plain, plain_metrics, _ = run(Machine(4))
    shadow, _, _ = run(Machine(4), sanitize=True)
    assert np.array_equal(np.asarray(plain), np.asarray(shadow))
    assert plain_metrics.sanitizer_hazards is None
