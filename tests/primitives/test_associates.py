"""Each primitive declares the associate arrays its hooks hand out.

The enactor sizes a GPU's comm buffers from ``NUM_VERTEX_ASSOCIATES +
NUM_VALUE_ASSOCIATES`` and, when an output frontier is empty, routes it
without calling ``vertex_associate_arrays`` / ``value_associate_arrays``:
the traced package event of an empty route reads the declared count.  So
the declaration must equal what the hooks return, in every state a
primitive communicates from.
"""

import pytest

from repro.core.enactor import Enactor
from repro.primitives import (
    BCIteration,
    BCProblem,
    BFSIteration,
    BFSProblem,
    CCIteration,
    CCProblem,
    DOBFSIteration,
    DOBFSProblem,
    PRIteration,
    PRProblem,
    SSSPIteration,
    SSSPProblem,
)
from repro.primitives.bc import _BACKWARD, _FORWARD
from repro.sim.machine import Machine

CASES = [
    ("bfs", {"mark_predecessors": False}, None),
    ("bfs", {"mark_predecessors": True}, None),
    ("dobfs", {"mark_predecessors": False}, None),
    ("dobfs", {"mark_predecessors": True}, None),
    ("sssp", {"mark_predecessors": False}, None),
    ("sssp", {"mark_predecessors": True}, None),
    ("cc", {}, None),
    ("pr", {}, None),
    ("bc", {}, _FORWARD),
    ("bc", {}, _BACKWARD),
]

PRIMITIVES = {
    "bfs": (BFSProblem, BFSIteration),
    "dobfs": (DOBFSProblem, DOBFSIteration),
    "sssp": (SSSPProblem, SSSPIteration),
    "cc": (CCProblem, CCIteration),
    "pr": (PRProblem, PRIteration),
    "bc": (BCProblem, BCIteration),
}


@pytest.mark.parametrize("name, kwargs, phase", CASES)
def test_declared_associates_equal_the_hooks_lists(
    name, kwargs, phase, small_rmat, weighted_rmat
):
    problem_cls, iteration_cls = PRIMITIVES[name]
    graph = weighted_rmat if name == "sssp" else small_rmat
    problem = problem_cls(graph, Machine(2), **kwargs)
    if phase is not None:
        problem.phase = phase
    with Enactor(problem, iteration_cls) as enactor:
        iteration = iteration_cls(problem)
        for ctx in enactor._contexts:
            va = iteration.vertex_associate_arrays(ctx)
            la = iteration.value_associate_arrays(ctx)
            assert len(va) == problem.NUM_VERTEX_ASSOCIATES
            assert len(la) == problem.NUM_VALUE_ASSOCIATES
        assert enactor._num_associates == len(va) + len(la)
