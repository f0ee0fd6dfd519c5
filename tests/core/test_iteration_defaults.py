"""IterationBase default hooks and GpuContext plumbing."""

import numpy as np
import pytest

from repro.core.comm import Message
from repro.core.iteration import GpuContext, IterationBase
from repro.core.problem import ProblemBase
from repro.graph.build import from_edges
from repro.partition import build_subgraphs
from repro.partition.base import PartitionResult
from repro.sim.device import K40, VirtualGPU
from repro.sim.kernel import KernelModel
from repro.sim.machine import Machine
from repro.types import ID64


def make_ctx(graph=None, ids=None):
    graph = graph or from_edges(4, [(0, 1), (1, 2)])
    if ids is not None:
        graph = graph.with_ids(ids)
    pr = PartitionResult.from_assignment(
        np.zeros(graph.num_vertices, np.int32), 1
    )
    sub = build_subgraphs(graph, pr, "duplicate-all")[0]
    gpu = VirtualGPU.create(0, K40, 1.0)
    return GpuContext(
        gpu=gpu,
        sub=sub,
        slice=None,
        kernel_model=KernelModel(K40, 1.0),
        fused=True,
        iteration=0,
        num_gpus=1,
    )


class DummyProblem(ProblemBase):
    name = "dummy"

    def reset(self):
        return [np.empty(0, np.int64)]


class TestDefaults:
    def _iteration(self):
        g = from_edges(4, [(0, 1)])
        prob = DummyProblem(g, Machine(1, scale=1.0))
        return IterationBase(prob)

    def test_full_queue_core_abstract(self):
        it = self._iteration()
        with pytest.raises(NotImplementedError):
            it.full_queue_core(make_ctx(), np.array([0]))

    def test_expand_incoming_accepts_all(self):
        it = self._iteration()
        msg = Message(0, 1, np.array([3, 1, 2]))
        verts, stats = it.expand_incoming(make_ctx(), msg)
        assert verts.tolist() == [3, 1, 2]
        assert stats == []

    def test_associate_defaults_empty(self):
        it = self._iteration()
        assert it.vertex_associate_arrays(make_ctx()) == []
        assert it.value_associate_arrays(make_ctx()) == []

    def test_should_stop_default(self):
        it = self._iteration()
        assert it.should_stop(3, [0, 0], 0)
        assert not it.should_stop(3, [1, 0], 0)
        assert not it.should_stop(3, [0, 0], 2)  # mail in flight

    def test_direction_default_empty(self):
        assert self._iteration().direction_of(0) == ""

    def test_max_iterations_large(self):
        assert self._iteration().max_iterations() >= 1000


class TestGpuContext:
    def test_ids_bytes_follows_graph(self):
        assert make_ctx().ids_bytes == 4
        assert make_ctx(ids=ID64).ids_bytes == 8
