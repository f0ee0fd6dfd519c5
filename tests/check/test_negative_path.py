"""Deliberately broken BFS runs trip the sanitizer: three
dynamically-broken variants must each raise their hazard class
(SAN201/SAN202/SAN203), with the same report on every backend, and
the tracer attached beside it gets one ``sanitizer.hazard`` instant
per hazard.
"""

import pytest

from repro.core import RunState, combine
from repro.core.enactor import Enactor
from repro.graph.generators.rmat import generate_rmat
from repro.obs import Tracer
from repro.primitives.bfs import BFSIteration, BFSProblem
from repro.sim.machine import Machine


class _RaceyProblem(BFSProblem):
    """BFS with an order-DEPENDENT combiner: concurrent replica writes
    are no longer benign and must surface as SAN203."""

    state = RunState(arrays={"labels": combine.OVERWRITE,
                             "preds": combine.OVERWRITE})


class _PeerWriteIteration(BFSIteration):
    """Mutates another GPU's slice mid-superstep (SAN202)."""

    def full_queue_core(self, ctx, frontier):
        out, stats = super().full_queue_core(ctx, frontier)
        peer = (ctx.gpu.device_id + 1) % self.problem.num_gpus
        if ctx.iteration == 1 and peer != ctx.gpu.device_id:
            self.problem.data_slices[peer]["labels"][0] = 0
        return out, stats


class _PeerReadIteration(BFSIteration):
    """Reads another GPU's slice mid-superstep (SAN201)."""

    def full_queue_core(self, ctx, frontier):
        peer = (ctx.gpu.device_id + 1) % self.problem.num_gpus
        if ctx.iteration == 1 and peer != ctx.gpu.device_id:
            _ = self.problem.data_slices[peer]["labels"][0]
        return super().full_queue_core(ctx, frontier)


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(7, 8, seed=3)


class TestSanitizerFlagsBrokenRuns:
    def _hazards(self, graph, problem_cls, iteration_cls):
        """The serial report, checked equal to the one ``processes:2``
        finds at 4 GPUs, where half of the hazards' GPU turns run in
        the other worker and reach the parent inside its replies."""
        reports = {}
        for backend in ("serial", "processes:2"):
            problem = problem_cls(graph, Machine(4))
            tracer = Tracer()
            with Enactor(problem, iteration_cls, sanitize=True,
                         backend=backend, tracer=tracer) as enactor:
                reports[backend] = enactor.enact(src=0).sanitizer_hazards
            want = [(h["hazard_id"], h["array"], h["superstep"])
                    for h in reports[backend]]
            assert [(e["hazard"], e["array"], e["superstep"])
                    for e in tracer.events_of("sanitizer.hazard")] == want
        assert reports["processes:2"] == reports["serial"]
        return reports["serial"]

    def test_unsafe_concurrent_write_is_san203(self, graph):
        hazards = self._hazards(graph, _RaceyProblem, BFSIteration)
        assert "SAN203" in {h["hazard_id"] for h in hazards}
        conflict = next(h for h in hazards if h["hazard_id"] == "SAN203")
        assert "overwrite" in conflict["message"]

    def test_peer_write_is_san202(self, graph):
        hazards = self._hazards(graph, BFSProblem, _PeerWriteIteration)
        assert "SAN202" in {h["hazard_id"] for h in hazards}

    def test_peer_read_is_san201(self, graph):
        hazards = self._hazards(graph, BFSProblem, _PeerReadIteration)
        assert "SAN201" in {h["hazard_id"] for h in hazards}

    def test_hazard_records_are_json_ready(self, graph):
        import json

        hazards = self._hazards(graph, _RaceyProblem, BFSIteration)
        assert hazards
        for h in hazards:
            json.dumps(h)  # must be plain serializable dicts
            assert h["superstep"] >= 0
            assert len(h["gpus"]) >= 1
