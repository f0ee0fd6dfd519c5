"""Satellite 4: deliberately broken primitives trip both engines.

One statically-broken toy primitive violates every lint rule at once and
the linter must flag each by its rule ID; three dynamically-broken BFS
variants must trip each sanitizer hazard class (SAN201/SAN202/SAN203).
"""

import numpy as np
import pytest

from repro.check import lint_source
from repro.core import combine
from repro.core.enactor import Enactor
from repro.graph.generators.rmat import generate_rmat
from repro.primitives.bfs import BFSIteration, BFSProblem
from repro.sim.machine import Machine

BROKEN_SOURCE = '''
"""A toy primitive violating every framework contract at once."""
import numpy as np

from repro.core.iteration import IterationBase
from repro.core.problem import ProblemBase


class BrokenProblem(ProblemBase):
    NUM_VALUE_ASSOCIATES = 1            # REP102: no combiners declared

    def init_data_slice(self, ds, sub):
        ds.allocate("dist", sub.num_vertices, np.float64)   # REP103
        scratch = np.zeros(sub.num_vertices)                # REP105


class BrokenIteration(IterationBase):
    # REP101: no full_queue_core at all

    def expand_incoming(self, ctx):     # REP101: wrong arity
        out = np.empty(ctx.frontier.size)                   # REP105
        for v in ctx.frontier:                              # REP104
            out[v] = 1.0
        self.problem.data_slices[0]["dist"][0] = 0.0        # REP106
        return out, []

    def should_stop(self, iteration, sizes, in_flight):
        import random
        return random.Random().random() < 0.5               # REP115
'''


class TestLinterFlagsBrokenPrimitive:
    @pytest.fixture(scope="class")
    def findings(self):
        return lint_source(BROKEN_SOURCE, "broken.py")

    @pytest.mark.parametrize(
        "rule_id",
        ["REP101", "REP102", "REP103", "REP104", "REP105", "REP106",
         "REP115"],
    )
    def test_rule_fires(self, findings, rule_id):
        assert rule_id in {f.rule_id for f in findings}

    def test_every_finding_is_an_error_with_location(self, findings):
        for f in findings:
            assert f.severity == "error"
            assert f.path == "broken.py" and f.line > 0


class _RaceyProblem(BFSProblem):
    """BFS with an order-DEPENDENT combiner: concurrent replica writes
    are no longer benign and must surface as SAN203."""

    combiners = {"labels": combine.OVERWRITE, "preds": combine.OVERWRITE}


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
        problem = problem_cls(graph, Machine(2))
        metrics = Enactor(problem, iteration_cls, sanitize=True).enact(src=0)
        return metrics.sanitizer_hazards

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
