"""End-to-end tests for the superstep interleaving model checker
(``repro.check.deep.modelcheck``): the six-primitive matrix, REP116
findings for peer-slice and payload-view writes, certificate
serialization, and Chrome-trace export of counterexample schedules."""

import json
import pathlib

import pytest

from repro.check.deep import modelcheck_source
from repro.check.deep.modelcheck import MC_CERTIFIED, MC_GPUS, MC_REFUTED
from repro.check.deep.schedules import schedule_trace_to_tracer
from repro.obs.chrome_trace import (
    export_chrome_trace,
    load_chrome_trace,
    validate_chrome_trace,
)

PRIMITIVES = pathlib.Path(__file__).resolve().parents[2] / (
    "src/repro/primitives")

SHIPPED = [
    ("bfs.py", "BFSIteration"),
    ("dobfs.py", "DOBFSIteration"),
    ("cc.py", "CCIteration"),
    ("sssp.py", "SSSPIteration"),
    ("pr.py", "PRIteration"),
    ("bc.py", "BCIteration"),
]


def _check(fname):
    src = (PRIMITIVES / fname).read_text(encoding="utf-8")
    return modelcheck_source(src, str(PRIMITIVES / fname))


class TestPrimitiveMatrix:
    """The paper's BSP contract on the shipped primitives."""

    @pytest.mark.parametrize("fname,cls", SHIPPED)
    def test_certified_with_one_strict_schedule_per_gpu_count(
            self, fname, cls):
        # no shipped hook writes a peer slice or a payload view, so the
        # strict model has nothing to interleave: one schedule per GPU
        # count, and it is the certificate
        findings, certs = _check(fname)
        assert not findings, [f.message for f in findings]
        cert = next(c for c in certs if c.primitive == cls)
        assert cert.status == MC_CERTIFIED
        assert cert.strict_deterministic
        assert cert.counterexample is None
        assert cert.gpus == MC_GPUS
        assert cert.explored["exhausted"]
        assert cert.explored["schedules"] == len(MC_GPUS)

    def test_no_primitive_violates_strict_contract(self):
        for fname, _cls in SHIPPED:
            findings, _ = _check(fname)
            assert not [f for f in findings if f.rule_id == "REP116"], fname


PEER_POKE_SRC = '''
"""doc"""
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase
from repro.core.combine import Combiner


class PokeProblem(ProblemBase):
    combiners = {"state": Combiner("min", commutative=True,
                                   idempotent=True)}


class PokeIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        peer = self.problem.data_slices[1]["state"]
        peer[frontier] = ctx.slice["state"][frontier] + 1
        return frontier, []

    def expand_incoming(self, ctx, msg):
        return msg
'''

PAYLOAD_WRITE_SRC = '''
"""doc"""
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase
from repro.core.combine import Combiner


class ScribbleProblem(ProblemBase):
    combiners = {"state": Combiner("overwrite", commutative=False,
                                   idempotent=False)}


class ScribbleIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        ctx.slice["state"][frontier] = 0
        return frontier, []

    def expand_incoming(self, ctx, msg):
        ctx.slice["state"][msg.vertices] = msg.vertex_associates[0]
        msg.vertex_associates[0][:] = 0

    def vertex_associate_arrays(self, ctx):
        return [ctx.slice["state"]]
'''


class TestStrictDivergence:
    def test_peer_write_is_rep116(self):
        findings, certs = modelcheck_source(PEER_POKE_SRC, "poke.py")
        rep116 = [f for f in findings if f.rule_id == "REP116"]
        assert len(rep116) == 1
        assert rep116[0].severity == "error"
        cert = certs[0]
        assert not cert.strict_deterministic
        assert cert.status == MC_REFUTED

    def test_payload_view_write_is_rep116(self):
        # the merge scribbles on the sender's array through the payload
        # view; with an order-sensitive (overwrite) fold, the delivery
        # order then decides the sender's final state
        findings, certs = modelcheck_source(PAYLOAD_WRITE_SRC,
                                            "scribble.py")
        rep116 = [f for f in findings if f.rule_id == "REP116"]
        assert len(rep116) == 1
        assert "msgwrite" in rep116[0].message
        cert = certs[0]
        assert cert.status == MC_REFUTED
        ce = cert.counterexample
        assert ce["witness"]["final_state"] != ce["divergent"]["final_state"]


class TestCertificateSerialization:
    def test_round_trip(self):
        _, certs = modelcheck_source(PEER_POKE_SRC, "poke.py")
        doc = certs[0].to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["version"] == 2
        assert doc["counterexample"] is not None

    def test_describe_mentions_verdict(self):
        _, certs = _check("cc.py")
        text = certs[0].describe()
        assert "CCIteration" in text and "deterministic" in text


class TestCounterexampleTrace:
    def test_chrome_trace_round_trip(self, tmp_path):
        _, certs = modelcheck_source(PEER_POKE_SRC, "poke.py")
        ce = certs[0].counterexample
        tracer = schedule_trace_to_tracer(
            ce["divergent"], divergent_step=ce["first_divergent_step"])
        out = tmp_path / "poke.trace.json"
        export_chrome_trace(tracer, str(out))
        trace = load_chrome_trace(str(out))
        assert validate_chrome_trace(trace) == []
        names = {ev.get("name") for ev in trace["traceEvents"]}
        assert "mc.divergence" in names
