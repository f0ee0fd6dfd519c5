"""Acceptance gate: tracing must not change a single observable bit.

A traced run of every primitive must produce results and RunMetrics
bit-identical to an untraced run, on both backends; and because staged
records merge in GPU-index order at barriers, the span stream itself
(virtual-clock identity only — ``Span.key()``) must be identical between
the serial backend and two ``processes`` workers.
"""

import json

import numpy as np
import pytest

from repro.obs import Tracer
from repro.primitives import (
    run_bc,
    run_bfs,
    run_cc,
    run_dobfs,
    run_pagerank,
    run_sssp,
)
from repro.sim.machine import Machine

RUNNERS = {
    "bfs": (run_bfs, {"src": 0}),
    "dobfs": (run_dobfs, {"src": 0}),
    "sssp": (run_sssp, {"src": 0}),
    "cc": (run_cc, {}),
    "bc": (run_bc, {"src": 0}),
    "pr": (run_pagerank, {"max_iter": 30}),
}


def _run(name, graph, num_gpus, tracer=None, **kwargs):
    runner, rkwargs = RUNNERS[name]
    if tracer is not None:
        kwargs["tracer"] = tracer
    result, metrics, _ = runner(graph, Machine(num_gpus), **rkwargs, **kwargs)
    return np.asarray(result), metrics


def _graph_for(name, small_rmat, weighted_rmat):
    return weighted_rmat if name == "sssp" else small_rmat


@pytest.mark.parametrize("primitive", sorted(RUNNERS))
@pytest.mark.parametrize("backend", ["serial", "processes:2"])
def test_traced_run_bit_identical(
    primitive, backend, small_rmat, weighted_rmat
):
    graph = _graph_for(primitive, small_rmat, weighted_rmat)
    r_plain, m_plain = _run(primitive, graph, 2, backend=backend)
    tracer = Tracer()
    r_traced, m_traced = _run(
        primitive, graph, 2, tracer=tracer, backend=backend
    )
    np.testing.assert_array_equal(r_plain, r_traced)
    assert json.dumps(m_plain.to_dict()) == json.dumps(m_traced.to_dict())
    # and the tracer actually recorded the run
    assert tracer.spans_of("superstep")
    assert tracer.spans_of("op")


@pytest.mark.parametrize("primitive", sorted(RUNNERS))
def test_span_stream_backend_invariant(
    primitive, small_rmat, weighted_rmat
):
    graph = _graph_for(primitive, small_rmat, weighted_rmat)
    t_ser, t_prc = Tracer(), Tracer()
    _run(primitive, graph, 4, tracer=t_ser, backend="serial")
    _run(primitive, graph, 4, tracer=t_prc, backend="processes:2")
    assert [s.key() for s in t_ser.spans] == [s.key() for s in t_prc.spans]
    # structured events too, modulo the wall-clock fields some carry
    def strip(events):
        drop = {"wall_dur", "workers", "backend"}
        return [
            {k: v for k, v in e.items() if k not in drop}
            for e in events
            if e.get("type") != "backend.dispatch"
        ]

    assert strip(t_ser.events) == strip(t_prc.events)


def test_superstep_spans_cover_every_iteration(small_rmat):
    tracer = Tracer()
    _, metrics = _run("bfs", small_rmat, 2, tracer=tracer)
    supersteps = tracer.spans_of("superstep")
    # one span per GPU per superstep
    assert len(supersteps) == 2 * metrics.supersteps
    assert {s.iteration for s in supersteps} == set(
        range(metrics.supersteps)
    )
    # virtual timestamps are non-negative and end within the run
    for s in supersteps:
        assert s.vt_start >= 0.0
        assert s.vt_start + s.vt_dur <= metrics.elapsed + 1e-9


def test_sanitize_and_trace_coexist(small_rmat):
    tracer = Tracer()
    _, m = _run("bfs", small_rmat, 2, tracer=tracer, sanitize=True)
    assert m.sanitizer_hazards == []
