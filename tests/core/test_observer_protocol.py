"""Observers do not change the protocol a run executes.

A tracer or the sanitizer stages its records in each superstep's
``GpuStepEffects``, so on ``processes`` the workers run ahead exactly as
in an unobserved run: the parent sends as many pipe messages either way.
Observers attached together record what each records alone.  The
enactor is the tracer's only owner, so a ``Machine`` reused after a
traced run keeps no tracer.
"""

import json
import multiprocessing.connection

import numpy as np
import pytest

from repro.graph.generators.road import generate_road
from repro.obs import FlightRecorder, Tracer
from repro.primitives import run_bfs
from repro.sim.machine import Machine


@pytest.fixture(scope="module")
def road():
    # ~57 supersteps of small frontiers: an epoch covers many of them
    return generate_road(64, 64)


@pytest.fixture
def parent_sends(monkeypatch):
    """Counts ``Connection.send`` calls made by this process.  Forked
    workers inherit the patch but count into their own copy."""
    sent = [0]
    send = multiprocessing.connection.Connection.send

    def counting(self, obj):
        sent[0] += 1
        return send(self, obj)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                        counting)
    return sent


def _run(graph, sent, machine=None, backend="processes:2", **kwargs):
    sent[0] = 0
    labels, metrics, _ = run_bfs(graph, machine or Machine(4),
                                 backend=backend, **kwargs)
    return labels, metrics, sent[0]


def _recorded(tracer, recorder):
    """The tracer's stream on the virtual clock and the recorder's
    ring and superstep window."""
    return ([s.key() for s in tracer.spans], tracer.events,
            list(recorder.ring), list(recorder.supersteps))


@pytest.mark.parametrize("observer", ["tracer", "sanitize"])
def test_an_observer_keeps_the_unobserved_protocol(road, parent_sends,
                                                   observer):
    labels, metrics, plain = _run(road, parent_sends)
    kwargs = ({"tracer": Tracer()} if observer == "tracer"
              else {"sanitize": True})
    got, got_m, observed = _run(road, parent_sends, **kwargs)
    assert len(metrics.iterations) > 2 * plain, "no epoch spans supersteps"
    assert observed == plain
    np.testing.assert_array_equal(got, labels)
    if observer == "tracer":
        assert kwargs["tracer"].spans_of("superstep")
    else:
        assert got_m.sanitizer_hazards == []
        got_m.sanitizer_hazards = None  # the one field sanitizing adds
    assert json.dumps(got_m.to_dict()) == json.dumps(metrics.to_dict())


@pytest.mark.parametrize("backend", ["serial", "processes:2"])
def test_every_observer_at_once_records_what_each_does_alone(
    road, parent_sends, backend
):
    labels, metrics, plain = _run(road, parent_sends, backend=backend)
    alone = (Tracer(), FlightRecorder())
    _run(road, parent_sends, backend=backend, tracer=alone[0])
    _run(road, parent_sends, backend=backend, flight_recorder=alone[1])
    _, sanitized, _ = _run(road, parent_sends, backend=backend,
                           sanitize=True)
    together = (Tracer(), FlightRecorder())
    got, got_m, observed = _run(
        road, parent_sends, backend=backend, tracer=together[0],
        flight_recorder=together[1], sanitize=True,
    )
    assert observed == plain
    np.testing.assert_array_equal(got, labels)
    assert together[0].spans_of("superstep") and together[1].supersteps
    assert _recorded(*together) == _recorded(*alone)
    assert got_m.sanitizer_hazards == sanitized.sanitizer_hazards == []
    got_m.sanitizer_hazards = None
    assert json.dumps(got_m.to_dict()) == json.dumps(metrics.to_dict())


@pytest.mark.parametrize("backend", ["serial", "processes:2"])
def test_reused_machine_keeps_no_tracer(road, parent_sends, backend):
    machine = Machine(2)
    tracer = Tracer()
    run_bfs(road, machine, tracer=tracer, backend=backend)
    recorded = (len(tracer.spans), len(tracer.events))
    assert recorded[0] and recorded[1]
    parent_sends[0] = 0
    run_bfs(road, machine, backend=backend)
    assert (len(tracer.spans), len(tracer.events)) == recorded
    if backend != "serial":
        untraced = parent_sends[0]
        parent_sends[0] = 0
        run_bfs(road, Machine(2), backend=backend)
        assert untraced == parent_sends[0]
