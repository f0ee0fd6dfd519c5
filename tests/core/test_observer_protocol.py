"""Observers do not change the protocol a run executes.

A tracer or the sanitizer stages its records in each superstep's
``GpuStepEffects``, so on ``processes`` the workers run ahead exactly as
in an unobserved run: the parent sends as many pipe messages either way.
Only supervision puts dispatch in lockstep.  The enactor is the tracer's
only owner, so a ``Machine`` reused after a traced run keeps no tracer.
"""

import json
import multiprocessing.connection

import numpy as np
import pytest

from repro.core.supervise import SupervisionConfig
from repro.graph.generators.road import generate_road
from repro.obs import Tracer
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


def _run(graph, sent, machine=None, **kwargs):
    sent[0] = 0
    labels, metrics, _ = run_bfs(graph, machine or Machine(4),
                                 backend="processes:2", **kwargs)
    return labels, metrics, sent[0]


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


def test_supervision_alone_runs_in_lockstep(road, parent_sends):
    _, metrics, plain = _run(road, parent_sends)
    _, _, supervised = _run(road, parent_sends,
                            supervision=SupervisionConfig())
    # one request per worker and superstep
    assert supervised >= 2 * len(metrics.iterations) > plain


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
