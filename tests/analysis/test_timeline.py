"""Timeline rendering and busy-fraction analysis, as views of a tracer."""

import pytest

from repro.analysis.timeline import busy_fraction, render_timeline
from repro.core.enactor import Enactor
from repro.obs import COMM_TRACK, Tracer
from repro.primitives import run_dobfs
from repro.primitives.bfs import BFSIteration, BFSProblem
from repro.sim.machine import Machine


def _tracer(num_gpus=1):
    """An empty tracer of a ``num_gpus``-GPU run."""
    t = Tracer()
    t.num_gpus = num_gpus
    return t


def _traced_bfs(graph):
    t = Tracer()
    prob = BFSProblem(graph, Machine(2, scale=512.0))
    Enactor(prob, BFSIteration, tracer=t).enact(src=0)
    return t


class TestRendering:
    def test_empty(self):
        assert render_timeline(_tracer()) == "(empty timeline)"

    def test_manual_ops_render(self):
        t = _tracer()
        t.span("op", "k", 0.0, 1.0, track=0)
        out = render_timeline(t, width=10)
        assert "gpu0.compute" in out
        assert "##########" in out  # fully busy
        assert "gpu0.comm" in out
        assert ".........." in out  # fully idle

    def test_partial_busy_marker(self):
        t = _tracer()
        t.span("op", "k", 0.0, 0.05, track=0)
        t.span("comm", "send", 0.0, 1.0, track=COMM_TRACK, src=0, dst=1)
        out = render_timeline(t, width=10)
        compute_row = [l for l in out.splitlines() if "compute" in l][0]
        assert "+" in compute_row or "#" in compute_row
        assert "." in compute_row

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_timeline(_tracer(), width=2)

    def test_real_run(self, small_rmat):
        out = render_timeline(_traced_bfs(small_rmat), width=60)
        assert out.count("gpu") == 4  # 2 GPUs x 2 streams
        assert "#" in out

    def test_clear(self):
        t = _tracer()
        t.span("op", "k", 0.0, 1.0, track=0)
        t.clear()
        assert render_timeline(t) == "(empty timeline)"


class TestBusyFraction:
    def test_fully_busy(self):
        t = _tracer()
        t.span("op", "k", 0.0, 2.0, track=0)
        assert busy_fraction(t)[0] == pytest.approx(1.0)

    def test_idle_stream(self):
        t = _tracer()
        t.span("op", "k", 0.0, 2.0, track=0)
        assert busy_fraction(t, "comm")[0] == 0.0

    def test_multi_gpu_real_run(self, small_rmat):
        fracs = busy_fraction(_traced_bfs(small_rmat))
        assert set(fracs) == {0, 1}
        assert all(0 < f <= 1 for f in fracs.values())

    def test_no_history(self):
        assert busy_fraction(_tracer())[0] == 0.0


def test_processes_run_renders_like_serial(small_rmat):
    """The timeline is read off the tracer's spans, which every backend
    commits in the same order: a ``processes`` run renders exactly as
    the serial one does."""
    views = []
    for backend in ("serial", "processes:2"):
        t = Tracer()
        run_dobfs(small_rmat, Machine(2, scale=512.0), src=0, tracer=t,
                  backend=backend)
        views.append((render_timeline(t, width=60), busy_fraction(t),
                      busy_fraction(t, "comm")))
    assert views[0] == views[1]
    assert "#" in views[0][0]
