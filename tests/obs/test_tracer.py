"""Tracer mechanics: staging, merge order, rollback, wall stats."""

from types import SimpleNamespace

from repro.core.backend import GpuStepEffects
from repro.obs import COMM_TRACK, EventBus, Tracer
from repro.sim.metrics import RunMetrics


def _open_turn(t, gpu, iteration=0):
    """Open GPU ``gpu``'s turn of ``iteration``; returns its effects."""
    eff = GpuStepEffects(gpu=gpu)
    t.on_superstep_start(gpu, iteration, 0.0, eff.frontier)
    return eff


def _enactor(backend):
    """What ``begin_run`` reads of an enactor: its backend's name."""
    return SimpleNamespace(backend=SimpleNamespace(name=backend))


class TestSpans:
    def test_unstaged_span_commits_immediately(self):
        t = Tracer()
        t.span("op", "advance", 0.0, 1.0, track=0)
        assert len(t.spans) == 1
        assert t.spans[0].key()[:2] == ("op", "advance")

    def test_span_defaults_from_gpu_bracket(self):
        t = Tracer()
        eff = _open_turn(t, 2, 5)
        t.span("op", "filter", 0.0, 1.0)
        staged = t.on_superstep_end(1.0, eff)
        assert not t.spans  # still staged
        t.on_effects(eff, staged)
        (s,) = t.spans_of("op")
        assert s.track == 2 and s.iteration == 5

    def test_comm_track_record(self):
        t = Tracer()
        s = t.span("comm", "send", 1.0, 0.5, track=COMM_TRACK, src=0, dst=1)
        rec = s.to_record()
        assert rec["type"] == "span" and rec["gpu"] == COMM_TRACK
        assert rec["args"] == {"src": 0, "dst": 1}


class TestBarrierMerge:
    def test_merge_is_gpu_index_ordered(self):
        t = Tracer()
        # stage out of order: GPU 3 first, then 0, then 1; the merge
        # commits in GPU-index order
        staged = {}
        for gpu in (3, 0, 1):
            eff = _open_turn(t, gpu)
            t.span("op", f"op{gpu}", 0.0, 1.0)
            staged[gpu] = (eff, t.on_superstep_end(1.0, eff))
        for gpu in sorted(staged):
            t.on_effects(*staged[gpu])
        assert [s.track for s in t.spans_of("op")] == [0, 1, 3]

    def test_drop_staged_discards_and_reopens_bracket(self):
        t = Tracer()
        eff = _open_turn(t, 0)
        t.span("op", "advance", 0.0, 1.0)
        t.instant("recovery.retry", vt=0.5, gpu=0)
        # superstep aborts: its effects, and the records staged in
        # them, are dropped uncommitted
        t.on_superstep_end(1.0, eff)
        assert not t.spans and not t.events
        # recovery instants recorded after the drop commit directly
        t.instant("recovery.rollback", vt=1.0, to_iteration=0)
        assert t.count("recovery.rollback") == 1

    def test_wall_samples_survive_merge(self):
        t = Tracer()
        eff = _open_turn(t, 0)
        t.op_wall_sample("advance", 0.25)
        t.op_wall_sample("advance", 0.25)
        staged = t.on_superstep_end(1.0, eff)
        assert "advance" not in t.op_wall
        t.on_effects(eff, staged)
        assert t.op_wall["advance"] == [2, 0.5]


class TestBusAndViews:
    def test_bus_receives_committed_records_only(self):
        seen = []
        bus = EventBus()
        bus.subscribe(seen.append)
        t = Tracer(bus=bus)
        eff = _open_turn(t, 0)
        t.span("op", "advance", 0.0, 1.0)
        staged = t.on_superstep_end(1.0, eff)
        assert seen == []  # staged, not yet visible
        t.on_effects(eff, staged)
        assert [r["type"] for r in seen] == [
            "superstep.begin", "span", "span", "superstep.end",
        ]
        bus.unsubscribe(seen.append)

    def test_begin_run_closes_a_bracket_left_open(self):
        t = Tracer()
        # a superstep that raised never reached on_superstep_end()
        _open_turn(t, 0)
        t.begin_run(_enactor("serial"),
                    RunMetrics(num_gpus=2, primitive="bfs"))
        assert t.events_of("run.begin")

    def test_begin_run_sets_metadata_and_emits(self):
        t = Tracer()
        t.begin_run(_enactor("processes"),
                    RunMetrics(num_gpus=4, primitive="bfs"))
        assert (t.primitive, t.num_gpus, t.backend) == ("bfs", 4, "processes")
        (e,) = t.events_of("run.begin")
        assert e["vt"] == 0.0 and e["num_gpus"] == 4

    def test_clear_resets_everything(self):
        t = Tracer()
        t.span("op", "advance", 0.0, 1.0, track=0)
        t.instant("barrier", vt=1.0)
        t.op_wall_sample("advance", 0.1)
        t.clear()
        assert not t.spans and not t.events and not t.op_wall
