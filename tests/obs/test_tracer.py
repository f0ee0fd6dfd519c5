"""Tracer mechanics: staging, merge order, rollback, wall stats."""

from repro.obs import COMM_TRACK, EventBus, Tracer


class TestSpans:
    def test_unstaged_span_commits_immediately(self):
        t = Tracer()
        t.span("op", "advance", 0.0, 1.0, track=0)
        assert len(t.spans) == 1
        assert t.spans[0].key()[:2] == ("op", "advance")

    def test_span_defaults_from_gpu_bracket(self):
        t = Tracer()
        t.begin_gpu(2, 5)
        t.span("op", "filter", 0.0, 1.0)
        staged = t.end_gpu()
        assert not t.spans  # still staged
        t.commit(staged)
        (s,) = t.spans
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
            t.begin_gpu(gpu, 0)
            t.span("op", f"op{gpu}", 0.0, 1.0)
            staged[gpu] = t.end_gpu()
        for gpu in sorted(staged):
            t.commit(staged[gpu])
        assert [s.track for s in t.spans] == [0, 1, 3]

    def test_drop_staged_discards_and_reopens_bracket(self):
        t = Tracer()
        t.begin_gpu(0, 0)
        t.span("op", "advance", 0.0, 1.0)
        t.instant("recovery.retry", vt=0.5, gpu=0)
        # superstep aborts: its effects, and the records staged in
        # them, are dropped uncommitted
        t.end_gpu()
        assert not t.spans and not t.events
        # recovery instants recorded after the drop commit directly
        t.instant("recovery.rollback", vt=1.0, to_iteration=0)
        assert t.count("recovery.rollback") == 1

    def test_wall_samples_survive_merge(self):
        t = Tracer()
        t.begin_gpu(0, 0)
        t.op_wall_sample("advance", 0.25)
        t.op_wall_sample("advance", 0.25)
        staged = t.end_gpu()
        assert "advance" not in t.op_wall
        t.commit(staged)
        assert t.op_wall["advance"] == [2, 0.5]


class TestBusAndViews:
    def test_bus_receives_committed_records_only(self):
        seen = []
        bus = EventBus()
        bus.subscribe(seen.append)
        t = Tracer(bus=bus)
        t.begin_gpu(0, 0)
        t.span("op", "advance", 0.0, 1.0)
        staged = t.end_gpu()
        assert seen == []  # staged, not yet visible
        t.commit(staged)
        assert [r["type"] for r in seen] == ["span"]
        bus.unsubscribe(seen.append)

    def test_begin_run_closes_a_bracket_left_open(self):
        t = Tracer()
        t.begin_gpu(0, 0)  # a superstep that raised never reached end_gpu()
        t.begin_run("bfs", 2)
        assert t.events_of("run.begin")

    def test_begin_run_sets_metadata_and_emits(self):
        t = Tracer()
        t.begin_run("bfs", 4, "processes")
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
