"""BSP term mapping and the per-operator hot-spot table."""

from repro.core.backend import GpuStepEffects
from repro.obs import COMM_TRACK, Tracer, profile_rows, render_profile, term_of_span
from repro.primitives import run_bfs
from repro.sim.machine import Machine
from repro.sim.memory import PreallocFusion


class TestTermMapping:
    def test_terms(self):
        t = Tracer()
        cases = [
            (t.span("op", "advance", 0.0, 1.0, track=0), "W"),
            (t.span("op", "compute", 0.0, 1.0, track=0), "W"),
            (t.span("comm", "send", 0.0, 1.0, track=COMM_TRACK), "H"),
            (t.span("op", "split", 0.0, 1.0, track=0), "C"),
            (t.span("op", "package", 0.0, 1.0, track=0), "C"),
            (t.span("op", "unique", 0.0, 1.0, track=0), "C"),
            (t.span("op", "framework", 0.0, 1.0, track=0), "S"),
            (t.span("op", "checkpoint", 0.0, 1.0, track=0), "S"),
        ]
        for span, term in cases:
            assert term_of_span(span) == term, span.name


class TestProfileRows:
    def test_aggregation_and_sort(self):
        t = Tracer()
        t.span("op", "advance", 0.0, 2.0, track=0)
        t.span("op", "advance", 2.0, 2.0, track=1)
        t.span("op", "filter", 0.0, 1.0, track=0)
        t.span("superstep", "superstep 0", 0.0, 4.0, track=0)  # excluded
        t.op_wall_sample("advance", 0.125)
        rows = profile_rows(t)
        assert [r["op"] for r in rows] == ["advance", "filter"]
        adv = rows[0]
        assert adv["calls"] == 2 and adv["virtual_s"] == 4.0
        assert adv["pct"] == 80.0 and adv["wall_s"] == 0.125

    def test_barrier_sync_row(self):
        t = Tracer()
        t.span("op", "advance", 0.0, 1.0, track=0)
        t.instant("barrier", vt=1.5, iteration=0, sync=0.5)
        t.instant("barrier", vt=3.0, iteration=1, sync=0.5)
        (row,) = [r for r in profile_rows(t) if r["op"] == "barrier(sync)"]
        assert row["term"] == "S" and row["calls"] == 2
        assert row["virtual_s"] == 1.0

    def test_real_run_covers_all_terms(self, small_rmat):
        tracer = Tracer()
        run_bfs(small_rmat, Machine(2), src=0, tracer=tracer)
        terms = {r["term"] for r in profile_rows(tracer)}
        assert terms == {"W", "H", "C", "S"}


class TestRender:
    def test_render_contains_legend_and_ops(self, small_rmat):
        tracer = Tracer()
        run_bfs(small_rmat, Machine(2), src=0, tracer=tracer)
        text = render_profile(tracer)
        assert "bfs per-operator profile" in text
        assert "BSP terms (W + H·g + C + S·l):" in text
        assert "advance" in text and "barrier(sync)" in text


class TestEdgeCases:
    def test_empty_trace_yields_no_rows(self):
        t = Tracer()
        assert profile_rows(t) == []
        # rendering an empty profile must not crash
        assert isinstance(render_profile(t), str)

    def test_single_gpu_run_profiles_without_comm(self, small_rmat):
        tracer = Tracer()
        run_bfs(small_rmat, Machine(1), src=0, tracer=tracer)
        rows = profile_rows(tracer)
        assert rows, "single-GPU run must still produce operator rows"
        terms = {r["term"] for r in rows}
        assert "W" in terms
        # one GPU never sends frontier items to a peer
        assert not any(r["term"] == "H" for r in rows)
        assert sum(r["pct"] for r in rows) == 100.0 or len(rows) == 1

    def test_fused_operator_sampling(self, small_rmat):
        """Fusion collapses advance+filter into one operator row, and
        per-op wall samples aggregate under the fused name."""
        tracer = Tracer()
        run_bfs(small_rmat, Machine(2), src=0, tracer=tracer,
                scheme=PreallocFusion())
        rows = {r["op"]: r for r in profile_rows(tracer)}
        fused = rows["advance+filter(fused)"]
        assert fused["term"] == "W" and fused["calls"] > 0
        # the unfused pipeline stages must not also appear
        assert "advance" not in rows and "filter" not in rows

    def test_fused_wall_samples_aggregate(self):
        t = Tracer()
        t.span("op", "advance+filter(fused)", 0.0, 1.0, track=0)
        t.op_wall_sample("advance+filter(fused)", 0.125)
        t.op_wall_sample("advance+filter(fused)", 0.25)
        (row,) = profile_rows(t)
        assert row["wall_s"] == 0.375

    def test_rollback_drops_staged_spans(self):
        """A superstep aborted mid-flight (rollback) must not leak its
        staged spans into the profile."""
        t = Tracer()
        t.span("op", "advance", 0.0, 1.0, track=0, iteration=0)
        eff = GpuStepEffects(gpu=0)
        t.on_superstep_start(0, 1, 1.0, eff.frontier)
        t.span("op", "advance", 1.0, 5.0)    # staged, then aborted
        t.op_wall_sample("advance", 9.0)     # staged wall sample too
        t.on_superstep_end(6.0, eff)         # ... and never committed
        t.instant("recovery.rollback", vt=1.0, iteration=1)
        (row,) = profile_rows(t)
        assert row["virtual_s"] == 1.0
        assert row["wall_s"] == 0.0
        # the rollback instant, outside any bracket, commits directly
        assert t.count("recovery.rollback") == 1
