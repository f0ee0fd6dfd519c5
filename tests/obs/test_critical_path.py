"""Critical-path analyzer: reconciliation, slack, and what-ifs.

The acceptance bar for the analyzer is *exact* agreement with the
profiler: both consume the same spans through the same ``term_of_span``
mapping, so the run-level W/H/C/S totals must match with ``==``, not
``pytest.approx``.  The zero-comm counterfactual must never exceed the
serial span sum (one chain can't beat running everything back to back),
which is checked on real runs and property-tested on random traces.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    COMM_TRACK,
    Tracer,
    analyze_trace,
    from_chrome_trace,
    profile_rows,
    render_analysis,
    to_chrome_trace,
    validate_event,
)
from repro.primitives import run_bfs
from repro.sim.machine import Machine

TERMS = ("W", "H", "C", "S")


@pytest.fixture(scope="module")
def traced_run(small_rmat):
    tracer = Tracer()
    labels, metrics, _ = run_bfs(small_rmat, Machine(4), src=0,
                                 tracer=tracer)
    return tracer, metrics


@pytest.fixture(scope="module")
def report(traced_run):
    tracer, _ = traced_run
    return analyze_trace(tracer)


class TestReconciliation:
    def test_terms_match_profile_exactly(self, traced_run, report):
        """Bit-identical W/H/C/S totals: same rows, same summation
        order as render_profile's legend."""
        tracer, _ = traced_run
        expected = {t: 0.0 for t in TERMS}
        for row in profile_rows(tracer):
            expected[row["term"]] += row["virtual_s"]
        for t in TERMS:
            assert report["terms"][t] == expected[t], t

    def test_per_step_buckets_sum_to_busy(self, report):
        total = 0.0
        for step in report["steps"]:
            for entry in step["gpus"].values():
                total += sum(entry[t] for t in TERMS)
        total += report["unattributed_s"] + report["sync_s"]
        assert total == pytest.approx(report["busy_s"], abs=1e-12)
        assert report["busy_s"] == pytest.approx(
            sum(report["terms"].values()), abs=1e-12
        )

    def test_slack_split_sums_to_slack(self, report):
        for step in report["steps"]:
            assert sum(step["slack"].values()) == pytest.approx(
                step["slack_s"], abs=1e-12
            )
        assert sum(report["slack"].values()) == pytest.approx(
            report["slack_s"], abs=1e-12
        )

    def test_stragglers_cover_all_supersteps(self, report):
        assert sum(report["stragglers"].values()) == report["supersteps"]
        assert report["supersteps"] == len(report["steps"])
        assert report["supersteps"] > 0

    def test_critical_path_bounded_by_elapsed(self, report):
        assert report["critical_path_s"] <= report["elapsed_s"] + 1e-12
        for step in report["steps"]:
            crit = step["gpus"][str(step["critical_gpu"])]
            assert crit["slack_s"] == 0.0

    def test_report_is_a_valid_event(self, report):
        assert validate_event(report) == []
        assert report["type"] == "analysis.report"
        assert report["schema_version"] == 2

    def test_report_is_json_serializable(self, report):
        parsed = json.loads(json.dumps(report))
        assert parsed["primitive"] == "bfs"
        assert parsed["num_gpus"] == 4


class TestWhatIf:
    def test_zero_comm_bounded_by_serial_span_sum(self, report):
        wi = report["what_if"]
        assert wi["zero_comm_s"] <= wi["serial_span_sum_s"] + 1e-12

    def test_estimates_never_beat_physics(self, report):
        wi = report["what_if"]
        # removing comm or imbalance can only help, never hurt
        assert wi["zero_comm_s"] <= report["critical_path_s"] + 1e-12
        assert wi["perfect_balance_s"] <= report["critical_path_s"] + 1e-12
        assert wi["zero_comm_speedup"] >= 1.0 - 1e-12
        assert wi["perfect_balance_speedup"] >= 1.0 - 1e-12


class TestChromeRoundtrip:
    def test_offline_analysis_matches_live(self, traced_run, report):
        tracer, _ = traced_run
        offline = analyze_trace(from_chrome_trace(to_chrome_trace(tracer)))
        assert offline["supersteps"] == report["supersteps"]
        assert offline["critical_path_s"] == pytest.approx(
            report["critical_path_s"], abs=1e-9
        )
        for t in TERMS:
            assert offline["terms"][t] == pytest.approx(
                report["terms"][t], abs=1e-9
            )
        assert offline["stragglers"] == report["stragglers"]


class TestDegenerateInputs:
    def test_empty_trace(self):
        report = analyze_trace(Tracer())
        assert report["supersteps"] == 0
        assert report["critical_path_s"] == 0.0
        assert report["slack_s"] == 0.0
        assert report["load_imbalance"] == 1.0
        assert validate_event(report) == []
        # rendering an empty report must not crash
        assert "critical path" in render_analysis(report, what_if=True)

    def test_single_gpu_has_no_slack(self, small_rmat):
        tracer = Tracer()
        run_bfs(small_rmat, Machine(1), src=0, tracer=tracer)
        report = analyze_trace(tracer)
        assert report["slack_s"] == 0.0
        assert report["load_imbalance"] == pytest.approx(1.0)
        assert set(report["stragglers"]) == {"0"}


class TestRender:
    def test_contains_summary_lines(self, report):
        text = render_analysis(report, what_if=True)
        assert "bfs critical path (4 GPUs" in text
        assert "BSP terms (W + H·g + C + S·l):" in text
        assert "critical path:" in text
        assert "stragglers" in text
        assert "what-if: zero-comm" in text

    def test_top_limits_rows(self, report):
        full = render_analysis(report)
        top1 = render_analysis(report, top=1)
        assert len(top1.splitlines()) < len(full.splitlines())
        # the kept row is the longest superstep
        longest = max(report["steps"], key=lambda s: s["critical_s"])
        assert f"{longest['critical_s'] * 1e3:.3f}" in top1

    def test_what_if_off_by_default(self, report):
        assert "what-if" not in render_analysis(report)


# ---------------------------------------------------------------------------
# property tests on random synthetic traces
# ---------------------------------------------------------------------------

_SPAN_KINDS = (
    ("op", "advance"),    # W
    ("op", "filter"),     # W
    ("comm", "send"),     # H
    ("op", "split"),      # C
    ("op", "framework"),  # S
)


@st.composite
def synthetic_traces(draw):
    tracer = Tracer()
    n_spans = draw(st.integers(min_value=1, max_value=40))
    for _ in range(n_spans):
        cat, name = draw(st.sampled_from(_SPAN_KINDS))
        gpu = draw(st.integers(min_value=0, max_value=3))
        iteration = draw(st.integers(min_value=0, max_value=4))
        start = draw(st.floats(min_value=0.0, max_value=10.0,
                               allow_nan=False))
        dur = draw(st.floats(min_value=0.0, max_value=2.0,
                             allow_nan=False))
        if cat == "comm":
            tracer.span(cat, name, start, dur, track=COMM_TRACK,
                        iteration=iteration, src=gpu, dst=(gpu + 1) % 4)
        else:
            tracer.span(cat, name, start, dur, track=gpu,
                        iteration=iteration)
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        sync = draw(st.floats(min_value=0.0, max_value=0.5,
                              allow_nan=False))
        tracer.instant("barrier", vt=float(i + 1), iteration=i, sync=sync)
    return tracer


@settings(max_examples=60, deadline=None)
@given(tracer=synthetic_traces())
def test_property_zero_comm_bounded_by_serial_sum(tracer):
    report = analyze_trace(tracer)
    wi = report["what_if"]
    assert wi["zero_comm_s"] <= wi["serial_span_sum_s"] + 1e-9
    assert wi["perfect_balance_s"] <= wi["serial_span_sum_s"] + 1e-9


@settings(max_examples=60, deadline=None)
@given(tracer=synthetic_traces())
def test_property_terms_reconcile_and_slack_sums(tracer):
    report = analyze_trace(tracer)
    expected = {t: 0.0 for t in TERMS}
    for row in profile_rows(tracer):
        expected[row["term"]] += row["virtual_s"]
    for t in TERMS:
        assert report["terms"][t] == expected[t]
    for step in report["steps"]:
        assert sum(step["slack"].values()) == pytest.approx(
            step["slack_s"], abs=1e-9
        )
        assert step["critical_s"] >= 0.0
