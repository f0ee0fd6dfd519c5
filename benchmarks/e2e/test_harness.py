"""Tests of the benchmark's own arithmetic (``pytest benchmarks/e2e -q``).

Outside tier-1's ``testpaths``: they cover the calibrated-seconds
formula and the round/median aggregation on a fake clock, that the
calibration kernel pulls in no ``repro`` code, the span self-time
arithmetic, that tracing restores what it rebinds, and that
``BENCHMARK.json`` names exactly what the code produces.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
from calibrate import BracketTimer, Sample  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        def work():
            self.now += seconds
        return work


def make_timer(clock, kernel_costs, window=1):
    costs = iter(kernel_costs)
    return BracketTimer(
        lambda: clock.spend(next(costs))(),
        cal_ref_s=0.025, window=window, clock=clock,
    )


def test_calibrated_seconds_formula():
    clock = FakeClock()
    # the kernel takes 0.04 s then 0.06 s on this host, 0.025 s on the
    # host that committed the baseline
    timer = make_timer(clock, [0.04, 0.06])
    with timer.block():
        timer.lap("q", clock.spend(0.30))
    (sample,) = timer.samples
    assert sample.raw_s == pytest.approx(0.30)
    # t_raw * cal_ref / median(kernel runs around the block)
    assert timer.cal_s(sample) == pytest.approx(0.30 * 0.025 / 0.05)


def test_a_host_twice_as_slow_reads_the_same_calibrated_seconds():
    readings = []
    for slowdown in (1.0, 2.0):
        clock = FakeClock()
        timer = make_timer(clock, [0.05 * slowdown] * 2)
        with timer.block():
            timer.lap("q", clock.spend(0.4 * slowdown))
        readings.append(timer.cal_s(timer.samples[0]))
    assert readings[0] == pytest.approx(readings[1])


def test_blocks_share_the_point_between_them_until_untimed():
    clock = FakeClock()
    timer = make_timer(clock, [0.01, 0.02, 0.03, 0.04, 0.05])
    with timer.block():
        timer.lap("a", clock.spend(1.0))
    with timer.block():
        timer.lap("b", clock.spend(2.0))
    assert timer.points == pytest.approx([0.01, 0.02, 0.03])
    assert [s.point for s in timer.samples] == [0, 1]
    # other work intervenes: the next block calibrates afresh
    timer.untimed()
    with timer.block():
        timer.lap("c", clock.spend(3.0))
    assert timer.samples[-1].point == 3 and len(timer.points) == 5
    with pytest.raises(RuntimeError):
        timer.lap("outside", clock.spend(1.0))


def test_divisor_is_the_median_of_the_points_nearest_the_block():
    clock = FakeClock()
    costs = [0.010, 0.020, 0.090, 0.040, 0.050, 0.060]
    timer = make_timer(clock, costs, window=2)
    for name in "abcde":
        with timer.block():
            timer.lap(name, clock.spend(1.0))
    a, _b, c, _d, e = timer.samples
    # block c sits between points 2 and 3: window 2 takes points 1..4,
    # and the 0.090 outlier next to it moves the divisor little
    assert timer.divisor(c) == pytest.approx(0.045)
    assert timer.divisor(a) == pytest.approx(0.020)  # points 0..2, clipped
    assert timer.divisor(e) == pytest.approx(0.050)  # points 3..5


def test_metric_is_sum_over_queries_of_median_over_rounds():
    def sample(query, rnd, raw):
        return Sample(("round", query, "serial", rnd, "enact"), raw, 0)

    samples = [
        sample("bfs", 0, 1.0), sample("bfs", 1, 9.0), sample("bfs", 2, 2.0),
        sample("pr", 0, 10.0), sample("pr", 1, 30.0), sample("pr", 2, 20.0),
    ]
    total = calibrate.sum_of_medians(
        samples, lambda s: s.raw_s, key=lambda s: (s.key[1], s.key[4])
    )
    assert total == 2.0 + 20.0  # one outlier round moves neither median
    assert calibrate.per_key_medians(samples, lambda s: s.raw_s) == {
        s.key: s.raw_s for s in samples
    }


def test_quartiles_and_spread():
    assert calibrate.quartiles([3.0]) == (3.0, 3.0, 3.0)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    q1, med, q3 = calibrate.quartiles(values)
    assert med == 4.0
    assert calibrate.spread(values) == pytest.approx((q3 - q1) / 4.0)


def test_plain_bfs_and_kernel_are_deterministic():
    # path 0-1-2-3 plus isolated vertex 4, as CSR
    offsets = np.array([0, 1, 3, 5, 6, 6])
    cols = np.array([1, 0, 2, 1, 3, 2])
    assert calibrate.plain_bfs(offsets, cols, 0).tolist() == [0, 1, 2, 3, -1]
    kernel = calibrate.make_kernel(offsets, cols, 0, reps=2)
    assert kernel() == kernel()


def test_calibration_kernel_imports_no_repro_code():
    source = open(os.path.join(HERE, "calibrate.py"), encoding="utf-8").read()
    assert not re.search(r"^\s*(from|import)\s+repro\b", source, re.M)
    code = (
        "import sys; sys.path.insert(0, %r); import calibrate; "
        "bad = [m for m in sys.modules if m.split('.')[0] == 'repro']; "
        "sys.exit(1 if bad else 0)" % HERE
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_span_self_time_is_duration_minus_children():
    from trace import END, START, Recorder

    rec = Recorder()
    rec.active = True
    inner = rec.wrap(lambda: None, "inner", "layer.b")
    outer = rec.wrap(lambda: (inner(), inner()), "outer", "layer.a")
    rec.phase = "p"
    outer()
    assert [s[0] for s in rec.spans] == ["outer", "inner", "inner"]
    # pin the clock readings so the arithmetic is exact
    for span, (t0, t1) in zip(rec.spans, [(0, 10), (1, 3), (4, 9)]):
        span[START], span[END] = float(t0), float(t1)
    assert rec.self_times() == [3.0, 2.0, 5.0]
    assert rec.select("p", layer="layer.b") == [1, 2]
    assert rec.select("p", names=("outer",)) == [0]
    events = rec.to_chrome_trace()["traceEvents"]
    assert [e["dur"] for e in events] == [10e6, 2e6, 5e6]


def test_tracing_rebinds_every_reference_and_restores_it():
    import multiprocessing.connection as mpc

    import repro.core.comm
    import repro.core.enactor
    from repro.core.enactor import Enactor
    from trace import Recorder, tracing

    before = (
        repro.core.enactor.split_frontier, repro.core.comm.split_frontier,
        Enactor.enact, vars(mpc.Connection).get("send"),
        mpc.Connection._send_bytes,
    )
    with tracing(Recorder()):
        assert repro.core.enactor.split_frontier is not before[0]
        assert (repro.core.enactor.split_frontier
                is repro.core.comm.split_frontier)
        assert Enactor.enact.__wrapped__ is before[2]
    after = (
        repro.core.enactor.split_frontier, repro.core.comm.split_frontier,
        Enactor.enact, vars(mpc.Connection).get("send"),
        mpc.Connection._send_bytes,
    )
    assert after == before


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_meets_the_contract_and_matches_the_code():
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
