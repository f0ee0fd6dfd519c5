"""The batched cost-model primitives against the per-call forms.

``KernelModel.price`` and ``Stream.launch_many`` are what the
enactor's per-superstep charge ledger is built from.  They must not move
the virtual clock by a bit, so each is compared — ``==`` on floats, no
tolerance — with the formulation it replaced, written out here as the
reference: the per-call cost formula reading the device spec, and one
``max``/add per launch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import OpStats
from repro.errors import SimulationError
from repro.sim.device import K40, K80_HALF, P100
from repro.sim.kernel import KernelModel
from repro.sim.stream import Stream

SETTINGS = settings(max_examples=200, deadline=None)

_BYTES = st.one_of(
    st.just(0), st.integers(0, 2**40),
    st.floats(min_value=0.0, max_value=1e13, allow_nan=False),
)
_SECONDS = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_SPECS = st.sampled_from([K40, K80_HALF, P100])


def _reference_total(spec, scale, streaming, random, launches, atomics):
    """``kernel_time(...).total`` as it was computed per call."""
    launch = launches * spec.kernel_launch_overhead
    t = 0.0
    if streaming > 0:
        t += (streaming * scale) / spec.effective_bandwidth(False)
    if random > 0:
        t += (random * scale) / spec.effective_bandwidth(True)
    if atomics > 0:
        t += (atomics * 8 * scale) / (spec.effective_bandwidth(True) * 0.25)
    return launch + t


_KERNELS = st.lists(
    st.builds(
        OpStats,
        name=st.sampled_from(["advance", "filter", "split", "package"]),
        launches=st.integers(0, 4),
        streaming_bytes=_BYTES, random_bytes=_BYTES, atomic_ops=_BYTES,
    ),
    max_size=5,
)


@SETTINGS
@given(
    spec=_SPECS,
    scale=st.sampled_from([1.0, 1024.0, 3.5]),
    slowdown=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    earliest_start=_SECONDS,
    stats=_KERNELS,
)
def test_price_equals_kernel_time_total(
    spec, scale, slowdown, earliest_start, stats
):
    """One pricing call per group: a row per kernel, each
    ``kernel_time(...).total`` times the straggler slowdown, and the
    group's seconds summed from 0.0 in list order."""
    km = KernelModel(spec, scale)
    rows = [(9.0, 9.0, "earlier")]  # rows are appended, never replaced
    got = km.price(stats, earliest_start, slowdown, rows)
    want_rows, want = [(9.0, 9.0, "earlier")], 0.0
    for s in stats:
        ref = _reference_total(spec, km.scale, s.streaming_bytes,
                               s.random_bytes, s.launches, s.atomic_ops)
        cost = km.kernel_time(
            streaming_bytes=s.streaming_bytes, random_bytes=s.random_bytes,
            launches=s.launches, atomic_ops=s.atomic_ops,
        )
        assert cost.total == ref
        assert cost.launch == s.launches * spec.kernel_launch_overhead
        want_rows.append((cost.total * slowdown, earliest_start, s.name))
        want += cost.total * slowdown
    assert rows == want_rows
    assert got == want
    if not stats:
        assert got == 0.0 and rows == [(9.0, 9.0, "earlier")]


_OPS = st.lists(
    st.tuples(_SECONDS, _SECONDS, st.sampled_from(["", "advance", "split"])),
    max_size=12,
)


def _sequential(stream, ops):
    """One ``max``/add per op: what ``launch`` did before it shared
    ``launch_many``'s loop."""
    ends = []
    for duration, earliest_start, label in ops:
        if duration < 0:
            raise SimulationError(f"negative duration: {duration}")
        start = max(stream.available_at, earliest_start)
        end = start + duration
        stream.available_at = end
        if stream.record_history:
            stream.history.append((start, end, label))
        ends.append(end)
    return ends


@SETTINGS
@given(ops=_OPS, horizon=_SECONDS, record=st.booleans())
def test_launch_many_equals_sequential_launch(ops, horizon, record):
    batched = Stream("b", available_at=horizon, record_history=record)
    single = Stream("s", available_at=horizon, record_history=record)
    reference = Stream("r", available_at=horizon, record_history=record)
    ends = batched.launch_many(ops)
    events = [single.launch(d, earliest_start=es, label=lb)
              for d, es, lb in ops]
    want = _sequential(reference, ops)
    assert ends == [e.timestamp for e in events] == want
    assert [e.label for e in events] == [lb for _, _, lb in ops]
    assert (batched.available_at == single.available_at
            == reference.available_at)
    assert batched.history == single.history == reference.history
    assert bool(batched.history) == (record and bool(ops))


@SETTINGS
@given(ops=_OPS, bad_at=st.integers(0, 12), horizon=_SECONDS)
def test_launch_many_raises_where_a_launch_would(ops, bad_at, horizon):
    bad_at = min(bad_at, len(ops))
    ops = ops[:bad_at] + [(-1.0, 0.0, "bad")] + ops[bad_at:]
    batched = Stream("b", available_at=horizon, record_history=True)
    reference = Stream("r", available_at=horizon, record_history=True)
    with pytest.raises(SimulationError, match="negative duration"):
        batched.launch_many(ops)
    with pytest.raises(SimulationError, match="negative duration"):
        _sequential(reference, ops)
    # the ops before the bad one stay applied, nothing after it is
    assert batched.available_at == reference.available_at
    assert batched.history == reference.history
    assert len(batched.history) == bad_at


def test_launch_many_of_nothing_is_a_no_op():
    s = Stream("s", available_at=2.5, record_history=True)
    assert s.launch_many([]) == []
    assert s.available_at == 2.5 and s.history == []
