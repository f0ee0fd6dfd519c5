"""The per-superstep charge ledger against one launch per charge.

``_ChargeLedger`` prices a superstep's compute-stream charges as they
are made and applies them with one flush.  Against the loop it replaced
— ``kernel_time(...).total * scale`` and a ``Stream.launch`` per
``OpStats`` — it must return the same seconds, leave the same horizon
and history, and (traced) emit the same spans, bit for bit.
"""

from hypothesis import given, settings, strategies as st

from repro.core.enactor import _ChargeLedger
from repro.core.stats import OpStats
from repro.obs import Tracer
from repro.sim.device import K40
from repro.sim.kernel import KernelModel
from repro.sim.stream import Stream

SETTINGS = settings(max_examples=150, deadline=None)

_BYTES = st.one_of(st.just(0), st.integers(0, 2**36),
                   st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
_STATS = st.builds(
    OpStats,
    name=st.sampled_from(["advance", "filter", "split", "package"]),
    input_size=st.integers(0, 1000), output_size=st.integers(0, 1000),
    edges_visited=st.integers(0, 1000),
    launches=st.integers(0, 3),
    streaming_bytes=_BYTES, random_bytes=_BYTES, atomic_ops=_BYTES,
)
_SECONDS = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
#: one ledger call: framework work, or a stats list at its arrival
_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _SECONDS),
        st.tuples(st.just("charge"), st.lists(_STATS, max_size=4), _SECONDS),
    ),
    max_size=8,
)


def _per_launch(stream, km, calls, scale):
    """The replaced loop: returns each call's seconds and every op's
    ``(name, start, duration)``."""
    totals, spans = [], []
    for call in calls:
        if call[0] == "add":
            ev = stream.launch(call[1], label="framework")
            totals.append(call[1])
            spans.append(("framework", ev.timestamp - call[1], call[1]))
            continue
        total = 0.0
        for s in call[1]:
            dur = km.kernel_time(
                streaming_bytes=s.streaming_bytes,
                random_bytes=s.random_bytes,
                launches=s.launches, atomic_ops=s.atomic_ops,
            ).total * scale
            ev = stream.launch(dur, earliest_start=call[2], label=s.name)
            total += dur
            spans.append((s.name, ev.timestamp - dur, dur))
        totals.append(total)
    return totals, spans


def _through_ledger(ledger, calls, scale):
    return [
        ledger.add(call[1], "framework") if call[0] == "add"
        else ledger.charge(call[1], call[2], scale)
        for call in calls
    ]


@SETTINGS
@given(calls=_CALLS, horizon=_SECONDS,
       scale=st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
def test_one_flush_equals_a_launch_per_charge(calls, horizon, scale):
    km = KernelModel(K40, 1024.0)
    want_stream = Stream("w", available_at=horizon, record_history=True)
    want_totals, _ = _per_launch(want_stream, km, calls, scale)

    stream = Stream("s", available_at=horizon, record_history=True)
    ledger = _ChargeLedger(0, stream, km, None)
    assert _through_ledger(ledger, calls, scale) == want_totals
    # nothing reaches the stream before the flush ...
    assert stream.available_at == horizon and stream.history == []
    ledger.flush()
    # ... and the flush leaves what a launch per charge would have
    assert stream.available_at == want_stream.available_at
    assert stream.history == want_stream.history
    assert ledger.flush() == []  # flushed charges are not applied twice


@SETTINGS
@given(calls=_CALLS, horizon=_SECONDS,
       scale=st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
def test_traced_ledger_applies_each_charge_as_it_is_made(
    calls, horizon, scale
):
    km = KernelModel(K40, 1024.0)
    want_stream = Stream("w", available_at=horizon, record_history=True)
    want_totals, want_spans = _per_launch(want_stream, km, calls, scale)

    tracer = Tracer()
    stream = Stream("s", available_at=horizon, record_history=True)
    ledger = _ChargeLedger(3, stream, km, tracer)
    got_totals = []
    for call in calls:
        got_totals += _through_ledger(ledger, [call], scale)
        assert ledger.pending == []  # a span needed the op's start
    assert got_totals == want_totals
    assert stream.available_at == want_stream.available_at
    assert stream.history == want_stream.history
    assert [(s.name, s.vt_start, s.vt_dur) for s in tracer.spans] == want_spans
    assert all(s.track == 3 and s.cat == "op" for s in tracer.spans)
