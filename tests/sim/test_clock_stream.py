"""Virtual clock, streams, events."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.stream import Event, Stream


class TestClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_to(self):
        c = VirtualClock()
        c.advance_to(1.5)
        assert c.now == 1.5

    def test_advance_by(self):
        c = VirtualClock()
        c.advance_by(0.5)
        c.advance_by(0.25)
        assert c.now == pytest.approx(0.75)

    def test_no_backward(self):
        c = VirtualClock()
        c.advance_to(2.0)
        with pytest.raises(SimulationError):
            c.advance_to(1.0)

    def test_no_negative_delta(self):
        with pytest.raises(SimulationError):
            VirtualClock().advance_by(-1.0)

    def test_reset(self):
        c = VirtualClock()
        c.advance_to(3.0)
        c.reset()
        assert c.now == 0.0


class TestStream:
    def test_fifo_ordering(self):
        s = Stream("s")
        assert s.launch(1.0) == 1.0
        assert s.launch(2.0) == 3.0

    def test_earliest_start_dependency(self):
        s = Stream("s")
        assert s.launch(1.0, earliest_start=5.0) == 6.0

    def test_earliest_start_no_op_when_busy(self):
        s = Stream("s")
        s.launch(10.0)
        assert s.launch(1.0, earliest_start=3.0) == 11.0

    def test_wait_event(self):
        a, b = Stream("a"), Stream("b")
        a.launch(4.0)
        b.wait_event(a.record_event())
        assert b.launch(1.0) == 5.0

    def test_wait_event_does_not_rewind(self):
        s = Stream("s")
        s.launch(10.0)
        s.wait_event(Event(2.0))
        assert s.available_at == 10.0

    def test_record_event(self):
        s = Stream("s")
        s.launch(3.0)
        assert s.record_event().timestamp == 3.0

    def test_zero_duration(self):
        s = Stream("s")
        assert s.launch(0.0) == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Stream("s").launch(-1.0)

    def test_launches_return_completion_times(self):
        s = Stream("s")
        ends = [s.launch(1.0), s.launch(2.0)]
        assert ends == [1.0, 3.0]
        assert s.available_at == 3.0

    def test_reset(self):
        s = Stream("s")
        s.launch(1.0)
        s.reset()
        assert s.available_at == 0.0
