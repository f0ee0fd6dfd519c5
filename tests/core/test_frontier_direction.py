"""Frontier buffers and the DOBFS direction state machine."""

import pytest

from repro.core.direction import BACKWARD, FORWARD, DirectionState
from repro.core.frontier import Frontier
from repro.errors import SimulationError
from repro.sim.memory import MemoryPool


class TestFrontier:
    def test_grows_when_needed(self):
        pool = MemoryPool(10_000)
        f = Frontier("f", pool, 4, 2)
        grown = f.fit(10)
        assert grown > 0
        assert f.capacity >= 10
        assert f.grow_events == 1
        assert pool.num_reallocs == 1

    def test_no_growth_within_capacity(self):
        f = Frontier("f", None, 4, 16)
        assert f.fit(10) == 0
        assert f.fit(16) == 0
        assert f.grow_events == 0

    def test_overflow_without_growth_raises(self):
        f = Frontier("f", None, 4, 2)
        with pytest.raises(SimulationError):
            f.fit(5, allow_grow=False)

    def test_pool_accounting(self):
        pool = MemoryPool(10_000)
        f = Frontier("f", pool, 4, 10)
        assert pool.in_use == 40
        f.release()
        assert pool.in_use == 0

    def test_growth_headroom(self):
        """Growth allocates 25% slack to amortize reallocations."""
        f = Frontier("f", None, 4, 1)
        assert f.fit(100) == 124
        assert f.capacity == 125

    def test_oom_propagates(self):
        from repro.errors import DeviceMemoryError

        pool = MemoryPool(100)
        f = Frontier("f", pool, 4, 10)
        with pytest.raises(DeviceMemoryError):
            f.fit(1000)
        # a failed reallocation leaves the buffer as it was
        assert f.capacity == 10 and f.grow_events == 0
        assert pool.in_use == 40


class TestDirectionState:
    def make(self, **kw):
        return DirectionState(num_vertices=1000, num_edges=32000, **kw)

    def test_starts_forward(self):
        assert self.make().direction == FORWARD

    def test_estimates(self):
        st = self.make()
        assert st.estimate_forward(10) == pytest.approx(10 * 32)
        assert st.estimate_backward(500, 500) == pytest.approx(1000)

    def test_backward_estimate_with_no_visited(self):
        assert self.make().estimate_backward(1000, 0) == float("inf")

    def test_switches_to_backward_on_large_frontier(self):
        st = self.make(do_a=0.01)
        # FV = 500*32 = 16000; BV = 500*1000/500 = 1000; 16000 > 10
        assert st.update(500, 500, 500) == BACKWARD
        assert st.switched_to_backward

    def test_stays_forward_on_small_frontier(self):
        st = self.make(do_a=1e9)  # effectively never switch
        assert st.update(5, 990, 10) == FORWARD

    def test_backward_to_forward(self):
        st = self.make()
        st.direction = BACKWARD
        st.switched_to_backward = True
        # tiny frontier, many unvisited: FV=32 < BV*do_b=66.7
        assert st.update(1, 400, 600) == FORWARD

    def test_forward_backward_switch_only_once(self):
        """Section VI-A: 'we only allow this switch once'."""
        st = self.make(do_a=0.0001)
        assert st.update(500, 500, 500) == BACKWARD
        st.update(1, 400, 600)  # back to forward
        assert st.direction == FORWARD
        # conditions for backward hold again, but the switch is used up
        assert st.update(500, 500, 500) == FORWARD

    def test_paper_default_thresholds(self):
        st = self.make()
        assert st.do_a == 0.01
        assert st.do_b == 0.1

    def test_empty_graph_estimates(self):
        st = DirectionState(num_vertices=0, num_edges=0)
        assert st.estimate_forward(0) == 0.0
