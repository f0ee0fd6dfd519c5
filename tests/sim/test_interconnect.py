"""Interconnect: links, peer groups, transfer timing, sync latency."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CommunicationError
from repro.sim.interconnect import (
    NVLINK,
    PCIE3_HOST,
    PCIE3_PEER,
    Interconnect,
)
from repro.sim.machine import Machine


class TestLinks:
    def test_paper_link_constants(self):
        """Section V-A: peer 20 GB/s @ 7.5 us, host 16 GB/s @ 25 us."""
        assert PCIE3_PEER.bandwidth == pytest.approx(20e9)
        assert PCIE3_PEER.latency == pytest.approx(7.5e-6)
        assert PCIE3_HOST.bandwidth == pytest.approx(16e9)
        assert PCIE3_HOST.latency == pytest.approx(25e-6)

    def test_peer_group_membership(self):
        ic = Interconnect(6, peer_group_size=4)
        assert ic.link(0, 3) is PCIE3_PEER
        assert ic.link(4, 5) is PCIE3_PEER
        assert ic.link(3, 4) is PCIE3_HOST  # crosses the group boundary

    def test_self_link_rejected(self):
        with pytest.raises(CommunicationError):
            Interconnect(2).link(1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(CommunicationError):
            Interconnect(2).link(0, 5)


class TestTransferTime:
    def test_latency_plus_bandwidth(self):
        ic = Interconnect(2, scale=1.0)
        t = ic.transfer_time(0, 1, 20_000_000)  # 20 MB at 20 GB/s = 1 ms
        assert t == pytest.approx(7.5e-6 + 1e-3)

    def test_scale_multiplies_bytes(self):
        a = Interconnect(2, scale=1.0).transfer_time(0, 1, 1000)
        b = Interconnect(2, scale=2.0).transfer_time(0, 1, 1000)
        assert (b - 7.5e-6) == pytest.approx(2 * (a - 7.5e-6))

    def test_zero_bytes_pays_latency(self):
        ic = Interconnect(2)
        assert ic.transfer_time(0, 1, 0) == pytest.approx(7.5e-6)

    def test_latency_scale(self):
        """Section V-A: latency x10 experiment support."""
        ic = Interconnect(2, scale=1.0)
        t1 = ic.transfer_time(0, 1, 0, latency_scale=1.0)
        t10 = ic.transfer_time(0, 1, 0, latency_scale=10.0)
        assert t10 == pytest.approx(10 * t1)

    def test_counters(self):
        ic = Interconnect(2, scale=2.0)
        ic.transfer_time(0, 1, 100)
        ic.transfer_time(1, 0, 50)
        assert ic.total_messages == 2
        assert ic.total_bytes == 300  # scaled

    def test_reset_counters(self):
        ic = Interconnect(2)
        ic.transfer_time(0, 1, 10)
        ic.reset_counters()
        assert ic.total_bytes == 0
        assert ic.total_messages == 0

    def test_negative_size_rejected(self):
        with pytest.raises(CommunicationError):
            Interconnect(2).transfer_time(0, 1, -5)

    def test_nvlink_faster(self):
        pci = Interconnect(2).transfer_time(0, 1, 10**6)
        nv = Interconnect(2, peer_link=NVLINK).transfer_time(0, 1, 10**6)
        assert nv < pci


class TestRecordTransfers:
    """The barrier records a sending GPU's superstep with one
    ``record_transfers`` call; the counters must read what one
    ``record_transfer`` per message leaves, per-message rounding
    included."""

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 2**40), max_size=12),
        scale=st.sampled_from([1.0, 64.0, 3.7, 0.3, 1e-3]),
        before=st.lists(st.integers(0, 2**20), max_size=3),
    )
    def test_equals_one_record_per_item(self, sizes, scale, before):
        batched = Interconnect(2, scale=scale)
        single = Interconnect(2, scale=scale)
        for ic in (batched, single):
            for nbytes in before:  # counters that already hold traffic
                ic.record_transfer(nbytes)
        batched.record_transfers(sizes)
        for nbytes in sizes:
            single.record_transfer(nbytes)
        assert batched.total_bytes == single.total_bytes
        assert batched.total_messages == single.total_messages
        assert type(batched.total_bytes) is int


class TestTransferCostEndpoints:
    """``transfer_cost`` picks the link inline for a live, in-range
    pair; every other pair still goes through ``link`` and raises its
    error."""

    @staticmethod
    def _same_error(ic, src, dst):
        with pytest.raises(CommunicationError) as got:
            ic.transfer_cost(src, dst, 64)
        with pytest.raises(CommunicationError) as want:
            ic.link(src, dst)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert (got.value.gpu_id, got.value.site) == (
            want.value.gpu_id, want.value.site)

    @pytest.mark.parametrize("src,dst", [(0, 4), (4, 0), (-1, 1), (1, -1),
                                         (2, 2), (0, 0)])
    def test_out_of_range_or_self_raises_links_error(self, src, dst):
        self._same_error(Interconnect(4), src, dst)

    def test_lost_endpoint_raises_links_error(self):
        machine = Machine(4)
        machine.lose_gpu(2)
        ic = machine.interconnect
        for src, dst in [(0, 2), (2, 1), (2, 3)]:
            self._same_error(ic, src, dst)
        # the survivors still talk, over the link ``link`` picks
        assert ic.transfer_cost(0, 1, 10**6) == (
            ic.link(0, 1).latency + 10**6 * ic.scale / ic.link(0, 1).bandwidth)

    def test_inline_choice_is_links_choice(self):
        ic = Interconnect(6, peer_group_size=4, scale=3.0)
        for src in range(6):
            for dst in range(6):
                if src == dst:
                    continue
                lk = ic.link(src, dst)
                assert ic.transfer_cost(src, dst, 12345, latency_scale=2.0) \
                    == lk.latency * 2.0 + 12345 * 3.0 / lk.bandwidth


class TestSyncLatency:
    def test_single_gpu_free(self):
        assert Interconnect(1).sync_latency(1) == 0.0

    def test_matches_paper_measurements(self):
        """Section V-B: per-iteration l of {66.8,124,142,188} us for 1-4
        GPUs; here we check the multi-GPU increments (device overhead of
        ~66.8 us carries the 1-GPU part)."""
        ic = Interconnect(4)
        assert ic.sync_latency(2) == pytest.approx(57.2e-6)
        assert ic.sync_latency(3) == pytest.approx(75.2e-6)
        assert ic.sync_latency(4) == pytest.approx(121.2e-6)

    def test_monotone(self):
        ic = Interconnect(8)
        vals = [ic.sync_latency(n) for n in range(1, 9)]
        assert vals == sorted(vals)

    def test_extrapolation_beyond_table(self):
        ic = Interconnect(8)
        assert ic.sync_latency(6) > ic.sync_latency(4)

    def test_zero_gpus(self):
        assert Interconnect(2).sync_latency(0) == 0.0


class TestValidation:
    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            Interconnect(0)

    def test_rejects_zero_group(self):
        with pytest.raises(ValueError):
            Interconnect(2, peer_group_size=0)
