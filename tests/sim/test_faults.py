"""Unit tests for the fault plan / injector (repro.sim.faults)."""

import numpy as np
import pytest

from repro.errors import (
    CommunicationError,
    DeviceLostError,
    DeviceMemoryError,
    SimulationError,
)
from repro.sim.faults import (
    FAULT_KINDS,
    GPU_LOSS,
    OOM,
    STRAGGLER,
    TRANSIENT_COMM,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.sim.machine import Machine


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            FaultSpec("meteor-strike", gpu=0, iteration=0)

    def test_host_kind_rejected_naming_the_four_kinds(self):
        """The host-level kinds went with the worker supervisor."""
        with pytest.raises(SimulationError) as exc:
            FaultSpec("worker-crash", 0, 1)
        for kind in (TRANSIENT_COMM, OOM, STRAGGLER, GPU_LOSS):
            assert kind in str(exc.value)
        assert len(FAULT_KINDS) == 4

    def test_negative_fields_rejected(self):
        with pytest.raises(SimulationError):
            FaultSpec(TRANSIENT_COMM, gpu=-1, iteration=0)
        with pytest.raises(SimulationError):
            FaultSpec(TRANSIENT_COMM, gpu=0, iteration=0, count=0)

    def test_dict_roundtrip(self):
        for spec in (
            FaultSpec(TRANSIENT_COMM, gpu=1, iteration=2, count=3, dst=0),
            FaultSpec(OOM, gpu=0, iteration=1),
            FaultSpec(STRAGGLER, gpu=2, iteration=0, factor=6.0, duration=2),
            FaultSpec(GPU_LOSS, gpu=3, iteration=4),
        ):
            back = FaultSpec.from_dict(spec.to_dict())
            assert back.kind == spec.kind
            assert back.gpu == spec.gpu
            assert back.iteration == spec.iteration


class TestFaultPlan:
    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(k, gpu=0, iteration=1) for k in FAULT_KINDS],
            seed=7,
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        back = FaultPlan.load(path)
        assert [s.kind for s in back.faults] == list(FAULT_KINDS)
        assert back.seed == 7

    def test_malformed_json_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan.from_json("[1, 2, 3]")

    def test_validate_gpu_range(self):
        plan = FaultPlan([FaultSpec(OOM, gpu=5, iteration=0)])
        with pytest.raises(SimulationError):
            plan.validate(2)

    def test_validate_total_loss(self):
        plan = FaultPlan(
            [FaultSpec(GPU_LOSS, gpu=g, iteration=0) for g in range(2)]
        )
        with pytest.raises(SimulationError):
            plan.validate(2)

    def test_random_is_seeded(self):
        a = FaultPlan.random(seed=11, num_gpus=4)
        b = FaultPlan.random(seed=11, num_gpus=4)
        assert a.to_json() == b.to_json()
        # at most one permanent loss, so survivors always exist
        losses = [s for s in a.faults if s.kind == GPU_LOSS]
        assert len(losses) <= 1


class TestFaultInjector:
    def test_comm_fault_fires_count_times(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec(TRANSIENT_COMM, gpu=0, iteration=1,
                                 count=2)]),
            num_gpus=2,
        )
        inj.check_comm(0, 1, 0)  # before the armed iteration: no fault
        for _ in range(2):
            with pytest.raises(CommunicationError) as ei:
                inj.check_comm(0, 1, 1)
            assert ei.value.gpu_id == 0
            assert ei.value.iteration == 1
        inj.check_comm(0, 1, 1)  # budget exhausted
        assert inj.injected[TRANSIENT_COMM] == 2

    def test_comm_fault_at_or_after(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec(TRANSIENT_COMM, gpu=0, iteration=1)]),
            num_gpus=2,
        )
        # the superstep it was armed for never communicated; the fault
        # stays pending and fires at the next transfer
        with pytest.raises(CommunicationError):
            inj.check_comm(0, 1, 3)

    def test_gpu_loss_fires_once(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=1, iteration=2)]),
            num_gpus=2,
        )
        inj.check_gpu_loss(1, 1)
        with pytest.raises(DeviceLostError):
            inj.check_gpu_loss(1, 2)
        inj.check_gpu_loss(1, 3)  # consumed

    def test_alloc_fault_needs_superstep_scope(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec(OOM, gpu=0, iteration=0)]),
            num_gpus=1,
        )
        # outside a superstep (setup/recovery allocations): never fires
        inj.check_alloc(0, "x")
        inj.begin_superstep(0, 0)
        with pytest.raises(DeviceMemoryError):
            inj.check_alloc(0, "x")
        inj.end_iteration()
        inj.check_alloc(0, "x")  # consumed

    def test_straggler_factor_window(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec(STRAGGLER, gpu=0, iteration=2,
                                 factor=4.0, duration=2)]),
            num_gpus=1,
        )
        assert inj.straggler_factor(0, 1) == 1.0
        assert inj.straggler_factor(0, 2) == 4.0
        assert inj.straggler_factor(0, 3) == 4.0
        assert inj.straggler_factor(0, 4) == 1.0
        assert inj.straggler_factor(1, 2) == 1.0

    def test_reset_rearms(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=0, iteration=0)]),
            num_gpus=2,
        )
        with pytest.raises(DeviceLostError):
            inj.check_gpu_loss(0, 0)
        inj.reset()
        with pytest.raises(DeviceLostError):
            inj.check_gpu_loss(0, 0)


class TestMachineFaultWiring:
    def test_arm_validates(self):
        m = Machine(2)
        with pytest.raises(SimulationError):
            m.arm_faults(FaultPlan([FaultSpec(OOM, gpu=7, iteration=0)]))

    def test_lost_gpu_link_raises(self):
        m = Machine(2)
        m.lose_gpu(1)
        with pytest.raises(CommunicationError):
            m.interconnect.transfer_cost(0, 1, 1024)

    def test_lost_gpus_survive_reset(self):
        m = Machine(2)
        m.lose_gpu(1)
        m.reset()
        assert m.lost_gpus == {1}
        assert m.alive_gpus == [0]

    def test_barrier_ignores_lost_gpus(self):
        m = Machine(4)
        m.gpus[3].compute.launch(1.0)
        m.lose_gpu(3)
        m.barrier()
        # the dead GPU's pending work does not hold the barrier
        assert m.clock.now < 1.0
