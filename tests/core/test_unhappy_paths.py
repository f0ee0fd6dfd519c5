"""Unhappy paths that existed before fault injection: exhausted
iteration budgets, allocation failure without recovery armed, and
malformed messages.  Each must raise a structured ReproError whose
context names the culprit."""

import numpy as np
import pytest

from dataclasses import replace

from repro.core.comm import Message
from repro.errors import (
    CommunicationError,
    ConvergenceError,
    DeviceMemoryError,
    PartitionError,
    ReproError,
)
from repro.primitives.bfs import run_bfs
from repro.primitives.pr import PRIteration, PRProblem
from repro.sim.device import DeviceSpec, K40
from repro.sim.machine import Machine
from repro.sim.memory import MemoryPool


class TestConvergenceError:
    def test_pr_budget_exhaustion_is_structured(self, small_rmat):
        from repro.core.enactor import Enactor

        problem = PRProblem(
            small_rmat, Machine(2), threshold=0.0, max_iter=3
        )
        # threshold 0 can never be met; max_iterations is max_iter + 1,
        # so the enactor trips the budget rather than looping forever
        problem.max_iter = 3

        class NeverStop(PRIteration):
            def should_stop(self, iteration, sizes, in_flight):
                return False

            def max_iterations(self):
                return 3

        enactor = Enactor(problem, NeverStop)
        with pytest.raises(ConvergenceError) as ei:
            enactor.enact()
        assert ei.value.iteration is not None
        assert ei.value.site == "enactor.enact"
        assert isinstance(ei.value, ReproError)


class TestDeviceMemoryError:
    def test_pool_exhaustion_is_structured(self):
        pool = MemoryPool(capacity=1024, gpu_id=3)
        with pytest.raises(DeviceMemoryError) as ei:
            pool.alloc("big", 4096)
        assert ei.value.gpu_id == 3
        assert "big" in str(ei.value)

    def test_unrecovered_oom_propagates(self, small_rmat):
        # a tiny device with no faults armed: the enactor must NOT
        # silently absorb the allocation failure (recovery is only for
        # injected faults)
        tiny = replace(K40, name="tiny", memory_bytes=4096)
        with pytest.raises(DeviceMemoryError):
            run_bfs(small_rmat, Machine(2, spec=tiny), src=0)

    def test_injected_oom_raises_when_retry_is_off(self, small_rmat):
        # an injected allocation failure is retried at exact fit only
        # under RecoveryPolicy(retry_oom=True); turned off, the first
        # intermediate-buffer regrow of an unfused run must raise.  The
        # site and superstep pin which allocation: at 2 GPUs a later
        # one (``.fin``, superstep 1) would raise even if this one's
        # failure were swallowed
        from repro.core import RecoveryPolicy
        from repro.core.enactor import Enactor
        from repro.primitives.bfs import BFSIteration, BFSProblem
        from repro.sim import JustEnough
        from repro.sim.faults import OOM, FaultPlan, FaultSpec

        machine = Machine(1)
        machine.arm_faults(FaultPlan([FaultSpec(OOM, gpu=0, iteration=0)]))
        problem = BFSProblem(small_rmat, machine)
        with Enactor(problem, BFSIteration, scheme=JustEnough(slack=0.05),
                     recovery=RecoveryPolicy(retry_oom=False)) as enactor:
            with pytest.raises(DeviceMemoryError) as ei:
                enactor.enact(src=0)
        assert ei.value.site == "memory.alloc[bfs#0.intermediate]"
        assert ei.value.iteration == 0


class TestMalformedMessages:
    def test_misrouted_vertices_rejected(self, weighted_rmat):
        # SSSP duplicates only the 1-hop halo; a message carrying a
        # vertex the receiver does not host or proxy is a routing bug
        # and must fail loudly, not index garbage
        from repro.primitives.sssp import SSSPProblem

        machine = Machine(4)
        problem = SSSPProblem(weighted_rmat, machine)
        hosted0 = set(problem.subgraphs[0].local_to_global.tolist())
        foreign = next(
            v for v in range(weighted_rmat.num_vertices)
            if v not in hosted0
        )
        with pytest.raises(PartitionError) as ei:
            problem.global_to_local(0, np.array([foreign]))
        assert ei.value.site == "problem.global_to_local"

    def test_interconnect_rejects_bad_endpoints(self):
        m = Machine(2)
        with pytest.raises(CommunicationError) as ei:
            m.interconnect.transfer_cost(0, 5, 64)
        assert ei.value.site is not None

    def test_message_nbytes_counts_associates(self):
        from repro.types import ID32

        msg = Message(
            src_gpu=0, dst_gpu=1,
            vertices=np.arange(4, dtype=np.int64),
            vertex_associates=[np.arange(4, dtype=np.int64)],
            value_associates=[np.ones(4)],
        )
        assert msg.num_items == 4
        assert msg.nbytes(ID32) == 4 * (4 + 4 + ID32.value_bytes)
