"""ProblemBase / DataSlice / Enactor framework machinery."""

import numpy as np
import pytest

from repro.core.enactor import Enactor
from repro.core.iteration import GpuContext, IterationBase
from repro.core.problem import DataSlice, ProblemBase
from repro.core.stats import OpStats
from repro.errors import ConvergenceError
from repro.graph.build import from_edges
from repro.partition import DUPLICATE_1HOP, DUPLICATE_ALL
from repro.primitives.bfs import BFSIteration, BFSProblem
from repro.sim.machine import Machine
from repro.sim.memory import JustEnough, MaxAlloc


@pytest.fixture
def chain():
    return from_edges(8, [(i, i + 1) for i in range(7)])


class TestDataSlice:
    def test_allocate_registers_in_pool(self, chain, machine2):
        prob = BFSProblem(chain, machine2)
        ds = prob.data_slices[0]
        assert "labels" in ds
        pool = machine2.gpus[0].memory
        assert (
            pool.size_of(f"{prob.alloc_prefix}.labels")
            == ds["labels"].nbytes
        )

    def test_setitem_requires_allocation(self, chain, machine2):
        ds = BFSProblem(chain, machine2).data_slices[0]
        with pytest.raises(KeyError):
            ds["nope"] = np.zeros(3)


class TestProblemBase:
    def test_locate_duplicate_all_uses_global_ids(self, chain, machine2):
        prob = BFSProblem(chain, machine2)  # BFS uses duplicate-all
        gpu, local = prob.locate(5)
        assert local == 5
        assert gpu == prob.partition.partition_table[5]

    def test_locate_duplicate_1hop_converts(self, chain, machine2):
        prob = BFSProblem(chain, machine2, duplication=DUPLICATE_1HOP)
        gpu, local = prob.locate(5)
        assert local == prob.partition.conversion_table[5]

    def test_extract_roundtrip(self, chain, machine2):
        prob = BFSProblem(chain, machine2)
        for g, ds in enumerate(prob.data_slices):
            hosted = np.flatnonzero(
                prob.subgraphs[g].host_of_local == g
            )
            ds["labels"][hosted] = prob.subgraphs[g].local_to_global[hosted]
        out = prob.extract("labels")
        assert np.array_equal(out, np.arange(chain.num_vertices))

    def test_subgraph_memory_charged(self, chain, machine2):
        prob = BFSProblem(chain, machine2)
        pool = machine2.gpus[0].memory
        assert pool.size_of(f"{prob.alloc_prefix}.subgraph") is not None

    def test_two_problems_share_a_machine(self, chain, machine2):
        a = BFSProblem(chain, machine2)
        b = BFSProblem(chain, machine2)
        assert a.alloc_prefix != b.alloc_prefix

    def test_release_frees_everything(self, chain, machine2):
        before = machine2.gpus[0].memory.in_use
        prob = BFSProblem(chain, machine2)
        prob.release()
        assert machine2.gpus[0].memory.in_use == before

    def test_charge_memory_false_skips_pool(self, chain, machine2):
        prob = BFSProblem(chain, machine2, charge_memory=False)
        assert prob.data_slices[0].pool is None


class TestEnactorMechanics:
    def test_metrics_populated(self, chain, machine2):
        prob = BFSProblem(chain, machine2)
        metrics = Enactor(prob, BFSIteration).enact(src=0)
        assert metrics.num_gpus == 2
        assert metrics.supersteps >= 4
        assert metrics.elapsed > 0
        assert metrics.total_edges_visited == chain.num_edges
        assert 0 in metrics.peak_memory

    def test_virtual_time_monotone_per_iteration(self, chain, machine2):
        prob = BFSProblem(chain, machine2)
        metrics = Enactor(prob, BFSIteration).enact(src=0)
        for rec in metrics.iterations:
            assert rec.duration > 0

    def test_single_gpu_has_no_communication(self, chain):
        prob = BFSProblem(chain, Machine(1, scale=1.0))
        metrics = Enactor(prob, BFSIteration).enact(src=0)
        assert metrics.total_items_sent == 0
        assert metrics.total_comm_compute == 0

    def test_multi_gpu_communicates(self, chain, machine2):
        prob = BFSProblem(chain, machine2)
        metrics = Enactor(prob, BFSIteration).enact(src=0)
        assert metrics.total_items_sent > 0

    def test_rerun_after_reset(self, chain, machine2):
        """Problem.reset + a fresh enact reproduces the run exactly."""
        prob = BFSProblem(chain, machine2)
        en = Enactor(prob, BFSIteration)
        m1 = en.enact(src=0)
        l1 = prob.labels()
        m2 = en.enact(src=0)
        assert np.array_equal(prob.labels(), l1)
        assert m2.elapsed == pytest.approx(m1.elapsed)

    def test_comm_volume_scale_slows_multigpu(self, chain):
        """Section V-A: runtime grows with inflated H."""
        base = Enactor(
            BFSProblem(chain, Machine(2, scale=512.0)), BFSIteration
        ).enact(src=0)
        inflated = Enactor(
            BFSProblem(chain, Machine(2, scale=512.0)),
            BFSIteration,
            comm_volume_scale=64.0,
        ).enact(src=0)
        assert inflated.elapsed > base.elapsed

    def test_latency_scale_has_tiny_effect(self, chain):
        """Section V-A: 10x latency shows no appreciable difference."""
        base = Enactor(
            BFSProblem(chain, Machine(2, scale=512.0)), BFSIteration
        ).enact(src=0)
        slow = Enactor(
            BFSProblem(chain, Machine(2, scale=512.0)),
            BFSIteration,
            comm_latency_scale=10.0,
        ).enact(src=0)
        assert slow.elapsed < base.elapsed * 2.0

    def test_max_iterations_enforced(self, chain, machine2):
        class NeverStops(BFSIteration):
            def should_stop(self, *a, **k):
                return False

            def max_iterations(self):
                return 5

        prob = BFSProblem(chain, machine2)
        with pytest.raises(ConvergenceError):
            Enactor(prob, NeverStops).enact(src=0)

    def test_hooks_see_one_context_per_gpu(self, chain, machine2):
        """The enactor hands each GPU's hooks the same GpuContext every
        superstep and every run, with the superstep number current."""
        seen = []

        class Watching(BFSIteration):
            def full_queue_core(self, ctx, frontier):
                seen.append((ctx.gpu.device_id, id(ctx), ctx.iteration))
                return super().full_queue_core(ctx, frontier)

        prob = BFSProblem(chain, machine2)
        en = Enactor(prob, Watching)
        first = en.enact(src=0)
        en.enact(src=0)
        assert len({ident for _, ident, _ in seen}) == 2
        per_gpu = [it for gpu, _, it in seen if gpu == 0]
        assert per_gpu == 2 * list(range(first.supersteps))
        for i, ctx in enumerate(en._contexts):
            assert ctx.sub is prob.subgraphs[i]
            assert ctx.slice is prob.data_slices[i]
            assert ctx.ids_bytes == prob.subgraphs[i].csr.ids.vertex_bytes

    def test_contexts_follow_a_repartition(self, small_rmat):
        """A GPU loss rebuilds subgraphs and slices; the contexts are
        rebuilt with them (a stale one would read the old partition)."""
        from repro.sim.faults import GPU_LOSS, FaultPlan, FaultSpec

        machine = Machine(4)
        machine.arm_faults(
            FaultPlan([FaultSpec(GPU_LOSS, gpu=3, iteration=1)])
        )
        prob = BFSProblem(small_rmat, machine)
        en = Enactor(prob, BFSIteration)
        before = list(en._contexts)
        metrics = en.enact(src=0)
        assert metrics.rollbacks == 1
        for i, ctx in enumerate(en._contexts):
            assert ctx is not before[i]
            assert ctx.sub is prob.subgraphs[i]
            assert ctx.slice is prob.data_slices[i]

    def test_release_frees_buffers(self, chain, machine2):
        prob = BFSProblem(chain, machine2)
        en = Enactor(prob, BFSIteration)
        pool = machine2.gpus[0].memory
        before = pool.in_use
        en.release()
        assert pool.in_use < before


class TestAllocationSchemesInEnactor:
    def test_just_enough_reallocs_recorded(self, small_rmat):
        m = Machine(1, scale=1.0)
        prob = BFSProblem(small_rmat, m)
        metrics = Enactor(prob, BFSIteration, scheme=JustEnough()).enact(src=0)
        assert metrics.num_reallocs > 0

    def test_max_alloc_never_reallocs_frontiers(self, small_rmat):
        m = Machine(1, scale=1.0)
        prob = BFSProblem(small_rmat, m)
        en = Enactor(prob, BFSIteration, scheme=MaxAlloc())
        metrics = en.enact(src=0)
        assert en.frontiers_in[0].grow_events == 0
        assert en.frontiers_out[0].grow_events == 0

    def test_schemes_agree_on_results(self, small_rmat):
        labels = {}
        for scheme in (JustEnough(), MaxAlloc()):
            m = Machine(2, scale=1.0)
            prob = BFSProblem(small_rmat, m)
            Enactor(prob, BFSIteration, scheme=scheme).enact(src=0)
            labels[scheme.name] = prob.labels()
        assert np.array_equal(labels["just-enough"], labels["max"])

    def test_peak_memory_ordering(self, small_rmat):
        """Fig. 3: max allocation's peak exceeds just-enough's."""
        peaks = {}
        for scheme in (JustEnough(), MaxAlloc()):
            m = Machine(1, scale=1.0)
            prob = BFSProblem(small_rmat, m)
            metrics = Enactor(prob, BFSIteration, scheme=scheme).enact(src=0)
            peaks[scheme.name] = metrics.peak_memory[0]
        assert peaks["max"] > peaks["just-enough"]


class TestCommunicationOverlap:
    """Gunrock's stream overlap (Section III-B): same results, never
    slower, and helps communication-bound runs."""

    def test_results_identical(self, small_rmat):
        from repro.primitives.dobfs import DOBFSIteration, DOBFSProblem

        labels = {}
        for ov in (False, True):
            m = Machine(3, scale=512.0)
            prob = DOBFSProblem(small_rmat, m)
            Enactor(
                prob, DOBFSIteration, overlap_communication=ov
            ).enact(src=3)
            labels[ov] = prob.labels()
        assert np.array_equal(labels[False], labels[True])

    def test_never_slower(self, small_rmat):
        times = {}
        for ov in (False, True):
            m = Machine(3, scale=512.0)
            prob = BFSProblem(small_rmat, m)
            times[ov] = Enactor(
                prob, BFSIteration, overlap_communication=ov
            ).enact(src=3).elapsed
        assert times[True] <= times[False] * 1.0001

    def test_helps_broadcast_heavy_runs(self, small_rmat):
        from repro.primitives.dobfs import DOBFSIteration, DOBFSProblem

        times = {}
        for ov in (False, True):
            m = Machine(4, scale=2048.0)
            prob = DOBFSProblem(small_rmat, m)
            times[ov] = Enactor(
                prob, DOBFSIteration, overlap_communication=ov
            ).enact(src=3).elapsed
        assert times[True] < times[False]

    def test_single_gpu_unaffected(self, small_rmat):
        times = {}
        for ov in (False, True):
            m = Machine(1, scale=512.0)
            prob = BFSProblem(small_rmat, m)
            times[ov] = Enactor(
                prob, BFSIteration, overlap_communication=ov
            ).enact(src=3).elapsed
        assert times[True] == pytest.approx(times[False])


class TestStrategyCompatibility:
    def test_broadcast_rejects_duplicate_1hop(self, chain, machine2):
        """Section III-C: broadcast's global payload needs duplicate-all."""
        from repro.errors import PartitionError
        from repro.primitives.cc import CCProblem

        with pytest.raises(PartitionError, match="duplicate-all"):
            CCProblem(chain, machine2, duplication=DUPLICATE_1HOP)

    def test_dobfs_rejects_duplicate_1hop(self, chain, machine2):
        from repro.errors import PartitionError
        from repro.primitives.dobfs import DOBFSProblem

        with pytest.raises(PartitionError):
            DOBFSProblem(chain, machine2, duplication=DUPLICATE_1HOP)

    def test_selective_allows_both(self, chain, machine2):
        BFSProblem(chain, machine2, duplication=DUPLICATE_1HOP)
        BFSProblem(chain, Machine(2, scale=64.0), duplication=DUPLICATE_ALL)
