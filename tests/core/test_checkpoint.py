"""Checkpoint capture/restore (repro.core.checkpoint)."""

import numpy as np
import pytest

from repro.core.checkpoint import capture_checkpoint
from repro.errors import SimulationError
from repro.primitives.bfs import BFSProblem, run_bfs
from repro.sim.machine import Machine


def _bfs_setup(graph, n=2):
    machine = Machine(n)
    problem = BFSProblem(graph, machine)
    frontiers = problem.reset(src=0)
    return machine, problem, frontiers


class TestCaptureRestore:
    def test_arrays_roundtrip(self, small_rmat):
        machine, problem, frontiers = _bfs_setup(small_rmat)
        ckpt = capture_checkpoint(
            problem, 0, frontiers, [[] for _ in range(2)]
        )
        before = problem.extract("labels").copy()
        # trash the state, then restore
        for ds in problem.data_slices:
            ds["labels"].fill(123)
        problem.restore_arrays(ckpt.arrays)
        assert np.array_equal(problem.extract("labels"), before)

    def test_frontiers_are_global(self, small_rmat):
        machine, problem, frontiers = _bfs_setup(small_rmat)
        ckpt = capture_checkpoint(
            problem, 0, frontiers, [[] for _ in range(2)]
        )
        # the checkpointed frontier for the source GPU holds the global
        # source vertex, independent of local numbering
        sizes = [f.size for f in ckpt.frontiers]
        assert sum(sizes) == 1
        g = sizes.index(1)
        assert ckpt.frontiers[g][0] == 0  # global vertex ID of src

    def test_checkpoint_is_a_deep_snapshot(self, small_rmat):
        machine, problem, frontiers = _bfs_setup(small_rmat)
        ckpt = capture_checkpoint(
            problem, 0, frontiers, [[] for _ in range(2)]
        )
        saved = {k: v.copy() for k, v in ckpt.arrays.items()}
        for ds in problem.data_slices:
            ds["labels"].fill(7)
        for k, v in saved.items():
            assert np.array_equal(ckpt.arrays[k], v)


class TestEnactorCheckpointing:
    def test_checkpoint_cadence_and_cost(self, small_rmat):
        base_ref, base, _ = run_bfs(small_rmat, Machine(2), src=0)
        ref, metrics, _ = run_bfs(
            small_rmat, Machine(2), src=0, checkpoint_every=1
        )
        assert np.array_equal(ref, base_ref)
        # baseline checkpoint + one per completed (non-final) iteration
        assert metrics.checkpoints_taken == base.supersteps
        assert metrics.checkpoint_bytes > 0
        # checkpointing is charged to the virtual clock
        assert metrics.elapsed > base.elapsed
        assert metrics.checkpoint_seconds > 0

    def test_no_checkpointing_no_overhead(self, small_rmat):
        _, base, _ = run_bfs(small_rmat, Machine(2), src=0)
        assert base.checkpoints_taken == 0
        assert base.checkpoint_seconds == 0.0

    def test_bad_interval_rejected(self, small_rmat):
        with pytest.raises(SimulationError):
            run_bfs(small_rmat, Machine(2), src=0, checkpoint_every=0)

    def test_sanitize_incompatible_with_protection(self, small_rmat):
        with pytest.raises(SimulationError):
            run_bfs(small_rmat, Machine(2), src=0, sanitize=True,
                    checkpoint_every=2)
