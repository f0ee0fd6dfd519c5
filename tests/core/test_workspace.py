"""The per-GPU scratch arenas: unit behavior + cross-GPU isolation.

The ``threads`` backend's safety argument leans on workspaces being
strictly per-GPU: a view handed out by GPU i's arena must never share
memory with anything GPU j's arena hands out.  The hypothesis test
drives two arenas through arbitrary interleaved take/iota sequences and
asserts exactly that, via ``Workspace.owns``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workspace import Workspace


def test_take_reuses_buffer_and_counts():
    ws = Workspace(0)
    a = ws.take("x", 100)
    assert a.size == 100 and a.dtype == np.int64
    assert (ws.takes, ws.grows) == (1, 1)
    b = ws.take("x", 50)
    assert np.shares_memory(a, b)
    assert (ws.takes, ws.grows) == (2, 1)  # reuse, no new allocation
    c = ws.take("x", 500)
    assert (ws.takes, ws.grows) == (3, 2)  # grew
    assert c.size == 500


def test_take_keys_by_dtype():
    ws = Workspace(0)
    a = ws.take("x", 10, np.int64)
    b = ws.take("x", 10, np.float64)
    assert not np.shares_memory(a, b)
    assert b.dtype == np.float64


def test_growth_is_geometric():
    ws = Workspace(0)
    ws.take("x", 100)
    ws.take("x", 110)  # grows, with 1.25x slack: capacity becomes 125
    assert ws.grows == 2
    ws.take("x", 124)  # within the slack: must not reallocate again
    assert ws.grows == 2


def test_iota_prefix_is_readonly_arange():
    ws = Workspace(0)
    i1 = ws.iota(10)
    np.testing.assert_array_equal(i1, np.arange(10))
    assert not i1.flags.writeable
    i2 = ws.iota(5)
    assert np.shares_memory(i1, i2)
    with pytest.raises((ValueError, RuntimeError)):
        i2[0] = 7


def test_zero_size_take():
    ws = Workspace(0)
    a = ws.take("x", 0)
    assert a.size == 0


def test_owns():
    ws = Workspace(0)
    a = ws.take("x", 10)
    assert ws.owns(a) and ws.owns(a[2:5]) and ws.owns(ws.iota(3))
    assert not ws.owns(np.arange(10))


def test_stats_and_reset():
    ws = Workspace(3)
    ws.take("x", 10)
    ws.iota(10)
    s = ws.stats()
    assert s["takes"] == 1 and s["grows"] == 2 and s["buffers"] == 2
    assert s["nbytes"] > 0
    ws.reset_counters()
    assert ws.takes == 0 and ws.grows == 0
    assert ws.nbytes == s["nbytes"]  # buffers stay, only counters reset


_op = st.tuples(
    st.sampled_from(["take", "iota"]),
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=0, max_value=200),
    st.sampled_from([np.int64, np.float64, np.bool_]),
)


@settings(max_examples=50, deadline=None)
@given(
    ops0=st.lists(_op, min_size=1, max_size=12),
    ops1=st.lists(_op, min_size=1, max_size=12),
)
def test_arenas_never_alias_across_gpus(ops0, ops1):
    """No view from GPU 0's arena may share memory with GPU 1's."""
    ws0, ws1 = Workspace(0), Workspace(1)

    def drive(ws, ops):
        views = []
        for kind, name, size, dtype in ops:
            if kind == "take":
                views.append(ws.take(name, size, dtype))
            else:
                views.append(ws.iota(size))
        return views

    v0 = drive(ws0, ops0)
    v1 = drive(ws1, ops1)
    for a in v0:
        assert not ws1.owns(a)
    for b in v1:
        assert not ws0.owns(b)
    for a in v0:
        for b in v1:
            assert not np.shares_memory(a, b)


def test_enactor_builds_disjoint_workspaces(small_rmat):
    from repro.core.enactor import Enactor
    from repro.primitives import BFSIteration, BFSProblem
    from repro.sim.machine import Machine

    machine = Machine(4)
    enactor = Enactor(BFSProblem(small_rmat, machine), BFSIteration)
    enactor.enact(src=0)
    arenas = enactor.workspaces
    assert len(arenas) == 4 and all(ws is not None for ws in arenas)
    # at least one arena was actually used by the hot paths
    assert sum(ws.takes for ws in arenas) > 0
    probes = [ws.take("probe-disjoint", 8) for ws in arenas]
    for i, a in enumerate(probes):
        for j, ws in enumerate(arenas):
            if i != j:
                assert not ws.owns(a)
    enactor.release()


def test_enactor_workspace_opt_out(small_rmat):
    from repro.core.enactor import Enactor
    from repro.primitives import BFSIteration, BFSProblem
    from repro.sim.machine import Machine

    machine = Machine(2)
    enactor = Enactor(
        BFSProblem(small_rmat, machine), BFSIteration, use_workspace=False
    )
    assert all(ws is None for ws in enactor.workspaces)
    enactor.enact(src=0)  # hot paths must tolerate ws=None
    enactor.release()


# -- the all-False flag scratch -------------------------------------------

def test_flags_counted_in_accounting():
    ws = Workspace(0)
    before = ws.nbytes
    f = ws.flags(64)
    assert f.dtype == np.bool_ and f.size == 64 and not f.any()
    assert ws.owns(f) and ws.owns(f[3:9])
    assert ws.nbytes == before + 64
    assert ws.stats()["buffers"] == 1 and ws.grows == 1
    assert np.shares_memory(ws.flags(10), f) and ws.grows == 1  # reused
    assert not Workspace(1).owns(f)


def _scratch_clean(ws) -> bool:
    return ws is None or ws._flags is None or not ws._flags.any()


@settings(max_examples=60, deadline=None)
@given(
    frontier=st.lists(st.integers(0, 1023), max_size=40),
    visited=st.lists(st.integers(0, 1023), max_size=200),
    use_ws=st.booleans(),
)
def test_flag_scratch_all_false_after_every_operator(
    small_rmat, frontier, visited, use_ws
):
    """The flag contract, operator by operator — empty frontiers and the
    allocating ``ws is None`` fallback included."""
    from repro.core.operators import (
        advance_push,
        filter_unvisited,
        fused_advance_filter,
    )
    from repro.core.operators.fused import first_witness

    ws = Workspace(0) if use_ws else None
    n = small_rmat.num_vertices
    frontier = np.array(frontier, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    labels[np.array(visited, dtype=np.int64)] = 0
    for witness in (True, False):
        fused_advance_filter(small_rmat, frontier, labels, -1, ws=ws,
                             witness=witness)
        assert _scratch_clean(ws)
    nbrs, srcs, eidx, _ = advance_push(small_rmat, frontier, ws=ws)
    survivors, _ = filter_unvisited(nbrs, labels, -1, ws=ws)
    assert _scratch_clean(ws)
    first_witness(nbrs, srcs, eidx, survivors, n, ws)
    assert _scratch_clean(ws)


@pytest.mark.parametrize("use_workspace", [True, False])
@pytest.mark.parametrize(
    "primitive", ["bfs", "bfs+preds", "dobfs", "sssp", "sssp+preds", "cc",
                  "bc", "pr"]
)
def test_flag_scratch_all_false_after_every_hook(
    primitive, use_workspace, small_rmat, weighted_rmat
):
    """Wrap both hooks of every primitive: after each call the GPU's
    flag scratch is all False again (frontiers drain to empty on the
    way, so empty inputs are covered)."""
    from repro import primitives
    from repro.core.enactor import Enactor
    from repro.sim.machine import Machine

    name, _, preds = primitive.partition("+")
    prefix = {"pr": "PR"}.get(name, name.upper())
    problem_cls = getattr(primitives, prefix + "Problem")
    iteration_cls = getattr(primitives, prefix + "Iteration")
    calls = {"core": 0, "expand": 0}

    class Checked(iteration_cls):
        def full_queue_core(self, ctx, frontier):
            out = super().full_queue_core(ctx, frontier)
            assert _scratch_clean(ctx.workspace)
            calls["core"] += 1
            return out

        def expand_incoming(self, ctx, msg):
            out = super().expand_incoming(ctx, msg)
            assert _scratch_clean(ctx.workspace)
            calls["expand"] += 1
            return out

    graph = weighted_rmat if name == "sssp" else small_rmat
    kwargs = {"mark_predecessors": True} if preds else {}
    if name == "pr":
        kwargs["max_iter"] = 5
    problem = problem_cls(graph, Machine(3), **kwargs)
    enact_kwargs = {} if name in ("cc", "pr") else {"src": 0}
    with Enactor(problem, Checked, use_workspace=use_workspace) as enactor:
        enactor.enact(**enact_kwargs)
        assert calls["core"] > 0 and calls["expand"] > 0
        for ws in enactor.workspaces:
            assert (ws is None) == (not use_workspace)
            assert _scratch_clean(ws)
