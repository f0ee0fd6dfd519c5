"""The superstep hot path stays free of comparison sorts and hashes.

The keyed kernels (``repro.core.operators.compute``) replaced every
``np.unique`` / ``lexsort`` / ``sort`` on the path ``enact()`` runs per
superstep, and PR's loop-invariant column gather and route are built
once, at each GPU's first superstep.  This guard profiles one BFS (no
predecessors), one SSSP and one PR run with ``sys.setprofile`` and
fails if any of those calls comes back — Python-level NumPy wrappers
and C-level methods both.  PR's push is one compiled mat-vec, so its
core may call neither ``repeat`` nor ``ufunc.at`` either.

One sort is allowed, because it is not a comparison sort:
``split_frontier`` partitions a frontier by owner with a stable
``argsort`` of a key of at most 16 bits, which NumPy runs as an O(n)
radix pass.  The guard pins exactly that: ``argsort`` only from
``split_frontier``, at most once per call, on a key of itemsize <= 2.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.core.enactor import Enactor
from repro.core.operators.compute import segment_reduce_min
from repro.primitives import (
    BFSIteration,
    BFSProblem,
    CCIteration,
    CCProblem,
    DOBFSIteration,
    DOBFSProblem,
    PRIteration,
    PRProblem,
    SSSPIteration,
    SSSPProblem,
)
from repro.sim.machine import Machine

SORTS_AND_HASHES = {"unique", "lexsort", "sort"}


class _Seen(Counter):
    """NumPy call counts, plus what the radix partition is held to."""

    def __init__(self):
        super().__init__()
        self.split_calls = 0
        self.pull_calls = 0
        #: NumPy calls made while a ``full_queue_core`` frame is live
        self.in_core = Counter()
        #: (calling function, key itemsize, how many in that call so far)
        self.argsorts = []


def _numpy_calls(fn) -> _Seen:
    """Names of the NumPy functions (Python wrappers and C builtins)
    called while ``fn`` runs on this thread."""
    seen = _Seen()
    in_this_split = 0
    core_depth = 0

    def profiler(frame, event, arg):
        nonlocal in_this_split, core_depth
        if event == "call":
            if "numpy" in frame.f_code.co_filename:
                seen[frame.f_code.co_name] += 1
                if core_depth:
                    seen.in_core[frame.f_code.co_name] += 1
            elif frame.f_code.co_name == "full_queue_core":
                core_depth += 1
            elif frame.f_code.co_name == "split_frontier":
                seen.split_calls += 1
                in_this_split = 0
            elif frame.f_code.co_name == "advance_pull":
                seen.pull_calls += 1
        elif event == "return":
            if frame.f_code.co_name == "full_queue_core":
                core_depth -= 1
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or ""
            owner = getattr(arg, "__self__", None)
            if module.startswith("numpy") or type(owner).__module__ == "numpy":
                seen[arg.__name__] += 1
                if core_depth:
                    seen.in_core[arg.__name__] += 1
                if arg.__name__ == "argsort":
                    in_this_split += 1
                    seen.argsorts.append(
                        (frame.f_code.co_name, owner.dtype.itemsize,
                         in_this_split)
                    )

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def _profiled_enact(problem, iteration_cls, **enact_kwargs) -> _Seen:
    with Enactor(problem, iteration_cls) as enactor:
        enactor.enact(**enact_kwargs)  # warm: lazy caches
        return _numpy_calls(lambda: enactor.enact(**enact_kwargs))


def test_profiler_sees_both_call_forms():
    arr = np.array([3, 1, 2, 1])
    seen = _numpy_calls(lambda: (np.unique(arr), arr.argsort(),
                                 np.lexsort((arr, arr)), arr.take([0])))
    assert {"unique", "argsort", "lexsort", "take"} <= set(seen)
    assert seen.argsorts == [("<lambda>", 8, 1)]


def test_profiler_attributes_calls_inside_a_core():
    def full_queue_core():
        out = np.zeros(3)
        np.add.at(out, np.array([0, 0]), np.ones(1).repeat(2))

    seen = _numpy_calls(lambda: (full_queue_core(), np.ones(2).repeat(2)))
    assert seen["repeat"] == 2 and seen["at"] == 1
    assert seen.in_core["repeat"] == 1 and seen.in_core["at"] == 1


@pytest.mark.parametrize("case", ["bfs", "sssp", "pr", "dobfs", "cc"])
def test_enact_makes_no_sort_or_hash_call(case, small_rmat, weighted_rmat):
    if case == "bfs":
        seen = _profiled_enact(
            BFSProblem(small_rmat, Machine(4)), BFSIteration, src=0
        )
    elif case == "dobfs":
        # from the hub, so the frontier grows past the switch to pull
        hub = int(small_rmat.out_degree().argmax())
        seen = _profiled_enact(
            DOBFSProblem(small_rmat, Machine(4)), DOBFSIteration, src=hub
        )
        assert seen.pull_calls, "no backward pass ran"
    elif case == "cc":
        seen = _profiled_enact(CCProblem(small_rmat, Machine(4)), CCIteration)
    elif case == "sssp":
        seen = _profiled_enact(
            SSSPProblem(weighted_rmat, Machine(4)), SSSPIteration, src=0
        )
    else:
        seen = _profiled_enact(
            PRProblem(small_rmat, Machine(4), max_iter=6), PRIteration
        )
        # the push plan was built in the warm-up run: no per-iteration
        # gather over the column array
        assert seen["take"] == 0
        # and so is the route: the output frontier is neither rebuilt
        # nor split again, in any superstep
        assert seen.split_calls == 0
        assert seen["concatenate"] == 0
        # the push is one compiled mat-vec over the plan: no edge-length
        # repeat of the shares, no ufunc.at scatter of them
        assert seen.in_core, "the profiler saw no PR core"
        assert seen.in_core["repeat"] == 0
        assert seen.in_core["at"] == 0
    assert seen, "the profiler recorded nothing"
    assert not SORTS_AND_HASHES & set(seen), {
        name: seen[name] for name in SORTS_AND_HASHES & set(seen)
    }
    # the one sort left is the owner partition's radix pass, which the
    # broadcast primitives (DOBFS, CC) never run
    if case in ("bfs", "sssp"):
        assert seen.argsorts, "a random partition has no interior frontier"
    for caller, key_itemsize, nth_in_call in seen.argsorts:
        assert caller == "split_frontier"
        assert key_itemsize <= 2  # the widths NumPy radix-sorts
        assert nth_in_call == 1
    assert len(seen.argsorts) <= seen.split_calls


class _MaskSpy(np.ndarray):
    """Counts ``nonzero`` and ``take`` calls, boolean-mask
    ``__getitem__`` and elementwise ufunc calls (a compare among them)
    on itself and on everything derived from it."""

    log = Counter()

    def __getitem__(self, key):
        if getattr(key, "dtype", None) == np.bool_:
            _MaskSpy.log["mask_getitem"] += 1
        return super().__getitem__(key)

    def nonzero(self):
        _MaskSpy.log["nonzero"] += 1
        return self.view(np.ndarray).nonzero()

    def take(self, *args, **kwargs):
        _MaskSpy.log["take"] += 1
        return self.view(np.ndarray).take(*args, **kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "at":
            _MaskSpy.log[ufunc.__name__] += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _MaskSpy) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_segment_reduce_min_never_masks_the_edge_list():
    # the drop is read off the vertex array: the edge-length keys and
    # values only feed the one scatter
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, 4000)
    values = rng.random(4000)
    start = rng.random(50) * 0.01  # some keys get no lower value
    want = start.copy()
    np.minimum.at(want, keys, values)
    out = start.copy()
    _MaskSpy.log.clear()
    dropped = segment_reduce_min(
        keys.view(_MaskSpy), values.view(_MaskSpy), out
    )
    assert _MaskSpy.log == {}
    assert out.tobytes() == want.tobytes()
    expected = np.unique(keys[values < start[keys]])
    assert 0 < expected.size < start.size
    assert dropped.dtype == np.int64
    np.testing.assert_array_equal(dropped, expected)


# -- the per-superstep fixed cost --------------------------------------------
#
# A road grid is the workload of fixed costs: hundreds of supersteps of
# frontiers a few vertices long, so what a GPU-superstep pays before it
# does any work is most of the run.  Each GPU keeps one charge ledger,
# which prices a charge — a list of OpStats — with one
# ``KernelModel.price`` call and reaches the compute stream once per
# superstep; the fused advance+filter is one function that builds one
# OpStats; empty frontiers are neither split nor packaged, and call no
# associate hook.  A sent message is sized from the bytes per item of
# the associates packaged, priced by one ``transfer_cost`` call (which
# picks a live pair's link inline) and launched by one ``Stream.launch``
# (a float back, no event); the barrier records a GPU's traffic with one
# ``record_transfers``; a frontier buffer is reached only when it grows.
# This run measures 220.41 calls per 4-GPU superstep on the one
# superstep path every run takes, armed or not (263.98 with a
# ``Message.nbytes``, a ``link`` and an ``Event`` per message, a
# ``record_transfer`` per message and two ``Frontier.set`` per
# GPU-superstep; 303.24 with a pricing call per OpStats and the fused
# kernel calling the advance and the filter; 641 before the ledger),
# and the call budget sits below 220.41 plus one call per GPU-superstep,
# so a call added to that path fails here.  The cost-model budget sits
# ~15 % above 2.1 charges per GPU-superstep; the stream budget ~15 %
# above its 1.52 entries per GPU-superstep: one ``launch_many`` (the
# flush) plus 0.52 ``launch`` (one per message sent).

PY_CALLS_PER_SUPERSTEP = 224
COST_MODEL_CALLS_PER_GPU_SUPERSTEP = 2.4
STREAM_CALLS_PER_GPU_SUPERSTEP = 1.75


def _calls_by_function(fn):
    """``call`` + ``c_call`` events while ``fn`` runs, in total and per
    Python function ``(file stem, name)``."""
    by_function: Counter = Counter()
    total = 0

    def profiler(frame, event, _arg):
        nonlocal total
        if event == "call":
            code = frame.f_code
            stem = code.co_filename.rsplit("/", 1)[-1].removesuffix(".py")
            by_function[(stem, code.co_name)] += 1
            total += 1
        elif event == "c_call":
            total += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, total, by_function


def _frontier_calls(by_function) -> int:
    return sum(v for (stem, _), v in by_function.items() if stem == "frontier")


def test_superstep_fixed_cost_stays_within_budget():
    from repro.graph.generators import generate_road
    from repro.partition import make_partitioner

    graph = generate_road(32, 32, delete_fraction=0.1,
                          shortcut_fraction=0.0, seed=1)
    problem = BFSProblem(
        graph, Machine(4), partitioner=make_partitioner("metis", seed=1)
    )
    with Enactor(problem, BFSIteration) as enactor:
        enactor.enact(src=0)  # warm: lazy caches
        metrics, total, by_function = _calls_by_function(
            lambda: enactor.enact(src=0)
        )
        sent = enactor.machine.interconnect.total_messages
    supersteps = len(metrics.iterations)
    gpu_supersteps = 4 * supersteps
    assert supersteps > 40, "not the many-small-supersteps regime"
    assert by_function[("enactor", "_gpu_superstep")] == gpu_supersteps
    assert total / supersteps <= PY_CALLS_PER_SUPERSTEP
    # one pricing call per charge (``kernel_time`` runs ``price`` too,
    # so this counts pricings through either entry)
    cost_model = by_function[("kernel", "price")]
    assert cost_model == by_function[("enactor", "charge")]
    assert 0 < cost_model / gpu_supersteps <= COST_MODEL_CALLS_PER_GPU_SUPERSTEP
    # the compute stream is reached by one flush per GPU-superstep, the
    # comm stream by one launch per message sent
    assert sent > 0
    assert by_function[("stream", "launch_many")] == gpu_supersteps
    assert by_function[("stream", "launch")] == sent
    stream = by_function[("stream", "launch_many")] + sent
    assert stream / gpu_supersteps <= STREAM_CALLS_PER_GPU_SUPERSTEP
    # a message is sized, priced, launched and recorded in the
    # superstep's own loops: one pricing call each, nothing per item
    assert by_function[("interconnect", "transfer_cost")] == sent
    assert by_function[("interconnect", "link")] == 0
    assert by_function[("comm", "nbytes")] == 0
    assert by_function[("interconnect", "record_transfer")] == 0
    assert 0 < by_function[("interconnect", "record_transfers")] <= sent
    # no frontier outgrew its buffer, so no buffer was reached
    assert _frontier_calls(by_function) == 0


def test_frontier_buffers_are_reached_only_when_they_grow(small_rmat):
    from repro.sim.memory import JustEnough

    problem = BFSProblem(small_rmat, Machine(4))
    with Enactor(problem, BFSIteration, scheme=JustEnough()) as enactor:
        _, _, by_function = _calls_by_function(lambda: enactor.enact(src=0))
        grown = sum(f.grow_events for f in enactor.frontiers_in
                    + enactor.frontiers_out)
        # warm: every buffer already fits the run
        _, _, warm = _calls_by_function(lambda: enactor.enact(src=0))
    assert grown > 0, "nothing outgrew a just-enough buffer"
    assert by_function[("frontier", "fit")] == grown
    assert _frontier_calls(by_function) == grown
    assert _frontier_calls(warm) == 0


# CC's supersteps are few and heavy: each GPU hooks and jumps to a local
# fixpoint, then min-combines the component IDs it receives.  This 4-GPU
# R-MAT-10 run measures 641.5 calls per superstep (732 with the send
# path's per-message calls, the frontier buffers' contents and the row
# plan rebuilt per GPU-superstep; 752 with a pricing call per OpStats,
# 760 before the destination-side hook read its drop off the component
# array); one Python call per received vertex (the mutation audit's
# ``hot-loop`` mutant) reads 1 011.  The budget sits below 641.5
# plus one call per GPU-superstep.

CC_PY_CALLS_PER_SUPERSTEP = 645


def test_cc_superstep_calls_stay_within_budget(small_rmat):
    problem = CCProblem(small_rmat, Machine(4))
    with Enactor(problem, CCIteration) as enactor:
        enactor.enact()  # warm: lazy caches
        metrics, total, by_function = _calls_by_function(enactor.enact)
    assert by_function[("cc", "expand_incoming")] > 0, "nothing received"
    assert total / len(metrics.iterations) <= CC_PY_CALLS_PER_SUPERSTEP


# SSSP's supersteps relax the frontier's out-edges and min-combine the
# distances received.  This warm 4-GPU run on the weighted R-MAT-10
# measures 451 calls per superstep over its 9 supersteps (567.67 with
# the send path's per-message calls and the frontier buffers' contents,
# 592.67 with a pricing call per OpStats, 605.11 before the relaxation
# read its drop off the distance array, 608.22 before the push gathered
# its rows in one compiled call); one Python call per received vertex in
# ``expand_incoming`` (CC's ``hot-loop`` mutant, moved into SSSP) reads
# 662.89.  The budget sits below 451 plus one call per GPU-superstep.

SSSP_PY_CALLS_PER_SUPERSTEP = 455


def test_sssp_superstep_calls_stay_within_budget(weighted_rmat):
    problem = SSSPProblem(weighted_rmat, Machine(4))
    with Enactor(problem, SSSPIteration) as enactor:
        enactor.enact(src=0)  # warm: lazy caches
        metrics, total, by_function = _calls_by_function(
            lambda: enactor.enact(src=0))
    assert by_function[("sssp", "expand_incoming")] > 0, "nothing received"
    assert total / len(metrics.iterations) <= SSSP_PY_CALLS_PER_SUPERSTEP


# PR's supersteps repeat one fixed plan: a rank update, one compiled
# push over the plan, the stored route, and the border shares received
# and atomicAdd-combined.  This 4-GPU R-MAT-10 run measures 466.4 calls
# per superstep (625.8 with the send path's per-message calls — twelve
# messages a superstep — and the frontier buffers' contents, 645.95 with
# a pricing call per OpStats); the budget sits below that plus one call
# per GPU-superstep.  The repeat + ``np.add.at`` push before the
# compiled one read 641.95: ``np.ones`` for the kernel's unit entries is
# one call more per GPU-superstep than the wrapper it replaced.

PR_PY_CALLS_PER_SUPERSTEP = 470


def test_pr_superstep_calls_stay_within_budget(small_rmat):
    problem = PRProblem(small_rmat, Machine(4), max_iter=20)
    with Enactor(problem, PRIteration) as enactor:
        enactor.enact()  # warm: push plans and routes
        metrics, total, by_function = _calls_by_function(enactor.enact)
    supersteps = len(metrics.iterations)
    assert by_function[("pr", "full_queue_core")] == 4 * supersteps
    assert by_function[("pr", "expand_incoming")] > 0, "nothing received"
    assert total / supersteps <= PR_PY_CALLS_PER_SUPERSTEP


# -- the parent's share of a ``processes`` superstep ---------------------------
#
# Unguarded and unobserved, the workers close supersteps among
# themselves and the parent exchanges one request and one reply per
# worker per *epoch* (backend.py, "Run protocol").  The step protocol
# before it cost two sends and two receives per superstep at two
# workers: 4.0 on this run.

PIPE_MSGS_PER_SUPERSTEP = 0.5


def test_parent_pipe_messages_stay_within_budget(monkeypatch):
    from multiprocessing.connection import Connection

    from repro.graph.generators import generate_road
    from repro.partition import make_partitioner

    calls = Counter()
    for name in ("send", "recv"):
        def counted(conn, *args, _name=name, _fn=getattr(Connection, name)):
            calls[_name] += 1
            return _fn(conn, *args)

        monkeypatch.setattr(Connection, name, counted)
    graph = generate_road(32, 32, delete_fraction=0.1,
                          shortcut_fraction=0.0, seed=1)
    problem = BFSProblem(
        graph, Machine(4), partitioner=make_partitioner("metis", seed=1)
    )
    with Enactor(problem, BFSIteration, backend="processes:2") as enactor:
        enactor.enact(src=0)  # forks the pool
        calls.clear()
        metrics = enactor.enact(src=0)
        # begin_run and the one epoch: a request and a reply per worker
        assert calls == {"send": 4, "recv": 4}
    assert len(metrics.iterations) > 40
    assert sum(calls.values()) / len(metrics.iterations) <= PIPE_MSGS_PER_SUPERSTEP


# A fault plan does not put dispatch in lockstep: a grant runs to the
# next due checkpoint or to the superstep a pending GPU loss fires in,
# whichever comes first.  Lockstep cost a request and a reply per worker
# per superstep: 274 messages on this run.

def test_fault_armed_run_grants_one_epoch_per_checkpoint_interval(
    monkeypatch,
):
    from multiprocessing.connection import Connection

    from repro.graph.generators import generate_road
    from repro.partition import make_partitioner
    from repro.sim.faults import GPU_LOSS, TRANSIENT_COMM, FaultPlan, FaultSpec

    every, lost_at = 16, 20
    calls = Counter()
    for name in ("send", "recv"):
        def counted(conn, *args, _name=name, _fn=getattr(Connection, name)):
            calls[_name] += 1
            return _fn(conn, *args)

        monkeypatch.setattr(Connection, name, counted)
    graph = generate_road(32, 32, delete_fraction=0.1,
                          shortcut_fraction=0.0, seed=1)
    machine = Machine(4)
    machine.arm_faults(FaultPlan([
        FaultSpec(TRANSIENT_COMM, gpu=0, iteration=1, count=2),
        FaultSpec(GPU_LOSS, gpu=3, iteration=lost_at),
    ]))
    problem = BFSProblem(
        graph, machine, partitioner=make_partitioner("metis", seed=1)
    )
    with Enactor(problem, BFSIteration, backend="processes:2",
                 checkpoint_every=every) as enactor:
        metrics = enactor.enact(src=0)
        during = dict(calls)  # not the stops close() sends
    # the run's length, without the supersteps the rollback re-ran
    supersteps = metrics.iterations[-1].iteration + 1
    assert supersteps > 40 and metrics.rollbacks == 1
    assert metrics.comm_retries == 2
    # a grant per checkpoint interval, plus the one the loss cut short;
    # each is a request and a reply per worker.  The rollback adds the
    # two-part rehome request per worker and one acknowledgement each.
    grants = -(-supersteps // every) + 1
    assert during == {"send": 2 * grants + 4, "recv": 2 * grants + 2}


# The parent maps an exchange array only where it reads one: in the
# horizon superstep, which it checkpoints at or dispatches the next
# epoch from.  Below the horizon it replays sizes.  The protocol before
# mapped every frontier and every message of every superstep: 383 views
# in this warm 63-superstep run without checkpoints, where now there
# are none.

@pytest.mark.parametrize("checkpoint_every", [None, 16])
def test_parent_maps_only_the_horizon_superstep(checkpoint_every, monkeypatch):
    import os

    from repro.core.backend import ProcessesBackend
    from repro.core.shm import ExchangeSegment
    from repro.graph.generators import generate_road
    from repro.partition import make_partitioner

    parent = os.getpid()
    every = checkpoint_every or 1 << 30
    #: served superstep -> the parent's views while serving it
    views = Counter()
    #: horizon superstep -> arrays its effects hold (a frontier per
    #: GPU, each message's vertices and associates)
    arrays = {}
    serving = [None]
    view, serve = ExchangeSegment.view, ProcessesBackend._serve

    def counted_view(seg, desc):
        if os.getpid() == parent:
            views[serving[0]] += 1
        return view(seg, desc)

    def counted_serve(self, enactor, iteration, *args):
        serving[0] = iteration
        results = serve(self, enactor, iteration, *args)
        if iteration % every == every - 1:
            arrays[iteration] = sum(
                1 + sum(1 + len(msg.vertex_associates)
                        + len(msg.value_associates)
                        for _, _, msg in eff.sends)
                for eff in results
            )
        return results

    graph = generate_road(32, 32, delete_fraction=0.1,
                          shortcut_fraction=0.0, seed=1)
    problem = BFSProblem(
        graph, Machine(4), partitioner=make_partitioner("metis", seed=1)
    )
    with Enactor(problem, BFSIteration, backend="processes:2",
                 checkpoint_every=checkpoint_every) as enactor:
        enactor.enact(src=0)  # forks the pool
        monkeypatch.setattr(ExchangeSegment, "view", counted_view)
        monkeypatch.setattr(ProcessesBackend, "_serve", counted_serve)
        metrics = enactor.enact(src=0)
    assert len(metrics.iterations) > 40
    assert len(arrays) == len(metrics.iterations) // every
    assert views == arrays


# -- the pull reads only what it charges for ----------------------------------
#
# A backward pass charges a candidate for the columns it scans up to its
# first frontier neighbour.  ``advance_pull`` reads each row in chunks
# of 2, 8, 32 ... columns and drops a row at its first hit, so it looks
# up fewer than four columns per scanned edge: 1.64x the 490 scanned
# here, 1.73x at most in one call.  The full gather before it read every
# column of every candidate: 4.22x, and 4.75x in one call.

PULL_READS_PER_SCANNED_EDGE = 4


class _CountedLookups(np.ndarray):
    """Counts the items looked up through ``__getitem__``."""

    looked_up = 0

    def __getitem__(self, key):
        _CountedLookups.looked_up += np.size(key)
        return super().__getitem__(key)


def test_pull_reads_at_most_four_columns_per_scanned_edge(
    small_rmat, monkeypatch
):
    from repro.primitives import dobfs

    calls = []
    real = dobfs.advance_pull

    def counted(csr, candidates, in_frontier, *args, **kwargs):
        _CountedLookups.looked_up = 0
        out = real(csr, candidates, in_frontier.view(_CountedLookups),
                   *args, **kwargs)
        calls.append((_CountedLookups.looked_up, out[2].edges_visited))
        return out

    monkeypatch.setattr(dobfs, "advance_pull", counted)
    hub = int(small_rmat.out_degree().argmax())
    labels, _, _ = dobfs.run_dobfs(small_rmat, Machine(4), src=hub)
    assert calls, "no backward pass ran"
    read = sum(r for r, _ in calls)
    scanned = sum(s for _, s in calls)
    assert scanned > 400, "not a pull phase worth the name"
    assert read <= PULL_READS_PER_SCANNED_EDGE * scanned
    for read_in_call, scanned_in_call in calls:
        assert read_in_call <= PULL_READS_PER_SCANNED_EDGE * scanned_in_call
    assert (labels >= 0).sum() > 1
