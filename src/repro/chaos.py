"""Seeded chaos harness: fault plans x primitives x machines.

The robustness acceptance gate (``docs/robustness.md``): every primitive
must survive each fault kind and produce results equal to a fault-free
reference run of the same configuration.  The harness is fully seeded —
graph generation, fault plans, and the virtual machine are all
deterministic, so a failing cell reproduces exactly from its name.

Fault kinds exercised per cell:

``transient-comm``
    Every GPU's outgoing link fails twice starting at superstep 0; the
    enactor's capped-backoff retry loop must absorb all of them.
``oom``
    Every GPU's next allocation fails once; the enactor regrows the
    buffer with an exact-fit allocation.  Armed together with a
    deliberately undersized allocation scheme so frontier growth
    actually allocates during supersteps.
``gpu-loss``
    The highest-numbered GPU dies permanently at superstep 1; the
    enactor rolls every survivor back to the last barrier checkpoint,
    repartitions the lost subgraph onto the survivors, and resumes
    degraded.

Use :func:`run_chaos_matrix` programmatically or
``python -m repro chaos`` from the command line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph.build import add_random_weights
from .graph.generators import generate_rmat
from .obs import Tracer
from .primitives import RUNNERS
from .sim.faults import GPU_LOSS, OOM, TRANSIENT_COMM, FaultPlan, FaultSpec
from .sim.machine import Machine
from .sim.memory import FixedPrealloc, JustEnough

__all__ = [
    "CHAOS_KINDS",
    "CHAOS_PRIMITIVES",
    "ChaosResult",
    "build_chaos_plan",
    "run_chaos_case",
    "run_chaos_matrix",
]

CHAOS_PRIMITIVES = ("bfs", "dobfs", "sssp", "cc", "bc", "pr")
CHAOS_KINDS = (TRANSIENT_COMM, OOM, GPU_LOSS)

#: primitives whose recovered output must be bit-exact; the float-valued
#: primitives (PR ranks, BC centrality) compare with allclose because a
#: rollback legitimately reorders float accumulations
EXACT_PRIMITIVES = frozenset({"bfs", "dobfs", "sssp", "cc"})


def build_chaos_plan(kind: str, num_gpus: int) -> Tuple[FaultPlan, dict]:
    """The canonical fault plan for one chaos cell.

    Returns ``(plan, extra_enactor_kwargs)``; the kwargs carry whatever
    the recovery path additionally needs (checkpointing for GPU loss).
    """
    if kind == TRANSIENT_COMM:
        # two consecutive link failures out of every GPU, from the start
        plan = FaultPlan(
            [
                FaultSpec(TRANSIENT_COMM, gpu=g, iteration=0, count=2)
                for g in range(num_gpus)
            ]
        )
        return plan, {}
    if kind == OOM:
        plan = FaultPlan(
            [FaultSpec(OOM, gpu=g, iteration=0) for g in range(num_gpus)]
        )
        return plan, {}
    if kind == GPU_LOSS:
        # superstep 1, not 0: CC can converge in two supersteps and the
        # loss must land while the run is still in flight
        plan = FaultPlan(
            [FaultSpec(GPU_LOSS, gpu=num_gpus - 1, iteration=1)]
        )
        return plan, {"checkpoint_every": 2}
    raise ValueError(
        f"unknown chaos kind {kind!r}; expected {CHAOS_KINDS}"
    )


def _chaos_scheme(primitive: str, kind: str):
    """Allocation scheme for a chaos cell.

    The OOM cells need a scheme that undersizes frontiers so growth
    actually reallocates during supersteps (the preallocating schemes
    never allocate after setup, which would leave the armed fault
    pending forever).
    """
    if kind == OOM:
        return JustEnough(slack=0.05)
    if primitive in ("cc", "pr"):
        return FixedPrealloc(frontier_factor=1.05)
    return None


@dataclass
class ChaosResult:
    """Outcome of one chaos cell (or a matrix of them)."""

    primitive: str
    num_gpus: int
    kind: str
    backend: str
    ok: bool
    detail: str = ""
    #: recovery counters copied off the faulted run's metrics
    recovery: Dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return (
            f"{self.primitive}/gpus={self.num_gpus}/{self.kind}"
            f"/{self.backend}"
        )


def _write_dump(tracer: Tracer, path: Optional[str]) -> None:
    """Write the tracer's latest crash dump to ``path``, if one is set."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dumps[-1], fh, indent=2, sort_keys=True,
                      default=str)


def _build_inputs(rmat_scale: int, edge_factor: int, seed: int):
    graph = generate_rmat(rmat_scale, edge_factor, seed=seed)
    weighted = add_random_weights(graph, 1, 64, seed=2)
    return graph, weighted


def run_chaos_case(
    primitive: str,
    num_gpus: int,
    kind: str,
    backend: str = "serial",
    rmat_scale: int = 7,
    edge_factor: int = 8,
    seed: int = 3,
    dump_path: Optional[str] = None,
    _inputs=None,
) -> ChaosResult:
    """Run one chaos cell and compare against the fault-free reference.

    The faulted run is traced, and every recovery event count in the
    tracer is asserted against the matching ``RunMetrics`` counter —
    retries, OOM regrows, rollbacks, and checkpoints must agree exactly,
    or the cell fails.  A cell that *fails* — exception, wrong result,
    or counter mismatch — takes the tracer's crash report on the way
    out (:meth:`~repro.obs.tracer.Tracer.on_error`).  ``dump_path``
    receives the latest dump; the dump count is reported as
    ``recovery["flight_dumps"]``.
    """
    graph, weighted = _inputs or _build_inputs(rmat_scale, edge_factor, seed)
    runner = RUNNERS[primitive]
    kwargs: dict = {"backend": backend}
    g = weighted if primitive == "sssp" else graph
    if primitive in ("bfs", "dobfs", "sssp", "bc"):
        kwargs["src"] = 0
    if primitive == "pr":
        kwargs["max_iter"] = 30
    scheme = _chaos_scheme(primitive, kind)
    if scheme is not None:
        kwargs["scheme"] = scheme

    ref, _, _ = runner(g, Machine(num_gpus), **kwargs)

    plan, extra = build_chaos_plan(kind, num_gpus)
    machine = Machine(num_gpus)
    machine.arm_faults(plan)
    tracer = Tracer()
    try:
        out, metrics, _ = runner(g, machine, **kwargs, **extra,
                                 tracer=tracer)
    except Exception as exc:  # noqa: BLE001 - a cell reports, not raises
        if not tracer.dumps:
            # enact()'s own hook only covers ReproError; anything else
            # (or an error before enact) still deserves forensics
            tracer.on_error("cell-exception", error=exc,
                            faults=machine.faults)
        _write_dump(tracer, dump_path)
        return ChaosResult(
            primitive, num_gpus, kind, backend, ok=False,
            detail=f"{type(exc).__name__}: {exc}",
            recovery={"flight_dumps": len(tracer.dumps)},
        )

    if primitive in EXACT_PRIMITIVES:
        same = bool(np.array_equal(out, ref))
    else:
        same = bool(np.allclose(out, ref))
    recovery = {
        "comm_retries": metrics.comm_retries,
        "oom_recoveries": metrics.oom_recoveries,
        "rollbacks": metrics.rollbacks,
        "checkpoints_taken": metrics.checkpoints_taken,
        "degraded_gpus": list(metrics.degraded_gpus),
        "injected": dict(machine.faults.injected),
    }
    recovered = {
        TRANSIENT_COMM: metrics.comm_retries > 0,
        OOM: metrics.oom_recoveries > 0,
        GPU_LOSS: metrics.rollbacks > 0,
    }[kind]
    expected = {
        "recovery.retry": metrics.comm_retries,
        "recovery.oom-regrow": metrics.oom_recoveries,
        "recovery.rollback": metrics.rollbacks,
        "checkpoint": metrics.checkpoints_taken,
    }
    counts = {t: tracer.count(t) for t in expected}
    recovery["events"] = counts
    bad = {
        t: (counts[t], want)
        for t, want in expected.items()
        if counts[t] != want
    }
    event_mismatch = ""
    if bad:
        event_mismatch = (
            "recovery events disagree with RunMetrics counters: "
            + ", ".join(
                f"{t} emitted {got} but counter says {want}"
                for t, (got, want) in sorted(bad.items())
            )
        )
    if not same:
        detail = "result differs from fault-free reference"
    elif not recovered:
        detail = f"fault never fired (recovery counters: {recovery})"
    else:
        detail = event_mismatch
    ok = same and recovered and not event_mismatch
    if not ok:
        tracer.on_error("cell-failure", faults=machine.faults,
                        detail=detail)
        _write_dump(tracer, dump_path)
    recovery["flight_dumps"] = len(tracer.dumps)
    return ChaosResult(
        primitive, num_gpus, kind, backend,
        ok=ok, detail=detail, recovery=recovery,
    )


def run_chaos_matrix(
    primitives: Sequence[str] = CHAOS_PRIMITIVES,
    gpu_counts: Sequence[int] = (2, 4),
    kinds: Sequence[str] = CHAOS_KINDS,
    backends: Sequence[str] = ("serial", "processes"),
    rmat_scale: int = 7,
    edge_factor: int = 8,
    seed: int = 3,
    progress: Optional[Callable[[str], None]] = None,
    dump_dir: Optional[str] = None,
) -> List[ChaosResult]:
    """The full chaos matrix; returns one :class:`ChaosResult` per cell.

    ``dump_dir`` (optional) collects each failed cell's crash dump as
    ``<dir>/<primitive>-<gpus>-<kind>-<backend>.dump.json``; cells that
    recover cleanly never dump and leave no file.
    """
    inputs = _build_inputs(rmat_scale, edge_factor, seed)
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
    results: List[ChaosResult] = []
    for primitive in primitives:
        for n in gpu_counts:
            for kind in kinds:
                for backend in backends:
                    dump_path = None
                    if dump_dir is not None:
                        dump_path = os.path.join(
                            dump_dir,
                            f"{primitive}-{n}-{kind}-{backend}.dump.json",
                        )
                    r = run_chaos_case(
                        primitive, n, kind, backend,
                        rmat_scale=rmat_scale, edge_factor=edge_factor,
                        seed=seed, dump_path=dump_path, _inputs=inputs,
                    )
                    results.append(r)
                    if progress is not None:
                        progress(
                            f"{'ok  ' if r.ok else 'FAIL'} {r.name}"
                            + (f" ({r.detail})" if r.detail else "")
                        )
    return results
