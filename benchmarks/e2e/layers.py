"""The traced run: per-layer metrics of one workload.

Runs after the timed rounds, on the same session: one traced set-up,
one traced serial pass and one traced ``processes:2`` pass under the
wrappers of :mod:`trace`; one serial pass under the repo's own
``obs.Tracer`` for the model clock's W/H/C/S split and the what-if
bounds; one serial pass under ``sys.setprofile`` for ``py_calls``.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.obs import Tracer, analyze_trace, profile_rows

from calibrate import BracketTimer, per_key_medians
from harness import (
    BACKENDS,
    KINDS,
    Gate,
    Session,
    build,
    build_faulted,
    count_py_calls,
    result_of,
    shm_mbytes,
    shm_segments,
)
from trace import COUNT, END, NAME, PARENT, START, Recorder, tracing
from workloads import PROCESSES_BACKEND, Inputs

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

ADVANCE = ("advance_push", "advance_pull")
FILTER = ("filter_predicate", "filter_unvisited", "unique_vertices")
OPERATORS = ADVANCE + FILTER + ("fused_advance_filter", "compute_op")


def py_calls_of_pass(session: Session) -> int:
    """Python call events of one serial pass (checks not counted)."""
    total = 0

    def counted(_step, fn):
        nonlocal total
        held = []
        total += count_py_calls(lambda: held.append(fn()))
        return held[0]

    for q in session.inputs.queries:
        session.run(q, "serial", lap=counted)
    return total


class _Pass:
    """What one pass over the queries produced."""

    def __init__(self):
        self.metrics: List[object] = []
        self.raw_s = 0.0
        #: the ``enact`` steps alone
        self.enact_raw_s = 0.0
        self.shm_names: List[str] = []
        self.shm_mbytes = 0.0

    @property
    def supersteps(self) -> int:
        return sum(m.supersteps for m in self.metrics)


def _run_pass(session: Session, backend: str,
              rec: Optional[Recorder] = None) -> _Pass:
    """One pass, its steps timed raw and (with ``rec``) traced."""
    out = _Pass()

    def lap(step, fn):
        if rec is not None:
            rec.active = True
        t0 = perf_counter()
        try:
            return fn()
        finally:
            spent = perf_counter() - t0
            out.raw_s += spent
            if rec is not None:
                rec.active = False
            if step == "enact":
                out.enact_raw_s += spent
                # the enactor is still open: its segments are live
                names = shm_segments()
                if len(names) > len(out.shm_names):
                    out.shm_names, out.shm_mbytes = names, shm_mbytes(names)

    for q in session.inputs.queries:
        if rec is not None:
            rec.query = q.id
        out.metrics.append(session.run(q, backend, lap=lap))
    return out


def _traced_setup(session: Session, rec: Recorder) -> None:
    """Construct and run cold every (kind, backend) under the wrappers."""

    def lap(_step, fn):
        rec.active = True
        try:
            return fn()
        finally:
            rec.active = False

    for kind in session.kinds:
        for backend in BACKENDS:
            rec.query = kind
            session.setup(kind, backend, lap=lap)


def _obs_pass(session: Session, gate: Gate, untraced_enact_s: float) -> dict:
    """One serial pass under ``obs.Tracer``: the model clock by term,
    and what an attached tracer costs ``enact()``."""
    inputs = session.inputs
    terms = dict.fromkeys("WHCS", 0.0)
    what_if = {"zero_comm_s": 0.0, "perfect_balance_s": 0.0}
    traced_raw_s = 0.0
    tracer = Tracer()
    enactors = {}
    try:
        for q in inputs.queries:
            if session.recovery:
                problem, enactor = build_faulted(
                    inputs, q.kind, "serial", tracer=tracer
                )
            elif q.kind not in enactors:
                problem, enactor = enactors[q.kind] = build(
                    inputs, q.kind, "serial", tracer=tracer
                )
                enactor.enact(**q.kwargs)  # cold run, not the one measured
            else:
                problem, enactor = enactors[q.kind]
            tracer.clear()
            t0 = perf_counter()
            try:
                metrics = enactor.enact(**q.kwargs)
            finally:
                traced_raw_s += perf_counter() - t0
                if session.recovery:
                    enactor.close()
            result = result_of(q.kind, problem)
            if session.recovery:
                gate.check_recovered(q, "serial", metrics, result)
            else:
                gate.check(q, "serial", metrics, result)
            mine = dict.fromkeys("WHCS", 0.0)
            for row in profile_rows(tracer):
                mine[row["term"]] += row["virtual_s"]
            report = analyze_trace(tracer)
            gate.attempted += 1
            if report["terms"] != mine:
                gate.fail(q, "serial", "analyze_trace's run totals differ "
                          "from profile_rows' W/H/C/S")
            for term, seconds in mine.items():
                terms[term] += seconds
            for key in what_if:
                what_if[key] += report["what_if"][key]
    finally:
        for _problem, enactor in enactors.values():
            enactor.close()
    return {
        "sim.virtual_W_s": terms["W"],
        "sim.virtual_H_s": terms["H"],
        "sim.virtual_C_s": terms["C"],
        "sim.virtual_S_s": terms["S"],
        "sim.virtual_zero_comm_s": what_if["zero_comm_s"],
        "sim.virtual_perfect_balance_s": what_if["perfect_balance_s"],
        "obs.tracer_overhead_x": traced_raw_s / untraced_enact_s,
    }


def traced_run(
    session: Session, gate: Gate, timer: BracketTimer,
    log: Callable[[str], None],
) -> Dict[str, float]:
    """Every per-layer metric that needs a traced or profiled pass."""
    inputs: Inputs = session.inputs
    rec = Recorder()
    with tracing(rec):
        rec.phase = "setup"
        _traced_setup(session, rec)
        rec.phase = "processes"
        procs = _run_pass(session, PROCESSES_BACKEND, rec)
        pipe_bytes = sum(rec.pipe_bytes.values())
    # an untraced serial pass on either side of the traced one, so that
    # drift between them does not read as tracing overhead
    before = _run_pass(session, "serial")
    with tracing(rec):
        rec.phase = "serial"
        serial = _run_pass(session, "serial", rec)
    after = _run_pass(session, "serial")
    untraced_s = 0.5 * (before.raw_s + after.raw_s)
    untraced_enact_s = 0.5 * (before.enact_raw_s + after.enact_raw_s)
    path = os.path.join(OUT_DIR, f"{inputs.workload.name}.trace.json")
    rec.write_chrome_trace(path)
    log(f"wrote {len(rec.spans)} spans to {os.path.relpath(path)}")

    self_t = rec.self_times()
    spans = rec.spans

    def self_s(phase, names=None, layer=None) -> float:
        return sum(self_t[i] for i in rec.select(phase, names, layer))

    def inclusive_s(phase, names) -> float:
        return sum(spans[i][END] - spans[i][START]
                   for i in rec.select(phase, names))

    def calls(phase, names=None, layer=None) -> int:
        return len(rec.select(phase, names, layer))

    # the layers' self times must add up to the enact spans they sit in
    def root(i: int) -> int:
        while spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
        return i

    in_serial = rec.select("serial")
    enact_s = inclusive_s("serial", ("enact",))
    under_enact = sum(
        self_t[i] for i in in_serial if spans[root(i)][NAME] == "enact"
    )
    gate.attempted += 1
    if abs(under_enact - enact_s) > 0.05 * enact_s:
        gate.failed += 1
        log(f"FAILED layer self times {under_enact:.4f}s do not add up to "
            f"the enact spans {enact_s:.4f}s")

    steps = serial.supersteps
    psteps = procs.supersteps
    operator_s = self_s("serial", OPERATORS)
    edges = sum(m.total_edges_visited for m in serial.metrics)
    py_calls = py_calls_of_pass(session)
    enactor_self = self_s("serial", ("enact", "gpu_superstep"))
    run_iter_p = inclusive_s("processes", ("run_iteration.processes",))

    out = {
        "problem.init_self_s": self_s("setup", ("problem.init",)),
        "problem.reset_s": self_s("serial", ("problem.reset",)),
        "partition.assign_s": self_s("setup", ("partition",)),
        "partition.build_subgraphs_s": self_s("setup", ("build_subgraphs",)),
        "enactor.init_s": self_s("setup", ("enactor.init",)),
        "enactor.supersteps": steps,
        "enactor.self_s": enactor_self,
        "enactor.self_us_per_superstep": 1e6 * enactor_self / steps,
        "enactor.py_calls_per_superstep": py_calls / steps,
        "backend.serial_self_s": self_s("serial", ("run_iteration",)),
        "backend.processes_run_iteration_s": run_iter_p,
        "backend.processes_us_per_superstep": 1e6 * run_iter_p / psteps,
        "backend.processes_pool_start_s":
            inclusive_s("processes", ("pool.fork",)),
        "backend.pipe_bytes_per_superstep": pipe_bytes / psteps,
        "backend.pipe_msgs_per_superstep":
            calls("processes", ("pipe.send", "pipe.recv")) / psteps,
        "backend.pipe_send_s": inclusive_s("processes", ("pipe.send",)),
        "backend.pipe_recv_wait_s":
            inclusive_s("processes", ("pipe.wait_for_reply",)),
        "shm.migrate_s": inclusive_s("setup", ("shm.migrate",))
            + inclusive_s("processes", ("shm.migrate",)),
        "shm.segments": len(procs.shm_names),
        "shm.mbytes": procs.shm_mbytes,
        "primitives.hook_self_s": self_s("serial", layer="primitives"),
        "operators.advance_s": self_s("serial", ADVANCE),
        "operators.filter_s": self_s("serial", FILTER),
        "operators.fused_s": self_s("serial", ("fused_advance_filter",)),
        "operators.compute_s": self_s("serial", ("compute_op",)),
        "operators.calls": calls("serial", OPERATORS),
        "operators.edges_visited": edges,
        "operators.medges_per_s":
            edges / operator_s / 1e6 if operator_s else 0.0,
        "comm.split_s": self_s("serial", ("split_frontier",)),
        "comm.package_s": self_s("serial", ("make_selective_messages",)),
        "comm.broadcast_s": self_s("serial", ("make_broadcast_messages",)),
        "comm.split_items": sum(
            spans[i][COUNT]
            for i in rec.select("serial", ("split_frontier",))
        ),
        "comm.messages": calls("serial", ("transfer_cost",)),
        "comm.bytes_sent": sum(
            sum(r.bytes_sent.values())
            for m in serial.metrics for r in m.iterations
        ),
        "checkpoint.capture_s": self_s("serial", ("capture_checkpoint",)),
        "checkpoint.captures":
            sum(m.checkpoints_taken for m in serial.metrics),
        "checkpoint.mbytes":
            sum(m.checkpoint_bytes for m in serial.metrics) / 2**20,
        "checkpoint.restore_s": self_s(
            "serial", ("route_restored_state", "reassign_onto_survivors")
        ),
        "checkpoint.rollbacks": sum(m.rollbacks for m in serial.metrics),
        "sim.cost_model_s": self_s("serial", layer="sim"),
        "sim.cost_model_calls": calls("serial", layer="sim"),
        "bench.trace_overhead_x": serial.raw_s / untraced_s,
        "py_calls": py_calls,
    }
    out.update(_obs_pass(session, gate, untraced_enact_s))

    by_step = per_key_medians(
        (s for s in timer.samples if s.key[0] == "round"),
        timer.cal_s, key=lambda s: (s.key[1], s.key[2], s.key[4]),
    )
    per_query = gate.ref_faulted if session.recovery else gate.ref_metrics
    for kind in KINDS:
        mine = [q for q in inputs.queries if q.kind == kind]
        for backend, label in zip(BACKENDS, ("serial_s", "processes_s")):
            out[f"query.{kind}.{label}"] = sum(
                by_step[(q.id, backend, step)]
                for q in mine for step in ("prepare", "enact")
            )
        out[f"query.{kind}.supersteps"] = sum(
            per_query[q.id]["supersteps"] for q in mine
        )
        out[f"query.{kind}.virtual_s"] = sum(
            per_query[q.id]["elapsed_seconds"] for q in mine
        )
    log("# host-time share of the traced serial pass, by layer: "
        + ", ".join(f"{k} {100 * v:.1f}%"
                    for k, v in layer_shares(out).items()))
    return out


def layer_shares(out: Dict[str, float]) -> Dict[str, float]:
    """Share of the traced serial pass's host time per layer (README)."""
    parts = {
        "core.operators": sum(
            out[f"operators.{k}_s"]
            for k in ("advance", "filter", "fused", "compute")
        ),
        "primitives": out["primitives.hook_self_s"],
        "core.comm": out["comm.split_s"] + out["comm.package_s"]
        + out["comm.broadcast_s"],
        "core.enactor": out["enactor.self_s"],
        "core.backend": out["backend.serial_self_s"],
        "sim": out["sim.cost_model_s"],
        "core.problem": out["problem.reset_s"],
        "core.checkpoint": out["checkpoint.capture_s"]
        + out["checkpoint.restore_s"],
    }
    total = sum(parts.values())
    return {k: v / total for k, v in parts.items()}
