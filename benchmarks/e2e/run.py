#!/usr/bin/env python3
"""End-to-end benchmark of the repro engine: one command.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N]
                                  [--seconds S] [--trace 0|1]

Each workload runs in its own subprocess (so ``peak_rss_mb`` is per
workload, and a hung pool worker hits a hard timeout instead of
stalling the run), checks every output, prints every metric by name
with its unit, and ends with one JSON object on the last line of
stdout::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no tracer,
recorder, sanitizer or profiler attached; ``--trace 1`` reports the
per-layer metrics from a separate traced run.  Metric names, units and
bounds live in ``BENCHMARK.json`` at the root of the checkout; see
``README.md`` beside this file for what each one means.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
#: a workload that has not finished by then has a hung worker
CHILD_TIMEOUT_S = 170
DEFAULT_SEED = 1
MIN_ROUNDS_PER_LEG = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# parent: one subprocess per workload, hard timeout
# ---------------------------------------------------------------------------

def run_child(workload: str, args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the child leads its own session: take its pool workers with
        # it, and the shared-memory segments it can no longer unlink
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for path in glob.glob(f"/dev/shm/repro-shm-{proc.pid}-*"):
            os.unlink(path)
        raise SystemExit(
            f"{workload}: no result after {CHILD_TIMEOUT_S}s, killed"
        )
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 1):
        print(lines[-1], flush=True)
        raise SystemExit(f"{workload}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def parent(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"no program to measure: {SRC}/repro is missing")
    chosen = [args.workload] if args.workload else names
    results = {name: run_child(name, args) for name in chosen}
    if args.workload:
        combined = results[args.workload]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


# ---------------------------------------------------------------------------
# child: measure one workload
# ---------------------------------------------------------------------------

def log(message: str) -> None:
    print(message, flush=True)


def dump_samples(workload: str, seed: int, timer) -> None:
    """Every timed sample and calibration point, for looking into a
    noisy run after the fact."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}.samples.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload, "seed": seed,
            "points": timer.points,
            "samples": [
                {"key": list(s.key), "raw_s": s.raw_s, "point": s.point,
                 "cal_s": timer.cal_s(s)}
                for s in timer.samples
            ],
        }, fh)


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload's schedule; return metric values and the
    attempted / failed counts."""
    from calibrate import BracketTimer, make_kernel
    from harness import Gate, Session, shm_segments, timed_round, timed_setup
    from layers import py_calls_of_pass, traced_run
    from workloads import make_inputs

    inputs = make_inputs(wl, seed)
    graph = inputs.graph
    log(f"# {wl.name} seed={seed}: {graph.num_vertices} vertices, "
        f"{graph.num_edges} edges, queries "
        f"{' '.join(q.id for q in inputs.queries)}")
    kernel = make_kernel(
        graph.row_offsets, graph.col_indices, inputs.cal_source, wl.cal_reps
    )
    for _ in range(3):
        kernel()
    timer = BracketTimer(kernel, wl.cal_ref_s)
    gate = Gate(inputs, log)
    session = Session(inputs, gate)
    shm_before = set(shm_segments())
    layer = {}
    rounds = 0
    try:
        t0 = perf_counter()
        timed_setup(session, timer, keep=True)
        # a later set-up builds no references
        later_setup_s = perf_counter() - t0 - gate.reference_wall_s
        # sources beyond a kind's first get their reference here, not
        # inside a timed block
        for q in inputs.queries:
            if q.id not in gate.ref_result:
                session.run(q, "serial")
        timer.untimed()
        # three set-ups spread over the run (start, middle, end) with a
        # leg of rounds before each later one; the traced run spends
        # its time on the traced passes instead
        legs = 1 if trace else 2
        left_s = seconds - (perf_counter() - t0) - 2 * later_setup_s
        leg_s = seconds / 3 if trace else max(left_s, 0.0) / 2
        for _ in range(legs):
            leg_t0 = perf_counter()
            in_leg = 0
            while (in_leg < MIN_ROUNDS_PER_LEG
                   or perf_counter() - leg_t0 < leg_s):
                timed_round(session, timer, rounds)
                rounds += 1
                in_leg += 1
            if not trace:
                timed_setup(session, timer, keep=False)
        if trace:
            layer = traced_run(session, gate, timer, log)
            py_calls = layer.pop("py_calls")
        else:
            py_calls = py_calls_of_pass(session)
    finally:
        session.close()
    leaked = set(shm_segments()) - shm_before
    if leaked:
        gate.failed += 1
        log(f"FAILED {len(leaked)} shared-memory segments leaked")
    dump_samples(wl.name, seed, timer)
    values = summarise(inputs, timer, gate, rounds, py_calls, trace)
    if trace:
        values.update(layer)
        values["shm.leaked_segments"] = len(leaked)
    return {"values": values, "attempted": gate.attempted,
            "failed": gate.failed}


def summarise(inputs, timer, gate, rounds: int, py_calls: int,
              trace: bool) -> dict:
    """Every metric that comes from the timed samples, the gate's
    references and (for the traced run) the inputs; prints the spread
    behind the medians."""
    from calibrate import quartiles, spread, sum_of_medians
    from harness import BACKENDS, pass_virtual_s, peak_rss_mb
    from repro.partition import border_stats, make_partitioner
    from workloads import NUM_GPUS

    wl, graph = inputs.workload, inputs.graph

    def step_key(s):
        return s.key[1], s.key[4]

    setups = [s for s in timer.samples if s.key[0] == "setup"]
    serial, procs = (
        [s for s in timer.samples if s.key[0] == "round" and s.key[2] == b]
        for b in BACKENDS
    )

    def per_round(samples):
        totals = [0.0] * rounds
        for s in samples:
            totals[s.key[3]] += timer.cal_s(s)
        return totals

    def sums(value):
        return (sum_of_medians(setups, value),
                sum_of_medians(serial, value, step_key),
                sum_of_medians(procs, value, step_key))

    serial_rounds, procs_rounds = per_round(serial), per_round(procs)
    setup_s, enact_serial_s, enact_processes_s = sums(timer.cal_s)
    raw_setup_s, raw_serial_s, raw_processes_s = sums(lambda s: s.raw_s)
    virtual_s, virtual_1gpu_s = pass_virtual_s(gate, wl.recovery)
    kernel_q1, kernel_s, kernel_q3 = quartiles(timer.points)

    for label, totals in (("serial", serial_rounds),
                          ("processes", procs_rounds)):
        q1, med, q3 = quartiles(totals)
        log(f"# {label} pass, cal-s per round over n={rounds} rounds: "
            f"q1={q1:.4f} median={med:.4f} q3={q3:.4f}")
    log(f"# raw seconds behind the cal-s numbers: setup {raw_setup_s:.4f} "
        f"serial {raw_serial_s:.4f} processes {raw_processes_s:.4f}")
    log(f"# calibration kernel over n={len(timer.points)} points: "
        f"q1={kernel_q1:.4f} median={kernel_s:.4f} q3={kernel_q3:.4f}, "
        f"reference {wl.cal_ref_s}s")
    values = {
        "setup_s": setup_s,
        "enact_serial_s": enact_serial_s,
        "enact_processes_s": enact_processes_s,
        "virtual_s": virtual_s,
        "virtual_speedup": virtual_1gpu_s / virtual_s,
        "py_calls": py_calls,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        borders = border_stats(graph, make_partitioner(
            wl.partitioner, seed=inputs.partition_seed
        ).partition(graph, NUM_GPUS))
        values.update({
            "graph.generate_s": inputs.generate_s,
            "graph.vertices": graph.num_vertices,
            "graph.edges": graph.num_edges,
            "partition.edge_cut_frac": borders.edge_cut / graph.num_edges,
            "partition.load_imbalance": borders.load_imbalance,
            "sim.virtual_1gpu_s": virtual_1gpu_s,
            # both sides of a round ran back to back, so drift cancels
            # in each round's quotient
            "backend.processes_speedup": statistics.median(
                s / p for s, p in zip(serial_rounds, procs_rounds)
            ),
            "host.cpu_count": os.cpu_count(),
            "host.cal_kernel_s": kernel_s,
            "host.cal_spread": spread(timer.points),
            "host.raw_setup_s": raw_setup_s,
            "host.raw_enact_serial_s": raw_serial_s,
            "host.raw_enact_processes_s": raw_processes_s,
            "bench.rounds": rounds,
            "bench.queries_attempted": gate.attempted,
        })
    return values


def child(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    import repro
    from workloads import WORKLOADS

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    values = outcome["values"]
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        log(f"{m['name']:<40} {value:>16.6f} {m['unit']}")
    log(f"queries attempted {outcome['attempted']}, "
        f"failed {outcome['failed']}")
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(child(arguments) if arguments.child else parent(arguments))
