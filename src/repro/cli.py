"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``datasets``
    List the Table II dataset stand-ins with their statistics.
``run``
    Run a primitive on a dataset at a GPU count and print the metrics
    (the quickest way to poke at the reproduction); ``--sanitize``
    adds the dynamic BSP race sanitizer (``docs/static_analysis.md``).
``partition``
    Compare the three partitioners' border/edge-cut statistics on a
    dataset (the Fig. 2 / Section V-C inputs).
``sweep``
    Speedup sweep of one primitive over GPU counts.
``chaos``
    Seeded fault-injection matrix: every primitive must survive
    transient link failures, allocation failures, and a permanent GPU
    loss with results equal to the fault-free reference
    (``docs/robustness.md``).  ``run`` also accepts ``--faults PLAN.json``
    and ``--checkpoint-every N`` to fault a single run.
``trace``
    Validate and summarize a Chrome trace produced by
    ``run --trace`` (``docs/observability.md``); ``run`` also accepts
    ``--events FILE.jsonl`` for the structured event log and
    ``--profile`` for the per-operator W/H/C/S hot-spot table.
``analyze``
    Critical-path analysis of a Chrome trace: per-superstep critical
    GPU/path, barrier slack attributed into W/H/C/S, stragglers, load
    imbalance, and zero-comm / perfect-balance what-if estimates
    (``docs/observability.md``).  ``run`` also accepts
    ``--flight-recorder OUT.json`` to write the tracer's crash dump
    when the run fails, and ``--metrics-out FILE`` to write its
    RunMetrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis.bsp import decompose
from .analysis.gteps import traversal_gteps
from .analysis.reporting import render_table
from .core.backend import make_backend
from .graph import datasets
from .graph.build import add_random_weights
from .partition import border_stats, make_partitioner
from .sim.device import K40, K80_HALF, P100
from .sim.machine import Machine

SPECS = {"k40": K40, "k80": K80_HALF, "p100": P100}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Multi-GPU graph analytics (IPDPS 2017 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset stand-ins")

    run = sub.add_parser("run", help="run one primitive")
    run.add_argument("primitive",
                     choices=["bfs", "dobfs", "sssp", "cc", "bc", "pr"])
    run.add_argument("--dataset", default="soc-orkut")
    run.add_argument("--gpus", type=int, default=4)
    run.add_argument("--src", type=int, default=0)
    run.add_argument("--gpu-model", choices=sorted(SPECS), default="k40")
    run.add_argument("--partitioner", default="random",
                     choices=["random", "biased-random", "metis"])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--sanitize", action="store_true",
                     help="run under the BSP race sanitizer and report "
                          "hazards (exit 1 if any are found)")
    run.add_argument("--backend", default="serial",
                     help="execution backend: serial or processes[:N] "
                          "(results are bit-identical; only wall-clock "
                          "changes)")
    run.add_argument("--faults", metavar="PLAN.json",
                     help="arm a fault plan (see repro.sim.faults."
                          "FaultPlan) before the run")
    run.add_argument("--checkpoint-every", type=int, metavar="N",
                     help="snapshot run state every N supersteps so a "
                          "permanent GPU loss can roll back and resume "
                          "degraded")
    run.add_argument("--trace", metavar="OUT.trace.json",
                     help="record spans and write a Chrome trace_event "
                          "JSON viewable in Perfetto")
    run.add_argument("--events", metavar="OUT.jsonl",
                     help="stream structured events (supersteps, comm "
                          "stages, recovery actions) to a JSONL file")
    run.add_argument("--profile", action="store_true",
                     help="print the per-operator hot-spot table mapped "
                          "onto the BSP W/H/C/S terms")
    run.add_argument("--flight-recorder", metavar="OUT.json",
                     dest="flight_recorder",
                     help="trace the run; a crash writes the tracer's "
                          "dump — recent events, the metrics so far, "
                          "the error and the fault-plan state — to "
                          "OUT.json")
    run.add_argument("--metrics-out", metavar="FILE", dest="metrics_out",
                     help="write the run's metrics (RunMetrics.to_dict) "
                          "as JSON")

    part = sub.add_parser("partition", help="compare partitioners")
    part.add_argument("--dataset", default="soc-orkut")
    part.add_argument("--gpus", type=int, default=4)
    part.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="GPU-count speedup sweep")
    sweep.add_argument("primitive",
                       choices=["bfs", "dobfs", "sssp", "cc", "bc", "pr"])
    sweep.add_argument("--dataset", default="soc-orkut")
    sweep.add_argument("--max-gpus", type=int, default=6)
    sweep.add_argument("--src", type=int, default=0)
    sweep.add_argument("--backend", default="serial",
                       help="execution backend: serial or "
                            "processes[:N]")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection matrix over the six primitives",
    )
    chaos.add_argument("--gpus", type=int, nargs="+", default=[2, 4])
    chaos.add_argument("--primitives", nargs="+", default=None,
                       choices=["bfs", "dobfs", "sssp", "cc", "bc", "pr"])
    chaos.add_argument("--kinds", nargs="+", default=None,
                       choices=["transient-comm", "oom", "gpu-loss"])
    chaos.add_argument("--backends", nargs="+", default=None,
                       choices=["serial", "processes"])
    chaos.add_argument("--rmat-scale", type=int, default=7)
    chaos.add_argument("--seed", type=int, default=3)
    chaos.add_argument("--smoke", action="store_true",
                       help="CI configuration: 2 GPUs, serial backend, "
                            "all primitives and fault kinds")
    chaos.add_argument("--json", metavar="FILE", dest="json_out",
                       help="also write the per-cell results (recovery "
                            "counters, event cross-checks) as JSON")
    chaos.add_argument("--dump-dir", metavar="DIR", dest="dump_dir",
                       help="write each failed cell's crash dump as "
                            "DIR/<cell>.dump.json")

    trace = sub.add_parser(
        "trace",
        help="validate and summarize a Chrome trace from `run --trace`",
    )
    trace.add_argument("trace_file", help="Chrome trace_event JSON file")
    trace.add_argument("--events", metavar="FILE.jsonl",
                       help="also validate a JSONL event log written by "
                            "`run --events`")

    analyze = sub.add_parser(
        "analyze",
        help="critical-path analysis of a Chrome trace: per-superstep "
             "critical GPU, W/H/C/S slack attribution, stragglers, and "
             "what-if estimates",
    )
    analyze.add_argument("trace_file",
                         help="Chrome trace_event JSON from `run --trace`")
    analyze.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the full analysis report as JSON "
                              "instead of the table")
    analyze.add_argument("--top", type=int, metavar="N", default=None,
                         help="show only the N supersteps with the "
                              "longest critical paths")
    analyze.add_argument("--what-if", action="store_true", dest="what_if",
                         help="append the zero-comm and perfect-balance "
                              "counterfactual estimates")
    return p


def _cmd_datasets(out) -> int:
    rows = []
    for name in datasets.names():
        s = datasets.spec(name)
        g = datasets.load(name)
        rows.append(
            [name, s.family, g.num_vertices, g.num_edges,
             f"{s.paper_vertices:.3g}", f"{s.paper_edges:.3g}",
             f"{datasets.machine_scale(name):.0f}"]
        )
    print(
        render_table(
            ["name", "family", "|V|", "|E|", "paper |V|", "paper |E|",
             "scale"],
            rows,
            title="Dataset stand-ins (Table II + comparison graphs)",
        ),
        file=out,
    )
    return 0


def _prepare(args):
    graph = datasets.load(args.dataset)
    if args.primitive == "sssp":
        graph = add_random_weights(graph, 1, 64, seed=2)
    scale = datasets.machine_scale(args.dataset)
    return graph, scale


def _run_once(args, graph, scale, num_gpus, out=None, tracer=None):
    from .primitives import RUNNERS

    spec = SPECS[getattr(args, "gpu_model", "k40")]
    machine = Machine(num_gpus, spec=spec, scale=scale)
    kwargs = {}
    if tracer is not None:
        kwargs["tracer"] = tracer
    if getattr(args, "partitioner", "random") != "random":
        kwargs["partitioner"] = make_partitioner(args.partitioner, args.seed)
    if getattr(args, "sanitize", False):
        kwargs["sanitize"] = True
    if getattr(args, "backend", "serial") != "serial":
        kwargs["backend"] = args.backend
    if getattr(args, "faults", None):
        from .sim.faults import FaultPlan

        machine.arm_faults(FaultPlan.load(args.faults))
    if getattr(args, "checkpoint_every", None):
        kwargs["checkpoint_every"] = args.checkpoint_every
    runner = RUNNERS[args.primitive]
    if args.primitive in ("bfs", "dobfs", "sssp", "bc"):
        result, metrics, _ = runner(graph, machine, src=args.src, **kwargs)
    else:
        result, metrics, _ = runner(graph, machine, **kwargs)
    metrics.dataset = args.dataset
    return result, metrics


def _cmd_run(args, out) -> int:
    graph, scale = _prepare(args)
    tracer = None
    writer = None
    if (args.trace or args.events or args.profile
            or args.flight_recorder):
        from .obs import JsonlWriter, Tracer

        if args.events:
            writer = JsonlWriter(args.events)
        tracer = Tracer(sink=writer)
    try:
        result, metrics = _run_once(args, graph, scale, args.gpus,
                                    tracer=tracer)
    except Exception:
        if args.flight_recorder and tracer.dumps:
            with open(args.flight_recorder, "w", encoding="utf-8") as fh:
                json.dump(tracer.dumps[-1], fh, indent=2, sort_keys=True,
                          default=str)
            print(
                f"flight recorder: wrote crash dump {args.flight_recorder}",
                file=sys.stderr,
            )
        raise
    finally:
        if writer is not None:
            writer.close()
    print(metrics.summary(), file=out)
    terms = decompose(metrics).fractions()
    print(
        f"BSP: compute {terms['compute']:.0%}, "
        f"communicate {terms['communicate']:.0%}, "
        f"synchronize {terms['synchronize']:.0%}",
        file=out,
    )
    if args.primitive in ("bfs", "dobfs"):
        print(
            f"traversal rate: "
            f"{traversal_gteps(graph, result, metrics):.2f} GTEPS",
            file=out,
        )
    if (metrics.comm_retries or metrics.oom_recoveries or metrics.rollbacks
            or metrics.checkpoints_taken):
        print(
            f"recovery: {metrics.comm_retries} comm retries, "
            f"{metrics.oom_recoveries} OOM regrows, "
            f"{metrics.rollbacks} rollbacks, "
            f"{metrics.checkpoints_taken} checkpoints"
            + (f", degraded GPUs {metrics.degraded_gpus}"
               if metrics.degraded_gpus else ""),
            file=out,
        )
    if tracer is not None:
        if args.trace:
            from .obs import export_chrome_trace

            export_chrome_trace(tracer, args.trace)
            print(f"wrote {args.trace} ({len(tracer.spans)} spans; open "
                  "at https://ui.perfetto.dev)", file=out)
        if writer is not None:
            print(f"wrote {args.events} ({writer.count} events)", file=out)
        if args.profile:
            from .obs import render_profile

            print(render_profile(tracer), file=out)
    if args.flight_recorder:
        print(
            f"flight recorder: {len(tracer.events)} events recorded, "
            f"{len(tracer.dumps)} dump(s)",
            file=out,
        )
    if args.metrics_out:
        metrics.save_json(args.metrics_out)
        print(f"wrote {args.metrics_out} (RunMetrics JSON)", file=out)
    if metrics.sanitizer_hazards is not None:
        hazards = metrics.sanitizer_hazards
        if hazards:
            for h in hazards:
                print(f"{h['hazard_id']} [{h['name']}] {h['message']}",
                      file=out)
            print(f"sanitizer: {len(hazards)} hazard(s)", file=out)
            return 1
        print("sanitizer: clean", file=out)
    return 0


def _cmd_partition(args, out) -> int:
    graph = datasets.load(args.dataset)
    rows = []
    for name in ("random", "biased-random", "metis"):
        pr = make_partitioner(name, args.seed).partition(graph, args.gpus)
        st = border_stats(graph, pr)
        rows.append(
            [name, st.edge_cut, st.total_border, st.max_border,
             f"{st.load_imbalance:.3f}"]
        )
    print(
        render_table(
            ["partitioner", "edge cut", "total border", "max border",
             "imbalance"],
            rows,
            title=f"{args.dataset} split {args.gpus} ways",
        ),
        file=out,
    )
    return 0


def _cmd_sweep(args, out) -> int:
    graph, scale = _prepare(args)
    rows = []
    base = None
    for n in range(1, args.max_gpus + 1):
        _, metrics = _run_once(args, graph, scale, n)
        if base is None:
            base = metrics.elapsed
        rows.append(
            [n, f"{metrics.elapsed * 1e3:.3f}",
             f"{base / metrics.elapsed:.2f}x", metrics.supersteps]
        )
    print(
        render_table(
            ["GPUs", "ms", "speedup", "S"],
            rows,
            title=f"{args.primitive} on {args.dataset}",
        ),
        file=out,
    )
    return 0


def _cmd_chaos(args, out) -> int:
    from .chaos import CHAOS_KINDS, CHAOS_PRIMITIVES, run_chaos_matrix

    kwargs = dict(
        primitives=tuple(args.primitives or CHAOS_PRIMITIVES),
        gpu_counts=tuple(args.gpus),
        kinds=tuple(args.kinds or CHAOS_KINDS),
        backends=tuple(args.backends or ("serial", "processes")),
        rmat_scale=args.rmat_scale,
        seed=args.seed,
    )
    if getattr(args, "dump_dir", None):
        kwargs["dump_dir"] = args.dump_dir
    if args.smoke:
        kwargs.update(gpu_counts=(2,), backends=("serial",))
    results = run_chaos_matrix(
        progress=lambda msg: print(f"chaos: {msg}", file=sys.stderr),
        **kwargs,
    )
    rows = [
        [
            r.primitive, r.num_gpus, r.kind, r.backend,
            "ok" if r.ok else "FAIL",
            r.detail or (
                "retries={comm_retries} oom={oom_recoveries} "
                "rollbacks={rollbacks}".format(**r.recovery)
            ),
        ]
        for r in results
    ]
    failed = [r for r in results if not r.ok]
    print(
        render_table(
            ["primitive", "GPUs", "fault", "backend", "result", "detail"],
            rows,
            title=f"chaos matrix ({len(results) - len(failed)}"
                  f"/{len(results)} recovered)",
        ),
        file=out,
    )
    if args.json_out:
        doc = {
            "cells": [
                {
                    "primitive": r.primitive,
                    "num_gpus": r.num_gpus,
                    "kind": r.kind,
                    "backend": r.backend,
                    "ok": r.ok,
                    "detail": r.detail,
                    "recovery": r.recovery,
                }
                for r in results
            ],
            "recovered": len(results) - len(failed),
            "total": len(results),
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}", file=out)
    if failed:
        print(f"chaos: {len(failed)} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args, out) -> int:
    from .obs import (
        load_chrome_trace,
        summarize_chrome_trace,
        validate_chrome_trace,
        validate_events_jsonl,
    )

    try:
        trace = load_chrome_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"repro trace: error: {exc}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(trace)
    summary = summarize_chrome_trace(trace)
    rows = [
        [label, int(t["spans"]), f"{t['busy_ms']:.3f}"]
        for label, t in sorted(summary["tracks"].items())
    ]
    title = (
        f"{summary['primitive'] or args.trace_file}: "
        f"{summary['spans']} spans, {summary['num_gpus']} GPUs, "
        f"{summary['backend'] or '?'} backend, "
        f"ends at {summary['end_ms']:.3f} ms"
    )
    print(render_table(["track", "spans", "busy ms"], rows, title=title),
          file=out)
    if summary["instants"]:
        inst = ", ".join(
            f"{name}×{n}" for name, n in sorted(summary["instants"].items())
        )
        print(f"instants: {inst}", file=out)
    if summary.get("recovery"):
        rec = ", ".join(
            f"{name}×{n}" for name, n in sorted(summary["recovery"].items())
        )
        print(f"recovery/checkpoint: {rec}", file=out)
    if args.events:
        try:
            problems += [
                f"events: {p}" for p in validate_events_jsonl(args.events)
            ]
        except OSError as exc:
            print(f"repro trace: error: {exc}", file=sys.stderr)
            return 2
    if problems:
        for p in problems:
            print(f"trace: {p}", file=sys.stderr)
        print(f"trace: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("trace: valid", file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    from .obs import (
        analyze_trace,
        from_chrome_trace,
        load_chrome_trace,
        render_analysis,
        validate_chrome_trace,
    )

    try:
        trace = load_chrome_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"repro analyze: error: {exc}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(trace)
    if problems:
        for p in problems:
            print(f"analyze: {p}", file=sys.stderr)
        print(f"analyze: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    report = analyze_trace(from_chrome_trace(trace))
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print(
            render_analysis(report, top=args.top, what_if=args.what_if),
            file=out,
        )
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    from .errors import ReproError

    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    if getattr(args, "backend", None) is not None:
        try:
            make_backend(args.backend)
        except ValueError as exc:
            print(f"repro {args.command}: {exc}", file=sys.stderr)
            return 1
    try:
        if args.command == "datasets":
            return _cmd_datasets(out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "partition":
            return _cmd_partition(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "chaos":
            return _cmd_chaos(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command == "analyze":
            return _cmd_analyze(args, out)
    except ReproError as exc:
        # one-line structured diagnosis: the exception's str() already
        # appends [gpu=... iteration=... site=...] when known
        print(f"repro {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
