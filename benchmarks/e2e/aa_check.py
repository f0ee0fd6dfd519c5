#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself?

Runs the benchmark as two independent sets, A and B, of the same code
and the same seed (default 3 runs each, alternating A B A B ...),
compares per-workload medians of every end-to-end metric against the
metric's bound in ``BENCHMARK.json``, prints a table, and exits
non-zero on a breach.  The model-clock metrics and the call count are
exact: they must match to the last digit in every run.

If a timed metric breaches, lengthen the rounds (``run_seconds``,
within the driver's time cap) — do not widen the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXACT = ("virtual_s", "virtual_speedup", "py_calls")


def run_once(workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload}: run failed ({done.returncode})")
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="per set")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    sets = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    for i in range(2 * args.runs):
        label = "AB"[i % 2]
        for w in workloads:
            sets[label][w].append(run_once(w, args.seed, args.seconds))
            print(f"set {label} run {i // 2 + 1}: {w} done", flush=True)

    breaches = 0
    print(f"\n{'workload':<16}{'metric':<20}{'median A':>14}{'median B':>14}"
          f"{'B vs A':>9}{'bound':>7}")
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r[name] for r in sets["A"][w]]
            b = [r[name] for r in sets["B"][w]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = (med_b - med_a) / med_a
            if name in EXACT:
                ok = len(set(a + b)) == 1
                note = "" if ok else "  NOT EXACT"
            else:
                ok = abs(diff) <= m["bound"]
                note = "" if ok else "  BREACH"
            breaches += not ok
            print(f"{w:<16}{name:<20}{med_a:>14.6g}{med_b:>14.6g}"
                  f"{100 * diff:>+8.1f}%{m['bound']:>7.3g}{note}")
    print(f"\n{breaches} breach(es) over {len(workloads)} workload(s), "
          f"{args.runs} run(s) per set, seed {args.seed}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
