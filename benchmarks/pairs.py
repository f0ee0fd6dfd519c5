#!/usr/bin/env python3
"""Alternated parent/change pairs of the end-to-end benchmark, as data.

    python3 benchmarks/pairs.py --parent <checkout> --change <checkout>
                                --pairs 10 --pr 24 [--out BENCH_24.json]
                                [--workload W] [--seconds S]

Pair *i* runs ``benchmarks/e2e/run.py --seed i`` once in each checkout —
the parent first in odd pairs, the change first in even ones, so drift
of a shared host falls on both sides alike — and the table every
performance PR used to build by hand is written as ``BENCH_<pr>.json``:
per workload and end-to-end metric both sides' medians and quartiles,
the pairs the change won, lost and tied, the bound from
``BENCHMARK.json`` and a verdict by the rule a claim is held to
(``choosing-metrics``, section 8):

* ``gain``: the change wins at least nine tenths of all pairs run (a
  tie counts for neither side) and the medians are further apart than
  the parent's own inter-quartile distance;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: neither, and the parent's runs spread wider than the
  bound — unless every run of the change beats every run of the parent;
* ``level``: none of the above.

Both checkouts are run as they are: this file measures, it builds
nothing and changes nothing in either.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

SCHEMA = 1
GAIN_SHARE = 0.9


def run_once(checkout: str, seed: int, extra: Sequence[str]) -> dict:
    """One ``run.py`` in ``checkout``; its closing JSON object."""
    cmd = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: List[float], change: List[float], better: str,
            bound: float) -> dict:
    """One metric on one workload: both sides' runs, pair by pair."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    moved = c["median"] - p["median"]
    base = abs(p["median"]) or 1.0
    iqr = p["q3"] - p["q1"]
    every_run_better = (max(sign * x for x in change)
                        < min(sign * x for x in parent))
    if wins >= GAIN_SHARE * len(parent) and abs(moved) > iqr:
        verdict = "gain"
    elif sign * moved / base > bound:
        verdict = "worse"
    elif iqr / base > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "level"
    return {
        "better": better, "bound": bound,
        "parent": {**p, "runs": parent}, "change": {**c, "runs": change},
        "wins": wins, "ties": ties, "losses": len(parent) - wins - ties,
        "change_vs_parent": moved / base,
        "verdict": verdict,
    }


def commit_of(checkout: str) -> str:
    """``git rev-parse HEAD`` of a checkout, ``+dirty`` with uncommitted
    changes; empty where there is no repository."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", checkout, *args], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return ""
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    return head.stdout.strip() + ("+dirty" if dirty.strip() else "")


def table(doc: dict) -> str:
    """The result as the Markdown table EXPERIMENTS.md carries."""
    lines = [
        "| workload | metric | parent median [q1, q3] | change median "
        "[q1, q3] | change | wins/ties/losses | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, metrics in doc["workloads"].items():
        for name, m in metrics.items():
            p, c = m["parent"], m["change"]
            lines.append(
                f"| {workload} | {name} "
                f"| {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
                f"| {m['change_vs_parent']:+.1%} "
                f"| {m['wins']}/{m['ties']}/{m['losses']} "
                f"| {m['bound']:.0%} | {m['verdict']} |"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--pr", required=True,
                        help="names the output: BENCH_<pr>.json")
    parser.add_argument("--out", default=None)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    extra: List[str] = []
    if args.workload is not None:
        extra += ["--workload", args.workload]
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]

    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], seed, extra)
            runs[side].append(result)
            print(f"pair {seed} {side}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)

    workloads: Dict[str, Dict[str, dict]] = {}
    for wl in spec["workloads"]:
        if args.workload not in (None, wl["name"]):
            continue
        key = wl["name"] + "/" if args.workload is None else ""
        workloads[wl["name"]] = {
            m["name"]: compare(
                [r["metrics"][key + m["name"]]["value"]
                 for r in runs["parent"]],
                [r["metrics"][key + m["name"]]["value"]
                 for r in runs["change"]],
                m["better"], m["bound"],
            )
            for m in spec["end_to_end"]
        }
    doc = {
        "schema": SCHEMA,
        "pr": args.pr,
        "pairs": args.pairs,
        "seeds": list(range(1, args.pairs + 1)),
        "command": ["benchmarks/e2e/run.py", "--seed", "<pair>", *extra],
        "cpu_count": os.cpu_count(),
        "commits": {side: commit_of(path) for side, path in sides.items()},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "workloads": workloads,
    }
    out = args.out or os.path.join(sides["change"], f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(table(doc))
    print(f"wrote {out}", file=sys.stderr)
    return 0 if not any(doc["failed"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
