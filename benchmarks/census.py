#!/usr/bin/env python3
"""Function census: which functions of ``src/repro`` each entry point
of the repository reaches.

    python3 benchmarks/census.py [--sources NAME ...] [--list CATEGORY ...]

Sources (all by default):

* ``tier1``    — ``python -m pytest`` (the tier-1 suite);
* ``examples`` — every ``examples/*.py``;
* ``e2e``      — the four workloads of ``benchmarks/e2e/run.py``, short;
* ``cli``      — every ``repro`` subcommand, with the ``run`` flags that
  reach extra code (tracing and its exports, ``processes`` with
  checkpoints, the sanitizer and an armed fault plan);
* ``paper``    — ``pytest benchmarks --ignore=benchmarks/e2e``.

Every Python process a source starts — pytest's subprocesses, the e2e
children, forked pool workers — records the code objects it calls with
a ``sys.setprofile`` hook, installed by a generated ``sitecustomize``
on ``PYTHONPATH``.  The hook stays installed for the whole process:

* a profiler installed after it (``sys.setprofile(f)``, as the hot-path
  guard and the e2e ``py_calls`` counter do) is chained on the thread
  that installed it — it sees every event of that thread it would have
  seen alone, and no other thread's — and ``sys.setprofile(None)``
  removes only that profiler;
* ``threading`` re-installs the hook in each new thread; that is
  recognised and changes nothing;
* a forked worker ends in ``os._exit``, which skips ``atexit``: the
  results are written there too.

The table printed at the end counts functions (``def`` statements,
nested ones included) and their own lines (a nested function's lines
count for it, not for its parent) by where they are reached: by no
source, only by tier-1, only by the paper benchmarks, only by tests
(tier-1 or the paper benchmarks, no product entry point).  A source
whose commands fail still counts what they reached; failures are
listed.  Like any ``pytest benchmarks`` run, the ``paper`` source
rewrites ``benchmarks/results/``.  All five sources take about ten
minutes on two cores.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
import threading
from typing import Dict, List, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

SOURCES = ("tier1", "examples", "e2e", "cli", "paper")

# ---------------------------------------------------------------------------
# the in-process hook (installed through the generated sitecustomize)
# ---------------------------------------------------------------------------

class Census:
    """The code objects one process calls (module docs): one per process,
    started by :func:`install`."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.ids: Set[int] = set()
        self.codes: list = []  # keeps every recorded code (and its id) alive
        #: the profiler installed after the census, if any, and the
        #: thread that installed it (the only one it is chained on)
        self.chained = None
        self.chained_thread = None
        self.real_setprofile = sys.setprofile
        self.real_exit = os._exit
        #: the installed hook: one bound method, compared by identity
        self.hook = self.record

    def record(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in self.ids:
                self.ids.add(id(code))
                self.codes.append(code)
        chained = self.chained
        if chained is not None and threading.get_ident() == self.chained_thread:
            chained(frame, event, arg)

    def setprofile(self, func) -> None:
        """``sys.setprofile`` while the census runs: chain ``func``
        behind the census instead of replacing it.  ``threading``
        re-installing the census in a new thread changes nothing.  The
        chained profiler is set after the real call and cleared before
        it, so it sees what it would have seen alone."""
        if func is None:
            self.chained = None
        self.real_setprofile(self.hook)
        if func is not None and func is not self.hook:
            self.chained = func
            self.chained_thread = threading.get_ident()

    def dump(self) -> None:
        with open(os.path.join(self.out_dir, f"{os.getpid()}.txt"), "w",
                  encoding="utf-8") as fh:
            for code in self.codes:
                if code.co_filename.startswith(PACKAGE):
                    rel = os.path.relpath(code.co_filename, ROOT)
                    fh.write(f"{rel}\t{code.co_firstlineno}\n")

    def exit(self, code) -> None:
        self.dump()
        self.real_exit(code)


def install(out_dir: str) -> Census:
    """Start recording in this process (and its threads and forks);
    write what was reached to ``out_dir/<pid>.txt`` at exit."""
    import atexit

    os.makedirs(out_dir, exist_ok=True)
    census = Census(out_dir)
    sys.setprofile = census.setprofile
    os._exit = census.exit
    threading.setprofile(census.hook)
    census.real_setprofile(census.hook)
    atexit.register(census.dump)
    return census


_SITECUSTOMIZE = '''\
import importlib.util
import os

_spec = importlib.util.spec_from_file_location("_repro_census", {path!r})
_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_census)
_census.install(os.environ["REPRO_CENSUS_OUT"])
'''

# ---------------------------------------------------------------------------
# what each source runs
# ---------------------------------------------------------------------------


#: ``run --faults``: a transient link fault, then a GPU loss
FAULT_PLAN = {"version": 1, "seed": 1, "faults": [
    {"kind": "transient-comm", "gpu": 0, "iteration": 1, "dst": 1},
    {"kind": "gpu-loss", "gpu": 1, "iteration": 2},
]}


def commands(source: str, work: str) -> List[List[str]]:
    py = sys.executable
    if source == "tier1":
        return [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]]
    if source == "examples":
        return [[py, path]
                for path in sorted(glob.glob(os.path.join(ROOT, "examples",
                                                          "*.py")))]
    if source == "e2e":
        return [[py, os.path.join(HERE, "e2e", "run.py"), "--workload", w,
                 "--seconds", "1"]
                for w in ("rmat_selective", "rmat_broadcast", "road_sync",
                          "rmat_recovery")]
    if source == "paper":
        return [[py, "-m", "pytest", "benchmarks",
                 "--ignore=benchmarks/e2e", "-q", "-p", "no:cacheprovider"]]
    repro = [py, "-m", "repro"]
    run = repro + ["run", "bfs", "--dataset", "soc-LiveJournal1",
                   "--gpus", "4"]
    trace = os.path.join(work, "bfs.trace.json")
    plan = os.path.join(work, "plan.json")
    cmds = [
        repro + ["datasets"],
        run + ["--trace", trace, "--events",
               os.path.join(work, "bfs.events.jsonl"), "--profile",
               "--metrics-out", os.path.join(work, "bfs.prom"),
               "--flight-recorder", os.path.join(work, "bfs.crash.json")],
        run + ["--backend", "processes", "--checkpoint-every", "2"],
        run + ["--sanitize"],
        repro + ["partition", "--dataset", "soc-LiveJournal1", "--gpus", "4"],
        repro + ["sweep", "bfs", "--dataset", "soc-LiveJournal1",
                 "--max-gpus", "2"],
        repro + ["chaos", "--smoke", "--primitives", "bfs"],
        repro + ["trace", trace, "--events",
                 os.path.join(work, "bfs.events.jsonl")],
        repro + ["analyze", trace, "--top", "3", "--what-if"],
        run + ["--faults", plan, "--checkpoint-every", "1"],
    ]
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump(FAULT_PLAN, fh)
    return cmds


def run_source(source: str, out: str, site: str) -> List[str]:
    """Run one source's commands under the census; returns the ones
    that failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([site, SRC])
    env["REPRO_CENSUS_OUT"] = os.path.join(out, source)
    failed = []
    with tempfile.TemporaryDirectory() as work:
        for cmd in commands(source, work):
            cwd = work if source == "cli" else ROOT
            print(f"[{source}] {' '.join(cmd[1:])}", file=sys.stderr,
                  flush=True)
            done = subprocess.run(cmd, cwd=cwd, env=env,
                                  stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                failed.append(f"{' '.join(cmd[1:])} (exit {done.returncode})")
    return failed


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

Key = Tuple[str, int]


def functions() -> Dict[Key, Tuple[str, int]]:
    """Every ``def`` under ``src/repro``: (file, first line) -> (qualified
    name, own lines).  The first line is the first decorator's, as in
    ``co_firstlineno``; own lines leave out nested ``def`` bodies."""
    found: Dict[Key, Tuple[str, int]] = {}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, prefix: str, rel: str) -> int:
        """Record the defs under ``node``; return the lines its
        outermost ones span."""
        covered = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                covered += visit(child, f"{prefix}{child.name}.", rel)
            elif isinstance(child, defs):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                span = child.end_lineno - first + 1
                inner = visit(child, f"{prefix}{child.name}.", rel)
                found[(rel, first)] = (f"{prefix}{child.name}", span - inner)
                covered += span
            else:
                covered += visit(child, prefix, rel)
        return covered

    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        visit(tree, "", os.path.relpath(path, ROOT))
    return found


def reached(out: str, source: str) -> Set[Key]:
    keys: Set[Key] = set()
    for path in glob.glob(os.path.join(out, source, "*.txt")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rel, first = line.rstrip("\n").split("\t")
                keys.add((rel, int(first)))
    return keys


#: the sources that are tests rather than uses of the product
TESTS = ("tier1", "paper")


def categories(by_source: Dict[str, Set[Key]],
               funcs: Dict[Key, Tuple[str, int]]) -> List[tuple]:
    """``(name, functions)`` rows of the table."""
    reached_by = {s: keys & funcs.keys() for s, keys in by_source.items()}

    def union(sources) -> Set[Key]:
        return set().union(*(reached_by[s] for s in sources))

    def only(sources) -> Set[Key]:
        return union(sources) - union(s for s in reached_by
                                      if s not in sources)

    return [
        ("all functions", set(funcs)),
        ("never", set(funcs) - union(reached_by)),
        ("tier1-only", only([s for s in ("tier1",) if s in reached_by])),
        ("paper-only", only([s for s in ("paper",) if s in reached_by])),
        ("tests-only", only([s for s in TESTS if s in reached_by])),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sources", nargs="+", choices=SOURCES,
                        default=list(SOURCES))
    parser.add_argument("--list", nargs="+", default=[],
                        choices=("never", "tier1-only", "paper-only",
                                 "tests-only"),
                        help="also list the functions of these categories")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        site = os.path.join(tmp, "site")
        os.makedirs(site)
        with open(os.path.join(site, "sitecustomize.py"), "w",
                  encoding="utf-8") as fh:
            fh.write(_SITECUSTOMIZE.format(path=os.path.abspath(__file__)))
        failed = {}
        for source in args.sources:
            failed[source] = run_source(source, out, site)
        by_source = {s: reached(out, s) for s in args.sources}

    funcs = functions()
    rows = categories(by_source, funcs)
    print(f"sources: {', '.join(args.sources)}")
    print("| category | functions | lines |")
    print("|---|---|---|")
    for name, keys in rows:
        print(f"| {name} | {len(keys)} | "
              f"{sum(funcs[k][1] for k in keys)} |")
    for name, keys in rows:
        if name in args.list:
            print(f"\n{name}:")
            for rel, first in sorted(keys):
                qual, lines = funcs[(rel, first)]
                print(f"  {rel}:{first} {qual} ({lines} lines)")
    for source, cmds in failed.items():
        for cmd in cmds:
            print(f"failed [{source}]: {cmd}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
