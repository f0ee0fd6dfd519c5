"""Per-layer attribution from outside the program.

The traced run wraps the entry points of each layer (layer = module
name) by rebinding every ``repro.*`` attribute that refers to the
original, records one in-memory span per call, and restores everything
on exit.  A layer's *self time* is its spans' durations minus the part
their child spans cover, so the self times of all layers sum to the
enclosing ``enact`` span.  Spans inside ``src/`` are a later change.

Only the parent process records: a forked pool worker inherits the
wrappers but they pass straight through there, so a ``processes`` pass
shows dispatch, pipe and wait — not the worker's own supersteps.

``Enactor._gpu_superstep`` is the one private name wrapped: without it
the whole superstep body would read as ``core.backend`` self time on
the serial backend.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = ["Recorder", "tracing", "TARGETS"]

# span fields
NAME, LAYER, START, END, PARENT, PHASE, QUERY, COUNT = range(8)


class Recorder:
    """In-memory spans: name, layer, start, end, parent, phase, query."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.active = False
        self.phase = ""
        self.query = ""
        #: pipe payload bytes seen by the parent, per direction
        self.pipe_bytes = {"send": 0, "recv": 0}

    def wrap(self, fn: Callable, name: str, layer: str,
             count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([
                name, layer, perf_counter(), 0.0,
                stack[-1] if stack else -1, self.phase, self.query,
                count(args) if count is not None else 0,
            ])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = perf_counter()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- views -----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the time its children cover."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def select(self, phase: str, names: Optional[Iterable[str]] = None,
               layer: Optional[str] = None) -> List[int]:
        names = set(names) if names is not None else None
        return [
            i for i, s in enumerate(self.spans)
            if s[PHASE] == phase
            and (names is None or s[NAME] in names)
            and (layer is None or s[LAYER] == layer)
        ]

    def to_chrome_trace(self, pid: int = 1) -> dict:
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s[NAME], "cat": s[LAYER], "ph": "X",
                    "ts": (s[START] - t0) * 1e6,
                    "dur": (s[END] - s[START]) * 1e6,
                    "pid": pid, "tid": 1,
                    "args": {"phase": s[PHASE], "query": s[QUERY],
                             "parent": s[PARENT]},
                }
                for s in self.spans
            ],
        }

    def write_chrome_trace(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _frontier_items(args) -> int:
    """``split_frontier(sub, frontier, ...)``: items entering the split."""
    return int(len(args[1]))


#: (module, owner class or None, attribute, span name, layer, counter).
#: ``"*Problem"`` / ``"*Iteration"`` expand to the six primitives' classes.
TARGETS: Tuple[tuple, ...] = (
    ("repro.partition.base", "Partitioner", "partition", "partition", "partition", None),
    ("repro.partition.duplication", None, "build_subgraphs", "build_subgraphs", "partition", None),
    ("repro.partition.base", None, "reassign_onto_survivors", "reassign_onto_survivors", "core.checkpoint", None),
    ("repro.core.problem", "ProblemBase", "__init__", "problem.init", "core.problem", None),
    ("repro.primitives", "*Problem", "reset", "problem.reset", "core.problem", None),
    ("repro.core.enactor", "Enactor", "__init__", "enactor.init", "core.enactor", None),
    ("repro.core.enactor", "Enactor", "enact", "enact", "core.enactor", None),
    ("repro.core.enactor", "Enactor", "_gpu_superstep", "gpu_superstep", "core.enactor", None),
    ("repro.core.backend", "ExecutionBackend", "run_iteration", "run_iteration", "core.backend", None),
    ("repro.core.backend", "ProcessesBackend", "run_iteration", "run_iteration.processes", "core.backend", None),
    ("repro.core.supervise", None, "wait_for_reply", "pipe.wait_for_reply", "core.backend", None),
    ("repro.primitives", "*Iteration", "full_queue_core", "full_queue_core", "primitives", None),
    ("repro.primitives", "*Iteration", "expand_incoming", "expand_incoming", "primitives", None),
    ("repro.core.operators.advance", None, "advance_push", "advance_push", "core.operators", None),
    ("repro.core.operators.advance", None, "advance_pull", "advance_pull", "core.operators", None),
    ("repro.core.operators.filter", None, "filter_predicate", "filter_predicate", "core.operators", None),
    ("repro.core.operators.filter", None, "filter_unvisited", "filter_unvisited", "core.operators", None),
    ("repro.core.operators.filter", None, "unique_vertices", "unique_vertices", "core.operators", None),
    ("repro.core.operators.fused", None, "fused_advance_filter", "fused_advance_filter", "core.operators", None),
    ("repro.core.operators.compute", None, "compute_op", "compute_op", "core.operators", None),
    ("repro.core.comm", None, "split_frontier", "split_frontier", "core.comm", _frontier_items),
    ("repro.core.comm", None, "make_selective_messages", "make_selective_messages", "core.comm", None),
    ("repro.core.comm", None, "make_broadcast_messages", "make_broadcast_messages", "core.comm", None),
    ("repro.core.checkpoint", None, "capture_checkpoint", "capture_checkpoint", "core.checkpoint", None),
    ("repro.core.checkpoint", None, "route_restored_state", "route_restored_state", "core.checkpoint", None),
    ("repro.core.shm", "SliceManifest", "migrate", "shm.migrate", "core.shm", None),
    ("repro.sim.machine", "Machine", "barrier", "barrier", "sim", None),
    ("repro.sim.kernel", "KernelModel", "kernel_time", "kernel_time", "sim", None),
    ("repro.sim.stream", "Stream", "launch", "stream.launch", "sim", None),
    ("repro.sim.interconnect", "Interconnect", "transfer_cost", "transfer_cost", "sim", None),
    ("multiprocessing.connection", "Connection", "send", "pipe.send", "core.backend", None),
    ("multiprocessing.connection", "Connection", "recv", "pipe.recv", "core.backend", None),
    ("multiprocessing.process", "BaseProcess", "start", "pool.fork", "core.backend", None),
)

PRIMITIVE_PREFIXES = ("BFS", "DOBFS", "SSSP", "CC", "BC", "PR")


def _owners(module, owner: Optional[str]) -> list:
    if owner is None:
        return [None]
    if owner.startswith("*"):
        return [getattr(module, p + owner[1:]) for p in PRIMITIVE_PREFIXES]
    return [getattr(module, owner)]


class _Patches:
    """Applies rebinding and remembers how to undo each one."""

    _MISSING = object()

    def __init__(self):
        self._undo: List[tuple] = []

    def set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj).get(attr, self._MISSING)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        for obj, attr, old in reversed(self._undo):
            if old is self._MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
        self._undo.clear()


_current: Optional[Recorder] = None
_fork_hook_registered = False


def _silence_in_child() -> None:
    if _current is not None:
        _current.active = False


class tracing:
    """Context manager: install the wrappers, restore them on exit.

    Recording is off until the caller sets ``recorder.active``.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patches = _Patches()

    def __enter__(self) -> Recorder:
        global _current, _fork_hook_registered
        rec = self.recorder
        _current = rec
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_silence_in_child)
            _fork_hook_registered = True
        repro_modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for mod_name, owner, attr, name, layer, count in TARGETS:
            module = importlib.import_module(mod_name)
            for cls in _owners(module, owner):
                if cls is not None:
                    original = getattr(cls, attr)
                    self._patches.set(
                        cls, attr, rec.wrap(original, name, layer, count)
                    )
                    continue
                original = getattr(module, attr)
                wrapped = rec.wrap(original, name, layer, count)
                for m in repro_modules:
                    if vars(m).get(attr) is original:
                        self._patches.set(m, attr, wrapped)
        self._count_pipe_bytes()
        return rec

    def _count_pipe_bytes(self) -> None:
        from multiprocessing.connection import Connection

        rec = self.recorder
        send_bytes, recv_bytes = Connection._send_bytes, Connection._recv_bytes

        def counted_send(conn, buf):
            if rec.active:
                rec.pipe_bytes["send"] += len(buf)
            return send_bytes(conn, buf)

        def counted_recv(conn, maxsize=None):
            buf = recv_bytes(conn, maxsize)
            if rec.active:
                rec.pipe_bytes["recv"] += buf.tell()
            return buf

        self._patches.set(Connection, "_send_bytes", counted_send)
        self._patches.set(Connection, "_recv_bytes", counted_recv)

    def __exit__(self, *exc) -> None:
        global _current
        self.recorder.active = False
        self._patches.restore()
        _current = None
