"""REP115 ``process-unsafe-state``: hooks must survive a fork.

The ``processes`` execution backend runs every hot hook inside a forked
worker and ships only ``GpuStepEffects`` (plus the declared per-GPU
attrs) back to the parent.  Where its workers run ahead of the parent
(``core/backend.py``, "Run protocol") the barrier's control hooks —
``should_stop``, ``on_iteration_end``, ``communicates_this_iteration``,
``direction_of`` — run in every worker *and*, on replay, in the parent,
and all of them have to decide the same thing.  That contract breaks
when a hook creates or captures *process-local* state:

* **open file handles** — a handle created in a worker vanishes with it,
  and a handle captured before the fork shares one file offset across
  all workers (interleaved reads/writes, nondeterministic results);
* **locks / conditions / semaphores** — a ``threading`` primitive only
  synchronizes threads of one process; across forked workers it is a
  silent no-op, and a held lock duplicated by ``fork`` can deadlock;
* **RNG instances** (``random.Random``, ``np.random.RandomState``,
  ``np.random.default_rng``) — each worker advances its own copy of the
  captured state, so results depend on which process ran the hook and
  the serial/processes bit-identical guarantee is gone; in a
  control hook the workers' stop decisions part ways and the run ends
  in the backend's divergence error.

The rule flags (a) calls to such constructors (and ``open``) directly
inside such a hook, and (b) reads there of a ``self.X`` attribute that
*any* method of the class assigns from one of them — the capture case.
Deterministic derived state (arrays, scalars) is what hot hooks may
keep; control hooks keep theirs on the problem, in ``CHECKPOINT_ATTRS``
/ ``PER_GPU_MUTABLE_ATTRS``, which is what travels between the replicas
(an attribute on the iteration object does not).  Randomness belongs in
graph generation, and synchronization belongs to the enactor's barrier.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..findings import Finding
from .base import HOT_HOOKS, ModuleContext, Rule

__all__ = ["ProcessUnsafeStateRule", "FORKED_HOOKS"]

#: every hook a ``processes`` worker runs: the superstep's, and the
#: barrier's control hooks (``max_iterations`` stays with the parent)
FORKED_HOOKS = HOT_HOOKS | {
    "should_stop",
    "on_iteration_end",
    "communicates_this_iteration",
    "direction_of",
}

#: module-attribute constructors of process-local state:
#: {module alias: {attribute names}}
_UNSAFE_ATTRS = {
    "threading": {
        "Lock", "RLock", "Condition", "Event", "Semaphore",
        "BoundedSemaphore", "Barrier", "local",
    },
    "multiprocessing": {
        "Lock", "RLock", "Condition", "Event", "Semaphore",
        "BoundedSemaphore", "Barrier", "Queue", "Pipe",
    },
    "random": {"Random", "SystemRandom"},
    # both ``np.random.X`` and ``numpy.random.X`` resolve to attr
    # "random" one level up; handled in _unsafe_call
}

#: bare-name constructors (``from threading import Lock`` style).
#: ``Event`` is deliberately absent: the name is too generic outside an
#: explicit ``threading.``/``multiprocessing.`` prefix.
_UNSAFE_NAMES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Random", "SystemRandom", "RandomState", "default_rng",
}

_NUMPY_RANDOM = {"RandomState", "default_rng", "Generator"}


def _unsafe_call(node: ast.Call) -> Optional[str]:
    """A human-readable constructor name if ``node`` creates
    process-unsafe state, else None."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open()"
        if func.id in _UNSAFE_NAMES:
            return f"{func.id}()"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    base = func.value
    if isinstance(base, ast.Name):
        if attr in _UNSAFE_ATTRS.get(base.id, ()):
            return f"{base.id}.{attr}()"
        return None
    # np.random.RandomState / numpy.random.default_rng
    if (
        isinstance(base, ast.Attribute)
        and base.attr == "random"
        and attr in _NUMPY_RANDOM
    ):
        return f"np.random.{attr}()"
    return None


def _self_attr_stores(
    cls: ast.ClassDef,
) -> Dict[str, Tuple[ast.AST, str]]:
    """``self.X = <unsafe constructor>`` assignments anywhere in the
    class: attr name -> (assignment node, constructor description)."""
    captured: Dict[str, Tuple[ast.AST, str]] = {}
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        desc = _unsafe_call(node.value)
        if desc is None:
            continue
        for t in node.targets:
            if (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ):
                captured[t.attr] = (node, desc)
    return captured


class ProcessUnsafeStateRule(Rule):
    """Flag hooks run in forked workers that create, or read ``self``
    attributes assigned from, process-local constructs (files, locks,
    RNG instances)."""

    rule_id = "REP115"
    name = "process-unsafe-state"
    description = (
        "hot hooks and the barrier's control hooks run inside forked "
        "workers of the processes backend and must not create or "
        "capture process-local state (open file handles, threading/"
        "multiprocessing primitives, Random/RandomState instances)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for cls in ctx.iteration_classes + ctx.problem_classes:
            captured = _self_attr_stores(cls)
            for method in ctx.methods(cls):
                if method.name not in FORKED_HOOKS:
                    continue
                for node in ast.walk(method):
                    if isinstance(node, ast.Call):
                        desc = _unsafe_call(node)
                        if desc is not None:
                            yield self.finding(
                                ctx, node,
                                f"{cls.name}.{method.name} creates "
                                f"process-unsafe state ({desc}) inside a "
                                "hook that runs in forked workers; each "
                                "gets its own copy and the backend "
                                "bit-identical contract breaks",
                                cls=cls.name, method=method.name,
                                construct=desc,
                            )
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr in captured
                    ):
                        _, desc = captured[node.attr]
                        yield self.finding(
                            ctx, node,
                            f"{cls.name}.{method.name} uses self."
                            f"{node.attr}, assigned from {desc} — "
                            "process-local state captured across the "
                            "fork; workers mutate diverging copies the "
                            "parent never sees",
                            cls=cls.name, method=method.name,
                            attr=node.attr, construct=desc,
                        )
