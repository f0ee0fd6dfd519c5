"""Barrier-discipline verification (REP113).

The backends' determinism contract (``core/backend.py`` docstring) rests
on three structural properties of the *framework* code — not the
primitives:

1. every ``run_iteration`` that runs the supersteps itself — the
   in-order loop of ``ExecutionBackend.run_iteration``, which the serial
   backend inherits and the processes backend falls back to for one
   GPU — returns their results in **``gpu_indices`` order** (never
   completion order), so list position == GPU index;
2. the enactor dispatches the supersteps in **ascending GPU index**
   (via ``backend.run_iteration``) and merges the staged
   :class:`GpuStepEffects` by iterating that result list directly — no
   re-ordering between dispatch and merge;
3. the merge happens at the **barrier point**: after the merge loop the
   enactor calls ``machine.barrier(...)`` before anything else consumes
   the merged state, and there is exactly one merge site.

These used to be prose ("asserted in test_backend_determinism.py" checks
the *observable* equivalence, not the mechanism).  This verifier walks
the two framework modules and proves each obligation syntactically; a
refactor that gathers futures with ``as_completed``, sorts the results,
walks ``gpu_indices`` reversed, or merges before the barrier turns a
silent determinism regression into a REP113 finding.

Each obligation is reported as proved/violated in a
:class:`BarrierReport`; violations also flow through the normal
findings pipeline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..findings import Finding

__all__ = [
    "BarrierReport",
    "verify_barrier_discipline",
    "DEEP_BARRIER_RULES",
    "OBLIGATIONS",
]

DEEP_BARRIER_RULES = {
    "REP113": (
        "barrier-discipline",
        "staged GpuStepEffects must be gathered in submission order and "
        "merged only at barrier points in GPU-index order",
    ),
}

#: obligation id -> human description (stable: consumed by docs/tests)
OBLIGATIONS: Dict[str, str] = {
    "backend-return-order": (
        "every run_iteration that runs supersteps returns their results "
        "in gpu_indices order (one append per step of a loop over "
        "gpu_indices, or an in-order comprehension over it)"
    ),
    "no-completion-order-gather": (
        "no run_iteration gathers results in completion order "
        "(as_completed, wait, add_done_callback)"
    ),
    "dispatch-in-gpu-index-order": (
        "the enactor dispatches supersteps in ascending GPU-index order "
        "(no reversed/sorted/shuffled closure list or gpu_indices)"
    ),
    "merge-in-gpu-index-order": (
        "the merge loop iterates the dispatch result list directly, "
        "preserving GPU-index order"
    ),
    "merge-at-barrier": (
        "each merge loop is followed by machine.barrier(...) before the "
        "superstep loop continues"
    ),
    "single-merge-site": (
        "staged effects are merged by exactly one loop (no second "
        "partial-merge site)"
    ),
}

#: future-gathering helpers that break submission order
_COMPLETION_ORDER_NAMES = {"as_completed", "wait", "add_done_callback"}
#: the dispatch entry point whose assigned result is the merge input:
#: the backend's per-iteration call (serial runs the supersteps in a
#: loop, processes serves them from its workers — both must return
#: results in gpu_indices order)
_DISPATCH_NAMES = {"run_iteration"}
#: the per-GPU superstep a backend runs itself
_SUPERSTEP_NAME = "_gpu_superstep"
#: the run_iteration parameter whose order the results must follow
_GPU_INDICES = "gpu_indices"
#: iterator wrappers that re-order a list
_REORDERING_CALLS = {"sorted", "reversed", "set", "frozenset", "shuffle"}


@dataclass
class BarrierReport:
    """Outcome of one barrier-discipline verification run."""

    #: obligation id -> proved?
    obligations: Dict[str, bool] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    @property
    def all_proved(self) -> bool:
        return all(self.obligations.values())

    def describe(self) -> str:
        proved = sum(1 for ok in self.obligations.values() if ok)
        return (
            f"barrier discipline: {proved}/{len(self.obligations)} "
            "obligations proved"
        )

    def to_dict(self) -> dict:
        return {
            "obligations": {
                k: self.obligations[k] for k in sorted(self.obligations)
            },
            "all_proved": self.all_proved,
            "findings": [f.to_dict() for f in self.findings],
        }


def _finding(path: str, node: ast.AST, obligation: str, message: str,
             **extra: str) -> Finding:
    name, _ = DEEP_BARRIER_RULES["REP113"]
    return Finding(
        rule_id="REP113",
        rule=name,
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
        extra=dict(extra, obligation=obligation),
    )


def _call_name(node: ast.AST) -> Optional[str]:
    """Bare callable name of a Call's func (Name or trailing Attribute)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _parents(fn: ast.FunctionDef) -> Dict[int, ast.AST]:
    """id(node) -> parent node, within one function."""
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(fn):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _is_in_order_loop(name: str, fn: ast.FunctionDef) -> bool:
    """Whether list ``name`` provably holds one item per ``gpu_indices``
    element, in that order.

    Accepts ``name = []`` followed by exactly one ``name.append(...)``,
    a statement directly in the body of a ``for`` over ``gpu_indices``
    itself (no wrapper, no enclosing loop, no ``break``/``continue``),
    with ``name`` used nowhere else but in ``return name``.
    """
    parents = _parents(fn)
    inits, appends, other = [], [], []
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Name) and node.id == name):
            continue
        parent = parents.get(id(node))
        if isinstance(node.ctx, ast.Store):
            inits.append(parent)
        elif (isinstance(parent, ast.Attribute) and parent.attr == "append"
                and isinstance(parents.get(id(parent)), ast.Call)):
            appends.append(parents[id(parent)])
        elif not isinstance(parent, ast.Return):
            other.append(node)
    if other or len(inits) != 1 or len(appends) != 1:
        return False
    init = inits[0]
    value = init.value if isinstance(init, (ast.Assign, ast.AnnAssign)) \
        else None
    if not (isinstance(value, ast.List) and not value.elts):
        return False
    stmt = parents.get(id(appends[0]))
    loop = parents.get(id(stmt))
    if not (isinstance(stmt, ast.Expr) and isinstance(loop, ast.For)
            and stmt in loop.body and isinstance(loop.iter, ast.Name)
            and loop.iter.id == _GPU_INDICES):
        return False
    if any(isinstance(n, (ast.Break, ast.Continue)) for n in ast.walk(loop)):
        return False
    node = parents.get(id(loop))
    while node is not None and node is not fn:
        if isinstance(node, (ast.For, ast.While)):
            return False
        node = parents.get(id(node))
    return True


def _returns_in_order(ret: ast.expr, fn: ast.FunctionDef) -> bool:
    """Whether a return expression of ``fn`` provably lists one result
    per ``gpu_indices`` element, in that order: an unfiltered
    comprehension over ``gpu_indices`` itself, or a list built by
    :func:`_is_in_order_loop`."""
    if isinstance(ret, ast.Name):
        return _is_in_order_loop(ret.id, fn)
    if not isinstance(ret, ast.ListComp) or len(ret.generators) != 1:
        return False
    gen = ret.generators[0]
    return (not gen.ifs and not gen.is_async
            and isinstance(gen.iter, ast.Name)
            and gen.iter.id == _GPU_INDICES)


def _check_backend_module(path: str, tree: ast.Module,
                          report: BarrierReport) -> None:
    runners = 0
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            if fn.name != "run_iteration":
                continue
            for node in ast.walk(fn):
                cname = _call_name(node) if isinstance(node, (
                    ast.Call, ast.Name, ast.Attribute)) else None
                if cname in _COMPLETION_ORDER_NAMES:
                    report.obligations["no-completion-order-gather"] = False
                    report.findings.append(_finding(
                        path, node, "no-completion-order-gather",
                        f"{cls.name}.run_iteration uses '{cname}': "
                        "gathering results in completion order breaks the "
                        "GPU-index-order determinism contract — gather in "
                        "gpu_indices order instead",
                        cls=cls.name,
                    ))
            if not any(isinstance(n, ast.Call)
                       and _call_name(n) == _SUPERSTEP_NAME
                       for n in ast.walk(fn)):
                continue  # serves results it did not run (processes)
            runners += 1
            for node in ast.walk(fn):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                if not _returns_in_order(node.value, fn):
                    report.obligations["backend-return-order"] = False
                    report.findings.append(_finding(
                        path, node, "backend-return-order",
                        f"{cls.name}.run_iteration: cannot prove this "
                        "return lists the results in gpu_indices order; "
                        "append one result per step of a loop over "
                        "gpu_indices, or return a comprehension over it",
                        cls=cls.name,
                    ))
    if not runners:
        report.obligations["backend-return-order"] = False
        report.findings.append(_finding(
            path, tree, "backend-return-order",
            f"no run_iteration calls {_SUPERSTEP_NAME}: the verifier "
            "cannot locate the loop that runs the supersteps",
        ))


def _barrier_lines(fn: ast.FunctionDef) -> List[int]:
    lines = []
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "barrier"):
            lines.append(node.lineno)
    return lines


def _check_enactor_module(path: str, tree: ast.Module,
                          report: BarrierReport) -> None:
    enact_fns = [
        fn
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "enact"
    ]
    for fn in enact_fns:
        # names bound from a dispatch call (run_iteration), and the
        # argument names those dispatches consume
        result_names: List[str] = []
        dispatch_args: List[str] = []
        dispatch_calls: List[ast.Call] = []
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and _call_name(node.value) in _DISPATCH_NAMES
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                result_names.append(node.targets[0].id)
                dispatch_calls.append(node.value)
                for arg in node.value.args:
                    if isinstance(arg, ast.Name):
                        dispatch_args.append(arg.id)
        if not result_names:
            report.obligations["single-merge-site"] = False
            report.findings.append(_finding(
                path, fn, "single-merge-site",
                "enact() never assigns a dispatch (run_iteration) "
                "result: the verifier cannot locate the merge site",
            ))
            continue

        # gpu_indices handed to the dispatch must not pass through a
        # re-ordering wrapper inline (sorted(...), reversed(...))
        for call in dispatch_calls:
            for arg in call.args:
                for sub in ast.walk(arg):
                    if (isinstance(sub, ast.Call)
                            and _call_name(sub) in _REORDERING_CALLS):
                        report.obligations[
                            "dispatch-in-gpu-index-order"] = False
                        report.findings.append(_finding(
                            path, sub, "dispatch-in-gpu-index-order",
                            f"a dispatch argument is built through "
                            f"'{_call_name(sub)}': dispatch must follow "
                            "ascending GPU index so result positions are "
                            "GPU indices",
                        ))

        # dispatch order: the names handed to the dispatch must not be
        # built through a re-ordering wrapper
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in dispatch_args):
                continue
            for sub in ast.walk(node.value):
                if (isinstance(sub, ast.Call)
                        and _call_name(sub) in _REORDERING_CALLS):
                    report.obligations["dispatch-in-gpu-index-order"] = False
                    report.findings.append(_finding(
                        path, sub, "dispatch-in-gpu-index-order",
                        f"a dispatch argument is assigned through "
                        f"'{_call_name(sub)}': dispatch must follow "
                        "ascending GPU index so result positions are "
                        "GPU indices",
                    ))

        merge_loops = [
            node for node in ast.walk(fn)
            if isinstance(node, ast.For)
            and (
                (isinstance(node.iter, ast.Name)
                 and node.iter.id in result_names)
                or (isinstance(node.iter, ast.Call)
                    and any(isinstance(a, ast.Name)
                            and a.id in result_names
                            for a in node.iter.args))
            )
        ]
        if len(merge_loops) > 1:
            report.obligations["single-merge-site"] = False
            for loop in merge_loops[1:]:
                report.findings.append(_finding(
                    path, loop, "single-merge-site",
                    "staged effects are merged at more than one site; a "
                    "second merge loop can interleave with barrier state",
                ))
        if not merge_loops:
            report.obligations["merge-at-barrier"] = False
            report.findings.append(_finding(
                path, fn, "merge-at-barrier",
                "enact() has no merge loop over the run_iteration "
                "results; staged effects are never applied",
            ))
            continue
        barriers = _barrier_lines(fn)
        for loop in merge_loops:
            if isinstance(loop.iter, ast.Call):
                report.obligations["merge-in-gpu-index-order"] = False
                report.findings.append(_finding(
                    path, loop, "merge-in-gpu-index-order",
                    f"the merge loop iterates "
                    f"'{_call_name(loop.iter)}(...)' instead of the "
                    "result list itself: any wrapper may re-order the "
                    "staged effects; iterate the list directly",
                ))
            merge_end = max(
                (getattr(n, "lineno", loop.lineno)
                 for n in ast.walk(loop)), default=loop.lineno
            )
            if not any(b >= merge_end for b in barriers):
                report.obligations["merge-at-barrier"] = False
                report.findings.append(_finding(
                    path, loop, "merge-at-barrier",
                    "no machine.barrier(...) call follows this merge "
                    "loop: staged effects must be merged at the barrier "
                    "point, not mid-superstep",
                ))


def verify_barrier_discipline(
    backend: Optional[Tuple[str, str]] = None,
    enactor: Optional[Tuple[str, str]] = None,
) -> BarrierReport:
    """Verify the framework's barrier obligations.

    ``backend``/``enactor`` are optional ``(path, source)`` overrides
    (used by tests to check mutated variants); by default the installed
    ``repro.core.backend`` / ``repro.core.enactor`` sources are read.
    """
    report = BarrierReport(
        obligations={name: True for name in OBLIGATIONS}
    )
    if backend is None:
        backend = _read_module_source("repro.core.backend")
    if enactor is None:
        enactor = _read_module_source("repro.core.enactor")
    b_path, b_src = backend
    e_path, e_src = enactor
    _check_backend_module(b_path, ast.parse(b_src, filename=b_path), report)
    _check_enactor_module(e_path, ast.parse(e_src, filename=e_path), report)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return report


def _read_module_source(modname: str) -> Tuple[str, str]:
    import importlib

    mod = importlib.import_module(modname)
    path = mod.__file__ or modname
    with open(path, "r", encoding="utf-8") as fh:
        return path, fh.read()
