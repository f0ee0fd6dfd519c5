"""REP107 ``workspace-bypass``: use the arena when one is in scope.

The zero-copy operator work (``repro.core.workspace``) only pays off if
hot paths actually route scratch through the per-GPU arena.  A function
that *accepts* a workspace (a parameter named ``ws`` or ``workspace``)
but still allocates fresh scratch with ``np.empty``/``np.zeros``/
``np.arange``/... on its main path silently regresses to the
allocation-churn baseline — the exact drift this rule pins down.

Allocations are fine when they sit in the no-workspace fallback branch
(inside ``if ws is None:``, or the ``else`` of ``if ws is not None:``),
and the zero-length empty-frontier sentinel (``np.empty(0, ...)``) is
exempt as always.  Results that must outlive the call (message payloads,
frontiers) should be built with non-alloc constructors (``np.repeat``,
boolean indexing, ``np.flatnonzero``) which this rule deliberately
ignores.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..findings import Finding
from .allocations import ALLOC_FUNCS, _is_zero_size
from .base import ModuleContext, Rule

__all__ = ["WorkspaceBypassRule"]

#: parameter names that mark a function as workspace-aware
WS_PARAM_NAMES = {"ws", "workspace"}

#: flagged allocators: REP105's set plus arange (the iota() case)
SCRATCH_FUNCS = ALLOC_FUNCS | {"arange"}


def _param_names(fn: ast.FunctionDef) -> Set[str]:
    args = fn.args
    names = [a.arg for a in args.args + args.posonlyargs + args.kwonlyargs]
    return set(names)


def _ws_name(fn: ast.FunctionDef) -> str:
    for name in _param_names(fn):
        if name in WS_PARAM_NAMES:
            return name
    return ""


def _is_ws_none_test(test: ast.AST, ws: str) -> str:
    """Classify ``if`` tests on the workspace: 'is-none', 'is-not-none',
    or '' for anything else."""
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == ws
        and len(test.ops) == 1
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.Is):
            return "is-none"
        if isinstance(test.ops[0], ast.IsNot):
            return "is-not-none"
    return ""


def _fallback_nodes(fn: ast.FunctionDef, ws: str) -> Set[int]:
    """ids of AST nodes inside no-workspace fallback regions."""
    allowed: Set[int] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        kind = _is_ws_none_test(node.test, ws)
        region: List[ast.stmt] = []
        if kind == "is-none":
            region = node.body
        elif kind == "is-not-none":
            region = node.orelse
        for stmt in region:
            for sub in ast.walk(stmt):
                allowed.add(id(sub))
    return allowed


def _alloc_name(node: ast.AST) -> str:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SCRATCH_FUNCS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ):
        return node.func.attr
    return ""


class WorkspaceBypassRule(Rule):
    """Flag fresh scratch allocation on the workspace-available path of
    any function that takes a ``ws``/``workspace`` parameter."""

    rule_id = "REP107"
    name = "workspace-bypass"
    description = (
        "functions taking a workspace must route scratch through "
        "ws.take()/ws.iota() outside the `if ws is None` fallback"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            ws = _ws_name(node)
            if not ws:
                continue
            allowed = _fallback_nodes(node, ws)
            for sub in ast.walk(node):
                fname = _alloc_name(sub)
                if not fname:
                    continue
                if id(sub) in allowed:
                    continue
                if _is_zero_size(sub):
                    continue  # the empty-frontier sentinel
                yield self.finding(
                    ctx,
                    sub,
                    f"np.{fname} in {node.name} allocates fresh scratch "
                    f"although workspace `{ws}` is in scope; use "
                    f"{ws}.take()/{ws}.iota(), or move it under the "
                    f"`if {ws} is None` fallback",
                    function=node.name,
                )
