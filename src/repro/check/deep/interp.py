"""Superstep-escape analysis of primitive hook bodies (REP112).

**REP112 ``superstep-escape``** — a hot hook stores state on the
iteration or problem object (``self.x = ...``, ``problem.y[...] = ...``)
that is neither a declared checkpointed effect
(``ProblemBase.CHECKPOINT_ATTRS``) nor a declared re-derivable cache
(``IterationBase.SNAPSHOT_EXCLUDE``).  Such a value escapes the
superstep outside the slice arrays and combiners the framework reasons
about: on the ``processes`` backend it stays in the worker that wrote
it, so the parent and the other replicas never see it, and a rollback
never restores a problem attribute that is not checkpointed.
PageRank's ``max_delta`` stripped of its declarations is the catalogued
case: on ``processes`` the run never converges early
(``tests/check/test_mutation_audit.py``).

The pass follows which names stand for the iteration object and its
problem (``problem = self.problem``) through assignments, and into
same-module helper functions that receive them (memoized,
depth-capped), so moving a store into a helper does not hide it.
Helper *methods* of the iteration class are analyzed like hooks —
that is how the enactor reaches them.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..findings import Finding
from ..rules.base import CONTROL_HOOKS, ModuleContext

__all__ = ["analyze_module", "DEEP_INTERP_RULES"]

#: rule_id -> (name, description) for the findings this module emits
DEEP_INTERP_RULES = {
    "REP112": (
        "superstep-escape",
        "hot-hook state stores must be declared via CHECKPOINT_ATTRS "
        "or SNAPSHOT_EXCLUDE",
    ),
}

#: iteration-class methods that run outside the superstep, exempt from
#: hot-path semantics (same set the syntactic tier uses, plus lifecycle)
_NON_HOT_METHODS = CONTROL_HOOKS | {
    "__init__", "on_restore", "restore_state", "snapshot_state",
}

_MAX_HELPER_DEPTH = 3

#: what a name may stand for: the iteration object or its problem
_SELF = "self"
_PROBLEM = "problem"

_Env = Dict[str, Optional[str]]


def _collect_declared_escapes(ctx: ModuleContext) -> Set[str]:
    """Attribute names a hot hook may legitimately store into:
    every CHECKPOINT_ATTRS entry (declared checkpointed effects) and
    every SNAPSHOT_EXCLUDE entry (declared re-derivable caches)."""
    declared: Set[str] = set()
    classes = ctx.problem_classes + ctx.iteration_classes
    for cls in classes:
        for stmt in cls.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            names = {
                t.id for t in targets if isinstance(t, ast.Name)
            }
            if not names & {"CHECKPOINT_ATTRS", "SNAPSHOT_EXCLUDE"}:
                continue
            for node in ast.walk(value):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    declared.add(node.value)
    return declared


def _seed(name: str) -> Optional[str]:
    """What a hook/helper parameter stands for, by convention."""
    return name if name in (_SELF, _PROBLEM) else None


class _EscapeScan:
    """One pass over one hook (plus the helpers it reaches)."""

    def __init__(
        self,
        mod: ModuleContext,
        declared: Set[str],
        module_functions: Dict[str, ast.FunctionDef],
        findings: List[Finding],
    ):
        self.mod = mod
        self.declared = declared
        self.module_functions = module_functions
        self.findings = findings
        self._helper_memo: Set[Tuple[str, Tuple]] = set()
        self._depth = 0
        self._globals: Set[str] = set()
        self.hook_name = ""
        self.cls_name = ""

    def _emit(self, site: ast.AST, message: str, symbol: str) -> None:
        name, _desc = DEEP_INTERP_RULES["REP112"]
        self.findings.append(
            Finding(
                rule_id="REP112",
                rule=name,
                path=self.mod.path,
                line=getattr(site, "lineno", 1),
                col=getattr(site, "col_offset", 0) + 1,
                message=message,
                extra={"symbol": symbol, "cls": self.cls_name,
                       "method": self.hook_name},
            )
        )

    # -- what an expression stands for ----------------------------------
    def owner(self, node: ast.AST, env: _Env) -> Optional[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "problem"
            and self.owner(node.value, env) == _SELF
        ):
            return _PROBLEM
        return None

    # -- stores ------------------------------------------------------------
    def _check_attr_store(self, attr: ast.Attribute, env: _Env,
                          site: ast.AST) -> None:
        owner = self.owner(attr.value, env)
        if owner is None or attr.attr in self.declared:
            return
        self._emit(
            site,
            f"'{owner}.{attr.attr}' is written inside hot hook "
            f"{self.cls_name}.{self.hook_name} but is neither a declared "
            "checkpointed effect (ProblemBase.CHECKPOINT_ATTRS) nor a "
            "declared re-derivable cache (IterationBase.SNAPSHOT_EXCLUDE): "
            "the value escapes the superstep — a processes worker keeps "
            "it to itself, and a rollback never restores it",
            attr.attr,
        )

    def _store(self, target: ast.expr, env: _Env, site: ast.AST,
               value: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._globals:
                self._emit(
                    site,
                    f"module-level name '{target.id}' is written inside "
                    f"hot hook {self.cls_name}.{self.hook_name}: global "
                    "state escapes the superstep outside declared "
                    "effects",
                    target.id,
                )
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                self._store(t, env, site, None)
        elif isinstance(target, ast.Starred):
            self._store(target.value, env, site, None)
        elif isinstance(target, ast.Subscript):
            # self.x[...] = v escapes through the attribute
            if isinstance(target.value, ast.Attribute):
                self._check_attr_store(target.value, env, site)
        elif isinstance(target, ast.Attribute):
            self._check_attr_store(target, env, site)

    # -- helper calls --------------------------------------------------------
    def _calls(self, node: Optional[ast.AST], env: _Env) -> None:
        """Follow every same-module helper call inside an expression."""
        if node is None:
            return
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in self.module_functions
            ):
                self._helper(sub.func.id,
                             [self.owner(a, env) for a in sub.args])

    def _helper(self, name: str, args: Sequence[Optional[str]]) -> None:
        """Analyze a helper under what its arguments stand for."""
        key = (name, tuple(args))
        if self._depth >= _MAX_HELPER_DEPTH or key in self._helper_memo:
            return
        self._helper_memo.add(key)
        fn = self.module_functions[name]
        params = [p.arg for p in fn.args.args]
        env: _Env = {p: _seed(p) for p in params}
        env.update(zip(params, args))
        self._depth += 1
        try:
            self._run_body(fn.body, env)
        finally:
            self._depth -= 1

    # -- statements ------------------------------------------------------------
    def _run_body(self, body: Sequence[ast.stmt], env: _Env) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Global):
                self._globals.update(stmt.names)
            elif isinstance(stmt, ast.Assign):
                self._calls(stmt.value, env)
                value = self.owner(stmt.value, env)
                for t in stmt.targets:
                    self._store(t, env, stmt, value)
            elif isinstance(stmt, ast.AnnAssign):
                self._calls(stmt.value, env)
                value = (self.owner(stmt.value, env)
                         if stmt.value is not None else None)
                if stmt.value is not None:
                    self._store(stmt.target, env, stmt, value)
            elif isinstance(stmt, ast.AugAssign):
                self._calls(stmt.value, env)
                self._store(stmt.target, env, stmt, None)
            elif isinstance(stmt, (ast.Expr, ast.Return)):
                self._calls(stmt.value, env)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._calls(stmt.test, env)
                self._run_body(stmt.body, env)
                self._run_body(stmt.orelse, env)
            elif isinstance(stmt, ast.For):
                self._calls(stmt.iter, env)
                self._store(stmt.target, env, stmt, None)
                self._run_body(stmt.body, env)
                self._run_body(stmt.orelse, env)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._calls(item.context_expr, env)
                    if item.optional_vars is not None:
                        self._store(item.optional_vars, env, stmt, None)
                self._run_body(stmt.body, env)
            elif isinstance(stmt, ast.Try):
                self._run_body(stmt.body, env)
                for handler in stmt.handlers:
                    self._run_body(handler.body, env)
                self._run_body(stmt.orelse, env)
                self._run_body(stmt.finalbody, env)
            # pass/break/continue/raise/import/docstring: nothing escapes

    def run_hook(self, cls: ast.ClassDef, method: ast.FunctionDef) -> None:
        self.cls_name = cls.name
        self.hook_name = method.name
        self._globals = set()
        self._run_body(method.body,
                       {p.arg: _seed(p.arg) for p in method.args.args})


def analyze_module(ctx: ModuleContext) -> List[Finding]:
    """Run the escape analysis over one parsed primitive module.

    Non-primitive modules (no Iteration classes) produce no findings.
    """
    if not ctx.iteration_classes:
        return []
    module_functions = {
        node.name: node
        for node in ctx.tree.body
        if isinstance(node, ast.FunctionDef)
    }
    findings: List[Finding] = []
    scan = _EscapeScan(ctx, _collect_declared_escapes(ctx),
                       module_functions, findings)
    for cls in ctx.iteration_classes:
        for method in ctx.methods(cls):
            if method.name not in _NON_HOT_METHODS:
                scan.run_hook(cls, method)
    # one finding per location: a helper reached from two hooks is
    # analyzed once per argument pattern, but may still repeat a site
    seen: Set[Tuple] = set()
    unique: List[Finding] = []
    for f in findings:
        key = (f.line, f.col, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    unique.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return unique
