"""Rule framework: the AST context rules run against, and the Rule base.

A rule sees one parsed module at a time through a :class:`ModuleContext`
that pre-computes the classifications every rule needs — which classes
are ``ProblemBase`` subclasses, which are ``IterationBase`` subclasses —
so individual rules stay small.  Classification is purely syntactic
(direct base named ``ProblemBase``/``IterationBase``, or a base whose
name ends in ``Problem``/``Iteration``): the linter must work on user
primitive files it cannot import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..findings import Finding

__all__ = ["ModuleContext", "Rule", "CONTROL_HOOKS"]

#: iteration hooks that run at/after the barrier (control plane, not hot)
CONTROL_HOOKS = {
    "should_stop",
    "max_iterations",
    "on_iteration_end",
    "direction_of",
    "communicates_this_iteration",
}


def _base_names(cls: ast.ClassDef) -> List[str]:
    names = []
    for b in cls.bases:
        if isinstance(b, ast.Name):
            names.append(b.id)
        elif isinstance(b, ast.Attribute):
            names.append(b.attr)
    return names


def _is_problem_class(cls: ast.ClassDef) -> bool:
    return any(
        n == "ProblemBase" or n.endswith("Problem") for n in _base_names(cls)
    )


def _is_iteration_class(cls: ast.ClassDef) -> bool:
    return any(
        n == "IterationBase" or n.endswith("Iteration")
        for n in _base_names(cls)
    )


@dataclass
class ModuleContext:
    """One parsed source module plus the classifications rules share."""

    path: str
    source: str
    tree: ast.Module
    problem_classes: List[ast.ClassDef] = field(default_factory=list)
    iteration_classes: List[ast.ClassDef] = field(default_factory=list)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, source=source, tree=tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                if _is_problem_class(node):
                    ctx.problem_classes.append(node)
                if _is_iteration_class(node):
                    ctx.iteration_classes.append(node)
        return ctx

    @property
    def is_primitive_module(self) -> bool:
        """Whether this module defines primitive code (rule scope)."""
        return bool(self.problem_classes or self.iteration_classes)

    def methods(self, cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def find_method(
        self, cls: ast.ClassDef, name: str
    ) -> Optional[ast.FunctionDef]:
        for m in self.methods(cls):
            if m.name == name:
                return m
        return None


class Rule:
    """One pluggable contract check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Finding`s.  Register new rules in
    ``repro.check.rules.DEFAULT_RULES`` (see ``docs/static_analysis.md``).
    """

    rule_id: str = "REP000"
    name: str = "unnamed"
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers shared by concrete rules ----------------------------------
    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str, **extra: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            rule=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            extra=extra,
        )
