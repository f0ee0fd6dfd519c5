"""Pluggable rule registry for the ``repro check`` static lint pass.

To add a rule: subclass :class:`~repro.check.rules.base.Rule` in a new
module here, give it the next free ``REP1xx`` ID and a kebab-case
``name``, and append it to :data:`DEFAULT_RULES`.  Rules receive a parsed
:class:`~repro.check.rules.base.ModuleContext` and yield
:class:`~repro.check.findings.Finding`s; they must never import or
execute the code under analysis (user primitive files may not even be
importable).  Document new rules in ``docs/static_analysis.md`` and
catalogue a defect the rule catches in
``tests/check/test_mutation_audit.py``.
"""

from __future__ import annotations

from typing import Dict, List, Type

from .base import ModuleContext, Rule
from .bounded_wait import BoundedWaitRule
from .dtypes import BareDtypeRule
from .loops import HotLoopRule
from .swallow import SwallowedErrorRule

__all__ = [
    "Rule",
    "ModuleContext",
    "DEFAULT_RULES",
    "default_rules",
    "rule_index",
    "BareDtypeRule",
    "HotLoopRule",
    "SwallowedErrorRule",
    "BoundedWaitRule",
]

#: every shipped rule class, in rule-ID order
DEFAULT_RULES: List[Type[Rule]] = [
    BareDtypeRule,
    HotLoopRule,
    SwallowedErrorRule,
    BoundedWaitRule,
]


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in DEFAULT_RULES]


def rule_index() -> Dict[str, Type[Rule]]:
    """Lookup by both rule ID (``REP103``) and name (``bare-dtype``)."""
    idx: Dict[str, Type[Rule]] = {}
    for cls in DEFAULT_RULES:
        idx[cls.rule_id] = cls
        idx[cls.name] = cls
    return idx
