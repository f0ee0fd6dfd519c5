"""Pluggable rule registry for the ``repro check`` static lint pass.

To add a rule: subclass :class:`~repro.check.rules.base.Rule` in a new
module here, give it the next free ``REP1xx`` ID and a kebab-case
``name``, and append it to :data:`DEFAULT_RULES`.  Rules receive a parsed
:class:`~repro.check.rules.base.ModuleContext` and yield
:class:`~repro.check.findings.Finding`s; they must never import or
execute the code under analysis (user primitive files may not even be
importable).  Document new rules in ``docs/static_analysis.md``.
"""

from __future__ import annotations

from typing import Dict, List, Type

from .allocations import RawAllocationRule
from .base import ModuleContext, Rule
from .bounded_wait import BoundedWaitRule
from .combiners import UndeclaredCombinerRule
from .dtypes import BareDtypeRule
from .hooks import IterationHooksRule
from .loops import HotLoopRule
from .obs_guard import UnguardedTracerRule
from .peer_access import PeerMutationRule
from .process_safety import ProcessUnsafeStateRule
from .swallow import SwallowedErrorRule

__all__ = [
    "Rule",
    "ModuleContext",
    "DEFAULT_RULES",
    "default_rules",
    "rule_index",
    "IterationHooksRule",
    "UndeclaredCombinerRule",
    "BareDtypeRule",
    "HotLoopRule",
    "RawAllocationRule",
    "PeerMutationRule",
    "SwallowedErrorRule",
    "UnguardedTracerRule",
    "ProcessUnsafeStateRule",
    "BoundedWaitRule",
]

#: every shipped rule class, in rule-ID order
DEFAULT_RULES: List[Type[Rule]] = [
    IterationHooksRule,
    UndeclaredCombinerRule,
    BareDtypeRule,
    HotLoopRule,
    RawAllocationRule,
    PeerMutationRule,
    SwallowedErrorRule,
    UnguardedTracerRule,
    ProcessUnsafeStateRule,
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
