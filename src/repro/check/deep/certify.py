"""Algebraic combiner certification (REP114) and CombinerCertificate.

A :class:`~repro.core.combine.Combiner` carries programmer *claims*
(``commutative=True``, ``idempotent=True``).  The BSP race sanitizer
trusts those flags, so a wrong claim silently converts a data race into
"benign".  This module closes the loop:
each combiner op name resolves to concrete merge semantics
(:func:`repro.core.combine.op_semantics`) which are evaluated
**exhaustively** over a small finite domain —

* idempotent   — ``f(f(a, b), b) == f(a, b)``      for all a, b
  (re-applying an already-applied update is a no-op, the
  :class:`Combiner` docstring's definition)
* commutative  — ``f(f(s, a), b) == f(f(s, b), a)`` for all s, a, b
  (update application order is invisible in the merged state)
* associative  — ``f(f(a, b), c) == f(a, f(b, c))`` for all a, b, c

The result is a machine-checkable :class:`CombinerCertificate`.  Only
**over-claims** are findings: a declared property the evaluation refutes
(with the counterexample in the message).  Under-claiming is conservative
and allowed — declaring ``commutative=False`` for a commutative op costs
safety margin, not correctness.

Ops registered with ``fn=None`` (``witness``) are *declared
nondeterministic*: there is no merge function to certify, so they are
exempt from equational checks and never certified order-independent.

The entry point is :func:`certify_module` — static, AST-based, used by
``repro check --deep``; it resolves ``combiners = {...}`` declarations
in problem classes without importing the module.  The model checker
(:mod:`~repro.check.deep.modelcheck`) folds each array by the algebra
certified here.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...core import combine as _combine
from ...core.combine import Combiner, OpSemantics, op_semantics
from ..findings import Finding
from ..rules.base import ModuleContext

__all__ = [
    "CombinerCertificate",
    "evaluate_op",
    "certify_combiner",
    "certify_module",
    "declared_combiners",
    "DEEP_CERTIFY_RULES",
]

DEEP_CERTIFY_RULES = {
    "REP114": (
        "combiner-certification",
        "declared combiner properties must survive exhaustive evaluation "
        "of the op's concrete semantics",
    ),
}

#: certificate status values
STATUS_CERTIFIED = "certified"
STATUS_REFUTED = "refuted"
STATUS_NONDETERMINISTIC = "nondeterministic"
STATUS_UNKNOWN_OP = "unknown-op"


@dataclass(frozen=True)
class CombinerCertificate:
    """Machine-checkable record of what was proven about one combiner.

    ``idempotent``/``commutative``/``associative`` are the *evaluated*
    truths (``None`` when nothing could be evaluated); the ``declared_*``
    fields echo the programmer's claims so consumers can audit the gap.
    """

    array: str                     # slice-array name the combiner guards
    op: str
    status: str                    # certified | refuted | nondeterministic | unknown-op
    declared_commutative: bool
    declared_idempotent: bool
    idempotent: Optional[bool] = None
    commutative: Optional[bool] = None
    associative: Optional[bool] = None
    domain: Tuple = ()
    #: property name -> counterexample tuple (as evaluated), for refuted
    counterexamples: Dict[str, Tuple] = field(default_factory=dict)
    note: str = ""

    @property
    def certified_order_independent(self) -> bool:
        """Whether merges into this array may be applied in any order
        and more than once without changing the result: the evaluation
        proved BOTH idempotency and commutativity (the declaration alone
        is never enough)."""
        return (
            self.status == STATUS_CERTIFIED
            and bool(self.idempotent)
            and bool(self.commutative)
        )

    @property
    def overclaims(self) -> List[str]:
        """Declared properties the evaluation refuted."""
        bad = []
        if self.declared_commutative and self.commutative is False:
            bad.append("commutative")
        if self.declared_idempotent and self.idempotent is False:
            bad.append("idempotent")
        return bad

    def to_dict(self) -> dict:
        return {
            "array": self.array,
            "op": self.op,
            "status": self.status,
            "declared": {
                "commutative": self.declared_commutative,
                "idempotent": self.declared_idempotent,
            },
            "evaluated": {
                "idempotent": self.idempotent,
                "commutative": self.commutative,
                "associative": self.associative,
            },
            "domain": list(self.domain),
            "counterexamples": {
                k: list(v) for k, v in sorted(self.counterexamples.items())
            },
            "certified_order_independent": self.certified_order_independent,
            "note": self.note,
        }

    def describe(self) -> str:
        props = []
        for name, val in (
            ("idempotent", self.idempotent),
            ("commutative", self.commutative),
            ("associative", self.associative),
        ):
            if val is True:
                props.append(name)
        body = ", ".join(props) or self.status
        return f"{self.array}: {self.op} [{self.status}] ({body})"


def evaluate_op(sem: OpSemantics) -> Tuple[
    Optional[bool], Optional[bool], Optional[bool], Dict[str, Tuple]
]:
    """Exhaustively evaluate (idempotent, commutative, associative) for
    one op over its finite domain; returns the three verdicts plus the
    first counterexample found per refuted property."""
    fn = sem.fn
    if fn is None:
        return None, None, None, {}
    dom = sem.domain
    counter: Dict[str, Tuple] = {}

    idem = True
    for a, b in itertools.product(dom, repeat=2):
        if fn(fn(a, b), b) != fn(a, b):
            idem = False
            counter["idempotent"] = (a, b)
            break

    comm = True
    for s, a, b in itertools.product(dom, repeat=3):
        if fn(fn(s, a), b) != fn(fn(s, b), a):
            comm = False
            counter["commutative"] = (s, a, b)
            break

    assoc = True
    for a, b, c in itertools.product(dom, repeat=3):
        if fn(fn(a, b), c) != fn(a, fn(b, c)):
            assoc = False
            counter["associative"] = (a, b, c)
            break

    return idem, comm, assoc, counter


def certify_combiner(array: str, combiner: Combiner) -> CombinerCertificate:
    """Certify one live :class:`Combiner` declaration."""
    sem = op_semantics(combiner.op)
    if sem is None:
        return CombinerCertificate(
            array=array,
            op=combiner.op,
            status=STATUS_UNKNOWN_OP,
            declared_commutative=combiner.commutative,
            declared_idempotent=combiner.idempotent,
            note=(
                "no registered semantics for this op; register them with "
                "repro.core.combine.register_op_semantics to certify it"
            ),
        )
    if sem.fn is None:
        return CombinerCertificate(
            array=array,
            op=combiner.op,
            status=STATUS_NONDETERMINISTIC,
            declared_commutative=combiner.commutative,
            declared_idempotent=combiner.idempotent,
            domain=sem.domain,
            note=sem.note,
        )
    idem, comm, assoc, counter = evaluate_op(sem)
    cert = CombinerCertificate(
        array=array,
        op=combiner.op,
        status=STATUS_CERTIFIED,
        declared_commutative=combiner.commutative,
        declared_idempotent=combiner.idempotent,
        idempotent=idem,
        commutative=comm,
        associative=assoc,
        domain=sem.domain,
        counterexamples=counter,
        note=sem.note,
    )
    if cert.overclaims:
        cert = CombinerCertificate(
            **{**cert.__dict__, "status": STATUS_REFUTED}
        )
    return cert


# ---------------------------------------------------------------------------
# Static (AST) certification for `repro check --deep`


#: exported combiner constants resolvable by bare name in source
_KNOWN_COMBINER_CONSTANTS: Dict[str, Combiner] = {
    name: getattr(_combine, name)
    for name in ("MIN", "MAX", "SUM", "ANY", "WITNESS", "OVERWRITE")
}


def _literal_bool(node: Optional[ast.AST], default: bool) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node.value
    return default


def _resolve_combiner_expr(
    node: ast.AST, module_constants: Dict[str, ast.AST], depth: int = 0
) -> Optional[Combiner]:
    """Resolve a combiners-dict value expression to a Combiner, without
    importing the module.  Handles the shipped idioms:

    * ``MIN`` / ``combine.MIN`` — exported constants by name
    * ``Combiner("sub", commutative=True, ...)`` — literal construction
    * a module-level name bound to either of the above
    """
    if depth > 4:
        return None
    if isinstance(node, ast.Name):
        if node.id in _KNOWN_COMBINER_CONSTANTS:
            return _KNOWN_COMBINER_CONSTANTS[node.id]
        if node.id in module_constants:
            return _resolve_combiner_expr(
                module_constants[node.id], module_constants, depth + 1
            )
        return None
    if isinstance(node, ast.Attribute):
        if node.attr in _KNOWN_COMBINER_CONSTANTS:
            return _KNOWN_COMBINER_CONSTANTS[node.attr]
        return None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    ):
        fname = (node.func.id if isinstance(node.func, ast.Name)
                 else node.func.attr)
        if fname != "Combiner":
            return None
        if not (node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            return None
        op = node.args[0].value
        commutative = True
        idempotent = False
        if len(node.args) > 1:
            commutative = _literal_bool(node.args[1], commutative)
        if len(node.args) > 2:
            idempotent = _literal_bool(node.args[2], idempotent)
        for kw in node.keywords:
            if kw.arg == "commutative":
                commutative = _literal_bool(kw.value, commutative)
            elif kw.arg == "idempotent":
                idempotent = _literal_bool(kw.value, idempotent)
        return Combiner(op, commutative=commutative, idempotent=idempotent)
    return None


def _module_constants(ctx: ModuleContext) -> Dict[str, ast.AST]:
    """Module-level simple name bindings (for toy-primitive idioms like
    ``NONCOMM = Combiner("sub", commutative=True)``)."""
    out: Dict[str, ast.AST] = {}
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            t = stmt.targets[0]
            if isinstance(t, ast.Name):
                out[t.id] = stmt.value
    return out


def declared_combiners(
    ctx: ModuleContext,
) -> Dict[str, Dict[str, Combiner]]:
    """Statically resolve every problem class's ``combiners = {...}``
    declaration to live :class:`Combiner` objects, without importing
    the module.  Returns ``{problem class name: {array: Combiner}}``
    (unresolvable value expressions are skipped, same as
    :func:`certify_module`).  The model checker uses this to pair each
    iteration class with the combiner algebra its effects fold under.
    """
    out: Dict[str, Dict[str, Combiner]] = {}
    constants = _module_constants(ctx)
    for cls in ctx.problem_classes:
        combs: Dict[str, Combiner] = {}
        for stmt in cls.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not any(
                isinstance(t, ast.Name) and t.id == "combiners"
                for t in targets
            ):
                continue
            if not isinstance(value, ast.Dict):
                continue
            for key, val in zip(value.keys, value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    continue
                combiner = _resolve_combiner_expr(val, constants)
                if combiner is not None:
                    combs[key.value] = combiner
        if combs:
            out[cls.name] = combs
    return out


def certify_module(
    ctx: ModuleContext,
) -> Tuple[List[CombinerCertificate], List[Finding]]:
    """Statically certify every combiners declaration in a module.

    Returns the certificates plus REP114 findings for every over-claim
    (a declared property the exhaustive evaluation refuted).  Unknown
    ops declared order-independent get a warning-severity REP114 — their
    claims are unverifiable until semantics are registered.
    """
    certificates: List[CombinerCertificate] = []
    findings: List[Finding] = []
    constants = _module_constants(ctx)
    rule_name, _ = DEEP_CERTIFY_RULES["REP114"]
    for cls in ctx.problem_classes:
        for stmt in cls.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not any(
                isinstance(t, ast.Name) and t.id == "combiners"
                for t in targets
            ):
                continue
            if not isinstance(value, ast.Dict):
                continue
            for key, val in zip(value.keys, value.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    continue
                array = key.value
                combiner = _resolve_combiner_expr(val, constants)
                if combiner is None:
                    continue  # unresolvable expression: runtime-only
                cert = certify_combiner(array, combiner)
                certificates.append(cert)
                site = val
                for prop in cert.overclaims:
                    ce = cert.counterexamples.get(prop, ())
                    findings.append(Finding(
                        rule_id="REP114",
                        rule=rule_name,
                        path=ctx.path,
                        line=getattr(site, "lineno", stmt.lineno),
                        col=getattr(site, "col_offset", 0) + 1,
                        message=(
                            f"combiner for '{array}' declares "
                            f"{prop}=True but op '{cert.op}' is not "
                            f"{prop}: counterexample "
                            f"{_render_counterexample(prop, ce, cert.op)} "
                            f"over domain {list(cert.domain)}"
                        ),
                        extra={
                            "cls": cls.name, "array": array, "op": cert.op,
                            "property": prop,
                            "counterexample": repr(tuple(ce)),
                        },
                    ))
                if (
                    cert.status == STATUS_UNKNOWN_OP
                    and (combiner.commutative or combiner.idempotent)
                ):
                    findings.append(Finding(
                        rule_id="REP114",
                        rule=rule_name,
                        path=ctx.path,
                        line=getattr(site, "lineno", stmt.lineno),
                        col=getattr(site, "col_offset", 0) + 1,
                        severity="warning",
                        message=(
                            f"combiner for '{array}' claims order-"
                            f"independence but op '{cert.op}' has no "
                            "registered semantics to certify the claim; "
                            "register them with repro.core.combine."
                            "register_op_semantics"
                        ),
                        extra={"cls": cls.name, "array": array,
                               "op": cert.op},
                    ))
    return certificates, findings


def _render_counterexample(prop: str, ce: Tuple, op: str) -> str:
    if prop == "commutative" and len(ce) == 3:
        s, a, b = ce
        return (f"apply({s};{a},{b}) != apply({s};{b},{a})")
    if prop == "idempotent" and len(ce) == 2:
        a, b = ce
        return f"{op}({op}({a},{b}),{b}) != {op}({a},{b})"
    return repr(tuple(ce))
