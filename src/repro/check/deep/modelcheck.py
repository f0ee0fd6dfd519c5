"""Superstep interleaving model checker (REP116).

Compiles each primitive's hot hooks into per-GPU **effect summaries**
and exhaustively explores their strict-barrier interleavings across 2–3
virtual GPUs (:mod:`repro.check.deep.schedules`).

Effect extraction piggybacks on the REP110–112 abstract interpreter: a
:class:`_EffectInterp` subclass of :class:`interp._HookInterp` keeps two
side tables keyed by AST-node identity — the evaluated abstract value
and a **taint** ``(sources, transformed)`` — and hooks every write
channel the base interpreter already funnels through
``_check_array_write`` / ``_check_attr_store``.  Taint sources are:

* ``("slice", name)``  — content of a slice array
* ``("pay", kind, i)`` — content of message payload field *i*
* ``("iter",)``        — derived from ``ctx.iteration``
* ``("peer", name)``   — content of a peer GPU's slice array

``transformed`` distinguishes an identity *forward* of a source (which
an idempotent set fold absorbs) from a value *computed* from it (which
depends on when the source was written).  Subscript taint is the **base** array's taint only:
indices are structural, so ``comp[src]`` stays a pure forward of
``comp``.

Approximations (all sound for the declared-combiner contract, all
deterministic):

* every local write into a combined array is modeled as an application
  of the *declared* combiner op — guard idioms
  (``labels[fresh] = v`` after a freshness mask) are optimizations the
  combiner's own algebra must absorb, not separate semantics;
* destructive whole-array ``fill()`` is modeled as an epoch RESET,
  which only interacts with schedules when the array also receives
  remote contributions (PR's ``acc``) — a reset of purely-local state
  (DOBFS's pull bitmap) is schedule-invariant;
* reads of non-combined slice arrays are resolved through a
  cross-array taint closure (PR's acc → rank → share flow), computed
  order-insensitively so cross-superstep flows are covered.

**REP116** (error): some strict-barrier interleaving changes the final
state — a non-commutative effect pair escapes the pinned merge order
(peer-slice or message-payload writes void the pin).  It comes with a
minimal counterexample: a pair of replayable schedule traces (see
``schedules.TRACE_VERSION``) renderable via ``obs/chrome_trace.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..findings import Finding
from ..rules.base import ModuleContext
from .certify import (
    STATUS_NONDETERMINISTIC,
    CombinerCertificate,
    certify_combiner,
    declared_combiners,
)
from .interp import (
    KEYED_SCATTER_FUNCS,
    _NON_HOT_METHODS,
    _HookInterp,
    _Special,
    _TupleVal,
    _collect_declared_escapes,
    _collect_slice_dtypes,
)
from .lattice import (
    ORIGIN_MSG,
    ORIGIN_PEER,
    ORIGIN_SLICE,
    AbstractValue,
)
from .schedules import (
    FOLD_EXCLUDED,
    ArrayModel,
    Effect,
    ExploreResult,
    GpuProgram,
    build_counterexample,
    explore,
    fold_kind_for,
)

__all__ = [
    "DEEP_MC_RULES",
    "ScheduleCertificate",
    "modelcheck_module",
    "extract_program",
    "MC_GPUS",
    "MC_HORIZON",
]

DEEP_MC_RULES = {
    "REP116": (
        "non-commutative-effects",
        "under strict barriers every interleaving of superstep effects "
        "must reach the same final state; a divergence means an effect "
        "pair escapes the pinned merge order",
    ),
}

#: virtual GPU counts and superstep horizon the checker explores
MC_GPUS: Tuple[int, ...] = (2, 3)
MC_HORIZON = 2

#: certificate statuses
MC_CERTIFIED = "certified"
MC_REFUTED = "refuted"
MC_INCONCLUSIVE = "inconclusive"

#: message payload field -> payload slot kind in ``_payload_map``
_PAYLOAD_FIELDS = {"vertex_associates": "v", "value_associates": "l"}

_EMPTY_TAINT = (frozenset(), False)
_ITER_SRC = ("iter",)

#: calls whose result is (element-wise) the same data as their array
#: argument — taint flows through untransformed
_TAINT_PASSTHROUGH = frozenset({
    "asarray", "ascontiguousarray", "array", "copy", "astype", "repeat",
    "concatenate", "ravel", "reshape", "flatten", "unique",
})


@dataclass(frozen=True)
class _RawEffect:
    """A write effect with unresolved taint (resolved after the
    cross-array closure is known)."""

    kind: str  # apply | reset | peer | msgwrite
    array: str
    content: FrozenSet[tuple]
    transformed: bool
    hook: str
    line: int
    col: int


class _EffectInterp(_HookInterp):
    """The REP110–112 interpreter plus taint tracking and effect capture.

    All extra state lives in side tables keyed by ``id(node)`` — the
    base interpreter evaluates children before parents return, so
    post-order taint rules always find their operands recorded.  The
    base class's own findings go to a throwaway list: the ``--deep``
    tier owns REP110–112, this pass only wants the writes.
    """

    def __init__(self, mod, slice_dtypes, declared_escapes,
                 module_functions, combined: Set[str]):
        super().__init__(mod, slice_dtypes, declared_escapes,
                         module_functions, findings=[])
        self.combined = combined
        self._nv: Dict[int, object] = {}
        self._nt: Dict[int, tuple] = {}
        self._vt_stack: List[Dict[str, tuple]] = [{}]
        self._pending: Optional[tuple] = None  # (taint, site) for stores
        self.raw_effects: List[_RawEffect] = []
        #: non-combined slice array -> union of taints ever stored into it
        self.array_taint: Dict[str, Set[tuple]] = {}
        #: (qualified name, declared) per self/problem attr store
        self.attr_writes: List[Tuple[str, bool]] = []

    def run_hook(self, cls, method):
        # variable taints are hook-local; never leak across hooks
        self._vt_stack = [{}]
        self._pending = None
        super().run_hook(cls, method)

    # -- taint machinery ------------------------------------------------

    def _vt(self) -> Dict[str, tuple]:
        return self._vt_stack[-1]

    def _t(self, node: Optional[ast.AST]) -> tuple:
        if node is None:
            return _EMPTY_TAINT
        return self._nt.get(id(node), _EMPTY_TAINT)

    def _union_children(self, node: ast.AST, transformed: bool) -> tuple:
        content: FrozenSet[tuple] = frozenset()
        tr = transformed
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.expr):
                c, t = self._t(sub)
                content = content | c
                tr = tr or t
        return (content, tr)

    def eval(self, node, env):
        # associate-array hooks return lists of slice arrays; the base
        # interpreter flattens lists to TOP, but payload resolution
        # needs the element values — treat List like Tuple here
        if isinstance(node, ast.List):
            val = _TupleVal([self.eval(e, env) for e in node.elts])
        else:
            val = super().eval(node, env)
        self._nv[id(node)] = val
        self._nt[id(node)] = self._taint_of(node, val)
        return val

    def _taint_of(self, node: ast.AST, val) -> tuple:
        if isinstance(node, ast.Name):
            return self._vt().get(node.id, _EMPTY_TAINT)
        if isinstance(node, ast.Constant):
            return _EMPTY_TAINT
        if isinstance(node, ast.Attribute):
            basev = self._nv.get(id(node.value))
            if (isinstance(basev, _Special) and basev.kind == "ctx"
                    and node.attr == "iteration"):
                return (frozenset([_ITER_SRC]), False)
            return self._t(node.value)
        if isinstance(node, ast.Subscript):
            basev = self._nv.get(id(node.value))
            if isinstance(basev, _Special):
                if (basev.kind == "slice"
                        and isinstance(node.slice, ast.Constant)):
                    return (frozenset([("slice", str(node.slice.value))]),
                            False)
                if basev.kind in ("msg_va", "msg_la"):
                    payk = "v" if basev.kind == "msg_va" else "l"
                    idx = (node.slice.value
                           if isinstance(node.slice, ast.Constant)
                           and isinstance(node.slice.value, int) else 0)
                    return (frozenset([("pay", payk, int(idx))]), False)
                if (basev.kind == "peer_slice"
                        and isinstance(node.slice, ast.Constant)):
                    return (frozenset([("peer", str(node.slice.value))]),
                            False)
                return _EMPTY_TAINT
            # content taint is the BASE's taint only: indices are
            # structural (which elements, not what values)
            return self._t(node.value)
        if isinstance(node, ast.BinOp):
            lc, _lt = self._t(node.left)
            rc, _rt = self._t(node.right)
            return (lc | rc, True)
        if isinstance(node, (ast.BoolOp, ast.Compare, ast.UnaryOp,
                             ast.IfExp)):
            return self._union_children(node, transformed=True)
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        # Tuple/List/Set/Starred/comprehensions/...: pass children through
        return self._union_children(node, transformed=False)

    def _call_taint(self, node: ast.Call) -> tuple:
        content: FrozenSet[tuple] = frozenset()
        tr = False
        for a in node.args:
            c, t = self._t(a)
            content, tr = content | c, tr or t
        for kw in node.keywords:
            if kw.arg == "out":
                continue
            c, t = self._t(kw.value)
            content, tr = content | c, tr or t
        func = node.func
        fname = ""
        if isinstance(func, ast.Attribute):
            fname = func.attr
            ownerv = self._nv.get(id(func.value))
            owner_is_np = (isinstance(func.value, ast.Name)
                           and func.value.id in ("np", "numpy"))
            if fname == "take" and not owner_is_np:
                # ``x.take(idx)`` is the gather ``x[idx]``: like a
                # subscript, its content is the base's; the indices are
                # structural
                return self._t(func.value)
            if not owner_is_np and not isinstance(ownerv, _Special):
                c, t = self._t(func.value)
                content, tr = content | c, tr or t
        elif isinstance(func, ast.Name):
            fname = func.id
        if fname not in _TAINT_PASSTHROUGH:
            tr = True
        return (content, tr)

    # -- assignment / write interception --------------------------------

    def _site_taint(self, site: ast.AST) -> tuple:
        if isinstance(site, ast.Assign):
            return self._t(site.value)
        if isinstance(site, ast.AnnAssign) and site.value is not None:
            return self._t(site.value)
        if isinstance(site, ast.AugAssign):
            vc, _vt = self._t(site.value)
            tc, _tt = self._t(site.target)
            return (vc | tc, True)
        return _EMPTY_TAINT

    def _assign_target(self, target, value, env, site):
        taint = self._site_taint(site)
        if isinstance(target, ast.Name):
            self._vt()[target.id] = taint
            return super()._assign_target(target, value, env, site)
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            prev = self._pending
            self._pending = (taint, site)
            try:
                return super()._assign_target(target, value, env, site)
            finally:
                self._pending = prev
        # tuple/list unpack: base recurses back into _assign_target per
        # element with the same site, hitting the branches above
        return super()._assign_target(target, value, env, site)

    def _eval_helper_call(self, name, node, args):
        fn = self.module_functions[name]
        frame: Dict[str, tuple] = {}
        for p, a in zip([p.arg for p in fn.args.args], node.args):
            frame[p] = self._t(a)
        self._vt_stack.append(frame)
        try:
            return super()._eval_helper_call(name, node, args)
        finally:
            self._vt_stack.pop()

    def _write_taint(self, site: ast.AST, is_fill: bool) -> tuple:
        if self._pending is not None and self._pending[1] is site:
            return self._pending[0]
        if isinstance(site, ast.Call):
            f = site.func
            if isinstance(f, ast.Name) and f.id in KEYED_SCATTER_FUNCS:
                return self._t(site.args[1])
            if isinstance(f, ast.Attribute):
                if f.attr == "at" and len(site.args) > 2:
                    return self._t(site.args[2])
                if f.attr == "fill" and site.args:
                    return self._t(site.args[0])
                if f.attr == "put" and len(site.args) > 1:
                    return self._t(site.args[1])
                if f.attr == "copyto" and len(site.args) > 1:
                    return self._t(site.args[1])
            # elementwise ufunc with out=: value computed from the args
            content: FrozenSet[tuple] = frozenset()
            for a in site.args:
                content = content | self._t(a)[0]
            return (content, True)
        if isinstance(site, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._site_taint(site)
        return _EMPTY_TAINT

    def _check_array_write(self, target_node, target, value, site,
                           is_fill=False):
        if isinstance(target, AbstractValue) and target.is_array:
            name = target.base
            taint = self._write_taint(site, is_fill)
            line = getattr(site, "lineno", 0)
            col = getattr(site, "col_offset", 0)
            if target.origin == ORIGIN_SLICE and name:
                if name in self.combined:
                    self.raw_effects.append(_RawEffect(
                        kind="reset" if is_fill else "apply",
                        array=name, content=taint[0],
                        transformed=taint[1], hook=self.hook_name,
                        line=line, col=col))
                else:
                    self.array_taint.setdefault(name, set()).update(
                        taint[0])
            elif target.origin == ORIGIN_PEER:
                self.raw_effects.append(_RawEffect(
                    kind="peer", array=name or "?", content=taint[0],
                    transformed=taint[1], hook=self.hook_name,
                    line=line, col=col))
            elif target.origin == ORIGIN_MSG:
                self.raw_effects.append(_RawEffect(
                    kind="msgwrite", array=name or "?", content=taint[0],
                    transformed=taint[1], hook=self.hook_name,
                    line=line, col=col))
        return super()._check_array_write(target_node, target, value, site,
                                          is_fill=is_fill)

    def _check_attr_store(self, attr_node, env, site):
        handled = super()._check_attr_store(attr_node, env, site)
        basev = self._nv.get(id(attr_node.value))
        if isinstance(basev, _Special) and basev.kind in ("self", "problem"):
            owner = "self" if basev.kind == "self" else "problem"
            self.attr_writes.append((
                "%s.%s" % (owner, attr_node.attr),
                attr_node.attr in self.declared_escapes))
        return handled


# ---------------------------------------------------------------------------
# raw effects -> GpuProgram
# ---------------------------------------------------------------------------


def _taint_closure(array_taint: Dict[str, Set[tuple]],
                   combined: Set[str]) -> Dict[str, Set[tuple]]:
    """Fixpoint of non-combined-array taint expansion (order-insensitive,
    so cross-superstep flows like PR's acc -> rank -> share are found
    regardless of statement order)."""
    at = {k: set(v) for k, v in array_taint.items()}
    changed = True
    while changed:
        changed = False
        for name, srcs in at.items():
            extra: Set[tuple] = set()
            for s in list(srcs):
                if s[0] == "slice" and s[1] not in combined and s[1] in at \
                        and s[1] != name:
                    extra |= at[s[1]]
            if not extra <= srcs:
                srcs |= extra
                changed = True
    return at


def _resolve_content(content: FrozenSet[tuple],
                     closure: Dict[str, Set[tuple]],
                     combined: Set[str]) -> FrozenSet[tuple]:
    out: Set[tuple] = set()
    stack = list(content)
    seen: Set[tuple] = set()
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        if s[0] == "slice" and s[1] not in combined:
            stack.extend(closure.get(s[1], ()))
        else:
            out.add(s)
    return frozenset(out)


@dataclass
class EffectSummary:
    """The compiled per-GPU program plus provenance for the certificate."""

    cls_name: str
    program: GpuProgram
    arrays: List[ArrayModel]
    certificates: Dict[str, CombinerCertificate]
    excluded: Tuple[str, ...]
    attr_writes: Tuple[Tuple[str, bool], ...]


def _payload_map(interp: _EffectInterp, ctx: ModuleContext,
                 cls: ast.ClassDef) -> Dict[Tuple[str, int], Set[str]]:
    """Which slice arrays each message payload slot can carry.

    Conditional returns union (BC ships sigma or delta in the value
    slot depending on the phase)."""
    out: Dict[Tuple[str, int], Set[str]] = {}
    for hook, payk in (("vertex_associate_arrays", "v"),
                       ("value_associate_arrays", "l")):
        method = ctx.find_method(cls, hook)
        if method is None:
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            v = interp._nv.get(id(node.value))
            items = (v.items if isinstance(v, _TupleVal)
                     else [v] if isinstance(v, AbstractValue) else [])
            for i, item in enumerate(items):
                if (isinstance(item, AbstractValue)
                        and item.origin == ORIGIN_SLICE and item.base):
                    out.setdefault((payk, i), set()).add(item.base)
    return out


def _value_spec(raw: _RawEffect, resolved: FrozenSet[tuple],
                paymap: Dict[Tuple[str, int], Set[str]],
                modeled: Set[str]) -> tuple:
    reads = {s[1] for s in resolved if s[0] == "slice" and s[1] in modeled}
    reads |= {s[1] for s in resolved if s[0] == "peer" and s[1] in modeled}
    pay_slots = [(s[1], s[2]) for s in resolved if s[0] == "pay"]
    pay_names: Set[str] = set()
    for slot in pay_slots:
        pay_names |= paymap.get(slot, set()) & modeled
    has_iter = any(s[0] == "iter" for s in resolved)
    site = "%s:%d:%d" % (raw.hook, raw.line, raw.col)
    if not reads and not pay_names:
        if has_iter:
            return ("iter",)
        return ("const", site)
    if not raw.transformed:
        if pay_names and not reads and len(pay_slots) == 1:
            return ("pay", frozenset(pay_names))
        if reads and not pay_names and len(reads) == 1:
            return ("fwd", next(iter(reads)))
    return ("expr", site, frozenset(reads | pay_names))


def extract_program(ctx: ModuleContext, cls: ast.ClassDef,
                    certificates: Dict[str, CombinerCertificate],
                    ) -> EffectSummary:
    """Compile one iteration class's hot hooks into a GpuProgram."""
    combined = set(certificates)
    interp = _EffectInterp(
        ctx,
        _collect_slice_dtypes(ctx),
        _collect_declared_escapes(ctx),
        {node.name: node for node in ctx.tree.body
         if isinstance(node, ast.FunctionDef)},
        combined,
    )
    methods = [m for m in ctx.methods(cls)
               if m.name not in _NON_HOT_METHODS]
    # full_queue_core's effects lead the compute phase; helper-method
    # effects follow in source order (BC's per-phase helpers are all
    # modeled — a sound union of the phase machine's behaviors)
    methods.sort(key=lambda mth: (mth.name != "full_queue_core",
                                  mth.lineno))
    for method in methods:
        interp.run_hook(cls, method)

    closure = _taint_closure(interp.array_taint, combined)
    arrays: List[ArrayModel] = []
    excluded: List[str] = []
    for name in sorted(certificates):
        cert = certificates[name]
        fold = fold_kind_for(
            cert.idempotent, cert.commutative,
            excluded=cert.status == STATUS_NONDETERMINISTIC)
        arrays.append(ArrayModel(name=name, op=cert.op, fold=fold))
        if fold == FOLD_EXCLUDED:
            excluded.append(name)
    modeled = {a.name for a in arrays if a.fold != FOLD_EXCLUDED}

    paymap = _payload_map(interp, ctx, cls)
    core: List[Effect] = []
    expand: List[Effect] = []
    for raw in interp.raw_effects:
        if raw.kind in ("apply", "reset") and raw.array not in modeled:
            continue  # witness-excluded target
        resolved = _resolve_content(raw.content, closure, combined)
        spec = (("const", "%s:%d" % (raw.hook, raw.line))
                if raw.kind == "reset"
                else _value_spec(raw, resolved, paymap, modeled))
        if raw.kind == "msgwrite":
            # a payload-view write lands in whichever sender arrays the
            # written payload field can carry
            payk = _PAYLOAD_FIELDS.get(raw.array)
            expand.extend(
                Effect(kind="msgwrite", array=name, value=spec,
                       hook=raw.hook, line=raw.line)
                for name in sorted(set().union(*(
                    names for (k, _i), names in paymap.items()
                    if k == payk)) & modeled))
            continue
        eff = Effect(kind=raw.kind, array=raw.array, value=spec,
                     hook=raw.hook, line=raw.line)
        if raw.hook == "expand_incoming":
            expand.append(eff)
        elif raw.hook in ("vertex_associate_arrays",
                          "value_associate_arrays"):
            continue  # associate hooks only *read*; nothing to model
        else:
            core.append(eff)
    payload_arrays = frozenset(
        name for names in paymap.values() for name in names) & frozenset(
        modeled)
    program = GpuProgram(core=tuple(core), expand=tuple(expand),
                         payload_arrays=frozenset(payload_arrays))
    return EffectSummary(
        cls_name=cls.name,
        program=program,
        arrays=arrays,
        certificates=certificates,
        excluded=tuple(sorted(excluded)),
        attr_writes=tuple(sorted(set(interp.attr_writes))),
    )


# ---------------------------------------------------------------------------
# ScheduleCertificate
# ---------------------------------------------------------------------------


@dataclass
class ScheduleCertificate:
    """Machine-checkable record of one primitive's schedule exploration:
    whether every strict-barrier schedule of its effect summaries
    reaches the same final state, and how much was explored to show
    it."""

    primitive: str  # iteration class name
    path: str
    status: str  # certified | refuted | inconclusive
    strict_deterministic: bool
    gpus: Tuple[int, ...]
    horizon: int
    #: array -> {"op": ..., "fold": ...}
    arrays: Dict[str, dict] = field(default_factory=dict)
    excluded: Tuple[str, ...] = ()
    #: {"states", "schedules", "pruned", "exhausted", "final_states"}
    #: summed over the explored GPU counts
    explored: Dict[str, object] = field(default_factory=dict)
    independence: Tuple[str, ...] = ()
    counterexample: Optional[dict] = None
    attr_writes: Tuple[Tuple[str, bool], ...] = ()
    version: int = 2

    def to_dict(self) -> dict:
        return {
            "primitive": self.primitive,
            "path": self.path,
            "status": self.status,
            "strict_deterministic": self.strict_deterministic,
            "gpus": list(self.gpus),
            "horizon": self.horizon,
            "arrays": {k: dict(v) for k, v in sorted(self.arrays.items())},
            "excluded": list(self.excluded),
            "explored": dict(self.explored),
            "independence": list(self.independence),
            "counterexample": self.counterexample,
            "attr_writes": [list(a) for a in self.attr_writes],
            "version": self.version,
        }

    def describe(self) -> str:
        verdict = ("deterministic" if self.strict_deterministic
                   else "non-deterministic")
        folds = ", ".join("%s:%s/%s" % (k, v["op"], v["fold"])
                          for k, v in sorted(self.arrays.items()))
        return "%s: %s [%s] (%s)" % (
            self.primitive, verdict, self.status, folds or "no arrays")


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def _problem_certs_for(iter_cls_name: str,
                       per_cls: Dict[str, Dict[str, CombinerCertificate]],
                       ) -> Dict[str, CombinerCertificate]:
    """Pair an iteration class with its problem class's combiners.

    Convention: ``FooIteration`` pairs with ``FooProblem``; a module
    with exactly one problem class pairs with everything."""
    if len(per_cls) == 1:
        return dict(next(iter(per_cls.values())))
    stem = iter_cls_name
    if stem.endswith("Iteration"):
        stem = stem[:-len("Iteration")]
    for pname, certs in sorted(per_cls.items()):
        pstem = pname[:-len("Problem")] if pname.endswith("Problem") \
            else pname
        if pstem == stem:
            return dict(certs)
    merged: Dict[str, CombinerCertificate] = {}
    for _pname, certs in sorted(per_cls.items()):
        merged.update(certs)
    return merged


def _sum_results(results: List[ExploreResult]) -> dict:
    return {
        "states": sum(r.states for r in results),
        "schedules": sum(r.schedules for r in results),
        "pruned": sum(r.pruned for r in results),
        "exhausted": all(r.exhausted for r in results),
        "final_states": max((r.num_final_states for r in results),
                            default=0),
    }


def modelcheck_module(
    ctx: ModuleContext,
    gpus: Tuple[int, ...] = MC_GPUS,
    horizon: int = MC_HORIZON,
) -> Tuple[List[Finding], List[ScheduleCertificate]]:
    """Model-check every iteration class in one parsed module."""
    findings: List[Finding] = []
    certificates: List[ScheduleCertificate] = []
    if not ctx.iteration_classes:
        return findings, certificates
    per_cls: Dict[str, Dict[str, CombinerCertificate]] = {}
    for pcls_name, combiners in declared_combiners(ctx).items():
        per_cls[pcls_name] = {
            array: certify_combiner(array, comb)
            for array, comb in combiners.items()
        }
    for icls in ctx.iteration_classes:
        hooks = {m.name for m in ctx.methods(icls)}
        if "full_queue_core" not in hooks and "expand_incoming" not in hooks:
            continue
        certs = _problem_certs_for(icls.name, per_cls)
        summary = extract_program(ctx, icls, certs)
        program, arrays = summary.program, summary.arrays

        results = [explore(program, arrays, num_gpus=g, horizon=horizon)
                   for g in gpus]
        strict_det = all(r.deterministic for r in results)
        bad = next((r for r in results if r.divergent_choices is not None),
                   None)
        status = (MC_REFUTED if bad is not None
                  else MC_CERTIFIED if all(r.exhausted for r in results)
                  else MC_INCONCLUSIVE)
        counterexample = (build_counterexample(
            program, arrays, bad, primitive=icls.name)
            if bad is not None else None)
        independence: List[str] = []
        for r in results:
            for note in r.independence:
                if note not in independence:
                    independence.append(note)

        cert = ScheduleCertificate(
            primitive=icls.name,
            path=ctx.path,
            status=status,
            strict_deterministic=strict_det,
            gpus=tuple(gpus),
            horizon=horizon,
            arrays={a.name: {"op": a.op, "fold": a.fold} for a in arrays},
            excluded=summary.excluded,
            explored=_sum_results(results),
            independence=tuple(independence),
            counterexample=counterexample,
            attr_writes=summary.attr_writes,
        )
        certificates.append(cert)

        arrays_txt = ",".join(sorted(
            a.name for a in arrays if a.fold != FOLD_EXCLUDED))
        if not strict_det:
            culprits = [e for e in (program.core + program.expand)
                        if e.kind in ("peer", "msgwrite")]
            line = culprits[0].line if culprits else icls.lineno
            detail = "; ".join(e.describe() for e in culprits[:3]) or \
                "see counterexample schedule"
            findings.append(Finding(
                rule_id="REP116",
                rule=DEEP_MC_RULES["REP116"][0],
                path=ctx.path,
                line=line,
                col=1,
                message=(
                    "strict-barrier interleavings of %s's superstep "
                    "effects reach different final states: %s — the "
                    "pinned barrier merge order does not cover these "
                    "writes; minimal counterexample schedule attached "
                    "to the ScheduleCertificate" % (icls.name, detail)),
                extra={"cls": icls.name, "arrays": arrays_txt,
                       "mc_states": str(cert.explored["states"])},
            ))
    certificates.sort(key=lambda c: c.primitive)
    return findings, certificates
