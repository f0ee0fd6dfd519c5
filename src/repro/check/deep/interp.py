"""Abstract interpretation of primitive hook bodies (REP110–REP112).

The syntactic tier (``repro.check.rules``) pattern-matches source text;
this tier *executes* hook bodies over the abstract domain in
``repro.check.deep.lattice``, so it can answer semantic questions the
pattern matchers cannot:

* **REP110 ``silent-upcast``** — a float-kind expression is stored into a
  slice array whose dtype comes from the IdConfig integer side
  (``vertex_dtype``, ``bool`` bitmaps, concrete ints).  Numpy casts on
  subscript assignment without warning, so the store silently truncates —
  and the cost model's byte accounting (Table V ID-width
  parameterization) diverges from the arithmetic actually performed.
  Explicit ``.astype(...)`` conversions are deliberate and never flagged.
* **REP111 ``alias-write``** — a write lands in shared memory through an
  alias the dynamic tier cannot see: either a *basic-slice view* of a
  slice array (the BSP sanitizer's shadow wrappers do not survive
  slicing) or a received message payload (``msg.vertices`` /
  ``msg.*_associates`` may alias the sender's buffers — mutating them is
  a cross-GPU write that never rode the communication layer).
* **REP112 ``superstep-escape``** — a hot hook stores state on the
  iteration/problem object (``self.x = ...``, ``problem.y[...] = ...``)
  that is neither a declared checkpointed effect
  (``ProblemBase.CHECKPOINT_ATTRS``) nor a declared re-derivable cache
  (``IterationBase.SNAPSHOT_EXCLUDE``).  Such values escape the
  superstep outside the slice arrays and combiners the framework
  reasons about: a rollback silently resurrects them and a checkpoint
  never captures them.

The interpreter is interprocedural within one module: calls from a hook
into a module-level helper function propagate the caller's abstract
arguments into the helper body (memoized, depth-capped), so moving an
offending store into a helper does not hide it.  Helper *methods* of the
iteration class are analyzed directly with convention-bound parameters
(``ctx``/``msg``), matching how the enactor calls them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..findings import Finding
from ..rules.base import CONTROL_HOOKS, ModuleContext
from .lattice import (
    DTYPE_BOOL,
    DTYPE_FLOAT,
    DTYPE_ID,
    DTYPE_INT,
    DTYPE_UNKNOWN,
    DTYPE_VALUE,
    INTEGER_KINDS,
    ORIGIN_FRESH,
    ORIGIN_MSG,
    ORIGIN_OPAQUE,
    ORIGIN_PEER,
    ORIGIN_SLICE,
    AbstractValue,
    join,
    join_dtype,
)

__all__ = ["analyze_module", "DEEP_INTERP_RULES"]

#: rule_id -> (name, description) for the findings this module emits
DEEP_INTERP_RULES = {
    "REP110": (
        "silent-upcast",
        "float-kind expressions must not be stored into integer-kind "
        "(IdConfig vertex / bool) slice arrays",
    ),
    "REP111": (
        "alias-write",
        "writes must not reach shared memory through slice-views of "
        "slice arrays or received message payloads",
    ),
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

_TOP = AbstractValue()
_INT_SCALAR = AbstractValue(dtype=DTYPE_INT)
_FLOAT_SCALAR = AbstractValue(dtype=DTYPE_FLOAT)
_BOOL_SCALAR = AbstractValue(dtype=DTYPE_BOOL)

_MAX_HELPER_DEPTH = 3


class _Special:
    """Non-array abstract objects the hooks navigate (ctx, msg, ...)."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<special {self.kind}>"


_CTX = _Special("ctx")
_MSG = _Special("msg")
_SELF = _Special("self")
_PROBLEM = _Special("problem")
_SLICE = _Special("slice")
_PEER_SLICES = _Special("peer_slices")
_PEER_SLICE = _Special("peer_slice")
_SUB = _Special("sub")
_CSR = _Special("csr")
_MSG_VA = _Special("msg_va")
_MSG_LA = _Special("msg_la")

_Value = Union[AbstractValue, _Special, "_TupleVal"]


class _TupleVal:
    """A tuple-valued expression, for unpacking assignments."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[_Value]):
        self.items = list(items)


def _classify_dtype_expr(node: Optional[ast.AST]) -> str:
    """Dtype kind of an expression used as a numpy ``dtype=`` argument."""
    if node is None:
        return DTYPE_UNKNOWN
    if isinstance(node, ast.Attribute):
        if node.attr == "vertex_dtype":
            return DTYPE_ID
        if node.attr == "value_dtype":
            return DTYPE_VALUE
        if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            if node.attr.startswith(("int", "uint")):
                return DTYPE_INT
            if node.attr.startswith(("float", "double", "single")):
                return DTYPE_FLOAT
            if node.attr.startswith("bool"):
                return DTYPE_BOOL
    if isinstance(node, ast.Name):
        if node.id == "bool":
            return DTYPE_BOOL
        if node.id in ("int",):
            return DTYPE_INT
        if node.id in ("float",):
            return DTYPE_FLOAT
    return DTYPE_UNKNOWN


def _collect_slice_dtypes(ctx: ModuleContext) -> Dict[str, str]:
    """Map slice-array name -> dtype kind, from every ``ds.allocate`` in
    the module's problem classes (merged; conflicts become UNKNOWN)."""
    table: Dict[str, str] = {}
    for cls in ctx.problem_classes:
        for node in ast.walk(cls):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "allocate"
            ):
                continue
            if not (node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            name = node.args[0].value
            dtype_expr = node.args[2] if len(node.args) > 2 else None
            for kw in node.keywords:
                if kw.arg == "dtype":
                    dtype_expr = kw.value
            kind = _classify_dtype_expr(dtype_expr)
            if name in table and table[name] != kind:
                table[name] = DTYPE_UNKNOWN
            else:
                table[name] = kind
    return table


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


def _is_basic_slice(index: ast.AST) -> bool:
    """Whether a subscript index produces a *view* (basic slicing)."""
    if isinstance(index, ast.Slice):
        return True
    if isinstance(index, ast.Tuple):
        return any(isinstance(e, ast.Slice) for e in index.elts)
    return False


#: numpy constructors returning fresh integer index arrays
_NP_INT_FRESH = {
    "flatnonzero", "argsort", "lexsort", "searchsorted", "arange",
    "nonzero", "argmin", "argmax", "argwhere",
}
#: numpy functions returning a fresh array with arg0's dtype
_NP_DTYPE_OF_ARG0 = {
    "unique", "sort", "repeat", "cumsum", "diff", "take", "where",
    "ascontiguousarray", "abs", "concatenate", "copy",
}
#: elementwise numpy binary functions (dtype join of the operands)
_NP_ELEMENTWISE = {"minimum", "maximum", "add", "subtract", "multiply",
                   "divide", "true_divide", "hypot", "fmin", "fmax"}
#: ufunc ``.at``-style scatter names that write their first argument
_SCATTER_AT_OPS = {"add", "minimum", "maximum", "subtract", "multiply",
                   "bitwise_or", "bitwise_and", "logical_or", "logical_and"}
#: ``repro.core.operators`` keyed reductions ``f(keys, values, out)``: the
#: hooks' scatter writes go through these instead of a bare ``ufunc.at``
KEYED_SCATTER_FUNCS = {"segment_reduce_min", "segment_reduce_sum"}


class _HookInterp:
    """One interpretation pass over one hook (plus reached helpers)."""

    def __init__(
        self,
        mod: ModuleContext,
        slice_dtypes: Dict[str, str],
        declared_escapes: Set[str],
        module_functions: Dict[str, ast.FunctionDef],
        findings: List[Finding],
    ):
        self.mod = mod
        self.slice_dtypes = slice_dtypes
        self.declared_escapes = declared_escapes
        self.module_functions = module_functions
        self.findings = findings
        self._helper_memo: Set[Tuple[str, Tuple]] = set()
        self._depth = 0
        self._globals_declared: Set[str] = set()
        self.hook_name = ""
        self.cls_name = ""

    # -- reporting ---------------------------------------------------------
    def _emit(self, rule_id: str, node: ast.AST, message: str,
              **extra: str) -> None:
        name, _desc = DEEP_INTERP_RULES[rule_id]
        self.findings.append(
            Finding(
                rule_id=rule_id,
                rule=name,
                path=self.mod.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                extra=dict(extra, cls=self.cls_name, method=self.hook_name),
            )
        )

    # -- expression evaluation ----------------------------------------------
    def eval(self, node: ast.AST, env: Dict[str, _Value]) -> _Value:
        if isinstance(node, ast.Name):
            return env.get(node.id, _TOP)
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool):
                return _BOOL_SCALAR
            if isinstance(v, int):
                return _INT_SCALAR
            if isinstance(v, float):
                return _FLOAT_SCALAR
            return _TOP
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, (ast.BoolOp, ast.Compare)):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.expr):
                    self.eval(sub, env)
            return AbstractValue(dtype=DTYPE_BOOL, origin=ORIGIN_FRESH,
                                 is_array=True)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, env)
            if isinstance(operand, AbstractValue):
                return operand.as_fresh() if operand.is_array else operand
            return _TOP
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            a = self.eval(node.body, env)
            b = self.eval(node.orelse, env)
            if isinstance(a, AbstractValue) and isinstance(b, AbstractValue):
                return join(a, b)
            return _TOP
        if isinstance(node, ast.Tuple):
            return _TupleVal([self.eval(e, env) for e in node.elts])
        if isinstance(node, (ast.List, ast.Set)):
            for e in node.elts:
                self.eval(e, env)
            return _TOP
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        # comprehensions, lambdas, f-strings...: evaluate children for
        # effects, result unknown
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.expr):
                self.eval(sub, env)
        return _TOP

    def _eval_attribute(self, node: ast.Attribute, env) -> _Value:
        base = self.eval(node.value, env)
        attr = node.attr
        if isinstance(base, _Special):
            if base.kind == "ctx":
                return {
                    "slice": _SLICE,
                    "sub": _SUB,
                    "iteration": _INT_SCALAR,
                    "num_gpus": _INT_SCALAR,
                    "ids_bytes": _INT_SCALAR,
                    "fused": _BOOL_SCALAR,
                }.get(attr, _TOP)
            if base.kind == "self":
                if attr == "problem":
                    return _PROBLEM
                return _TOP
            if base.kind == "problem":
                if attr == "data_slices":
                    return _PEER_SLICES
                return _TOP
            if base.kind == "msg":
                if attr == "vertices":
                    return AbstractValue(
                        dtype=DTYPE_ID, origin=ORIGIN_MSG,
                        base="vertices", is_array=True,
                    )
                if attr == "vertex_associates":
                    return _MSG_VA
                if attr == "value_associates":
                    return _MSG_LA
                return _INT_SCALAR
            if base.kind == "sub":
                if attr == "csr":
                    return _CSR
                if attr in ("local_to_global", "host_of_local"):
                    return AbstractValue(dtype=DTYPE_INT,
                                         origin=ORIGIN_OPAQUE, is_array=True)
                return _INT_SCALAR
            if base.kind == "csr":
                if attr in ("cols64", "offsets64", "row_offsets",
                            "col_indices"):
                    return AbstractValue(dtype=DTYPE_INT,
                                         origin=ORIGIN_OPAQUE, is_array=True)
                if attr == "values":
                    return AbstractValue(dtype=DTYPE_VALUE,
                                         origin=ORIGIN_OPAQUE, is_array=True)
                return _TOP
            return _TOP
        if isinstance(base, AbstractValue):
            if attr in ("T",):
                return base.as_view()
            if attr in ("size", "ndim", "itemsize", "nbytes"):
                return _INT_SCALAR
            if attr == "shape":
                return _TOP
        return _TOP

    def _eval_subscript(self, node: ast.Subscript, env) -> _Value:
        base = self.eval(node.value, env)
        index = node.slice
        # evaluate the index for its own effects
        if isinstance(index, ast.expr) and not isinstance(index, ast.Slice):
            self.eval(index, env)
        if isinstance(base, _Special):
            if base.kind == "slice" and isinstance(index, ast.Constant):
                name = str(index.value)
                return AbstractValue(
                    dtype=self.slice_dtypes.get(name, DTYPE_UNKNOWN),
                    origin=ORIGIN_SLICE, base=name, is_array=True,
                )
            if base.kind == "peer_slices":
                return _PEER_SLICE
            if base.kind == "peer_slice":
                name = (index.value if isinstance(index, ast.Constant)
                        else None)
                return AbstractValue(
                    dtype=self.slice_dtypes.get(str(name), DTYPE_UNKNOWN),
                    origin=ORIGIN_PEER,
                    base=str(name) if name is not None else None,
                    is_array=True,
                )
            if base.kind == "msg_va":
                return AbstractValue(dtype=DTYPE_ID, origin=ORIGIN_MSG,
                                     base="vertex_associates", is_array=True)
            if base.kind == "msg_la":
                return AbstractValue(dtype=DTYPE_VALUE, origin=ORIGIN_MSG,
                                     base="value_associates", is_array=True)
            return _TOP
        if isinstance(base, AbstractValue) and base.is_array:
            if _is_basic_slice(index):
                return base.as_view()
            # fancy/boolean/scalar indexing materializes a copy (or a
            # scalar) — provenance is severed either way
            return base.as_fresh()
        return _TOP

    def _eval_binop(self, node: ast.BinOp, env) -> _Value:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        l_av = left if isinstance(left, AbstractValue) else _TOP
        r_av = right if isinstance(right, AbstractValue) else _TOP
        if isinstance(node.op, ast.Div):
            dtype = DTYPE_FLOAT  # numpy true division always yields floats
        else:
            dtype = join_dtype(l_av.dtype, r_av.dtype)
        return AbstractValue(
            dtype=dtype, origin=ORIGIN_FRESH,
            is_array=l_av.is_array or r_av.is_array,
        )

    # -- calls ---------------------------------------------------------------
    def _dtype_kwarg(self, node: ast.Call) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg == "dtype":
                kind = _classify_dtype_expr(kw.value)
                return kind
        return None

    def _eval_call(self, node: ast.Call, env) -> _Value:
        func = node.func
        args = [self.eval(a, env) for a in node.args]
        for kw in node.keywords:
            if kw.arg != "out":
                self.eval(kw.value, env)

        # np.<func>(...) and np.<ufunc>.at(...)
        if isinstance(func, ast.Attribute):
            owner = func.value
            # np.add.at(target, idx, vals) — scatter write into target
            if (
                func.attr == "at"
                and isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")
                and owner.attr in _SCATTER_AT_OPS
            ):
                if node.args:
                    target = args[0]
                    value = args[2] if len(args) > 2 else _TOP
                    self._check_array_write(node.args[0], target, value,
                                            node)
                return _TOP
            if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
                return self._eval_numpy_call(func.attr, node, args, env)
            # method calls on abstract arrays / specials
            recv = self.eval(owner, env)
            if isinstance(recv, AbstractValue):
                return self._eval_array_method(func.attr, owner, recv, node,
                                               args)
            if isinstance(recv, _Special) and recv.kind == "self":
                # helper methods of the iteration class are analyzed
                # directly (convention-bound params); don't recurse
                return _TOP
            return _TOP

        if isinstance(func, ast.Name):
            name = func.id
            if name in ("int", "len", "round"):
                return _INT_SCALAR
            if name == "float":
                return _FLOAT_SCALAR
            if name == "bool":
                return _BOOL_SCALAR
            if name in self.module_functions:
                return self._eval_helper_call(name, node, args)
            if name in KEYED_SCATTER_FUNCS and len(args) > 2:
                # scatter write of args[1] into args[2], like np.<op>.at
                self._check_array_write(node.args[2], args[2], args[1], node)
            return _TOP
        return _TOP

    def _eval_numpy_call(self, fname: str, node: ast.Call,
                         args: List[_Value], env) -> _Value:
        arg0 = args[0] if args else _TOP
        arg0_av = arg0 if isinstance(arg0, AbstractValue) else _TOP
        dtype_kw = self._dtype_kwarg(node)
        if fname in ("asarray", "ascontiguousarray"):
            # asarray of an ndarray ALIASES it (same origin, same view-ness)
            out = arg0_av
            if dtype_kw is not None and dtype_kw != DTYPE_UNKNOWN:
                # a dtype change forces a copy only when widths differ;
                # conservatively keep the alias, adopt the new kind
                out = out.with_dtype(dtype_kw)
            return out if out.is_array else out
        if fname in ("array",):
            out = arg0_av.as_fresh()
            if dtype_kw:
                out = out.with_dtype(dtype_kw)
            return out
        if fname in ("empty", "zeros", "ones", "full", "empty_like",
                     "zeros_like", "full_like"):
            kind = dtype_kw or (DTYPE_FLOAT if fname in ("zeros", "ones",
                                                         "empty", "full")
                                else arg0_av.dtype)
            return AbstractValue(dtype=kind, origin=ORIGIN_FRESH,
                                 is_array=True)
        if fname in _NP_INT_FRESH:
            return AbstractValue(dtype=DTYPE_INT, origin=ORIGIN_FRESH,
                                 is_array=True)
        if fname in _NP_DTYPE_OF_ARG0:
            return AbstractValue(dtype=arg0_av.dtype, origin=ORIGIN_FRESH,
                                 is_array=True)
        if fname in _NP_ELEMENTWISE:
            arg1_av = (args[1] if len(args) > 1 and
                       isinstance(args[1], AbstractValue) else _TOP)
            for kw in node.keywords:
                if kw.arg == "out":
                    out_target = self.eval(kw.value, env)
                    self._check_array_write(
                        kw.value, out_target,
                        AbstractValue(
                            dtype=join_dtype(arg0_av.dtype, arg1_av.dtype),
                            origin=ORIGIN_FRESH, is_array=True),
                        node,
                    )
            dtype = (DTYPE_FLOAT if fname in ("divide", "true_divide")
                     else join_dtype(arg0_av.dtype, arg1_av.dtype))
            return AbstractValue(dtype=dtype, origin=ORIGIN_FRESH,
                                 is_array=True)
        if fname == "copyto" and len(node.args) >= 2:
            value = args[1] if len(args) > 1 else _TOP
            self._check_array_write(node.args[0], arg0, value, node)
            return _TOP
        if fname in ("errstate", "printoptions"):
            return _TOP
        return _TOP

    def _eval_array_method(self, mname: str, owner_node: ast.AST,
                           recv: AbstractValue, node: ast.Call,
                           args: List[_Value]) -> _Value:
        if mname == "copy":
            return recv.as_fresh()
        if mname == "astype":
            # explicit conversion: deliberate, provenance severed
            kind = (_classify_dtype_expr(node.args[0]) if node.args
                    else DTYPE_UNKNOWN)
            return AbstractValue(dtype=kind or DTYPE_UNKNOWN,
                                 origin=ORIGIN_FRESH, is_array=True)
        if mname in ("reshape", "ravel", "view", "swapaxes", "transpose"):
            return recv.as_view()
        if mname == "fill":
            value = args[0] if args else _TOP
            self._check_array_write(owner_node, recv, value, node,
                                    is_fill=True)
            return _TOP
        if mname == "put":
            value = args[1] if len(args) > 1 else _TOP
            self._check_array_write(owner_node, recv, value, node)
            return _TOP
        if mname in ("sum", "max", "min", "mean", "prod", "dot"):
            return AbstractValue(dtype=recv.dtype, origin=ORIGIN_FRESH)
        if mname in ("any", "all"):
            return _BOOL_SCALAR
        if mname == "tolist":
            return _TOP
        return _TOP

    def _eval_helper_call(self, name: str, node: ast.Call,
                          args: List[_Value]) -> _Value:
        """Interprocedural step: analyze a same-module helper function
        under the caller's abstract arguments."""
        fn = self.module_functions[name]
        sig = tuple(
            (a.dtype, a.origin, a.base, a.is_view)
            if isinstance(a, AbstractValue) else getattr(a, "kind", "?")
            for a in args
        )
        key = (name, sig)
        if self._depth >= _MAX_HELPER_DEPTH or key in self._helper_memo:
            return _TOP
        self._helper_memo.add(key)
        env: Dict[str, _Value] = {}
        params = [p.arg for p in fn.args.args]
        for pname, val in zip(params, args):
            env[pname] = val
        for pname in params[len(args):]:
            env[pname] = _seed_param(pname)
        self._depth += 1
        try:
            return self._run_body(fn.body, env)
        finally:
            self._depth -= 1

    # -- write checks --------------------------------------------------------
    def _check_array_write(
        self,
        target_node: ast.AST,
        target: _Value,
        value: _Value,
        site: ast.AST,
        is_fill: bool = False,
    ) -> None:
        """Apply REP110/REP111 to a write whose destination evaluated to
        an abstract array."""
        if not isinstance(target, AbstractValue) or not target.is_array:
            return
        value_av = value if isinstance(value, AbstractValue) else _TOP
        if target.origin == ORIGIN_MSG:
            self._emit(
                "REP111", site,
                f"write into received message payload "
                f"'{target.base or '?'}': message arrays may alias the "
                "sender's buffers; mutating them is a cross-GPU write "
                "that bypasses the communication layer",
                symbol=str(target.base or ""),
            )
            return
        if target.origin == ORIGIN_SLICE and target.is_view:
            self._emit(
                "REP111", site,
                f"write through a slice-view of slice array "
                f"'{target.base or '?'}': the BSP sanitizer's shadow "
                "wrapper does not survive basic slicing, so this write "
                "is invisible to the dynamic race tier; write through "
                "the array itself (or an index array) instead",
                symbol=str(target.base or ""),
            )
            return
        if target.origin == ORIGIN_PEER:
            return  # REP106 (syntactic peer-mutation) already owns this
        if (
            target.origin == ORIGIN_SLICE
            and target.dtype in INTEGER_KINDS
            and value_av.dtype in (DTYPE_FLOAT, DTYPE_VALUE)
        ):
            kind = ("fill" if is_fill else "store")
            self._emit(
                "REP110", site,
                f"silent upcast: float-kind expression {kind} into "
                f"integer-kind slice array '{target.base or '?'}' "
                f"(dtype kind '{target.dtype}'); numpy truncates on "
                "assignment without warning — cast explicitly with "
                ".astype(...) or keep the arithmetic integral",
                symbol=str(target.base or ""),
            )

    def _check_attr_store(self, attr_node: ast.Attribute, env,
                          site: ast.AST) -> bool:
        """REP112 for ``self.x``/``problem.x`` store targets.  Returns
        True when the target was an escaping attribute (handled)."""
        base = self.eval(attr_node.value, env)
        if not (isinstance(base, _Special)
                and base.kind in ("self", "problem")):
            return False
        name = attr_node.attr
        if name in self.declared_escapes:
            return True
        owner = "self" if base.kind == "self" else "problem"
        self._emit(
            "REP112", site,
            f"'{owner}.{name}' is written inside hot hook "
            f"{self.cls_name}.{self.hook_name} but is neither a declared "
            "checkpointed effect (ProblemBase.CHECKPOINT_ATTRS) nor a "
            "declared re-derivable cache (IterationBase.SNAPSHOT_EXCLUDE): "
            "the value escapes the superstep outside the slice arrays and "
            "combiners the framework reasons about",
            symbol=name,
        )
        return True

    # -- statement execution -------------------------------------------------
    def _assign_target(self, target: ast.expr, value: _Value, env,
                       site: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._globals_declared:
                self._emit(
                    "REP112", site,
                    f"module-level name '{target.id}' is written inside "
                    f"hot hook {self.cls_name}.{self.hook_name}: global "
                    "state escapes the superstep outside declared "
                    "effects",
                    symbol=target.id,
                )
            env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            items = (value.items if isinstance(value, _TupleVal)
                     else [_TOP] * len(target.elts))
            for t, v in zip(target.elts, items):
                self._assign_target(t, v, env, site)
            return
        if isinstance(target, ast.Subscript):
            # writes through an attribute chain (self.x[...] = v) are
            # escape-checked on the attribute; everything else on the
            # evaluated array
            if isinstance(target.value, ast.Attribute):
                if self._check_attr_store(target.value, env, site):
                    return
            base = self.eval(target.value, env)
            self._check_array_write(target.value, base, value, site)
            return
        if isinstance(target, ast.Attribute):
            self._check_attr_store(target, env, site)
            return

    def _run_body(self, body: Sequence[ast.stmt],
                  env: Dict[str, _Value]) -> _Value:
        """Execute statements; returns the join of return-value AVs."""
        ret: _Value = _TOP
        for stmt in body:
            if isinstance(stmt, ast.Global):
                self._globals_declared.update(stmt.names)
            elif isinstance(stmt, ast.Assign):
                value = self.eval(stmt.value, env)
                for t in stmt.targets:
                    self._assign_target(t, value, env, stmt)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value = self.eval(stmt.value, env)
                self._assign_target(stmt.target, value, env, stmt)
            elif isinstance(stmt, ast.AugAssign):
                value = self.eval(stmt.value, env)
                current = self.eval(stmt.target, env)
                merged = (join(current, value)
                          if isinstance(current, AbstractValue)
                          and isinstance(value, AbstractValue) else _TOP)
                self._assign_target(stmt.target, merged, env, stmt)
            elif isinstance(stmt, ast.Expr):
                self.eval(stmt.value, env)
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    ret = self.eval(stmt.value, env)
            elif isinstance(stmt, (ast.If,)):
                self.eval(stmt.test, env)
                r1 = self._run_body(stmt.body, env)
                r2 = self._run_body(stmt.orelse, env)
                for r in (r1, r2):
                    if isinstance(r, AbstractValue) and r is not _TOP:
                        ret = r
            elif isinstance(stmt, (ast.For,)):
                self.eval(stmt.iter, env)
                self._assign_target(stmt.target, _TOP, env, stmt)
                r = self._run_body(stmt.body, env)
                self._run_body(stmt.orelse, env)
                if isinstance(r, AbstractValue) and r is not _TOP:
                    ret = r
            elif isinstance(stmt, ast.While):
                self.eval(stmt.test, env)
                r = self._run_body(stmt.body, env)
                self._run_body(stmt.orelse, env)
                if isinstance(r, AbstractValue) and r is not _TOP:
                    ret = r
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self.eval(item.context_expr, env)
                    if item.optional_vars is not None:
                        self._assign_target(item.optional_vars, _TOP, env,
                                            stmt)
                r = self._run_body(stmt.body, env)
                if isinstance(r, AbstractValue) and r is not _TOP:
                    ret = r
            elif isinstance(stmt, ast.Try):
                r = self._run_body(stmt.body, env)
                for handler in stmt.handlers:
                    self._run_body(handler.body, env)
                self._run_body(stmt.orelse, env)
                self._run_body(stmt.finalbody, env)
                if isinstance(r, AbstractValue) and r is not _TOP:
                    ret = r
            # pass/break/continue/raise/import/docstring: no dataflow
        return ret

    # -- hook entry ----------------------------------------------------------
    def run_hook(self, cls: ast.ClassDef, method: ast.FunctionDef) -> None:
        self.cls_name = cls.name
        self.hook_name = method.name
        self._globals_declared = set()
        env: Dict[str, _Value] = {}
        for p in method.args.args:
            env[p.arg] = _seed_param(p.arg)
        self._run_body(method.body, env)


def _seed_param(name: str) -> _Value:
    """Convention-bound abstract value for a hook/helper parameter."""
    if name == "self":
        return _SELF
    if name == "ctx":
        return _CTX
    if name == "msg":
        return _MSG
    if name == "problem":
        return _PROBLEM
    if name == "frontier":
        return AbstractValue(dtype=DTYPE_INT, origin=ORIGIN_OPAQUE,
                             is_array=True)
    return _TOP


def analyze_module(ctx: ModuleContext) -> List[Finding]:
    """Run the abstract interpreter over one parsed primitive module.

    Non-primitive modules (no Problem/Iteration classes) produce no
    findings — the deep interp tier is scoped to primitive hook bodies.
    """
    if not ctx.iteration_classes:
        return []
    slice_dtypes = _collect_slice_dtypes(ctx)
    declared = _collect_declared_escapes(ctx)
    module_functions = {
        node.name: node
        for node in ctx.tree.body
        if isinstance(node, ast.FunctionDef)
    }
    findings: List[Finding] = []
    interp = _HookInterp(ctx, slice_dtypes, declared, module_functions,
                         findings)
    for cls in ctx.iteration_classes:
        for method in ctx.methods(cls):
            if method.name in _NON_HOT_METHODS:
                continue
            interp.run_hook(cls, method)
    # one finding per (rule, location): direct analysis + interprocedural
    # reaches can hit the same node twice
    seen: Set[Tuple] = set()
    unique: List[Finding] = []
    for f in findings:
        key = (f.rule_id, f.line, f.col, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    unique.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return unique
