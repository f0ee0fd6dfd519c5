"""Schedule-space exploration for the superstep model checker.

This module is the *dynamic* half of the superstep model checker (the
static half — compiling hot hooks into effect summaries — lives in
:mod:`repro.check.deep.modelcheck`).  It takes a per-GPU effect program
and exhaustively enumerates the schedules the framework can produce on
2–3 virtual GPUs over a small bounded horizon, in the style of stateless
model checkers (CHESS/DPOR): every reachable *final* state must be
unique, otherwise the pair of schedules that disagree is the
counterexample.

State model
-----------
Instead of concrete vertex arrays, every combined slice array is a
**fold** of symbolic update terms.  The fold structure is chosen from
the combiner's *evaluated* algebra (``deep/certify.py``), not its
declared flags:

* ``set``       — idempotent + commutative + associative (min/max/or):
                  an unordered set of terms; re-delivery and reordering
                  are absorbed by construction, so divergence can only
                  enter through value terms that depend on *when* a
                  read happened.
* ``multiset``  — commutative but not idempotent (sum): a multiset of
                  terms; reordering is absorbed but re-delivery is not.
* ``seq``       — non-commutative (overwrite/first/last/unknown): an
                  ordered sequence; everything matters.

Update terms carry digests of the folds they were derived from, so a
value computed from a peer's write or a payload-view write produces a
different term depending on when that write landed.

Schedule model
--------------
The framework contract is strict BSP: all messages from superstep *k*
are merged at barrier *k* in pinned (sender, receiver) lexicographic
order (the REP113 discipline), each exactly once.  Two choice
dimensions remain, and each is explored only when a program can make it
matter (static independence facts, recorded in the certificate):

* compute-phase interleavings, when some hook writes a peer's slice;
* barrier delivery orders, when some merge writes through payload
  views.

A program with neither has exactly one schedule per GPU count; every
shipped primitive is such a program.  Reached states are memoized on a
canonical digest.

Everything here is deterministic: no randomness, no wall clock, and all
iteration orders are sorted, so the same program always yields the same
verdict, counters, and counterexample — which is what keeps the
certificates byte-stable in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = [
    "FOLD_SET",
    "FOLD_MULTISET",
    "FOLD_SEQ",
    "FOLD_EXCLUDED",
    "ArrayModel",
    "Effect",
    "GpuProgram",
    "ExploreResult",
    "fold_kind_for",
    "canon",
    "explore",
    "replay",
    "build_counterexample",
    "schedule_trace_to_tracer",
    "TRACE_VERSION",
]

# fold structure kinds (see module docstring)
FOLD_SET = "set"
FOLD_MULTISET = "multiset"
FOLD_SEQ = "seq"
#: array is excluded from the model (witness combiners pick an arbitrary
#: contributor by contract, so their content is *allowed* to be
#: schedule-dependent — they must not poison the verdict)
FOLD_EXCLUDED = "excluded"

#: version of the replayable schedule-trace JSON documents
TRACE_VERSION = 2


def fold_kind_for(idempotent: Optional[bool], commutative: Optional[bool],
                  excluded: bool = False) -> str:
    """Map an *evaluated* combiner algebra onto a fold structure."""
    if excluded:
        return FOLD_EXCLUDED
    if commutative is None or idempotent is None:
        # unknown op semantics: assume nothing commutes
        return FOLD_SEQ
    if not commutative:
        return FOLD_SEQ
    return FOLD_SET if idempotent else FOLD_MULTISET


@dataclass(frozen=True)
class ArrayModel:
    """One combined slice array in the model."""

    name: str
    op: str
    fold: str  # one of the FOLD_* kinds


@dataclass(frozen=True)
class Effect:
    """One write effect extracted from a hot hook.

    ``kind`` is one of:

    * ``"apply"``    — apply the declared combiner with ``value``
    * ``"reset"``    — destructive whole-array reinitialization (fill)
    * ``"peer"``     — write into a *peer's* slice (REP106 territory)
    * ``"msgwrite"`` — write through message payload views (REP111)

    ``value`` is a value spec tuple:

    * ``("const", token)``   — schedule-independent constant
    * ``("iter",)``          — derived from ``ctx.iteration`` only
    * ``("fwd", B)``         — untransformed forward of combined array B
    * ``("pay", names)``     — untransformed forward of a message
                               payload whose candidate source arrays
                               are ``names`` (a frozenset)
    * ``("expr", site, reads)`` — arbitrary expression reading the
                               combined arrays in ``reads`` (frozenset)
    """

    kind: str
    array: str
    value: tuple
    hook: str = ""
    line: int = 0

    def describe(self) -> str:
        tag = self.value[0]
        if tag == "expr":
            what = "expr over {%s}" % ", ".join(sorted(self.value[2]))
        elif tag == "fwd":
            what = "forward of '%s'" % self.value[1]
        elif tag == "pay":
            what = "payload forward of {%s}" % ", ".join(sorted(self.value[1]))
        elif tag == "iter":
            what = "iteration-derived value"
        else:
            what = "constant"
        return "%s '%s' <- %s (%s:%d)" % (
            self.kind, self.array, what, self.hook, self.line)


@dataclass(frozen=True)
class GpuProgram:
    """The per-GPU superstep program (same code runs on every GPU)."""

    #: compute-phase effects, in program order (full_queue_core first,
    #: then helper-method effects)
    core: Tuple[Effect, ...] = ()
    #: merge-phase effects (expand_incoming), in program order
    expand: Tuple[Effect, ...] = ()
    #: combined arrays shipped as message payload each superstep
    payload_arrays: FrozenSet[str] = frozenset()


@dataclass
class ExploreResult:
    """Outcome of one exploration."""

    num_gpus: int
    horizon: int
    deterministic: bool
    num_final_states: int
    states: int
    schedules: int
    pruned: int
    #: True when the whole schedule space was enumerated (required for a
    #: *safety* verdict; a refutation needs only two schedules)
    exhausted: bool
    #: POR facts that justified pruning, for the certificate
    independence: Tuple[str, ...] = ()
    #: choices of the canonical schedule and of the first schedule that
    #: reached a different final state (None unless divergent)
    witness_choices: Optional[list] = None
    divergent_choices: Optional[list] = None


# ---------------------------------------------------------------------------
# canonical serialization (frozensets and dicts get a stable rendering)
# ---------------------------------------------------------------------------


def canon(obj) -> str:
    """Deterministic canonical string for nested term structures."""
    if isinstance(obj, frozenset) or isinstance(obj, set):
        return "{" + ",".join(sorted(canon(x) for x in obj)) + "}"
    if isinstance(obj, tuple) or isinstance(obj, list):
        return "(" + ",".join(canon(x) for x in obj) + ")"
    if isinstance(obj, dict):
        items = sorted((canon(k), canon(v)) for k, v in obj.items())
        return "{" + ",".join("%s:%s" % kv for kv in items) + "}"
    return repr(obj)


# ---------------------------------------------------------------------------
# fold operations
# ---------------------------------------------------------------------------


def _fold_init(kind: str, gpu: int):
    term = ("init", gpu)
    if kind == FOLD_SET:
        return frozenset([term])
    return (term,)


def _fold_add(kind: str, fold, term):
    if kind == FOLD_SET:
        return fold | {term}
    if kind == FOLD_MULTISET:
        return tuple(sorted(fold + (term,), key=canon))
    return fold + (term,)  # FOLD_SEQ: order preserved


def _fold_union(fold, other: frozenset):
    """Absorb another set fold into a set fold (identity forwards)."""
    return fold | other


class _Machine:
    """Executes effect programs over fold states, recording events.

    One instance per exploration; ``explore`` drives it branch-by-branch
    on copied fold dicts, ``replay`` drives it once along recorded
    choices with event recording on.
    """

    def __init__(self, program: GpuProgram, arrays: Sequence[ArrayModel],
                 num_gpus: int):
        self.program = program
        self.num_gpus = num_gpus
        self.kinds = {a.name: a.fold for a in arrays
                      if a.fold != FOLD_EXCLUDED}
        self.payload = tuple(sorted(
            a for a in program.payload_arrays if a in self.kinds))
        self.has_comm = bool(self.payload) or any(
            e.kind in ("apply", "reset", "msgwrite") for e in program.expand)
        self.events: Optional[list] = None  # set by replay

    # -- state ----------------------------------------------------------

    def initial_folds(self) -> dict:
        return {(g, a): _fold_init(k, g)
                for g in range(self.num_gpus)
                for a, k in sorted(self.kinds.items())}

    def digest(self, folds: dict) -> str:
        return canon(tuple(
            (g, a, folds[(g, a)])
            for g in range(self.num_gpus)
            for a in sorted(self.kinds)))

    # -- value terms ----------------------------------------------------

    def _term(self, spec: tuple, gpu: int, step: int, folds: dict,
              payload: Optional[dict], send_step: Optional[int]):
        tag = spec[0]
        if tag == "const":
            return ("const", spec[1])
        if tag == "iter":
            # a merged message is consumed *for* superstep send_step+1
            return ("iter", step if send_step is None else send_step + 1)
        if tag == "fwd":
            src = spec[1]
            return ("fwd", src, canon(folds.get((gpu, src))))
        if tag == "pay":
            names = tuple(sorted(spec[1]))
            snap = {n: (payload or {}).get(n) for n in names}
            return ("pay", names, canon(snap))
        # ("expr", site, reads): digest every read's current fold; for
        # merge-phase exprs the payload snapshot is part of the read set
        site, reads = spec[1], spec[2]
        parts = []
        for r in sorted(reads):
            if payload is not None and r in payload:
                parts.append(("pay", r, canon(payload[r])))
            if (gpu, r) in folds:
                parts.append((r, folds[(gpu, r)]))
        return ("expr", site, gpu, step, canon(tuple(parts)))

    # -- effect application --------------------------------------------

    def _emit(self, ev: dict) -> None:
        if self.events is not None:
            self.events.append(ev)

    def _apply(self, eff: Effect, gpu: int, step: int, folds: dict,
               payload: Optional[dict] = None,
               send_step: Optional[int] = None) -> None:
        kind = self.kinds.get(eff.array)
        if kind is None:  # excluded (witness) or unmodeled array
            return
        if eff.kind == "reset":
            term = ("reset", gpu, step, eff.line)
            folds[(gpu, eff.array)] = (
                frozenset([term]) if kind == FOLD_SET else (term,))
            self._emit({"ev": "reset", "step": step, "gpu": gpu,
                        "array": eff.array, "hook": eff.hook,
                        "line": eff.line})
            return
        if eff.kind in ("peer", "msgwrite"):
            # handled by the callers (compute / deliver), which know the
            # target GPU; _apply only sees local applies
            raise AssertionError("peer/msgwrite must not reach _apply")
        spec = eff.value
        key = (gpu, eff.array)
        # identity forwards into an idempotent set fold are absorbed:
        # min-combining an array into itself, or merging a payload that
        # *is* a snapshot of the same fold, is a sub-fold union
        if kind == FOLD_SET and spec[0] == "fwd" and spec[1] == eff.array:
            self._emit({"ev": "apply", "step": step, "gpu": gpu,
                        "array": eff.array, "absorbed": True,
                        "hook": eff.hook, "line": eff.line})
            return
        if (kind == FOLD_SET and spec[0] == "pay"
                and set(spec[1]) == {eff.array} and payload is not None
                and payload.get(eff.array) is not None):
            folds[key] = _fold_union(folds[key], payload[eff.array])
            self._emit({"ev": "apply", "step": step, "gpu": gpu,
                        "array": eff.array, "absorbed": True,
                        "hook": eff.hook, "line": eff.line})
            return
        term = self._term(spec, gpu, step, folds, payload, send_step)
        folds[key] = _fold_add(kind, folds[key], term)
        self._emit({"ev": "apply", "step": step, "gpu": gpu,
                    "array": eff.array, "term": canon(term),
                    "hook": eff.hook, "line": eff.line})

    # -- phases ---------------------------------------------------------

    def compute(self, gpu: int, step: int, folds: dict) -> None:
        self._emit({"ev": "compute", "step": step, "gpu": gpu})
        for eff in self.program.core:
            if eff.kind == "peer":
                # the target slice index is dynamic; model as a write
                # visible in every peer (broadcast upper bound)
                term = self._term(eff.value, gpu, step, folds, None, None)
                for p in range(self.num_gpus):
                    if p == gpu or (p, eff.array) not in folds:
                        continue
                    k = self.kinds[eff.array]
                    folds[(p, eff.array)] = _fold_add(
                        k, folds[(p, eff.array)], ("peer", gpu) + term)
                    self._emit({"ev": "peer-write", "step": step,
                                "gpu": gpu, "peer": p, "array": eff.array,
                                "hook": eff.hook, "line": eff.line})
                continue
            if eff.kind == "msgwrite":
                continue  # only meaningful at merge time
            self._apply(eff, gpu, step, folds)

    def snapshot_payload(self, gpu: int, folds: dict) -> dict:
        return {a: folds[(gpu, a)] for a in self.payload}

    def messages(self, step: int, folds: dict) -> list:
        """Every (sender, receiver, step, payload snapshot) of one
        superstep, in pinned (sender, receiver) order."""
        if not self.has_comm:
            return []
        gpus = range(self.num_gpus)
        snaps = {g: self.snapshot_payload(g, folds) for g in gpus}
        return [(g, r, step, snaps[g]) for g in gpus for r in gpus
                if r != g]

    def deliver(self, msg: tuple, folds: dict, step: int) -> None:
        """Merge one message: ``msg = (sender, receiver, send_step,
        payload_snapshot)``."""
        sender, receiver, send_step, payload = msg
        self._emit({"ev": "deliver", "step": step, "gpu": receiver,
                    "from": sender, "sent_step": send_step})
        for eff in self.program.expand:
            if eff.kind == "msgwrite":
                # writing through payload views mutates the *sender's*
                # arrays (they alias under zero-copy comm) — the hazard
                # REP111 flags dynamically
                if (sender, eff.array) in folds:
                    k = self.kinds[eff.array]
                    folds[(sender, eff.array)] = _fold_add(
                        k, folds[(sender, eff.array)],
                        ("msgwrite", receiver, step, eff.line))
                    self._emit({"ev": "msg-write", "step": step,
                                "gpu": receiver, "peer": sender,
                                "array": eff.array, "line": eff.line})
                continue
            if eff.kind == "peer":
                continue
            self._apply(eff, receiver, step, folds,
                        payload=payload, send_step=send_step)


# ---------------------------------------------------------------------------
# static independence facts (sleep sets)
# ---------------------------------------------------------------------------


def _independence(program: GpuProgram) -> Tuple[bool, bool, list]:
    """Compute which choice dimensions need branching.

    Returns ``(peer_branch, msg_branch, notes)``.  A dimension that does
    not branch is a proven independence fact, recorded in ``notes`` for
    the certificate.
    """
    notes: List[str] = []
    peer_branch = any(e.kind == "peer" for e in program.core)
    if not peer_branch:
        notes.append("compute phases are pairwise independent "
                     "(no peer-slice writes): single interleaving explored")
    msg_branch = any(e.kind == "msgwrite" for e in program.expand)
    if not msg_branch:
        notes.append("merges do not write through payload views: "
                     "barrier merge order stays pinned (REP113)")
    return peer_branch, msg_branch, notes


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------


class _Diverged(Exception):
    pass


class _Budget(Exception):
    pass


def explore(program: GpuProgram, arrays: Sequence[ArrayModel],
            num_gpus: int = 2, horizon: int = 2,
            max_states: int = 20000,
            stop_on_divergence: bool = True) -> ExploreResult:
    """Enumerate every strict-barrier schedule of ``program``.

    Safe (deterministic) verdicts require ``exhausted``; refutations
    stop at the second distinct final state and return the two choice
    sequences that disagree.
    """
    m = _Machine(program, arrays, num_gpus)
    peer_b, msg_b, notes = _independence(program)
    gpus = range(num_gpus)
    counters = {"states": 0, "schedules": 0, "pruned": 0}
    visited: set = set()
    finals: Dict[str, list] = {}

    def run_step(step: int, folds: dict, choices: list) -> None:
        if step == horizon:
            counters["schedules"] += 1
            d = m.digest(folds)
            if d not in finals:
                finals[d] = list(choices)
                if len(finals) > 1 and stop_on_divergence:
                    raise _Diverged
            return
        key = (step, m.digest(folds))
        if key in visited:
            counters["pruned"] += 1
            return
        visited.add(key)
        counters["states"] += 1
        if counters["states"] > max_states:
            raise _Budget

        orders = (list(permutations(gpus)) if peer_b
                  else [tuple(gpus)])
        for order in orders:
            f2 = dict(folds)
            for g in order:
                m.compute(g, step, f2)
            msgs = m.messages(step, f2)
            d_orders = (list(permutations(range(len(msgs))))
                        if msg_b and len(msgs) > 1
                        else [tuple(range(len(msgs)))])
            for d_order in d_orders:
                f3 = dict(f2)
                for i in d_order:
                    m.deliver(msgs[i], f3, step)
                rec = {"step": step, "order": list(order),
                       "deliver_order": list(d_order)}
                run_step(step + 1, f3, choices + [rec])

    exhausted = True
    try:
        run_step(0, m.initial_folds(), [])
    except _Diverged:
        exhausted = False
    except _Budget:
        exhausted = False

    det = len(finals) <= 1 and exhausted
    keys = sorted(finals)
    witness = finals[keys[0]] if keys else None
    divergent = finals[keys[1]] if len(keys) > 1 else None
    return ExploreResult(
        num_gpus=num_gpus,
        horizon=horizon,
        deterministic=det,
        num_final_states=len(finals),
        states=counters["states"],
        schedules=counters["schedules"],
        pruned=counters["pruned"],
        exhausted=exhausted,
        independence=tuple(notes),
        witness_choices=witness,
        divergent_choices=divergent,
    )


# ---------------------------------------------------------------------------
# replay: choices -> full event trace (the replayable JSON documents)
# ---------------------------------------------------------------------------


def replay(program: GpuProgram, arrays: Sequence[ArrayModel],
           num_gpus: int, horizon: int, choices: list,
           primitive: str = "") -> dict:
    """Re-execute one recorded schedule, returning the trace document.

    The document is self-contained and replayable: feeding its
    ``choices`` back through :func:`replay` reproduces the identical
    event list and final state digest.
    """
    m = _Machine(program, arrays, num_gpus)
    m.events = []
    folds = m.initial_folds()
    by_step = {c["step"]: c for c in choices}
    for step in range(horizon):
        rec = by_step.get(step, {"order": list(range(num_gpus)),
                                 "deliver_order": []})
        for g in rec["order"]:
            m.compute(g, step, folds)
        msgs = m.messages(step, folds)
        m.events.append({"ev": "send", "step": step,
                         "payload": sorted(m.payload)})
        for i in rec.get("deliver_order") or range(len(msgs)):
            m.deliver(msgs[i], folds, step)
        m.events.append({"ev": "barrier", "step": step})
    return {
        "version": TRACE_VERSION,
        "primitive": primitive,
        "gpus": num_gpus,
        "horizon": horizon,
        "choices": choices,
        "events": m.events,
        "final_state": m.digest(folds),
    }


def build_counterexample(program: GpuProgram, arrays: Sequence[ArrayModel],
                         result: ExploreResult,
                         primitive: str = "") -> Optional[dict]:
    """Render an ``ExploreResult`` divergence as a witness/divergent
    trace pair, or ``None`` when the exploration was deterministic."""
    if result.divergent_choices is None:
        return None
    witness = replay(program, arrays, result.num_gpus, result.horizon,
                     result.witness_choices or [], primitive=primitive)
    divergent = replay(program, arrays, result.num_gpus, result.horizon,
                       result.divergent_choices, primitive=primitive)
    first = 0
    wc = witness["choices"]
    dc = divergent["choices"]
    for i in range(min(len(wc), len(dc))):
        if wc[i] != dc[i]:
            first = i
            break
    return {
        "gpus": result.num_gpus,
        "horizon": result.horizon,
        "first_divergent_step": first,
        "witness": witness,
        "divergent": divergent,
    }


# ---------------------------------------------------------------------------
# trace rendering: schedule trace -> obs.Tracer (for chrome_trace export)
# ---------------------------------------------------------------------------


def schedule_trace_to_tracer(doc: dict, divergent_step: Optional[int] = None):
    """Convert a schedule-trace document into an :class:`obs.Tracer`
    so ``obs/chrome_trace.py`` can render it in Perfetto.

    Each compute event becomes an ``op`` span on its GPU track wrapped
    in a per-step ``superstep`` span; merges become ``comm`` spans on
    the shared communication row; the first divergent step (if given) gets an
    ``mc.divergence`` instant.
    """
    from ...obs.tracer import COMM_TRACK, Span, Tracer

    num_gpus = int(doc.get("gpus", 2))
    tracer = Tracer()
    tracer.primitive = doc.get("primitive", "") or "modelcheck"
    tracer.backend = "mc"
    tracer.num_gpus = num_gpus
    cursor = [0.0] * num_gpus
    comm_cursor = [0.0]

    def comm_span(name: str, step: int, args: dict) -> None:
        tracer.spans.append(Span(
            name=name, cat="comm", track=COMM_TRACK, iteration=step,
            vt_start=comm_cursor[0], vt_dur=1.0, args=args))
        comm_cursor[0] += 1.0

    for ev in doc.get("events", []):
        kind = ev.get("ev")
        step = int(ev.get("step", 0))
        if kind == "compute":
            g = int(ev["gpu"])
            tracer.spans.append(Span(
                name="superstep %d" % step, cat="superstep", track=g,
                iteration=step, vt_start=cursor[g], vt_dur=2.0,
                args={"step": step}))
            tracer.spans.append(Span(
                name="compute", cat="op", track=g, iteration=step,
                vt_start=cursor[g], vt_dur=1.0, args={"step": step}))
            cursor[g] += 2.0
        elif kind in ("apply", "reset"):
            g = int(ev["gpu"])
            tracer.spans.append(Span(
                name="%s %s" % (kind, ev.get("array", "?")), cat="op",
                track=g, iteration=step, vt_start=cursor[g], vt_dur=0.5,
                args={k: v for k, v in sorted(ev.items())
                      if k not in ("ev",)}))
            cursor[g] += 0.5
        elif kind == "deliver":
            comm_span("merge %s->%s" % (ev.get("from"), ev.get("gpu")),
                      step,
                {k: v for k, v in sorted(ev.items()) if k != "ev"})
        elif kind in ("peer-write", "msg-write"):
            comm_span("%s %s->%s '%s'" % (
                kind, ev.get("gpu"), ev.get("peer"),
                ev.get("array", "?")), step,
                {k: v for k, v in sorted(ev.items()) if k != "ev"})
        elif kind == "send":
            comm_span("send payload", step,
                      {"payload": ",".join(ev.get("payload", []))})
        elif kind == "barrier":
            tracer.events.append({"type": "barrier", "iteration": step,
                                  "vt": max(cursor + comm_cursor)})
    if divergent_step is not None:
        tracer.events.append({
            "type": "mc.divergence", "iteration": divergent_step,
            "vt": max(cursor + comm_cursor),
            "detail": "first schedule choice that changes the final state",
        })
    return tracer


def dump_trace(doc: dict) -> str:
    """Serialize a trace document byte-stably."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
