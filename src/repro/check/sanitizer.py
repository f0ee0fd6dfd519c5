"""Dynamic BSP race sanitizer: shadow-memory checking of the framework
contract.

The paper's correctness argument (Section III-B) is that an unmodified
single-GPU primitive stays correct on multiple GPUs because *all*
inter-GPU data flow goes through split/package/push messages combined at
the superstep boundary, and because concurrent updates of replicated
vertices merge through programmer-declared combiners.  The sanitizer
verifies both halves at runtime:

* every per-GPU slice array is wrapped in a :class:`ShadowArray` that
  attributes reads and writes to the *currently executing* virtual GPU
  (the sanitizer is an enactor observer, whose superstep hooks
  bracket each GPU's turn);
* an access to an array owned by a *different* GPU's slice is flagged
  immediately — that is peer state read (``SAN201``) or mutated
  (``SAN202``) mid-superstep, data that did not arrive through the last
  barrier;
* writes to arrays whose declared combiner is commutative or idempotent
  are provably barrier-mergeable and skipped; all other writes are
  logged, and at each barrier (:meth:`BspSanitizer.on_barrier`) two GPUs
  having written replicated copies of the same *global* vertex raises a
  write-write hazard (``SAN203``).

A GPU turn's findings go to its own :class:`_GpuStage`, which the
enactor carries to the merge in the GPU's ``GpuStepEffects.stages``.

Opt-in via ``Enactor(..., sanitize=True)`` or ``repro run --sanitize``;
benchmarks stay unperturbed because unwrapped runs share no code with
the shadow path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.observer import Observer

__all__ = ["Hazard", "ShadowArray", "BspSanitizer"]

_SAMPLE = 8  # vertices listed per hazard report


@dataclass
class Hazard:
    """One detected violation of the BSP framework contract."""

    hazard_id: str  # SAN201 / SAN202 / SAN203
    name: str
    array: str
    superstep: int
    gpus: Tuple[int, ...]
    vertices: Tuple[int, ...]  # sample of affected vertex IDs
    message: str
    extra: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "hazard_id": self.hazard_id,
            "name": self.name,
            "array": self.array,
            "superstep": self.superstep,
            "gpus": list(self.gpus),
            "vertices": [int(v) for v in self.vertices],
            "message": self.message,
            **({"extra": dict(self.extra)} if self.extra else {}),
        }


class ShadowArray(np.ndarray):
    """A slice array that reports its accesses to the sanitizer.

    Derived arrays (views, copies, fancy-indexing results) drop the
    sanitizer link in ``__array_finalize__`` so only accesses to the
    registered array itself are attributed — temporaries never produce
    findings of their own.
    """

    _san: Optional["BspSanitizer"]
    _owner: int
    _name: str

    @classmethod
    def wrap(
        cls, arr: np.ndarray, san: "BspSanitizer", owner: int, name: str
    ) -> "ShadowArray":
        obj = arr.view(cls)
        obj._san = san
        obj._owner = owner
        obj._name = name
        return obj

    def __array_finalize__(self, obj) -> None:
        self._san = None
        self._owner = getattr(obj, "_owner", -1)
        self._name = getattr(obj, "_name", "")

    # -- read/write attribution -------------------------------------------
    def __getitem__(self, key):
        san = self._san
        if san is not None and san._gpu is not None:
            san._on_read(self, key)
        return super().__getitem__(key)

    def __setitem__(self, key, value) -> None:
        san = self._san
        if san is not None and san._gpu is not None:
            san._on_write(self, key)
        super().__setitem__(key, value)

    def fill(self, value) -> None:
        san = self._san
        if san is not None and san._gpu is not None:
            san._on_write(self, slice(None))
        self.view(np.ndarray).fill(value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        san = self._san
        if method == "at" and inputs and inputs[0] is self:
            # np.add.at / np.minimum.at — the simulated atomic update
            if san is not None and san._gpu is not None:
                san._on_write(self, inputs[1])
            rest = [
                x.view(np.ndarray) if isinstance(x, ShadowArray) else x
                for x in inputs[1:]
            ]
            ufunc.at(self.view(np.ndarray), *rest)
            return None
        for x in inputs:
            xs = getattr(x, "_san", None)
            if xs is not None and xs._gpu is not None:
                xs._on_read(x, slice(None))
        cast = [
            x.view(np.ndarray) if isinstance(x, ShadowArray) else x
            for x in inputs
        ]
        out = kwargs.get("out")
        if out is not None:
            for x in out:
                xs = getattr(x, "_san", None)
                if xs is not None and xs._gpu is not None:
                    xs._on_write(x, slice(None))
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, ShadowArray) else x
                for x in out
            )
        return getattr(ufunc, method)(*cast, **kwargs)


def _positions(key, length: int) -> np.ndarray:
    """Resolve any 1-D index expression into concrete positions."""
    if isinstance(key, (int, np.integer)):
        return np.asarray([int(key) % length], dtype=np.int64)
    try:
        return np.arange(length, dtype=np.int64)[key]
    except (IndexError, TypeError, ValueError):
        return np.arange(length, dtype=np.int64)  # conservative: whole array


@dataclass
class _GpuStage:
    """One GPU's staged sanitizer state for one superstep.

    A ``processes`` worker finds the hazards of its own GPUs, so
    mid-superstep findings cannot append to one shared list.  Each GPU
    turn accumulates into its own stage, which rides the GPU's
    ``GpuStepEffects.stages`` — out of a worker's reply too — to
    :meth:`BspSanitizer.on_effects`, which merges the stages in
    GPU-index order: what the serial loop's interleaved appends would
    have produced.
    """

    hazards: List[Hazard] = field(default_factory=list)
    #: array name -> this GPU's written local-index chunks
    pending: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    #: (hazard_id, gpu, owner, name, superstep) dedupe for this turn
    seen: Set[tuple] = field(default_factory=set)


class BspSanitizer(Observer):
    """Records per-(GPU, superstep) accesses and checks the contract.

    Construction wraps every array of every :class:`DataSlice` in the
    problem; the enactor's observer hooks then bracket each GPU's turn
    (possibly in a worker process), merge the turns' stages and check
    them at the barrier.  ``_gpu`` is the virtual GPU whose turn is open
    (None outside turns) and ``_stage`` its stage.  ``hazards``
    accumulates per run; :meth:`end_run` puts them in the metrics as
    dicts.
    """

    def __init__(self, problem) -> None:
        self.problem = problem
        self.hazards: List[Hazard] = []
        self.begin_run(None, None)
        self._safe: Dict[str, bool] = {
            name: comb is not None and comb.order_independent
            for name, comb in problem.state.arrays.items()
        }
        for gpu, ds in enumerate(problem.data_slices):
            for name, arr in list(ds.arrays.items()):
                ds.arrays[name] = ShadowArray.wrap(arr, self, gpu, name)
        problem._sanitizer = self  # reachable from run_* convenience returns

    # -- the observer hooks ------------------------------------------------
    def begin_run(self, enactor, metrics) -> None:
        self.hazards.clear()
        self._gpu: Optional[int] = None
        self._stage: Optional[_GpuStage] = None
        self._superstep = -1
        #: array name -> gpu -> this superstep's merged written chunks
        self._pending: Dict[str, Dict[int, List[np.ndarray]]] = {}
        #: hazards already reported as instants
        self._reported = 0

    def on_superstep_start(self, gpu, iteration, vt, frontier) -> None:
        self._gpu = gpu
        self._stage = _GpuStage()
        self._superstep = iteration

    def on_superstep_end(self, vt: float, eff) -> _GpuStage:
        """Close the GPU's turn; return its stage for the merge."""
        stage = self._stage
        self._gpu = None
        self._stage = None
        return stage

    def on_effects(self, eff, stage: _GpuStage) -> None:
        """Merge one GPU's stage; the merge runs in GPU-index order,
        which reproduces the serial append order."""
        self.hazards.extend(stage.hazards)
        for name, chunks in stage.pending.items():
            self._pending.setdefault(name, {})[eff.gpu] = chunks

    def on_barrier(self, enactor, iteration: int, rec) -> None:
        """Check the superstep's logged writes for replicated WW races,
        then emit every hazard it found as a ``sanitizer.hazard``
        instant."""
        pending, self._pending = self._pending, {}
        for name, per_gpu in pending.items():
            writers = {g: idx for g, idx in per_gpu.items() if idx}
            if len(writers) < 2:
                continue
            gpus_arr, globs = [], []
            for g, chunks in writers.items():
                local = np.unique(np.concatenate(chunks))
                l2g = self.problem.subgraphs[g].local_to_global
                local = local[local < l2g.size]
                globs.append(l2g[local])
                gpus_arr.append(np.full(local.size, g, dtype=np.int64))
            gl = np.concatenate(globs)
            gp = np.concatenate(gpus_arr)
            order = np.argsort(gl, kind="stable")
            gl, gp = gl[order], gp[order]
            uniq, start = np.unique(gl, return_index=True)
            counts = np.diff(np.append(start, gl.size))
            conflicted = uniq[counts > 1]
            if conflicted.size == 0:
                continue
            comb = self.problem.state.arrays.get(name)
            desc = comb.describe() if comb is not None else "none declared"
            self.hazards.append(
                Hazard(
                    hazard_id="SAN203",
                    name="unsafe-concurrent-write",
                    array=name,
                    superstep=iteration,
                    gpus=tuple(sorted(writers)),
                    vertices=tuple(
                        int(v) for v in conflicted[:_SAMPLE]
                    ),
                    message=(
                        f"{conflicted.size} replicated vertex(es) written "
                        f"by multiple GPUs in one superstep but the "
                        f"combiner is {desc}; declare a commutative/"
                        "idempotent combiner in the problem's RunState or "
                        "serialize the updates through messages"
                    ),
                    extra={"combiner": desc},
                )
            )
        vt = enactor.machine.clock.now
        for hz in self.hazards[self._reported:]:
            enactor.emit(
                "sanitizer.hazard", vt=vt, hazard=hz.hazard_id,
                array=hz.array, superstep=hz.superstep,
            )
        self._reported = len(self.hazards)

    def end_run(self, metrics) -> None:
        metrics.sanitizer_hazards = [h.to_dict() for h in self.hazards]

    # -- ShadowArray callbacks ---------------------------------------------
    def _on_read(self, arr: "ShadowArray", key) -> None:
        gpu = self._gpu
        if gpu == arr._owner:
            return
        stage = self._stage
        if stage is None:
            return
        dedupe = ("SAN201", gpu, arr._owner, arr._name, self._superstep)
        if dedupe in stage.seen:
            return
        stage.seen.add(dedupe)
        pos = _positions(key, arr.shape[0]) if arr.ndim == 1 else \
            np.empty(0, dtype=np.int64)
        stage.hazards.append(
            Hazard(
                hazard_id="SAN201",
                name="remote-read",
                array=arr._name,
                superstep=self._superstep,
                gpus=(gpu, arr._owner),
                vertices=tuple(int(v) for v in pos[:_SAMPLE]),
                message=(
                    f"GPU {gpu} read GPU {arr._owner}'s {arr._name!r} "
                    "mid-superstep — remote-owned data that did not "
                    "arrive through the last barrier; receive it via "
                    "expand_incoming instead"
                ),
            )
        )

    def _on_write(self, arr: "ShadowArray", key) -> None:
        gpu = self._gpu
        stage = self._stage
        if stage is None:
            return
        if gpu != arr._owner:
            dedupe = ("SAN202", gpu, arr._owner, arr._name, self._superstep)
            if dedupe in stage.seen:
                return
            stage.seen.add(dedupe)
            pos = _positions(key, arr.shape[0]) if arr.ndim == 1 else \
                np.empty(0, dtype=np.int64)
            stage.hazards.append(
                Hazard(
                    hazard_id="SAN202",
                    name="remote-write",
                    array=arr._name,
                    superstep=self._superstep,
                    gpus=(gpu, arr._owner),
                    vertices=tuple(int(v) for v in pos[:_SAMPLE]),
                    message=(
                        f"GPU {gpu} wrote GPU {arr._owner}'s "
                        f"{arr._name!r} directly; inter-GPU updates must "
                        "travel as packaged messages (comm.py)"
                    ),
                )
            )
            return
        if self._safe.get(arr._name, False):
            return  # declared combiner is order-independent: mergeable
        if arr.ndim != 1:
            return
        stage.pending.setdefault(arr._name, []).append(
            _positions(key, arr.shape[0])
        )
