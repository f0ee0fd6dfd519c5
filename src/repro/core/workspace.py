"""Per-GPU scratch-workspace arena for operator hot paths.

Real Gunrock preallocates its per-GPU scratch (load-balancing scan
outputs, segment offsets, masks) once and reuses it every superstep; a
fresh ``cudaMalloc`` per advance call would serialize the whole pipeline.
Our NumPy hot paths had drifted into exactly that shape — a fresh
``np.arange``/``np.empty``/gather result per operator call — which both
burns allocator time and keeps the Python side busy while worker threads
of the ``threads`` execution backend are trying to overlap (see
``repro.core.backend``).

A :class:`Workspace` is one virtual GPU's arena of named, dtype-tagged,
grow-only buffers:

* :meth:`take` returns a length-``size`` view of the named buffer,
  growing it geometrically (just-enough style: the 1.25 growth factor of
  :class:`~repro.sim.memory.JustEnough`-governed frontiers) when needed;
* :meth:`iota` returns a prefix view of a cached ``arange`` — the
  flattened-CSR-offset computation in advance needs ``0..total`` every
  call and the prefix never changes, so it is computed only on growth;
* :meth:`flags` returns a boolean view that is **all False** — the mark
  array of the linear-time keyed kernels (``operators.compute.dedup``).
  The borrower sets flags, reads them back, and clears exactly the ones
  it set before returning, so the next borrower needs no O(n) fill.

Workspaces are **per GPU and never shared**: the enactor builds one per
virtual device, so the ``threads`` backend's workers touch disjoint
arenas (property-tested in ``tests/core/test_workspace.py``).  Buffers
hold *scratch consumed within one operator call*; nothing that crosses a
superstep boundary (messages, frontiers, slice arrays) may live here.

The arena is deliberately outside device-memory accounting: it stands in
for the scratch real kernels keep in registers/shared memory and
preallocated temporaries whose cost the kernel model already charges
through ``OpStats``; charging it to the :class:`~repro.sim.memory
.MemoryPool` would perturb the Fig. 3 peak-memory results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Workspace"]

#: growth factor for undersized buffers (just-enough's reallocation slack)
_GROWTH = 1.25


class Workspace:
    """Named, grow-only scratch buffers owned by one virtual GPU."""

    def __init__(self, gpu_id: int = 0, initial_items: int = 0):
        self.gpu_id = int(gpu_id)
        self.initial_items = int(initial_items)
        self._bufs: Dict[Tuple[str, object], np.ndarray] = {}
        self._iota: Optional[np.ndarray] = None
        self._flags: Optional[np.ndarray] = None
        #: satisfied take() calls — each one is an allocation avoided
        #: once the buffer exists
        self.takes = 0
        #: buffer (re)allocations actually performed
        self.grows = 0

    # ------------------------------------------------------------------
    def take(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """A length-``size`` scratch view of the named buffer.

        Contents are undefined (like ``np.empty``); the caller must fully
        overwrite the view.  The view is only valid until the next
        ``take`` of the same name — callers must not let it escape the
        operator call that took it.
        """
        dt = np.dtype(dtype)
        key = (name, dt.str)
        buf = self._bufs.get(key)
        self.takes += 1
        if buf is None or buf.size < size:
            buf = np.empty(self._grown(buf, size), dtype=dt)
            self._bufs[key] = buf
            self.grows += 1
        return buf[:size]

    def iota(self, size: int) -> np.ndarray:
        """A read-only view of ``arange(size)`` from the cached prefix."""
        cur = self._iota
        if cur is None or cur.size < size:
            cur = np.arange(self._grown(cur, size), dtype=np.int64)
            cur.setflags(write=False)
            self._iota = cur
            self.grows += 1
        return cur[:size]

    def flags(self, size: int) -> np.ndarray:
        """An all-False boolean view of length ``size``.

        Contract: the caller restores every flag it sets to False before
        returning (property-tested over every operator and hook in
        ``tests/core/test_workspace.py``).
        """
        cur = self._flags
        if cur is None or cur.size < size:
            cur = np.zeros(self._grown(cur, size), dtype=bool)
            self._flags = cur
            self.grows += 1
        return cur[:size]

    # ------------------------------------------------------------------
    def _grown(self, cur: Optional[np.ndarray], size: int) -> int:
        """Capacity for a buffer that must now hold ``size`` items."""
        return max(size, int((0 if cur is None else cur.size) * _GROWTH),
                   self.initial_items, 1)

    def _buffers(self) -> List[np.ndarray]:
        """Every buffer the arena currently holds."""
        fixed = [b for b in (self._iota, self._flags) if b is not None]
        return [*self._bufs.values(), *fixed]

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the arena."""
        return int(sum(b.nbytes for b in self._buffers()))

    def stats(self) -> dict:
        """Counters for the bench harness's allocation accounting."""
        return {
            "takes": self.takes,
            "grows": self.grows,
            "buffers": len(self._buffers()),
            "nbytes": self.nbytes,
        }

    def reset_counters(self) -> None:
        self.takes = 0
        self.grows = 0

    def owns(self, arr: np.ndarray) -> bool:
        """Whether ``arr`` shares memory with any buffer of this arena."""
        return any(np.shares_memory(arr, buf) for buf in self._buffers())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workspace(gpu={self.gpu_id}, buffers={len(self._bufs)}, "
            f"{self.nbytes / 2**20:.2f} MiB)"
        )
