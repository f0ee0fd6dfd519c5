"""Frontier queues.

A frontier is "a group of vertices or edges that are actively
participating in the computation" (Section II-B).  :class:`Frontier` wraps
the live vertex array together with its *allocated capacity*, which is
owned by a device memory pool — the object the Fig. 3 allocation schemes
size and grow.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SimulationError
from ..sim.memory import MemoryPool

__all__ = ["Frontier"]


class Frontier:
    """A vertex queue backed by a pool allocation.

    Parameters
    ----------
    name:
        Pool allocation name (unique per device).
    pool:
        The owning device's memory pool; ``None`` detaches the frontier
        from memory accounting (a lost GPU's frontiers; unit tests).
    item_bytes:
        Bytes per queue slot (vertex ID width).
    capacity:
        Initial allocated slots.
    """

    def __init__(
        self,
        name: str,
        pool: Optional[MemoryPool],
        item_bytes: int,
        capacity: int,
    ):
        self.name = name
        self.pool = pool
        self.item_bytes = int(item_bytes)
        self.capacity = int(capacity)
        self._data = np.empty(0, dtype=np.int64)
        self.grow_events = 0
        if self.pool is not None:
            self.pool.alloc(self.name, self.capacity * self.item_bytes)

    @property
    def size(self) -> int:
        return int(self._data.size)

    @property
    def data(self) -> np.ndarray:
        """The live vertex IDs (int64 view, length :attr:`size`)."""
        return self._data

    def set(self, vertices: np.ndarray, allow_grow: bool = True) -> int:
        """Replace the queue contents; grows the allocation if needed.

        Returns the number of *new slots* allocated (0 when the existing
        capacity sufficed).  When growth is needed but ``allow_grow`` is
        False, raises :class:`SimulationError` — this is the illegal
        memory access a worst-case scheme would hit if its sizing factors
        were wrong (the paper keeps just-enough active as a guard).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        grown = 0
        if vertices.size > self.capacity:
            if not allow_grow:
                raise SimulationError(
                    f"frontier {self.name!r} overflow: "
                    f"{vertices.size} > capacity {self.capacity}"
                )
            new_capacity = max(int(vertices.size * 1.25), 1)
            grown = new_capacity - self.capacity
            if self.pool is not None:
                # frontier contents are regenerated by the producing
                # kernel (output size known beforehand), so no copy
                self.pool.realloc(
                    self.name, new_capacity * self.item_bytes, preserve=False
                )
            self.capacity = new_capacity
            self.grow_events += 1
        self._data = vertices
        return grown

    def clear(self) -> None:
        self._data = np.empty(0, dtype=np.int64)

    def release(self) -> None:
        """Free the backing allocation."""
        if self.pool is not None and self.pool.size_of(self.name) is not None:
            self.pool.free(self.name)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Frontier({self.name}, size={self.size}, cap={self.capacity})"
