"""Frontier buffers.

A frontier is "a group of vertices or edges that are actively
participating in the computation" (Section II-B).  The vertices travel
as plain int64 arrays; :class:`Frontier` is the *buffer* a GPU holds
for them — its allocated capacity, owned by a device memory pool, which
is the object the Fig. 3 allocation schemes size and grow.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError
from ..sim.memory import MemoryPool

__all__ = ["Frontier"]


class Frontier:
    """A vertex-queue allocation: capacity and growth, not contents.

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
        self.grow_events = 0
        if self.pool is not None:
            self.pool.alloc(self.name, self.capacity * self.item_bytes)

    def fit(self, size: int, allow_grow: bool = True,
            slack: float = 1.25) -> int:
        """Make room for ``size`` items; return the number of *new slots*
        allocated (0 when the capacity sufficed).

        Growth reallocates ``slack`` times ``size`` (25 % headroom
        amortizes reallocations; ``1.0`` is an exact fit).  When growth
        is needed but ``allow_grow`` is False, raises
        :class:`SimulationError` — this is the illegal memory access a
        worst-case scheme would hit if its sizing factors were wrong
        (the paper keeps just-enough active as a guard).  A failed
        reallocation raises the pool's error and leaves the buffer as it
        was.
        """
        if size <= self.capacity:
            return 0
        if not allow_grow:
            raise SimulationError(
                f"frontier {self.name!r} overflow: "
                f"{size} > capacity {self.capacity}"
            )
        new_capacity = max(int(size * slack), 1)
        grown = new_capacity - self.capacity
        if self.pool is not None:
            # frontier contents are regenerated by the producing kernel
            # (output size known beforehand), so no copy
            self.pool.realloc(
                self.name, new_capacity * self.item_bytes, preserve=False
            )
        self.capacity = new_capacity
        self.grow_events += 1
        return grown

    def release(self) -> None:
        """Free the backing allocation."""
        if self.pool is not None and self.pool.size_of(self.name) is not None:
            self.pool.free(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Frontier({self.name}, cap={self.capacity})"
