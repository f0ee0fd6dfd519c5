"""Compressed-sparse-row graph structure.

CSR is the storage format Gunrock uses on the GPU: ``row_offsets`` of length
``|V|+1`` and ``col_indices`` of length ``|E|``.  The advance operator's
cost model charges memory traffic per offset and per column index read, so
the arrays use the dtypes from the graph's :class:`~repro.types.IdConfig`
(this is how the 32- vs 64-bit ID experiment of Table V is expressed).

A :class:`CsrGraph` may also carry its transpose (``csc``) for pull-style
(backward) traversal, which direction-optimizing BFS requires.

Operators read a row ``v`` as ``cols64[starts64[v]:ends64[v]]``.  A
:class:`CsrGraph` exposes ``starts64`` / ``ends64`` as views of its
``offsets64``; a :class:`CsrRows` is some of a graph's rows read in place
— the graph's own ``offsets64``, ``cols64`` and ``values``, with
``ends64[v] == starts64[v]`` for a row it does not hold — which is what a
duplicate-all sub-graph is (:mod:`repro.partition.duplication`).  A held
row is always the graph's whole row, so in both classes its extent is
``offsets64[v]:offsets64[v + 1]``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.sparse._sparsetools import csr_row_index

from ..errors import GraphFormatError
from ..types import ID32, IdConfig
from .coo import CooGraph

__all__ = ["CsrGraph", "CsrRows"]


@dataclass
class CsrGraph:
    """A graph in CSR form, optionally weighted and optionally transposed.

    Attributes
    ----------
    num_vertices:
        Vertex count.  ``row_offsets`` has ``num_vertices + 1`` entries.
    row_offsets:
        Monotone array of edge offsets (``SizeT`` dtype).
    col_indices:
        Destination vertex of each edge (``VertexT`` dtype).
    values:
        Optional per-edge values aligned with ``col_indices``.
    ids:
        Integer-width configuration.
    directed:
        Whether the CSR encodes a directed graph.
    """

    num_vertices: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: Optional[np.ndarray] = None
    ids: IdConfig = field(default=ID32)
    directed: bool = True
    _csc: Optional["CsrGraph"] = field(default=None, repr=False, compare=False)
    _offsets64: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _cols64: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _starts64: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _ends64: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    #: live partitions of this graph, weakly held (see
    #: :meth:`repro.partition.partitioned.PartitionedGraph.of`)
    _partitioned: Optional[weakref.WeakValueDictionary] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.row_offsets = np.asarray(self.row_offsets, dtype=self.ids.size_dtype)
        self.col_indices = np.asarray(self.col_indices, dtype=self.ids.vertex_dtype)
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=self.ids.value_dtype)
        self._offsets64 = None
        self._cols64 = None
        self._starts64 = None
        self._ends64 = None
        self._partitioned = None
        self.validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: CooGraph, sort_neighbors: bool = True) -> "CsrGraph":
        """Build a CSR graph from an edge list.

        Edges are bucketed by source vertex with a counting sort (O(|V|+|E|),
        fully vectorized).  When ``sort_neighbors`` is true each adjacency
        list is additionally sorted by destination, which makes traversal
        deterministic and binary-searchable.
        """
        n = coo.num_vertices
        ids = coo.ids
        counts = np.bincount(coo.src, minlength=n).astype(ids.size_dtype)
        row_offsets = np.zeros(n + 1, dtype=ids.size_dtype)
        np.cumsum(counts, out=row_offsets[1:])
        if sort_neighbors:
            order = np.lexsort((coo.dst, coo.src))
        else:
            order = np.argsort(coo.src, kind="stable")
        col_indices = coo.dst[order].astype(ids.vertex_dtype)
        values = None
        if coo.values is not None:
            values = coo.values[order].astype(ids.value_dtype)
        return cls(
            n, row_offsets, col_indices, values, ids=ids, directed=coo.directed
        )

    def to_coo(self) -> CooGraph:
        """Expand back to an edge list (sources repeated per degree)."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=self.ids.vertex_dtype),
            np.diff(self.row_offsets).astype(np.int64),
        )
        return CooGraph(
            self.num_vertices,
            src,
            self.col_indices.copy(),
            None if self.values is None else self.values.copy(),
            ids=self.ids,
            directed=self.directed,
        )

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphFormatError`."""
        n = self.num_vertices
        if self.row_offsets.shape != (n + 1,):
            raise GraphFormatError(
                f"row_offsets must have length |V|+1={n + 1}, "
                f"got {self.row_offsets.shape}"
            )
        if n >= 0 and self.row_offsets.size and int(self.row_offsets[0]) != 0:
            raise GraphFormatError("row_offsets[0] must be 0")
        if np.any(np.diff(self.row_offsets) < 0):
            raise GraphFormatError("row_offsets must be non-decreasing")
        m = int(self.row_offsets[-1]) if self.row_offsets.size else 0
        if self.col_indices.size != m:
            raise GraphFormatError(
                f"col_indices length {self.col_indices.size} != row_offsets[-1]={m}"
            )
        if self.values is not None and self.values.size != m:
            raise GraphFormatError("values length must equal edge count")
        if self.col_indices.size:
            cmin = int(self.col_indices.min())
            cmax = int(self.col_indices.max())
            if cmin < 0 or cmax >= n:
                raise GraphFormatError(
                    f"col index out of range [0, {n}): saw [{cmin}, {cmax}]"
                )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.row_offsets[-1]) if self.row_offsets.size else 0

    @property
    def offsets64(self) -> np.ndarray:
        """``row_offsets`` at the canonical int64 compute width, cached.

        Operators index CSR structure with int64 regardless of the
        graph's stored ``IdConfig`` width (the Table V lever only affects
        *charged traffic*, never host compute dtypes).  Converting per
        call was an O(|V|) copy on every advance; the arrays are
        immutable after construction, so one cached read-only conversion
        serves every traversal.  When the stored dtype already is int64
        this is the array itself — zero copies.
        """
        if self._offsets64 is None:
            off = self.row_offsets
            if off.dtype != np.int64:
                off = off.astype(np.int64)
                off.setflags(write=False)
            self._offsets64 = off
        return self._offsets64

    @property
    def cols64(self) -> np.ndarray:
        """``col_indices`` at int64, cached read-only (see ``offsets64``).

        Gathers through this view produce int64 neighbor lists directly —
        one pass instead of gather-then-``astype``.
        """
        if self._cols64 is None:
            cols = self.col_indices
            if cols.dtype != np.int64:
                cols = cols.astype(np.int64)
                cols.setflags(write=False)
            self._cols64 = cols
        return self._cols64

    @property
    def starts64(self) -> np.ndarray:
        """Row ``v``'s first edge: ``offsets64[:-1]``, a cached view."""
        if self._starts64 is None:
            self._starts64 = self.offsets64[:-1]
        return self._starts64

    @property
    def ends64(self) -> np.ndarray:
        """Row ``v``'s end: ``offsets64[1:]``, a cached view."""
        if self._ends64 is None:
            self._ends64 = self.offsets64[1:]
        return self._ends64

    def packed_cols64(self) -> np.ndarray:
        """The columns of every row, in row order: ``cols64`` itself."""
        return self.cols64

    def rows(self, held: np.ndarray) -> "CsrRows":
        """The rows the boolean mask ``held`` selects, as a read-only
        :class:`CsrRows` over this graph's arrays: O(|V|) new memory,
        none of it per edge (none at all if ``held`` selects no row).
        The graph itself is left writable."""
        offsets = _read_only(self.offsets64)
        starts = offsets[:-1]
        if held.any():
            ends = np.where(held, self.ends64, starts)
            ends.setflags(write=False)
        else:
            ends = starts
        values = None if self.values is None else _read_only(self.values)
        return CsrRows(
            num_vertices=self.num_vertices,
            offsets64=offsets,
            starts64=starts,
            ends64=ends,
            cols64=_read_only(self.cols64),
            values=values,
            ids=self.ids,
            directed=self.directed,
            num_edges=int(np.subtract(ends, starts).sum()),
        )

    def out_degree(self, v: Optional[np.ndarray] = None) -> np.ndarray:
        """Out-degrees of ``v`` (or all vertices if ``v`` is None)."""
        deg = np.diff(self.row_offsets)
        if v is None:
            return deg
        return deg[np.asarray(v)]

    def neighbors(self, v: int) -> np.ndarray:
        """The adjacency list of a single vertex (a view, not a copy)."""
        return self.col_indices[self.row_offsets[v] : self.row_offsets[v + 1]]

    def edge_values(self, v: int) -> Optional[np.ndarray]:
        """Values on the out-edges of ``v`` (None if unweighted)."""
        if self.values is None:
            return None
        return self.values[self.row_offsets[v] : self.row_offsets[v + 1]]

    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # transpose (CSC) support for pull traversal
    # ------------------------------------------------------------------
    @property
    def csc(self) -> "CsrGraph":
        """The transpose graph (incoming edges), built lazily and cached.

        For an undirected graph the transpose equals the graph itself, so we
        return ``self`` and spend no extra memory — this mirrors the paper's
        datasets, which are converted to undirected form.
        """
        if not self.directed:
            return self
        if self._csc is None:
            self._csc = CsrGraph.from_coo(self.to_coo().reverse())
        return self._csc

    def memory_bytes(self) -> int:
        """Bytes the CSR arrays occupy (what a device must hold)."""
        total = self.row_offsets.nbytes + self.col_indices.nbytes
        if self.values is not None:
            total += self.values.nbytes
        return int(total)

    def with_ids(self, ids: IdConfig) -> "CsrGraph":
        """Re-type the graph to a different ID width configuration."""
        if self.num_edges > ids.max_size():
            raise GraphFormatError(
                f"graph has {self.num_edges} edges, too many for "
                f"{ids.size_dtype.name} edge IDs"
            )
        if self.num_vertices > ids.max_vertex():
            raise GraphFormatError(
                f"graph has {self.num_vertices} vertices, too many for "
                f"{ids.vertex_dtype.name} vertex IDs"
            )
        return CsrGraph(
            self.num_vertices,
            self.row_offsets.astype(ids.size_dtype),
            self.col_indices.astype(ids.vertex_dtype),
            None if self.values is None else self.values.astype(ids.value_dtype),
            ids=ids,
            directed=self.directed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return f"CsrGraph({kind}, |V|={self.num_vertices}, |E|={self.num_edges})"


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; ``arr`` itself keeps its flags."""
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class CsrRows:
    """Some rows of a :class:`CsrGraph`, read in place.

    Row ``v`` is ``cols64[starts64[v]:ends64[v]]`` (and the same slice of
    ``values``); a row the view does not hold has ``ends64[v] ==
    starts64[v]``.  ``offsets64`` (with ``starts64`` its ``[:-1]``),
    ``cols64`` and ``values`` are read-only views of the whole graph's
    arrays, so a position in ``cols64`` is a position in the graph —
    valid for ``values`` all the same.  Only ``ends64`` belongs to the
    view.  A held row is the graph's whole row, so ``offsets64[v + 1]``
    is its end; for a row not held it is not (see
    :func:`~repro.core.operators.advance.gather_neighbors`).

    ``num_edges`` and :meth:`memory_bytes` describe the rows as a
    materialised CSR would hold them: what a device holding them is
    charged, and what the cost model prices.
    """

    num_vertices: int
    offsets64: np.ndarray
    starts64: np.ndarray
    ends64: np.ndarray
    cols64: np.ndarray
    values: Optional[np.ndarray]
    ids: IdConfig
    directed: bool
    num_edges: int

    def out_degree(self) -> np.ndarray:
        """Every vertex's out-degree in the view (0 off its rows)."""
        return self.ends64 - self.starts64

    def packed_cols64(self) -> np.ndarray:
        """The columns of the view's rows, in row order: what ``cols64``
        of the materialised CSR would be.  Read-only; a new array of
        ``num_edges`` items, unless the view holds every edge."""
        if self.num_edges == self.cols64.size:
            return self.cols64
        # the rows with edges only: an unhosted row has a whole row in
        # ``offsets64`` (the gather of ``gather_neighbors``)
        rows = self.out_degree().nonzero()[0]
        cols = np.empty(self.num_edges, dtype=np.int64)
        csr_row_index(rows.size, rows, self.offsets64, self.cols64,
                      self.cols64, cols, cols)
        cols.setflags(write=False)
        return cols

    def memory_bytes(self) -> int:
        """Bytes the rows occupy as a materialised CSR on the device."""
        ids = self.ids
        total = (self.num_vertices + 1) * ids.size_bytes
        total += self.num_edges * ids.vertex_bytes
        if self.values is not None:
            total += self.num_edges * self.values.itemsize
        return int(total)
