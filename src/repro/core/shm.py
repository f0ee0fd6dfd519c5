"""Shared memory for the ``processes`` backend: slice manifest,
frontier/message exchange segments and the superstep control block.

The processes backend forks a worker pool once per enactor; the workers
live until ``close()`` (or until a worker failure or a changed observer
forces a re-fork) and each owns a fixed subset of the virtual GPUs.
Fork gives workers copy-on-write *reads* of the whole problem for free
— and that is all the graph structure needs: the partition tables and
sub-graph CSR of a
:class:`~repro.partition.partitioned.PartitionedGraph` are read-only, so
their pages are never copied and never put in shared memory (every
worker is forked from the parent that holds them; there is no spawn
path).  After a GPU loss each surviving worker builds the new partition
itself, from the same assignment as the parent, with the same
deterministic code.  What
must be shared explicitly is what a worker **writes**: its GPU's slice
arrays (labels, ranks, bitmaps, ...), whose writes must land where the
parent — and every later run on the same workers — can see them.
:class:`SliceManifest` migrates every
:class:`~repro.core.problem.DataSlice` array into a named
``multiprocessing.shared_memory`` segment *before* the fork:

* slice-array writes made inside a worker are immediately visible to
  the parent at the barrier — no array shipping;
* each segment is listed in a picklable registry (:meth:`spec`), so a
  worker re-attaches its slice arrays *by name*
  (:meth:`attach_slices`) instead of relying on inherited mappings,
  which is what the round-trip unit test exercises.

What a superstep *produces* — each GPU's next frontier and the vertex /
associate arrays of its outgoing messages — travels through one
:class:`ExchangeSegment` per GPU: the worker writes the arrays there
and the pipe carries only ``(segment, parity, offset, dtype, length)``
descriptors, which the parent (and, one superstep later, the consuming
worker) turns back into zero-copy ndarray views.

Sanitizer interop: migration preserves ``ShadowArray`` wrappers by
re-wrapping the shm-backed replacement with the original's sanitizer
attribution (duck-typed through ``type(arr).wrap`` — no import cycle).

Lifecycle: slice segments are created by :meth:`SliceManifest.migrate`;
:meth:`SliceManifest.release` copies live bindings back to ordinary heap
arrays (so the problem remains usable after the backend is closed),
closes what can be closed, and **unlinks every segment** — the
backend-test leak check asserts ``/dev/shm`` holds nothing of ours
afterwards.  A GPU-loss rollback rebuilds every slice, so the old
manifest is only unlinked (:meth:`SliceManifest.unlink`; nothing is
left to copy back) and a new one is migrated.  Exchange segments are
created by the parent before the fork and unlinked by
:meth:`ExchangeSegment.close`, including any
regrown generation a worker created.  The pool's :class:`ControlBlock`
— barrier words, and mailboxes that are exchange segments themselves —
follows the same rules.  Only the creating process ever unlinks; an
``atexit`` hook unlinks anything a crashed run left behind.
"""

from __future__ import annotations

import atexit
import os
import secrets
import weakref
import zlib
from multiprocessing import shared_memory
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["SliceManifest", "ExchangeSegment", "ControlBlock", "SHM_PREFIX"]

#: every segment name starts with this (plus the owning pid), so leak
#: checks and the atexit sweeper can identify ours
SHM_PREFIX = "repro-shm"


def _open_untracked(**kwargs) -> shared_memory.SharedMemory:
    """Open a segment without registering it with the resource_tracker.

    The stdlib tracker (pre-3.13) registers on *attach* too, and unlinks
    everything registered when any registering process exits — for fork
    workers that attach by name, that would destroy the parent's live
    segments at the first pool teardown.  Unregistering afterwards is
    also wrong: several workers' register/unregister messages interleave
    on the tracker pipe and double-removals raise in the tracker
    process.  So registration is suppressed at the source; the manifest
    owns the unlink.
    """
    from multiprocessing import resource_tracker

    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(**kwargs)
    finally:
        resource_tracker.register = orig


def _unlink_untracked(seg) -> None:
    """``SharedMemory.unlink`` counterpart of :func:`_open_untracked`:
    it sends an ``unregister`` for the (never registered) name, which
    the tracker process reports as an error — suppress that too."""
    from multiprocessing import resource_tracker

    orig = resource_tracker.unregister
    resource_tracker.unregister = lambda *a, **k: None
    try:
        seg.unlink()
    finally:
        resource_tracker.unregister = orig


def _rewrap_like(original: np.ndarray, replacement: np.ndarray) -> np.ndarray:
    """Preserve a ShadowArray wrapper (sanitizer attribution) across
    migration; plain arrays pass through."""
    san = getattr(original, "_san", None)
    if san is not None:
        return type(original).wrap(
            replacement, san, original._owner, original._name
        )
    return replacement


#: every live SliceManifest / ExchangeSegment, for the exit-time sweep
_LIVE_OWNERS: "weakref.WeakSet" = weakref.WeakSet()
_ATEXIT_ARMED = False


def _sweep_at_exit() -> None:  # pragma: no cover - exit-time safety net
    for owner in list(_LIVE_OWNERS):
        try:
            owner.unlink()
        except (OSError, ValueError):
            pass


def _register_owner(owner) -> None:
    """Put a segment owner under the exit-time sweep."""
    global _ATEXIT_ARMED
    _LIVE_OWNERS.add(owner)
    if not _ATEXIT_ARMED:
        atexit.register(_sweep_at_exit)
        _ATEXIT_ARMED = True


def _close_mapping(seg) -> bool:
    """Close one segment handle; False while an ndarray still views its
    buffer (the mapping then lives until the view dies or the process
    exits — the *name* is a separate matter, see the unlink helpers)."""
    try:
        seg.close()
    except BufferError:
        return False
    return True


class SliceManifest:
    """Registry of shared-memory segments backing one problem's slice
    arrays."""

    def __init__(self):
        self._segments: Dict[tuple, shared_memory.SharedMemory] = {}
        #: (gpu, array name) -> (segment name, shape, dtype string, writeable)
        self._specs: Dict[tuple, Tuple[str, tuple, str, bool]] = {}
        #: attach-side handles, kept alive so their buffers stay mapped
        self._attached: List[shared_memory.SharedMemory] = []
        #: (container dict, key-in-container) bindings so release() can
        #: put heap arrays back where shm arrays live now
        self._slice_bindings: List[Tuple[dict, str]] = []
        self._unlinked = False
        #: only the creating process may unlink — forked workers hold a
        #: copy of this object and must never destroy the parent's
        #: segments on their way out
        self._owner_pid = os.getpid()
        _register_owner(self)

    # -- creation --------------------------------------------------------
    def _new_segment(self, key: tuple, arr: np.ndarray) -> np.ndarray:
        name = (
            f"{SHM_PREFIX}-{os.getpid()}-{len(self._segments)}-"
            f"{secrets.token_hex(4)}"
        )
        seg = _open_untracked(
            create=True, size=max(1, arr.nbytes), name=name
        )
        new = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        new[...] = arr
        writeable = arr.flags.writeable
        if not writeable:
            new.setflags(write=False)
        self._segments[key] = seg
        self._specs[key] = (seg.name, arr.shape, arr.dtype.str, writeable)
        return new

    def migrate(self, problem) -> None:
        """Move the problem's slice arrays into shm.

        Mutates the problem in place: every ``DataSlice`` entry is
        rebound to a shm-backed equivalent (shadow wrappers preserved).
        Idempotent per problem generation — call once after
        construction/repartition, before forking workers.
        """
        for gpu, ds in enumerate(problem.data_slices):
            for name in list(ds.arrays):
                arr = ds.arrays[name]
                base = arr.view(np.ndarray)
                new = self._new_segment((gpu, name), base)
                ds.arrays[name] = _rewrap_like(arr, new)
                self._slice_bindings.append((ds.arrays, name))

    # -- registry / attach ----------------------------------------------
    def spec(self) -> Dict[tuple, Tuple[str, tuple, str, bool]]:
        """Picklable registry: (gpu, array name) -> (segment name, shape,
        dtype, rw)."""
        return dict(self._specs)

    def segment_names(self) -> List[str]:
        return [seg.name for seg in self._segments.values()]

    def attach(self, key: tuple) -> np.ndarray:
        """Open the named segment for ``key`` and map its array.

        The handle is kept on the manifest so the buffer stays mapped;
        call from a worker (or the round-trip test) to get a live view
        of the parent's array by name alone.
        """
        name, shape, dtype, writeable = self._specs[key]
        seg = _open_untracked(name=name)
        self._attached.append(seg)
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        if not writeable:
            arr.setflags(write=False)
        return arr

    @classmethod
    def from_spec(cls, spec) -> "SliceManifest":
        """An attach-only manifest over another process's segments: how
        a live worker adopts a manifest built after its fork."""
        manifest = cls()
        manifest._specs = dict(spec)
        return manifest

    def attach_slices(self) -> Iterator[Tuple[int, str, np.ndarray]]:
        """Attach every slice-array segment by name: yields
        ``(gpu, array_name, shm_array)``."""
        for gpu, name in self._specs:
            yield gpu, name, self.attach((gpu, name))

    def detach(self) -> None:
        """Close attach-side handles (worker teardown)."""
        for seg in self._attached:
            try:
                seg.close()
            except (OSError, BufferError):
                pass
        self._attached = []

    # -- teardown --------------------------------------------------------
    def release(self) -> None:
        """Rebind live arrays to heap copies, then destroy all segments.

        After this the problem is fully usable (``extract`` etc. read
        the heap copies) and ``/dev/shm`` holds none of our segments.
        """
        for container, name in self._slice_bindings:
            arr = container.get(name)
            if arr is None:
                continue
            base = arr.view(np.ndarray)
            container[name] = _rewrap_like(arr, base.copy())
        self._slice_bindings = []
        self.detach()
        self.unlink()

    def unlink(self) -> None:
        """Destroy every segment (idempotent).  Mappings still held by
        live arrays stay valid until those processes drop them; the
        *names* disappear from ``/dev/shm`` immediately."""
        if self._unlinked:
            return
        self._unlinked = True
        if os.getpid() != self._owner_pid:  # pragma: no cover - fork copy
            return
        for seg in self._segments.values():
            try:
                _unlink_untracked(seg)
            except FileNotFoundError:
                pass
            # where an array still references the buffer the mapping dies
            # with the process; the name is already gone
            _close_mapping(seg)
        self._segments = {}

    def __len__(self) -> int:
        return len(self._specs)

    def __del__(self):  # pragma: no cover - GC timing dependent
        # backstop for enactors that are dropped without close(): the
        # segments must not outlive the manifest (live arrays keep their
        # mappings; only the /dev/shm names disappear)
        try:
            self.unlink()
        except (OSError, ValueError, AttributeError, TypeError):
            # interpreter shutdown may have torn down module globals
            pass


# ---------------------------------------------------------------------------
# frontier / message exchange
# ---------------------------------------------------------------------------

#: ``(segment key, parity, byte offset, dtype string, length)`` — where
#: one 1-D array sits in an exchange segment.  Position only: which
#: *generation* of the half holds it is synchronised separately
#: (:meth:`ExchangeSegment.sync`), so a descriptor issued before a
#: regrowth stays valid after it.
Descriptor = Tuple[int, int, int, str, int]

_ALIGN = 8


def _aligned(nbytes: int) -> int:
    """``nbytes`` rounded up to the allocation alignment."""
    return -(-nbytes // _ALIGN) * _ALIGN


class ExchangeSegment:
    """One GPU's double-buffered, grow-only array exchange area.

    **Layout.**  Two *halves*, parity 0 and 1, each a shared-memory
    segment named ``<base>-<parity>-<generation>``.  A half is a bump
    allocator: :meth:`begin` empties it, :meth:`put` copies one array
    in at the next 8-byte-aligned offset and returns its
    :data:`Descriptor`, :meth:`view` maps a descriptor back to a
    read-only ndarray over the same bytes — no copy, in any process
    that holds this object (workers inherit it through the fork).

    **Parity rule.**  Superstep ``k`` writes half ``k % 2`` and reads
    what superstep ``k - 1`` wrote in the other half.  A superstep's
    inputs are therefore never overwritten while it runs, so a
    respawned worker can replay it from intact inputs; a half is only
    emptied two supersteps after it was filled, when every view of its
    contents is dead.

    **Regrowth.**  When a ``put`` does not fit, the writer — parent or
    worker — creates generation ``g + 1`` of that half at twice the
    size needed (and at least twice the old one), copies the bytes
    already written to the same offsets (descriptors issued so far stay
    valid) and continues there.
    The old generation's mapping is kept until nothing views it, so
    views taken before the regrowth stay readable.  Other processes
    learn the new generation number from the run protocol and
    :meth:`sync` to it by name.  Capacities only grow, and the initial
    one is sized from the GPU's vertex count, so regrowth is rare.

    **Ownership.**  The creating process owns every name: it unlinks a
    superseded generation when it syncs past it and everything —
    including generations a crashed worker created and never reported —
    in :meth:`close`.  Other processes only map and unmap.
    """

    def __init__(self, key: int, capacity: int):
        self.key = int(key)
        self._owner_pid = os.getpid()
        self._base = (
            f"{SHM_PREFIX}-{self._owner_pid}-x{self.key}-"
            f"{secrets.token_hex(4)}"
        )
        capacity = max(int(capacity), 1)
        self._gens = [0, 0]
        self._used = [0, 0]
        self._segs = [self._create(0, 0, capacity),
                      self._create(1, 0, capacity)]
        #: superseded mappings some ndarray may still view
        self._retired: List[shared_memory.SharedMemory] = []
        self._closed = False
        _register_owner(self)

    # -- naming ----------------------------------------------------------
    def _name(self, parity: int, generation: int) -> str:
        return f"{self._base}-{parity}-{generation}"

    def _create(self, parity: int, generation: int, capacity: int):
        name = self._name(parity, generation)
        # a multiple of the alignment, so the aligned fill mark of a
        # full half never points past its end
        capacity = _aligned(capacity)
        try:
            return _open_untracked(create=True, size=capacity, name=name)
        except FileExistsError:
            # each half has one writer at a time, so a name this process
            # does not know belongs to a writer that died mid-superstep
            self._unlink_name(name)
            return _open_untracked(create=True, size=capacity, name=name)

    @staticmethod
    def _unlink_name(name: str) -> bool:
        """Unlink a generation known only by name; False if absent."""
        try:
            seg = _open_untracked(name=name)
        except FileNotFoundError:
            return False
        _unlink_untracked(seg)
        seg.close()
        return True

    # -- state shared through the run protocol ---------------------------
    def generations(self) -> Tuple[int, int]:
        """Current generation of each half, as this process knows it."""
        return self._gens[0], self._gens[1]

    def used(self, parity: int) -> int:
        """Bytes written to a half since its last :meth:`begin`."""
        return self._used[parity]

    def capacity(self, parity: int) -> int:
        """Bytes a half holds before it has to regrow."""
        return self._segs[parity].size

    def sync(self, parity: int, generation: int,
             used: Optional[int] = None) -> None:
        """Adopt another process's view of one half: map ``generation``
        by name if it is not the one mapped here, and take over its
        fill mark (so a later :meth:`put` appends after it)."""
        current = self._gens[parity]
        if generation != current:
            seg = _open_untracked(name=self._name(parity, generation))
            self._retire(parity)
            if os.getpid() == self._owner_pid:
                # generations between the two were created and outgrown
                # within one superstep of the writer
                for stale in range(current + 1, generation):
                    self._unlink_name(self._name(parity, stale))
            self._segs[parity] = seg
            self._gens[parity] = generation
        if used is not None:
            self._used[parity] = used

    def _retire(self, parity: int) -> None:
        """Drop the mapped generation of a half: unlink its name (owner
        only) and close the mapping once nothing views it."""
        seg = self._segs[parity]
        if os.getpid() == self._owner_pid:
            try:
                _unlink_untracked(seg)
            except FileNotFoundError:
                pass
        self._retired.append(seg)
        self._close_retired()

    def _close_retired(self) -> None:
        self._retired = [s for s in self._retired if not _close_mapping(s)]

    # -- writing ---------------------------------------------------------
    def begin(self, parity: int) -> None:
        """Empty one half for a new superstep's output."""
        self._used[parity] = 0
        if self._retired:
            self._close_retired()

    def put(self, parity: int, arr) -> Descriptor:
        """Copy a 1-D array into the half; return where it sits."""
        arr = np.ascontiguousarray(arr).reshape(-1)
        if arr.size == 0:
            return (self.key, parity, 0, arr.dtype.str, 0)
        start = self._used[parity]
        end = start + arr.nbytes
        if end > self._segs[parity].size:
            self._grow(parity, end)
        np.ndarray(
            arr.shape, dtype=arr.dtype,
            buffer=self._segs[parity].buf, offset=start,
        )[...] = arr
        self._used[parity] = _aligned(end)
        return (self.key, parity, start, arr.dtype.str, arr.size)

    def _grow(self, parity: int, needed: int) -> None:
        old = self._segs[parity]
        new = self._create(
            parity, self._gens[parity] + 1, 2 * max(old.size, needed)
        )
        used = self._used[parity]
        new.buf[:used] = old.buf[:used]
        self._retire(parity)
        self._segs[parity] = new
        self._gens[parity] += 1

    # -- reading ---------------------------------------------------------
    def view(self, desc: Descriptor) -> np.ndarray:
        """Zero-copy, read-only ndarray over a descriptor's bytes.

        Built through ``np.asarray(memoryview)``: that path keeps the
        memoryview — and with it a buffer export on the mapping — as
        the array's base, so closing the mapping under a live view
        raises ``BufferError`` instead of leaving the view dangling
        (``np.ndarray(buffer=...)`` keeps no export).
        """
        _key, parity, offset, dtype, length = desc
        dtype = np.dtype(dtype)
        window = self._segs[parity].buf[offset:offset + length * dtype.itemsize]
        arr = np.asarray(window).view(dtype)
        arr.setflags(write=False)
        return arr

    def digest(self, parity: int, used: int, start: int = 1) -> int:
        """adler32 over the first ``used`` bytes of a half, continuing
        from ``start`` — the exchange payload's share of the per-barrier
        integrity digest."""
        return zlib.adler32(self._segs[parity].buf[:used], start)

    # -- teardown --------------------------------------------------------
    def unlink(self) -> None:
        """Destroy every generation of both halves (owner only;
        idempotent).  Probes past the known generation: a worker that
        died mid-superstep may have regrown a half without reporting."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        for parity, seg in enumerate(self._segs):
            try:
                _unlink_untracked(seg)
            except FileNotFoundError:
                pass
            generation = self._gens[parity] + 1
            while self._unlink_name(self._name(parity, generation)):
                generation += 1

    def close(self) -> bool:
        """Unlink (owner) and unmap everything.  Returns whether every
        mapping is closed: one that an ndarray still views cannot be
        yet — keep the object and call again once the view is gone.
        The names are gone either way."""
        self.unlink()
        self._retired.extend(self._segs)
        self._segs = []
        self._close_retired()
        return not self._retired

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.unlink()
        except (OSError, ValueError, AttributeError, TypeError):
            pass


# ---------------------------------------------------------------------------
# superstep control block
# ---------------------------------------------------------------------------

#: int64 words per 64-byte cache line
_LINE = 8
#: initial size of one mailbox half; a sidecar list is a few hundred
#: bytes per GPU, and a half that is too small regrows
_MAILBOX_BYTES = 4096
#: arrival counter of a retired slot, beyond any barrier number
_RETIRED = 1 << 62


class ControlBlock:
    """One worker pool's barrier words and sidecar mailboxes.

    **Layout.**  One small segment of int64 words in 64-byte lines.
    Line 0 holds the *abort word*.  Line ``1 + w`` belongs to worker
    ``w`` alone: word 0 is its *arrival counter* — how many of the
    pool's barriers it has reached — and words 1–4 are the generation
    and byte length of its mailbox halves 0 and 1.  One writer per
    line: arriving never contends with a peer's arrival.  A slot whose
    worker was reaped because all its GPUs were lost is *retired*
    (:meth:`retire`): the parent sets its counter past every barrier,
    between two epochs, and its peers stop reading its mailbox.

    **Mailboxes.**  Per worker an :class:`ExchangeSegment` (grow-only
    halves; same naming, ownership, unlink and ``atexit`` rules) for
    the pickled sidecars of its GPUs: superstep ``k`` goes to half
    ``k % 2``, which is rewritten only after a further barrier that
    every reader of the old contents has to have reached.

    **Publication.**  :meth:`post` writes the payload, then generation
    and length, then the arrival counter; a peer that sees the counter
    sees the rest.  Like the heartbeat word this leans on aligned
    8-byte stores being atomic and visible in program order (x86-TSO;
    elsewhere the interpreter's own synchronization is the fence).
    """

    def __init__(self, workers: int):
        self.workers = int(workers)
        self._owner_pid = os.getpid()
        self._seg = _open_untracked(
            create=True, size=8 * _LINE * (self.workers + 1),
            name=f"{SHM_PREFIX}-{self._owner_pid}-ctl-{secrets.token_hex(4)}",
        )
        self._words = self._seg.buf.cast("q")  # zero-filled by the OS
        self.mail = [
            ExchangeSegment(w, _MAILBOX_BYTES) for w in range(self.workers)
        ]
        self._closed = False
        _register_owner(self)

    @property
    def aborted(self) -> bool:
        return self._words[0] != 0

    def abort(self) -> None:
        """End the epoch for everyone: whoever waits at a barrier leaves
        it.  Never cleared — an aborted pool is torn down."""
        self._words[0] = 1

    def arrived(self, worker: int) -> int:
        """How many barriers ``worker`` has reached."""
        return self._words[_LINE * (worker + 1)]

    def retire(self, worker: int) -> None:
        """Take a reaped worker's slot out of the pool: its counter
        jumps past every barrier, so no peer ever waits for it."""
        self._words[_LINE * (worker + 1)] = _RETIRED

    def peers(self, worker: int) -> List[int]:
        """The slots other than ``worker`` that have not been retired."""
        return [w for w in range(self.workers)
                if w != worker and self.arrived(w) != _RETIRED]

    def post(self, worker: int, parity: int, payload: bytes) -> int:
        """Publish ``worker``'s mail for this superstep and arrive;
        returns the number of the barrier arrived at."""
        mail = self.mail[worker]
        mail.begin(parity)
        mail.put(parity, np.frombuffer(payload, dtype=np.uint8))
        line = _LINE * (worker + 1)
        words = self._words
        words[line + 1 + 2 * parity] = mail.generations()[parity]
        words[line + 2 + 2 * parity] = len(payload)
        words[line] += 1
        return words[line]

    def read(self, worker: int, parity: int) -> np.ndarray:
        """The bytes ``worker`` last posted to mailbox half ``parity``
        (a zero-copy view: drop it before the next barrier)."""
        line = _LINE * (worker + 1)
        mail = self.mail[worker]
        mail.sync(parity, self._words[line + 1 + 2 * parity])
        return mail.view(
            (worker, parity, 0, "|u1", self._words[line + 2 + 2 * parity])
        )

    # -- teardown --------------------------------------------------------
    def unlink(self) -> None:
        """Destroy the block's name (owner only; idempotent).  The
        mailboxes are segment owners in their own right."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        try:
            _unlink_untracked(self._seg)
        except FileNotFoundError:
            pass

    def close(self) -> None:
        """Unlink (owner) and unmap."""
        self.unlink()
        for mail in self.mail:
            mail.close()
        self._words.release()
        _close_mapping(self._seg)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.unlink()
        except (OSError, ValueError, AttributeError, TypeError):
            pass
