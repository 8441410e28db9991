"""Persistent memory pool backed by memory-mapped files.

A :class:`PMemPool` models an NVDIMM exposed to the application as a
contiguous byte-addressable address space. The pool is stored as a
directory of fixed-size *extent* files, each memory-mapped; a global pool
offset addresses into ``extent[offset // extent_size]``. Extents let the
pool grow without remapping (and therefore without invalidating numpy
views handed out to scan operators).

The persistence semantics mirror real hardware:

* stores land in the (volatile) CPU cache and are **not durable** until
  the covering cache lines are flushed (``flush``) and a persist barrier
  (``drain``) has completed;
* aligned 8-byte stores are atomic — a crash never tears them;
* in ``STRICT`` mode the pool snapshots the pre-image of every dirtied
  cache line, keeps it through the flush until the flushing thread
  drains, and :meth:`crash` reverts lines that were never flushed *or
  never fenced* — a missing flush and a missing barrier both fail tests.

Space comes back: :meth:`PMemPool.free` returns a block to a volatile
free list that :meth:`PMemPool.allocate` serves before it extends the
pool, and :meth:`PMemPool.retire` frees a structure's blocks when the
last reference to it dies. A restart loses the list;
:meth:`PMemPool.sweep` re-derives it from what is still reachable.
"""

from __future__ import annotations

import os
import random
import threading
import weakref
from collections import deque
from enum import Enum
from mmap import MADV_DONTNEED, mmap
from typing import Iterable, Optional

import numpy as np

from repro.nvm.errors import PoolCorruptError, PoolFullError, PoolModeError
from repro.nvm.latency import (
    LatencyModel,
    NvmStats,
    busy_wait_ns,
    persistence_event,
)
from repro.obs import get_registry
from repro.obs import metrics as _metrics

CACHE_LINE = 64

# Process-wide line counter, cached (as a bound ``inc``) per registry
# generation so the flush hot path pays two global reads and one deque
# append instead of a registry lookup per call (the per-pool breakdown
# stays in ``NvmStats``).
_lines_inc = None
_lines_counter_generation = -1


def _lines_flushed_inc():
    global _lines_inc, _lines_counter_generation
    gen = _metrics.generation()
    if gen != _lines_counter_generation:
        _lines_inc = get_registry().counter("nvm_lines_flushed_total").inc
        _lines_counter_generation = gen
    return _lines_inc

_MAGIC = 0x48595249_53454E56  # "HYRISENV"
_VERSION = 1

# Header layout (all u64, little endian), stored at offset 0 of extent 0.
_OFF_MAGIC = 0
_OFF_VERSION = 8
_OFF_EXTENT_SIZE = 16
_OFF_NUM_EXTENTS = 24
_OFF_ALLOC_HEAD = 32
_OFF_ROOT = 40
_OFF_CLEAN = 48

HEADER_SIZE = 256

_DEFAULT_EXTENT_SIZE = 64 * 1024 * 1024

#: What STRICT mode fills a freed block with: memory that comes back is
#: not zero, and a read through a stale pointer must not look like data.
_POISON = b"\xdb"


class PMemMode(Enum):
    """Persistence checking mode for a pool.

    ``FAST`` skips cache-line tracking (stores are treated as durable the
    moment they are written); benchmarks use it. ``STRICT`` tracks dirty
    cache lines and lets :meth:`PMemPool.crash` discard unflushed stores;
    failure-injection tests use it.
    """

    FAST = "fast"
    STRICT = "strict"


def _extent_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"extent_{index:04d}.pm")


class PMemPool:
    """A growable pool of simulated persistent memory.

    Use :meth:`create` for a fresh pool and :meth:`open` to attach to an
    existing one (e.g. after a restart or simulated crash). All mutation
    must go through :meth:`write` / :meth:`write_u64` / :meth:`write_array`
    so that strict-mode tracking and accounting stay correct; numpy views
    returned by :meth:`view` are read-only.
    """

    def __init__(
        self,
        directory: str,
        extent_size: int,
        mode: PMemMode,
        latency: Optional[LatencyModel],
        _creating: bool,
    ):
        self._directory = directory
        self._extent_size = extent_size
        self._mode = mode
        self._maps: list[mmap] = []
        self._files: list = []
        # STRICT bookkeeping. ``_undo``: pre-image of every dirty line.
        # ``_parked``: pre-image of every line flushed but not yet
        # fenced (CLWB issued, no SFENCE); ``_flushed_by`` names, per
        # thread, the parked lines its next drain retires.
        self._undo: dict[int, bytes] = {}
        self._parked: dict[int, bytes] = {}
        self._flushed_by: dict[int, set[int]] = {}
        # Concurrent writers: the allocator's free list and persisted
        # head, and STRICT mode's pre-image bookkeeping, are the two
        # pool-level structures shared across threads.
        self._alloc_lock = threading.Lock()
        self._undo_lock = threading.Lock()
        self._closed = False
        self.stats = NvmStats(model=latency or LatencyModel())
        # The free list: disjoint ``[start, end)`` rows in address
        # order, none spanning an extent boundary, adjacent ones joined.
        # Volatile — a restart re-derives it (``sweep``). ``free`` only
        # appends to ``_freed``; ``allocate`` folds that in under its
        # lock, so a finalizer never waits for a lock its own thread
        # may hold.
        self._free_ranges = np.empty((0, 2), dtype=np.int64)
        self._freed: deque = deque()
        self._waiting: list[tuple[int, int]] = []
        self._retiring: dict[int, list[tuple[int, int]]] = {}
        self._reclaimed = 0
        try:
            if _creating:
                self._add_extent()
                self._format_header()
            else:
                self._attach_extents()
                self._validate_header()
            self._head = self._raw_read_u64(_OFF_ALLOC_HEAD)
            #: The head found at attach, until ``sweep`` has run (then
            #: 0): what lies below it is either reachable or garbage,
            #: and only the sweep can tell which.
            self.unswept = 0 if _creating else self._head
        except Exception:
            # A failed attach (corrupt header, truncated extent, ...)
            # must not leak the mmap/file handles already opened.
            self._release_maps()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str,
        extent_size: int = _DEFAULT_EXTENT_SIZE,
        mode: PMemMode = PMemMode.FAST,
        latency: Optional[LatencyModel] = None,
    ) -> "PMemPool":
        """Format a new pool in ``directory`` (created if missing)."""
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(_extent_path(directory, 0)):
            raise PoolModeError(f"pool already exists at {directory}")
        if extent_size % CACHE_LINE != 0 or extent_size < 1024 * 1024:
            raise ValueError("extent_size must be a multiple of 64 and >= 1 MiB")
        return cls(directory, extent_size, mode, latency, _creating=True)

    @classmethod
    def open(
        cls,
        directory: str,
        mode: PMemMode = PMemMode.FAST,
        latency: Optional[LatencyModel] = None,
    ) -> "PMemPool":
        """Attach to an existing pool. Raises if the pool is missing/corrupt."""
        path0 = _extent_path(directory, 0)
        if not os.path.exists(path0):
            raise PoolCorruptError(f"no pool at {directory}")
        # Extent size is read from the header after mapping extent 0.
        size0 = os.path.getsize(path0)
        pool = cls(directory, size0, mode, latency, _creating=False)
        return pool

    @classmethod
    def exists(cls, directory: str) -> bool:
        """True when ``directory`` holds a formatted pool."""
        return os.path.exists(_extent_path(directory, 0))

    def _add_extent(self) -> None:
        index = len(self._maps)
        path = _extent_path(self._directory, index)
        f = open(path, "w+b")
        f.truncate(self._extent_size)
        m = mmap(f.fileno(), self._extent_size)
        self._files.append(f)
        self._maps.append(m)

    def _attach_extents(self) -> None:
        index = 0
        while os.path.exists(_extent_path(self._directory, index)):
            path = _extent_path(self._directory, index)
            f = open(path, "r+b")
            size = os.path.getsize(path)
            m = mmap(f.fileno(), size)
            self._files.append(f)
            self._maps.append(m)
            index += 1
        if not self._maps:
            raise PoolCorruptError(f"no extents in {self._directory}")
        self._extent_size = int.from_bytes(
            self._maps[0][_OFF_EXTENT_SIZE : _OFF_EXTENT_SIZE + 8], "little"
        )

    def _format_header(self) -> None:
        self._raw_write_u64(_OFF_MAGIC, _MAGIC)
        self._raw_write_u64(_OFF_VERSION, _VERSION)
        self._raw_write_u64(_OFF_EXTENT_SIZE, self._extent_size)
        self._raw_write_u64(_OFF_NUM_EXTENTS, 1)
        self._raw_write_u64(_OFF_ALLOC_HEAD, HEADER_SIZE)
        self._raw_write_u64(_OFF_ROOT, 0)
        self._raw_write_u64(_OFF_CLEAN, 0)
        self._maps[0].flush()

    def _validate_header(self) -> None:
        if self._raw_read_u64(_OFF_MAGIC) != _MAGIC:
            raise PoolCorruptError("bad magic — not a pmem pool")
        if self._raw_read_u64(_OFF_VERSION) != _VERSION:
            raise PoolCorruptError("unsupported pool version")
        num_extents = self._raw_read_u64(_OFF_NUM_EXTENTS)
        if num_extents != len(self._maps):
            raise PoolCorruptError(
                f"header records {num_extents} extents, found {len(self._maps)}"
            )

    def close(self, clean: bool = True) -> None:
        """Detach from the pool.

        ``clean=True`` marks an orderly shutdown (no recovery fix-up
        needed on next open); ``clean=False`` leaves the flag unset, as a
        kill -9 would.
        """
        if self._closed:
            return
        if clean:
            self.write_u64(_OFF_CLEAN, 1)
            self.persist(_OFF_CLEAN, 8)
        self._closed = True  # first: a finalizer's ``free`` may be running
        self._release_maps()

    def _release_maps(self) -> None:
        for m in self._maps:
            m.flush()
            # Give the resident pages back now, not when the last view
            # into them dies: main structures are read in place, and a
            # caller may hold such a view (or the engine that holds
            # them) past the detach. The mapping is shared with its
            # file, so nothing is lost, and a late read through a
            # lingering view faults the page in again from the file.
            m.madvise(MADV_DONTNEED)
            try:
                m.close()
            except BufferError:
                # Numpy views handed out by ``view`` still export the
                # mmap's buffer; the (now empty) mapping goes with the
                # last of them.
                pass
        for f in self._files:
            f.close()
        self._maps = []
        self._files = []

    def crash(self, survivor_fraction: float = 0.0, seed: Optional[int] = None) -> None:
        """Simulate a power failure.

        Cache lines that are dirty, or flushed but not yet fenced by a
        drain, are reverted to their last durable content.
        ``survivor_fraction`` lets each such line survive independently
        with the given probability — real hardware may write back any
        subset of dirty lines at any time, so recovery must tolerate
        every value in [0, 1]. A line flushed and then dirtied again
        can land on any of its three states: the dirty revert restores
        what was flushed, the unfenced revert (applied second) what was
        durable before that. Only meaningful in ``STRICT`` mode; in
        ``FAST`` mode every store is already treated as durable
        (``survivor_fraction == 1.0`` behaviour).
        """
        if self._closed:
            raise PoolModeError("pool is closed")
        if self._mode is PMemMode.STRICT:
            rng = random.Random(seed)
            for lost in (self._undo, self._parked):
                for line_off, pre_image in lost.items():
                    if survivor_fraction > 0.0 and rng.random() < survivor_fraction:
                        continue
                    self._raw_write(line_off, pre_image)
                lost.clear()
            self._flushed_by.clear()
        self.close(clean=False)

    @property
    def was_clean_shutdown(self) -> bool:
        """True when the previous session closed with ``clean=True``."""
        return self._raw_read_u64(_OFF_CLEAN) == 1

    def mark_opened(self) -> None:
        """Clear the clean-shutdown flag at the start of a session."""
        self.write_u64(_OFF_CLEAN, 0)
        self.persist(_OFF_CLEAN, 8)

    @property
    def mode(self) -> PMemMode:
        return self._mode

    @property
    def size(self) -> int:
        """Total pool capacity in bytes across all extents."""
        return self._extent_size * len(self._maps)

    @property
    def extent_size(self) -> int:
        return self._extent_size

    @property
    def directory(self) -> str:
        return self._directory

    # ------------------------------------------------------------------
    # Raw access (no tracking/accounting) — header bootstrap only
    # ------------------------------------------------------------------

    def _locate(self, offset: int, length: int) -> tuple[mmap, int]:
        ext = offset // self._extent_size
        local = offset % self._extent_size
        if ext >= len(self._maps):
            raise PoolCorruptError(f"offset {offset} beyond pool end")
        if local + length > self._extent_size:
            raise PoolModeError(
                f"access [{offset}, {offset + length}) spans extent boundary"
            )
        return self._maps[ext], local

    def _raw_read(self, offset: int, length: int) -> bytes:
        m, local = self._locate(offset, length)
        return bytes(m[local : local + length])

    def _raw_write(self, offset: int, data: bytes) -> None:
        m, local = self._locate(offset, len(data))
        m[local : local + len(data)] = data

    def _raw_read_u64(self, offset: int) -> int:
        return int.from_bytes(self._raw_read(offset, 8), "little")

    def _raw_write_u64(self, offset: int, value: int) -> None:
        self._raw_write(offset, value.to_bytes(8, "little"))

    # ------------------------------------------------------------------
    # Tracked reads and writes
    # ------------------------------------------------------------------

    def _snapshot_lines(self, offset: int, length: int) -> None:
        first = (offset // CACHE_LINE) * CACHE_LINE
        last = ((offset + length - 1) // CACHE_LINE) * CACHE_LINE
        undo = self._undo
        for line in range(first, last + CACHE_LINE, CACHE_LINE):
            if line not in undo:
                undo[line] = self._raw_read(line, CACHE_LINE)

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``."""
        self.stats.bytes_read += length
        return self._raw_read(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        """Store ``data`` at ``offset`` (volatile until flushed)."""
        if self._mode is PMemMode.STRICT:
            # Snapshot + store as one atomic step so a concurrent
            # writer to a neighbouring field of the same cache line
            # cannot capture a half-applied pre-image.
            with self._undo_lock:
                self._snapshot_lines(offset, len(data))
                self.stats.bytes_written += len(data)
                self._raw_write(offset, data)
            return
        self.stats.bytes_written += len(data)
        self._raw_write(offset, data)

    def read_u64(self, offset: int) -> int:
        self.stats.bytes_read += 8
        return self._raw_read_u64(offset)

    def write_u64(self, offset: int, value: int) -> None:
        """Aligned 8-byte store — atomic with respect to crashes."""
        if offset % 8 != 0:
            raise PoolModeError(f"unaligned u64 store at {offset}")
        self.write(offset, value.to_bytes(8, "little"))

    def read_u32(self, offset: int) -> int:
        self.stats.bytes_read += 4
        return int.from_bytes(self._raw_read(offset, 4), "little")

    def write_u32(self, offset: int, value: int) -> None:
        if offset % 4 != 0:
            raise PoolModeError(f"unaligned u32 store at {offset}")
        self.write(offset, value.to_bytes(4, "little"))

    def read_i64(self, offset: int) -> int:
        self.stats.bytes_read += 8
        return int.from_bytes(self._raw_read(offset, 8), "little", signed=True)

    def write_i64(self, offset: int, value: int) -> None:
        if offset % 8 != 0:
            raise PoolModeError(f"unaligned i64 store at {offset}")
        self.write(offset, value.to_bytes(8, "little", signed=True))

    def write_array(self, offset: int, array: np.ndarray) -> None:
        """Bulk store of a contiguous numpy array."""
        self.write(offset, np.ascontiguousarray(array).tobytes())

    def read_array(self, offset: int, dtype: np.dtype, count: int) -> np.ndarray:
        """Read ``count`` items as a fresh (copied) numpy array."""
        dtype = np.dtype(dtype)
        data = self.read(offset, dtype.itemsize * count)
        return np.frombuffer(data, dtype=dtype).copy()

    def view(
        self, offset: int, dtype: np.dtype, count: int, charge: bool = True
    ) -> np.ndarray:
        """Zero-copy, read-only numpy view over pool memory.

        Views stay valid for the life of the pool because extents are
        never remapped. With ``charge=True`` the full extent of the view
        is charged as read traffic once, at creation; callers that cache
        views (e.g. :class:`~repro.nvm.pvector.PVector`) pass
        ``charge=False`` and account incrementally via
        :meth:`charge_read` instead.
        """
        dtype = np.dtype(dtype)
        length = dtype.itemsize * count
        m, local = self._locate(offset, length)
        self.stats.views_created += 1
        if charge:
            self.stats.bytes_read += length
        arr = np.frombuffer(memoryview(m), dtype=dtype, count=count, offset=local)
        arr.flags.writeable = False
        return arr

    def charge_read(self, nbytes: int) -> None:
        """Account ``nbytes`` of modelled read traffic (no data moved)."""
        self.stats.bytes_read += nbytes

    # ------------------------------------------------------------------
    # Persistence primitives
    # ------------------------------------------------------------------

    def flush(self, offset: int, length: int) -> None:
        """Flush the cache lines covering ``[offset, offset+length)``.

        Models CLWB: after a subsequent :meth:`drain` *by the same
        thread*, the covered lines are durable. Until then STRICT mode
        keeps their pre-images, and a crash may still lose them.
        """
        if length <= 0:
            return
        # Crash-point boundary: a simulated power failure raised here
        # means none of the covered lines became durable.
        persistence_event("flush")
        first = (offset // CACHE_LINE) * CACHE_LINE
        last = ((offset + length - 1) // CACHE_LINE) * CACHE_LINE
        n_lines = (last - first) // CACHE_LINE + 1
        self.stats.lines_flushed += n_lines
        self.stats.flush_calls += 1
        if _lines_counter_generation == _metrics._generation:
            _lines_inc(n_lines)
        else:
            _lines_flushed_inc()(n_lines)
        if self._mode is PMemMode.STRICT:
            with self._undo_lock:
                undo, parked = self._undo, self._parked
                mine = self._flushed_by.setdefault(threading.get_ident(), set())
                for line in range(first, last + CACHE_LINE, CACHE_LINE):
                    pre_image = undo.pop(line, None)
                    if pre_image is not None:
                        # An older parked image stays: it is the last
                        # content known durable.
                        parked.setdefault(line, pre_image)
                    if line in parked:
                        # Also when another thread parked it: a
                        # write-back carries the whole line, so this
                        # thread's fence makes it durable just the same.
                        mine.add(line)
        model = self.stats.model
        if model.injected_flush_ns:
            busy_wait_ns(int(model.injected_flush_ns * model.write_multiplier))

    def drain(self) -> None:
        """Persist barrier (SFENCE): the calling thread's previously
        flushed lines are durable when it returns."""
        persistence_event("drain")
        self.stats.drain_calls += 1
        if self._mode is PMemMode.STRICT:
            with self._undo_lock:
                for line in self._flushed_by.pop(threading.get_ident(), ()):
                    self._parked.pop(line, None)
        model = self.stats.model
        if model.injected_drain_ns:
            busy_wait_ns(model.injected_drain_ns)

    def persist(self, offset: int, length: int) -> None:
        """Convenience: flush then drain."""
        self.flush(offset, length)
        self.drain()

    # ------------------------------------------------------------------
    # Root pointer and allocation head (header-resident)
    # ------------------------------------------------------------------

    @property
    def root_offset(self) -> int:
        """Application root pointer (0 when unset)."""
        return self._raw_read_u64(_OFF_ROOT)

    def set_root(self, offset: int) -> None:
        """Atomically publish the application root pointer."""
        self.write_u64(_OFF_ROOT, offset)
        self.persist(_OFF_ROOT, 8)

    @property
    def alloc_head(self) -> int:
        """End of the space ever handed out (persisted in the header)."""
        return self._head

    def allocate(self, nbytes: int, align: int = CACHE_LINE) -> int:
        """Hand out ``nbytes`` of pool space aligned to ``align``.

        The lowest free range that fits is used (split around the
        block, nothing rounded up); only when none does is the pool
        extended past its head, growing it if needed. The block never
        spans an extent boundary; requests larger than one extent raise
        :class:`PoolFullError`. The head is persisted with the
        extension, so a block reachable from any durable pointer can
        never be handed out twice after a crash. A recycled block holds
        whatever its last owner left (poison in ``STRICT`` mode), not
        zeros.
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if nbytes > self._extent_size:
            raise PoolFullError(
                f"allocation of {nbytes} exceeds extent size {self._extent_size}"
            )
        with self._alloc_lock:
            self._absorb_freed()
            self.stats.allocations += 1
            free = self._free_ranges
            if free.size:
                at = -(-free[:, 0] // align) * align
                fits = np.flatnonzero(at + nbytes <= free[:, 1])
                if fits.size:
                    i, offset = int(fits[0]), int(at[fits[0]])
                    # What is left of the range takes its place: the
                    # list stays sorted and joined without a re-sort.
                    rest = np.array(
                        [(free[i, 0], offset), (offset + nbytes, free[i, 1])]
                    )
                    rest = rest[rest[:, 0] < rest[:, 1]]
                    self._free_ranges = np.concatenate([free[:i], rest, free[i + 1 :]])
                    return offset
            head = self._head
            offset = -(-head // align) * align
            if offset % self._extent_size + nbytes > self._extent_size:
                # The extent's tail is too short: start at the next one.
                offset = (offset // self._extent_size + 1) * self._extent_size
            while offset + nbytes > self.size:
                self._grow()
            if offset > head:  # alignment gap, skipped tail: free space
                self._add_free([(head, offset)])
            self._head = offset + nbytes
            self.write_u64(_OFF_ALLOC_HEAD, self._head)
            self.persist(_OFF_ALLOC_HEAD, 8)
            return offset

    def free(self, offset: int, nbytes: int) -> None:
        """Return a block to the pool.

        The caller guarantees that the store which unlinked the block
        is *drained*: until then a crash could recover a pointer into
        space already handed to someone else. Takes no lock, so a
        finalizer may call it on any thread.
        """
        if self._closed:
            return
        if self._mode is PMemMode.STRICT:
            self._raw_write(offset, _POISON * nbytes)
        self._freed.append((offset, nbytes))

    def retire(self, owner: object, blocks: Iterable[tuple[int, int]]) -> None:
        """Free ``blocks`` when ``owner`` is garbage-collected.

        ``owner`` is the object every reader of those blocks goes
        through, so its lifetime is the pin: a scan holding a
        superseded partition keeps its memory out of the free list for
        exactly as long as it can still read it.
        """
        blocks = list(blocks)
        self._retiring[id(blocks)] = blocks
        weakref.finalize(owner, self._release, id(blocks)).atexit = False

    def _release(self, key: int) -> None:
        # Queue, then forget: ``sweep`` reads the two in the other
        # order, so it sees a block in at least one of them.
        for offset, nbytes in self._retiring[key]:
            self.free(offset, nbytes)
        del self._retiring[key]

    @property
    def retiring(self) -> list[tuple[int, int]]:
        """Blocks registered with :meth:`retire` and not yet freed."""
        return [b for blocks in list(self._retiring.values()) for b in blocks]

    def sweep(self, reachable: Iterable[tuple[int, int]]) -> int:
        """Free what lies below the attach-time head and outside
        ``reachable`` — every block a durable pointer leads to; returns
        the bytes found.

        Nothing below that head was handed out since the attach (what
        ``free`` got back from there has been waiting for this), so no
        block can have become reachable behind the caller's back; blocks
        allocated since lie above it and are tracked as usual.
        Overlapping blocks mean the enumeration is wrong, and nothing is
        freed on its word.
        """
        with self._alloc_lock:
            bound, extent = self.unswept, self._extent_size
            if not bound:
                return 0
            # Not garbage either: blocks unlinked and not yet free (one
            # can also be in ``reachable``, listed a moment earlier).
            # Retiring first, then the queue: a finalizer fills them in
            # the other order, so none is missed.
            kept = set(self.retiring)
            self._absorb_freed()
            kept.update(self._waiting, reachable)
            # What no hole may cross: the header, extent boundaries, the bound.
            live = [(0, HEADER_SIZE), (bound, bound)]
            live += [(e, e) for e in range(extent, bound, extent)]
            live += [(o, o + n) for o, n in kept if o < bound]
            live = np.array(sorted(live), dtype=np.int64)
            holes = np.column_stack([live[:-1, 1], live[1:, 0]])
            if (holes[:, 1] < holes[:, 0]).any():
                raise PoolCorruptError("reachable blocks overlap; not sweeping")
            found = [(lo, hi - lo) for lo, hi in holes.tolist() if hi > lo]
            if self._mode is PMemMode.STRICT:
                for lo, nbytes in found:
                    self._raw_write(lo, _POISON * nbytes)
            self._freed.extend(self._waiting + found)
            self._waiting = []
            self.unswept = 0
            return sum(nbytes for _, nbytes in found)

    def _absorb_freed(self) -> None:
        """Fold what ``free`` queued into the free list (lock held).
        Until the sweep, blocks below its bound wait for it: handed out
        again, they could be taken for garbage."""
        freed = self._freed
        blocks = [freed.popleft() for _ in range(len(freed))]
        if self.unswept:
            self._waiting += [b for b in blocks if b[0] < self.unswept]
            blocks = [b for b in blocks if b[0] >= self.unswept]
        if blocks:
            blocks = np.array(blocks, dtype=np.int64)
            self._reclaimed += int(blocks[:, 1].sum())
            blocks[:, 1] += blocks[:, 0]
            self._add_free(blocks)

    def _add_free(self, ranges) -> None:
        """Merge ``[start, end)`` ranges (empty ones ignored) into the
        free list."""
        ranges = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        free = np.concatenate([self._free_ranges, ranges])
        free = free[free[:, 1] > free[:, 0]]
        free = free[np.argsort(free[:, 0], kind="stable")]
        starts, ends = free[:, 0], free[:, 1]
        if (starts[1:] < ends[:-1]).any():
            raise PoolCorruptError("block freed twice")
        # A range continues the one before it when it starts where that
        # one ends — unless an extent boundary lies between them.
        joins = (starts[1:] == ends[:-1]) & (starts[1:] % self._extent_size != 0)
        first = np.ones(len(free), dtype=bool)
        last = np.ones(len(free), dtype=bool)
        first[1:] = last[:-1] = ~joins
        self._free_ranges = np.column_stack([starts[first], ends[last]])

    def space(self) -> dict:
        """Where the pool's bytes are: handed out and not freed, free
        for reuse, the head's high-water mark (the device footprint),
        and everything ``free``/``sweep`` ever took back."""
        with self._alloc_lock:
            self._absorb_freed()
            free = int((self._free_ranges[:, 1] - self._free_ranges[:, 0]).sum())
        high_water = self._head - HEADER_SIZE
        return {
            "allocated_bytes": high_water - free,
            "free_bytes": free,
            "high_water_bytes": high_water,
            "reclaimed_bytes": self._reclaimed,
        }

    def _grow(self) -> None:
        self._add_extent()
        self.write_u64(_OFF_NUM_EXTENTS, len(self._maps))
        self.persist(_OFF_NUM_EXTENTS, 8)
