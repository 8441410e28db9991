"""Persistent growable vector with crash-atomic appends.

``PVector`` is the workhorse multi-version building block of the engine:
delta attribute vectors, dictionary value arrays, and the MVCC begin/end
vectors are all PVectors living on NVM.

Layout::

    header (64 B, cache-line aligned)
      +0   size            committed element count (the publish point)
      +8   dtype_code      | 0x100 when the vector has a fill value
      +16  chunk_capacity  elements per chunk
      +24  num_chunks      committed chunk count
      +32  dir_offset      -> directory block
      +40  fill            the fill value, in the word's low bytes
    directory block
      +0   capacity        number of slots
      +8   slot[0..cap)    chunk offsets (u64 each); 0 = not materialised
    chunk
      raw element payload, chunk_capacity * itemsize bytes

With a ``fill``, a chunk nothing but the fill was stored to is a 0
slot: it reads as the fill and owns no pool block until a store
materialises it (``_materialise``). Vectors without one have no 0 slot.

Crash atomicity follows the paper's recipe: payload is written and
flushed *first*, the persist barrier drains it, and only then is the
8-byte ``size`` field stored and flushed. A torn append is therefore
invisible — after a crash the vector's durable prefix is exactly its
last published size. Directory growth publishes the new directory with a
single 8-byte ``dir_offset`` store (the capacity lives inside the
directory block so both change atomically together).

``extend``/``set``/``set_range`` take ``fence=False`` for stores whose
durable order some *later* barrier of the same thread settles (DESIGN.md
"Key design decisions"): every line is still flushed, no drain is
issued. An unfenced ``extend`` may leave its size durable ahead of its
payload, so only an owner that bounds reads by another vector's length
(the delta, by ``begin``) may use it.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

import numpy as np

from repro.nvm.errors import NvmError
from repro.nvm.pool import PMemPool

HEADER_BYTES = 64

DTYPE_CODES = {
    1: np.dtype(np.uint8),
    2: np.dtype(np.uint16),
    3: np.dtype(np.uint32),
    4: np.dtype(np.uint64),
    5: np.dtype(np.int64),
    6: np.dtype(np.float64),
}
_CODE_FOR_DTYPE = {v: k for k, v in DTYPE_CODES.items()}

_OFF_SIZE = 0
_OFF_NUM_CHUNKS = 24
_OFF_DIR = 32
_HAS_FILL = 0x100

DEFAULT_CHUNK_CAPACITY = 8192
_INITIAL_DIR_CAPACITY = 16

#: Serialises materialisation (and the directory growth that copies
#: slots) across every vector: it happens once per chunk, so one lock
#: costs nothing, and an attach builds none.
_MATERIALISE_LOCK = threading.Lock()


def checked_indices(indices, bound: int) -> np.ndarray:
    """``indices`` as an intp array, every one inside ``[0, bound)``."""
    idx = np.asarray(indices, dtype=np.intp)
    # A few positions check faster in python than by two reductions.
    ends = idx.tolist() if idx.size < 8 else [int(idx.min()), int(idx.max())]
    if ends and not 0 <= min(ends) <= max(ends) < bound:
        raise IndexError(f"gather position outside [0, {bound})")
    return idx


class PVector:
    """A chunked, append-mostly persistent array of a fixed dtype.

    Elements below ``len(self)`` are durable and stable; ``set`` is
    allowed anywhere below the published size (used for MVCC begin/end
    updates, which are 8-byte atomic stores).
    """

    def __init__(self, pool: PMemPool, offset: int):
        self._pool = pool
        self.offset = offset
        # One read for the header's six words, one for the directory.
        header = pool.read_array(offset, np.uint64, 6)
        self._size, dtype, self._chunk_cap, self._num_chunks, dir_offset, _ = (
            header.tolist()
        )
        self._dtype = DTYPE_CODES[dtype & ~_HAS_FILL]
        self._itemsize = self._dtype.itemsize
        # What an unmaterialised chunk reads as (None without a fill).
        self._fill = header[5:].view(self._dtype)[0] if dtype & _HAS_FILL else None
        directory = pool.read_array(dir_offset, np.uint64, 1 + self._num_chunks)
        # (offset, capacity) of every directory this handle has known,
        # the live one last: one value, replaced in one store, so
        # ``blocks`` on another thread lists each exactly once.
        self._dirs = ((dir_offset, int(directory[0])),)
        self._chunks: list[int] = directory[1:].tolist()
        # Zero-copy chunk views are cached for the life of the handle:
        # chunk offsets never move (directory growth copies slots, not
        # chunks), so a view created once stays valid. Read accounting
        # is charged incrementally as the published prefix of each chunk
        # grows (see ``_chunk_view``), so repeated bulk reads of the same
        # data do not inflate modelled read traffic.
        self._chunk_views: dict[int, np.ndarray] = {}
        self._charged_elems: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        pool: PMemPool,
        dtype: np.dtype,
        chunk_capacity: int = DEFAULT_CHUNK_CAPACITY,
        fill=None,
    ) -> "PVector":
        """Allocate and persist an empty vector; returns the handle.
        With a ``fill``, chunks nothing was stored to read as it and
        take no space (see the module docstring)."""
        dtype = np.dtype(dtype)
        if dtype not in _CODE_FOR_DTYPE:
            raise NvmError(f"unsupported dtype {dtype}")
        if chunk_capacity <= 0:
            raise ValueError("chunk_capacity must be positive")
        header = pool.allocate(HEADER_BYTES)
        dir_off = pool.allocate(8 + 8 * _INITIAL_DIR_CAPACITY)
        pool.write_u64(dir_off, _INITIAL_DIR_CAPACITY)
        pool.persist(dir_off, 8)
        words = np.array(
            [0, _CODE_FOR_DTYPE[dtype], chunk_capacity, 0, dir_off, 0], np.uint64
        )
        if fill is not None:
            words[1] |= _HAS_FILL
            words[5:].view(dtype)[0] = fill
        pool.write_array(header, words)
        pool.persist(header, HEADER_BYTES)
        return cls(pool, header)

    @classmethod
    def attach(cls, pool: PMemPool, offset: int) -> "PVector":
        """Re-open an existing vector after a restart."""
        return cls(pool, offset)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def chunk_capacity(self) -> int:
        return self._chunk_cap

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Every pool block this vector owns, as ``(offset, nbytes)``:
        header, live and outgrown directories, materialised chunks."""
        yield self.offset, HEADER_BYTES
        for dir_offset, dir_capacity in self._dirs:
            yield dir_offset, 8 + 8 * dir_capacity
        chunk_bytes = self._chunk_cap * self._itemsize
        for chunk_off in list(self._chunks):
            if chunk_off:
                yield chunk_off, chunk_bytes

    # ------------------------------------------------------------------
    # Chunk management
    # ------------------------------------------------------------------

    def _grow_directory(self) -> None:
        """Double the directory. The superseded block stays the
        vector's (``blocks`` lists it) and returns to the pool with it:
        freed here, it could be freed again by an owner that listed the
        vector's blocks a moment earlier. A restart forgets the list
        and leaves such blocks to the pool's sweep."""
        pool = self._pool
        new_cap = self._dirs[-1][1] * 2
        new_dir = pool.allocate(8 + 8 * new_cap)
        with _MATERIALISE_LOCK:  # no slot changes behind the copy
            pool.write_array(new_dir, np.array([new_cap, *self._chunks], np.uint64))
            pool.persist(new_dir, 8 + 8 * len(self._chunks))
            # Single atomic store publishes the new directory (its
            # capacity travels inside the block, so no second store).
            pool.write_u64(self.offset + _OFF_DIR, new_dir)
            pool.persist(self.offset + _OFF_DIR, 8)
            self._dirs = (*self._dirs, (new_dir, new_cap))

    def _add_chunk(self) -> None:
        """One more chunk: allocated, or with a fill a 0 slot."""
        pool = self._pool
        if self._num_chunks == self._dirs[-1][1]:
            self._grow_directory()
        chunk_bytes = self._chunk_cap * self._itemsize
        chunk_off = 0 if self._fill is not None else pool.allocate(chunk_bytes)
        slot = self._dirs[-1][0] + 8 + 8 * self._num_chunks
        pool.write_u64(slot, chunk_off)
        pool.persist(slot, 8)
        pool.write_u64(self.offset + _OFF_NUM_CHUNKS, self._num_chunks + 1)
        pool.persist(self.offset + _OFF_NUM_CHUNKS, 8)
        # Volatile state last, and together: a thread that outlives a
        # simulated power cut in here must find count and list agree.
        self._num_chunks += 1
        self._chunks.append(chunk_off)

    def _materialise(self, chunk: int) -> int:
        """Give an unmaterialised chunk its block; returns its offset.
        Fill, flush, **drain**, then the slot, persisted: a slot durable
        ahead of its fill leads a restart to whatever the block held. The
        list entry goes last, so no reader meets a block being filled."""
        with _MATERIALISE_LOCK:
            chunk_off = self._chunks[chunk]
            if chunk_off:
                return chunk_off
            pool = self._pool
            nbytes = self._chunk_cap * self._itemsize
            chunk_off = pool.allocate(nbytes)
            pool.write_array(chunk_off, np.broadcast_to(self._fill, self._chunk_cap))
            pool.flush(chunk_off, nbytes)
            pool.drain()
            slot = self._dirs[-1][0] + 8 + 8 * chunk
            pool.write_u64(slot, chunk_off)
            pool.persist(slot, 8)
            self._chunks[chunk] = chunk_off
            return chunk_off

    def _chunk_for_store(self, chunk: int, values: np.ndarray) -> int:
        """Offset of ``chunk`` for a store of ``values``, materialising
        it first when it reads as the fill and they are not all fill;
        0 when the store is a no-op."""
        chunk_off = self._chunks[chunk]
        if not chunk_off and not (values == self._fill).all():
            chunk_off = self._materialise(chunk)
        return chunk_off

    def _publish_size(self, new_size: int, fence: bool = True) -> None:
        self._pool.write_u64(self.offset + _OFF_SIZE, new_size)
        self._pool.flush(self.offset + _OFF_SIZE, 8)
        if fence:
            self._pool.drain()
        self._size = new_size

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append(self, value) -> int:
        """Durably append one element; returns its index."""
        index = self._size
        chunk, slot = divmod(index, self._chunk_cap)
        if chunk >= self._num_chunks:
            self._add_chunk()
        payload = np.asarray(value, dtype=self._dtype)
        chunk_off = self._chunk_for_store(chunk, payload)
        if chunk_off:
            off = chunk_off + slot * self._itemsize
            self._pool.write(off, payload.tobytes())
            self._pool.persist(off, self._itemsize)
        self._publish_size(index + 1)
        return index

    def extend(self, values: np.ndarray, fence: bool = True) -> int:
        """Durably append a batch; returns the index of the first element.

        The whole batch becomes visible atomically: payload chunks are
        flushed first, then one size store publishes everything.
        ``fence=False`` flushes payload and size and drains neither.
        With a fill, a chunk whose part of the batch is all fill is
        never allocated.
        """
        values = np.asarray(values, dtype=self._dtype)
        first = self._size
        if values.size == 0:
            return first
        end = first + values.size
        while self._num_chunks * self._chunk_cap < end:
            self._add_chunk()
        self._store(first, values)
        if fence:
            self._pool.drain()
        self._publish_size(end, fence)
        return first

    def set(self, index: int, value, fence: bool = True) -> None:
        """Overwrite an existing element in place.

        For 8-byte dtypes this is a crash-atomic store (the chunks are
        cache-line aligned so 8-byte elements never straddle lines).
        ``fence=False`` flushes the line without draining.
        """
        if index >= self._size:
            raise IndexError(f"set({index}) beyond size {self._size}")
        chunk, slot = divmod(index, self._chunk_cap)
        payload = np.asarray(value, dtype=self._dtype)
        chunk_off = self._chunk_for_store(chunk, payload)
        if chunk_off:
            off = chunk_off + slot * self._itemsize
            self._pool.write(off, payload.tobytes())
            self._pool.flush(off, self._itemsize)
        if fence:
            self._pool.drain()

    def set_range(
        self, start: int, values: np.ndarray, fence: bool = True
    ) -> None:
        """Overwrite a contiguous range of already-published elements.

        Writes are coalesced per touched chunk — one flush per chunk
        part and a single drain (none with ``fence=False``) — instead
        of one persist per element.
        """
        values = np.asarray(values, dtype=self._dtype)
        if start + values.size > self._size:
            raise IndexError(
                f"set_range([{start}, {start + values.size})) beyond "
                f"size {self._size}"
            )
        if values.size == 0:
            return
        self._store(start, values)
        if fence:
            self._pool.drain()

    def _store(self, start: int, values: np.ndarray) -> None:
        """Write ``values`` from ``start`` on (its chunks exist), one
        flush per touched chunk part, skipping a part that is all fill
        bound for a chunk that reads as the fill."""
        pool, cap = self._pool, self._chunk_cap
        while values.size:
            chunk, slot = divmod(start, cap)
            part = values[: cap - slot]
            chunk_off = self._chunk_for_store(chunk, part)
            if chunk_off:
                off = chunk_off + slot * self._itemsize
                pool.write_array(off, part)
                pool.flush(off, part.nbytes)
            start += part.size
            values = values[part.size :]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, index: int):
        """Read one element (returns a numpy scalar)."""
        if index >= self._size:
            raise IndexError(f"get({index}) beyond size {self._size}")
        chunk, slot = divmod(index, self._chunk_cap)
        chunk_off = self._chunks[chunk]
        if not chunk_off:
            return self._fill
        data = self._pool.read(chunk_off + slot * self._itemsize, self._itemsize)
        return np.frombuffer(data, dtype=self._dtype)[0]

    def __getitem__(self, index: int):
        return self.get(index)

    def _chunk_view(
        self, chunk_index: int, count: Optional[int] = None
    ) -> np.ndarray:
        """Read-only view of the first ``count`` elements of a chunk.

        The full-capacity view is created once per chunk and sliced;
        modelled read traffic is charged only for prefix growth since
        the last call, so re-reading published data costs nothing.
        ``count=None`` is the whole chunk, uncharged: a gather accounts
        for the elements it picks.
        """
        base = self._chunk_views.get(chunk_index)
        if base is None:
            chunk_off = self._chunks[chunk_index]
            if not chunk_off:
                # The fill, read from no pool memory; never cached, or
                # it would outlive the chunk's materialisation.
                base = np.broadcast_to(self._fill, self._chunk_cap)
                return base if count is None else base[:count]
            base = self._pool.view(
                chunk_off, self._dtype, self._chunk_cap, charge=False
            )
            self._chunk_views[chunk_index] = base
        if count is None:
            return base
        charged = self._charged_elems.get(chunk_index, 0)
        if count > charged:
            self._pool.charge_read((count - charged) * self._itemsize)
            self._charged_elems[chunk_index] = count
        return base[:count]

    def view(self) -> np.ndarray:
        """The published prefix, read-only: a zero-copy view of the pool
        when it lies in one chunk, else a copy (:meth:`to_numpy`)."""
        if 0 < self._size <= self._chunk_cap:
            return self._chunk_view(0, self._size)
        out = self.to_numpy()
        out.flags.writeable = False
        return out

    def iter_views(self) -> Iterator[np.ndarray]:
        """Yield read-only numpy views over the committed chunks."""
        remaining = self._size
        for chunk_index in range(len(self._chunks)):
            if remaining <= 0:
                return
            count = min(self._chunk_cap, remaining)
            yield self._chunk_view(chunk_index, count)
            remaining -= count

    def to_numpy(self) -> np.ndarray:
        """Materialise the committed contents as one contiguous array."""
        if self._size == 0:
            return np.empty(0, dtype=self._dtype)
        parts = list(self.iter_views())
        if len(parts) == 1:
            return parts[0].copy()
        return np.concatenate(parts)

    def take(self, indices, limit: Optional[int] = None) -> np.ndarray:
        """Elements at ``indices`` (any order, repeats allowed), as a copy.

        Positions are checked against ``limit`` when given (an owner's
        published length: a delta's crash-torn tails live beyond its row
        count), else ``len(self)``. A request for a small share of the
        vector costs, and is charged as read traffic, per element. A
        bulk request goes through :meth:`to_numpy` like every bulk read,
        and so does one spread over a good share of the chunks: a
        per-chunk gather costs about what copying that chunk does.
        """
        size = self._size
        idx = checked_indices(indices, size if limit is None else min(limit, size))
        if idx.size == 0:
            return np.empty(0, dtype=self._dtype)
        if idx.size * 4 < size:
            chunk_ids, slots = np.divmod(idx, self._chunk_cap)
            first = int(chunk_ids[0])
            if idx.size == 1 or (chunk_ids == first).all():
                self._pool.charge_read(idx.size * self._itemsize)
                return self._chunk_view(first)[slots]
            if idx.size * 4 < self._num_chunks:
                self._pool.charge_read(idx.size * self._itemsize)
                out = np.empty(idx.size, dtype=self._dtype)
                for chunk in np.unique(chunk_ids).tolist():
                    sel = chunk_ids == chunk
                    out[sel] = self._chunk_view(chunk)[slots[sel]]
                return out
        return self.to_numpy()[idx]
