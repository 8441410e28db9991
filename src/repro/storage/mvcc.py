"""Multi-version concurrency-control columns.

Every partition row carries three hidden columns, exactly as in Hyrise:

* ``begin_cid`` — commit id from which the row version is visible;
  :data:`INFINITY_CID` while the inserting transaction is in flight.
* ``end_cid`` — commit id from which the row version is invalidated;
  :data:`INFINITY_CID` while the row is live.
* ``tid`` — transaction id currently holding the row (insert or
  invalidation lock); :data:`NO_TID` when unlocked.

A row version is visible to a snapshot ``S`` iff
``begin_cid <= S < end_cid`` — evaluated vectorised for scans — with
own-transaction adjustments applied by the transaction context.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

import numpy as np

from repro.obs import metrics as _metrics
from repro.storage.backend import Backend
from repro.storage.vector import VectorLike

#: "Never" commit id: u64 max. Unset begin/end markers.
INFINITY_CID = 2**64 - 1

#: tid value meaning "row not locked by any transaction".
NO_TID = 0


# Cached instrument handles, revalidated against the registry
# generation (same pattern as ``repro.nvm.pool``): visible_mask runs
# once per partition per scan, too hot for a registry lookup each time.
_cache_hits = None
_cache_misses = None
_handles_generation = -1


def _cache_counters():
    global _cache_hits, _cache_misses, _handles_generation
    generation = _metrics.generation()
    if generation != _handles_generation:
        registry = _metrics.get_registry()
        _cache_hits = registry.counter("mvcc_cache_hits_total")
        _cache_misses = registry.counter("mvcc_cache_misses_total")
        _handles_generation = generation
    return _cache_hits, _cache_misses


class MvccColumns:
    """The begin/end/tid vectors for one partition.

    Scans evaluate visibility against a cache of the all-visible
    watermark and, for snapshots outside it, DRAM copies of the
    begin/end vectors, rather than re-reading the (possibly NVM-backed)
    vectors on every scan. The cache is stamped with
    ``(mutation count, row count)``:

    * every in-place begin/end store goes through :meth:`set_begin` /
      :meth:`set_end` / :meth:`set_begin_range` and bumps the mutation
      count (commit and rollback fix-ups);
    * every publish path — insert tails, merge builds,
      checkpoint loads — grows the begin vector, changing the row count
      (delta publish appends to ``self.begin`` directly, which the
      length component still catches).

    ``tid`` stores do not invalidate: visibility never reads tid.
    """

    def __init__(self, begin: VectorLike, end: VectorLike, tid: VectorLike):
        self.begin = begin
        self.end = end
        self.tid = tid
        # Row-lock latch: the tid column is the MVCC row lock, and its
        # conflict-check-then-set must be atomic under concurrent
        # writers. Holders never take another lock inside.
        self.lock = threading.Lock()
        # (stamp, watermark_lo, watermark_hi, begin/end arrays or None)
        self._vis_cache: Optional[tuple] = None
        self._mutations = 0

    @classmethod
    def create(cls, backend: Backend, chunk_capacity: int = 8192) -> "MvccColumns":
        """Fresh empty MVCC columns on ``backend``."""
        return cls(
            backend.make_vector(np.uint64, chunk_capacity),
            backend.make_vector(np.uint64, chunk_capacity),
            backend.make_vector(np.uint64, chunk_capacity),
        )

    def __len__(self) -> int:
        return len(self.begin)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """The three vectors' blocks, as ``(offset, nbytes)``."""
        for vector in (self.begin, self.end, self.tid):
            yield from vector.blocks()

    @property
    def mutations(self) -> int:
        """In-place begin/end store count (the visibility-cache stamp's
        mutation component). Together with the row count this changes on
        every MVCC state transition, which makes ``(mutations, rows)``
        a cheap dirty token for incremental checkpoints."""
        return self._mutations

    def extend_committed(
        self, begin_cids: np.ndarray, end_cids: np.ndarray
    ) -> None:
        """Bulk-load MVCC state, every row unlocked (merge / checkpoint
        load paths): a ``tid`` with ``NO_TID`` as its fill stores none."""
        self.begin.extend(np.asarray(begin_cids, dtype=np.uint64))
        self.end.extend(np.asarray(end_cids, dtype=np.uint64))
        self.tid.extend(np.broadcast_to(np.uint64(NO_TID), len(begin_cids)))

    # ------------------------------------------------------------------
    # Row-level accessors
    # ------------------------------------------------------------------

    # ``fence=False`` (commit's fix-ups): flushed, and made durable by
    # a later barrier of the same thread — see ``PVector``.

    def set_begin(self, row: int, cid: int, fence: bool = True) -> None:
        # Store first, bump after: a concurrent scan that misses this
        # store then carries a stale stamp and re-reads next time. The
        # reverse order could cache the pre-store arrays under the
        # post-store stamp forever.
        self.begin.set(row, cid, fence)
        self._mutations += 1

    def set_end(self, row: int, cid: int, fence: bool = True) -> None:
        self.end.set(row, cid, fence)
        self._mutations += 1

    def set_tid(self, row: int, tid: int, fence: bool = True) -> None:
        self.tid.set(row, tid, fence)

    def set_begin_range(
        self, first: int, count: int, cid: int | np.ndarray, fence: bool = True
    ) -> None:
        """Set ``begin_cid`` — one value, or one per row — for a
        contiguous row range (one store per touched chunk instead of a
        per-row loop)."""
        if count > 0:
            self.begin.set_range(
                first, np.full(count, cid, dtype=np.uint64), fence
            )
            self._mutations += 1

    def set_tid_range(
        self, first: int, count: int, tid: int, fence: bool = True
    ) -> None:
        """Set ``tid`` for a contiguous row range, chunk-coalesced."""
        if count > 0:
            self.tid.set_range(
                first, np.full(count, tid, dtype=np.uint64), fence
            )

    def get_begin(self, row: int) -> int:
        return int(self.begin.get(row))

    def get_end(self, row: int) -> int:
        return int(self.end.get(row))

    def get_tid(self, row: int) -> int:
        return int(self.tid.get(row))

    # ------------------------------------------------------------------
    # Vectorised visibility
    # ------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Published rows — the begin vector is the authority (end/tid
        may run ahead by crash-torn insert tails)."""
        return len(self.begin)

    def begin_array(self) -> np.ndarray:
        return self.begin.to_numpy()

    def end_array(self) -> np.ndarray:
        return self.end.to_numpy()[: self.row_count]

    def tid_array(self) -> np.ndarray:
        return self.tid.to_numpy()[: self.row_count]

    def state_snapshot(
        self, rows: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Owned copies of (begin, end, tid) clamped to ``rows``.

        The merge freeze captures these under the commit lock; copies
        (not views) so later in-place commit fix-ups cannot mutate the
        frozen plan out from under the fold.
        """
        begin = np.array(self.begin.to_numpy()[:rows], dtype=np.uint64)
        end = np.array(self.end.to_numpy()[:rows], dtype=np.uint64)
        tid = np.array(self.tid.to_numpy()[:rows], dtype=np.uint64)
        return begin, end, tid

    def _visibility(self) -> tuple:
        """``(stamp, watermark_lo, watermark_hi, arrays)``, cached.

        Every snapshot ``S`` with ``max(begin) <= S < min(end)`` sees
        every row: the steady state of a merged main partition (all
        begins committed, all ends at infinity). A miss reads both
        extremes in place over the vectors' views; ``arrays``, DRAM
        copies of begin/end for per-row compares, stay ``None`` until a
        snapshot falls outside the watermark. Cache hits touch no vector
        at all (zero NVM read traffic). Hits and misses are exported as
        ``mvcc_cache_hits_total`` / ``mvcc_cache_misses_total``.
        """
        stamp = (self._mutations, len(self.begin))
        cache = self._vis_cache
        hits, misses = _cache_counters()
        if cache is not None and cache[0] == stamp:
            hits.inc()
            return cache
        misses.inc()
        lo = _extreme(self.begin, stamp[1], np.maximum.reduce, 0)
        hi = _extreme(self.end, stamp[1], np.minimum.reduce, INFINITY_CID)
        self._vis_cache = cache = (stamp, lo, hi, None)
        return cache

    def visible_mask(self, snapshot_cid: int) -> np.ndarray:
        """Boolean mask of rows visible at ``snapshot_cid``.

        Own-transaction effects (rows we inserted or invalidated but have
        not committed) are layered on top by the transaction context.
        The mask is always a fresh array (callers AND predicates into it
        in place); the begin/end sources come from the visibility cache.
        """
        cache = (_, rows), watermark_lo, watermark_hi, arrays = self._visibility()
        if watermark_lo <= snapshot_cid < watermark_hi:
            # All-visible watermark: no per-row compares needed.
            return np.ones(rows, dtype=bool)
        if arrays is None:
            arrays = self.begin.to_numpy()[:rows], self.end.to_numpy()[:rows]
            # One store of the whole tuple: a racing scan sees the old
            # tuple or this one, never arrays beside another stamp.
            self._vis_cache = cache[:3] + (arrays,)
        begin, end = arrays
        s = np.uint64(snapshot_cid)
        return (begin <= s) & (end > s)


def _extreme(vector: VectorLike, rows: int, reduce, empty: int) -> int:
    """``reduce`` over the first ``rows`` elements, read in place."""
    parts = []
    for view in vector.iter_views():
        if rows <= 0:
            break
        parts.append(reduce(view[:rows]))
        rows -= view.size
    return int(reduce(parts)) if parts else empty
