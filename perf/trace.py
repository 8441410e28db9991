"""Span recorder installed from outside the engine.

``Tracer.install()`` replaces the call sites listed in :data:`TARGETS`
with wrappers that record one span per call — name, start, end, parent
span, and the operation id the calling thread is working on. Nothing
under ``src/`` knows about it; ``uninstall()`` restores the originals.

Spans are kept in per-thread ``array`` buffers (32 bytes a span, no
lock on the hot path) and only joined into numpy columns by
:meth:`Tracer.collect`. A wrapper's parent is whatever span is open on
the same thread, so every recorded tree is single-threaded; the
arithmetic in :func:`self_times` nevertheless handles the general case
(children on other threads, overlapping children, a child that outlives
its parent), because server-side and merge-thread spans may later be
stitched under one operation.

**Self time** of a span = its duration − the length of the union of its
children's intervals, each clipped to the span's own interval.
"""

from __future__ import annotations

import importlib
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Optional

import numpy as np

#: Operation id of spans recorded outside any operation.
NO_OP = -1

#: (span name, module, class-or-None, attribute[, alias modules]).
#: The span name's prefix is the layer (= module under ``src/repro/``).
#: ``alias modules`` name other modules that imported the function by
#: name and therefore hold their own reference to patch.
TARGETS: tuple = (
    # -- server ---------------------------------------------------------
    ("server.decode", "repro.server.protocol", None, "unpack_request"),
    ("server.decode", "repro.server.protocol", "FrameDecoder", "frames"),
    ("server.admit", "repro.server.admission", "AdmissionController", "admit"),
    ("server.admit", "repro.server.admission", "AdmissionController", "release"),
    ("server.encode", "repro.server.protocol", None, "pack_response"),
    # The executor hop. Private, but it is the one place a request's id
    # crosses from the event loop to the worker thread.
    ("server.execute", "repro.server.server", "ReproServer", "_execute"),
    # -- core -----------------------------------------------------------
    ("core.insert", "repro.core.database", "Database", "insert"),
    ("core.insert_many", "repro.core.database", "Database", "insert_many"),
    ("core.query", "repro.core.database", "Database", "query"),
    ("core.begin", "repro.core.database", "Database", "begin"),
    ("core.merge", "repro.core.database", "Database", "merge"),
    ("core.checkpoint", "repro.core.database", "Database", "checkpoint"),
    ("core.txn_api", "repro.core.database", "Transaction", "insert"),
    ("core.txn_api", "repro.core.database", "Transaction", "insert_many"),
    ("core.txn_api", "repro.core.database", "Transaction", "update"),
    ("core.txn_api", "repro.core.database", "Transaction", "delete"),
    ("core.txn_api", "repro.core.database", "Transaction", "query"),
    ("core.txn_api", "repro.core.database", "Transaction", "commit"),
    # -- txn ------------------------------------------------------------
    ("txn.begin", "repro.txn.manager", "TransactionManager", "begin"),
    ("txn.commit", "repro.txn.manager", "TransactionManager", "commit"),
    ("txn.abort", "repro.txn.manager", "TransactionManager", "abort"),
    ("txn.insert", "repro.txn.manager", "TransactionManager", "insert_many"),
    ("txn.invalidate", "repro.txn.manager", "TransactionManager", "invalidate"),
    ("txn.update", "repro.txn.manager", "TransactionManager", "update"),
    # -- storage --------------------------------------------------------
    ("storage.encode", "repro.storage.delta", "DeltaPartition", "encode_row"),
    ("storage.encode", "repro.storage.delta", "DeltaPartition", "encode_columns"),
    ("storage.append", "repro.storage.delta", "DeltaPartition", "insert_encoded"),
    ("storage.append", "repro.storage.delta", "DeltaPartition", "insert_rows_encoded"),
    ("storage.merge_freeze", "repro.storage.merge", None, "freeze_plan",
     ("repro.core.database",)),
    ("storage.merge_fold", "repro.storage.merge", None, "fold_generation",
     ("repro.core.database",)),
    ("storage.merge_fixup", "repro.storage.merge", None, "fixup_mvcc",
     ("repro.core.database",)),
    # -- index ----------------------------------------------------------
    ("index.probe", "repro.index.table_index", "TableIndex", "probe_equal"),
    ("index.probe", "repro.index.table_index", "TableIndex", "probe_range"),
    ("index.maintain", "repro.index.table_index", "TableIndex", "on_insert"),
    ("index.maintain", "repro.index.table_index", "TableIndex", "on_insert_many"),
    ("index.ensure_current", "repro.index.table_index", "TableIndex",
     "ensure_delta_current"),
    # -- nvm ------------------------------------------------------------
    ("nvm.flush", "repro.nvm.pool", "PMemPool", "flush"),
    ("nvm.flush", "repro.nvm.pool", "PMemPool", "drain"),
    # -- wal ------------------------------------------------------------
    ("wal.append", "repro.wal.writer", "LogWriter", "log_insert"),
    ("wal.append", "repro.wal.writer", "LogWriter", "log_insert_many"),
    ("wal.append", "repro.wal.writer", "LogWriter", "log_invalidate"),
    ("wal.append", "repro.wal.writer", "LogWriter", "log_abort"),
    ("wal.append", "repro.wal.writer", "LogWriter", "append_commit"),
    ("wal.fsync_wait", "repro.wal.writer", "LogWriter", "commit_barrier"),
    # -- query ----------------------------------------------------------
    ("query.scan", "repro.query.scan", None, "scan",
     ("repro.core.database", "repro.query", "repro")),
    ("query.aggregate", "repro.query.aggregate", None, "aggregate",
     ("repro.server.server", "repro.query", "repro")),
    ("query.join", "repro.query.join", None, "hash_join",
     ("repro.query", "repro")),
    ("query.materialize", "repro.query.scan", "ScanResult", "rows"),
)


class _ThreadBuffer:
    """One thread's spans; ``top`` is the innermost open span's index."""

    __slots__ = ("name", "start", "end", "parent", "op", "top", "cur_op")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")
        self.top = -1
        self.cur_op = NO_OP


@dataclass
class Spans:
    """Collected spans as parallel columns (one row per span)."""

    names: list  # span-name table; ``name`` holds indices into it
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray  # row index of the parent span, -1 for a root
    op: np.ndarray
    thread: np.ndarray

    def __len__(self) -> int:
        return len(self.name)


class Tracer:
    """Owns the wrappers, the per-thread buffers and the name table."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._tls = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- per-thread state ------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._tls.buffer
        except AttributeError:
            buf = self._tls.buffer = _ThreadBuffer()
            with self._buffers_lock:
                self._buffers.append(buf)
            return buf

    def set_op(self, op_id: int) -> None:
        """Tag every span this thread records from now on with ``op_id``."""
        self._buffer().cur_op = op_id

    # -- wrapping --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        eager: bool = False,
        op_of: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording wrapper around ``fn``.

        ``eager`` drains a generator function inside the span (otherwise
        its body would run, untimed, in the caller's loop). ``op_of``
        derives the operation id from the call's arguments and makes it
        the thread's current operation for the duration of the call.
        """
        nid = self._name_id(name)
        get_buffer = self._buffer
        tls = self._tls

        def wrapper(*args, **kwargs):
            try:
                buf = tls.buffer
            except AttributeError:
                buf = get_buffer()
            outer_op = buf.cur_op
            if op_of is not None:
                buf.cur_op = op_of(*args, **kwargs)
            idx = len(buf.start)
            prev = buf.top
            buf.name.append(nid)
            buf.parent.append(prev)
            buf.op.append(buf.cur_op)
            buf.end.append(0.0)
            buf.top = idx
            buf.start.append(perf_counter())
            try:
                if eager:
                    return iter(list(fn(*args, **kwargs)))
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                buf.top = prev
                buf.cur_op = outer_op

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, targets: Iterable[tuple] = TARGETS) -> None:
        """Patch every target (idempotent: a second call is a no-op)."""
        if self._patched:
            return
        for target in targets:
            name, module_name, class_name, attr = target[:4]
            aliases = target[4] if len(target) > 4 else ()
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = getattr(owner, attr)
            wrapper = self.wrap(
                original,
                name,
                eager=(class_name, attr) == ("FrameDecoder", "frames"),
                op_of=_request_id_of.get((class_name, attr)),
            )
            self._patch(owner, attr, wrapper)
            for alias in aliases:
                alias_module = importlib.import_module(alias)
                if getattr(alias_module, attr, None) is original:
                    self._patch(alias_module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def collect(self) -> Spans:
        """Join the per-thread buffers (call once the threads are idle)."""
        with self._buffers_lock:
            buffers = list(self._buffers)
        cols = {k: [] for k in ("name", "start", "end", "parent", "op", "thread")}
        offset = 0
        for thread_no, buf in enumerate(buffers):
            # A wrapper caught mid-append on another thread leaves the
            # columns ragged by one; keep the rows every column has.
            n = min(len(c) for c in (buf.name, buf.start, buf.end, buf.parent, buf.op))
            parent = np.asarray(buf.parent[:n], dtype=np.int64)
            cols["name"].append(np.asarray(buf.name[:n], dtype=np.int64))
            cols["start"].append(np.asarray(buf.start[:n], dtype=np.float64))
            cols["end"].append(np.asarray(buf.end[:n], dtype=np.float64))
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["op"].append(np.asarray(buf.op[:n], dtype=np.int64))
            cols["thread"].append(np.full(n, thread_no, dtype=np.int64))
            offset += n
        joined = {
            key: (
                np.concatenate(parts)
                if parts
                else np.zeros(0, dtype=np.float64 if key in ("start", "end") else np.int64)
            )
            for key, parts in cols.items()
        }
        spans = Spans(names=list(self.names), **joined)
        # A span still open at collect time has no end yet: zero length.
        spans.end = np.where(spans.end == 0.0, spans.start, spans.end)
        return spans


def _op_from_request(self, request, submitted):
    return request.request_id


def _op_from_pack_response(op, request_id, status, body):
    return request_id


#: Call sites that know which wire request they are working for.
_request_id_of = {
    ("ReproServer", "_execute"): _op_from_request,
    (None, "pack_response"): _op_from_pack_response,
}


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Self time per span: duration − union of clipped child intervals.

    ``parent[i]`` is the row of span ``i``'s parent (−1 for roots).
    Children may overlap one another, run on other threads, or outlive
    the parent; only the part of a child inside its parent's interval
    counts, and overlapping parts count once.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return duration
    p = parent[kids]
    lo = np.maximum(start[kids], start[p])
    hi = np.minimum(end[kids], end[p])
    inside = hi > lo
    kids, p, lo, hi = kids[inside], p[inside], lo[inside], hi[inside]
    if kids.size == 0:
        return duration
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order], hi[order]
    # Segmented running maximum of ``hi`` within each parent's group:
    # lift group g by g × width so an earlier group's maximum can never
    # reach into a later group, then take one global running maximum.
    group = np.cumsum(np.r_[0, p[1:] != p[:-1]])
    origin = lo.min()
    width = (hi.max() - origin) + 1.0
    lift = group * width - origin
    lo_l, hi_l = lo + lift, hi + lift
    reach = np.maximum.accumulate(hi_l)
    before = np.r_[-np.inf, reach[:-1]]
    covered = np.clip(hi_l - np.maximum(lo_l, before), 0.0, None)
    covered_by_parent = np.bincount(p, weights=covered, minlength=len(start))
    return np.clip(duration - covered_by_parent, 0.0, None)


def summarize(spans: Spans, mask: np.ndarray, selfs: np.ndarray) -> dict:
    """Per span name: ``{"calls", "total_s", "self_s"}`` over ``mask``.

    ``selfs`` must come from :func:`self_times` over *all* spans: a
    masked-out child still shades its parent.
    """
    name = spans.name[mask]
    n = len(spans.names)
    calls = np.bincount(name, minlength=n)
    total_s = np.bincount(name, weights=(spans.end - spans.start)[mask], minlength=n)
    self_s = np.bincount(name, weights=selfs[mask], minlength=n)
    return {
        spans.names[i]: {
            "calls": int(calls[i]),
            "total_s": float(total_s[i]),
            "self_s": float(self_s[i]),
        }
        for i in range(n)
        if calls[i]
    }


def spans_as_records(spans: Spans, rows: np.ndarray, selfs: np.ndarray) -> list[dict]:
    """The selected spans as JSON-ready dicts (for the trace file)."""
    return [
        {
            "id": int(i),
            "name": spans.names[spans.name[i]],
            "start": float(spans.start[i]),
            "end": float(spans.end[i]),
            "self_s": float(selfs[i]),
            "parent": int(spans.parent[i]),
            "op": int(spans.op[i]),
            "thread": int(spans.thread[i]),
        }
        for i in rows
    ]
