"""Checkpoints: chained binary snapshots of the tables.

A checkpoint bounds log replay: restart loads the snapshot and replays
only the log tail past the recorded LSN. The table codec preserves the
*physical* row placement (including uncommitted garbage rows), because
rowrefs in post-checkpoint log records address that placement. Writers
may commit while tables are snapshotted: a snapshot reads commit ids
past the link's ``last_cid`` as in flight, and replay past its LSN,
which places rows and ends by position, stamps them again.

The chain (:class:`CheckpointChain`, a ``checkpoints/`` directory) is
the only on-disk snapshot format, so a checkpoint rewrites only the
tables that changed:

* ``seg-%08d.ckpt`` — a *segment* holding the snapshots of the tables
  dirty at one checkpoint (``_write_table`` bodies in one CRC frame);
* ``manifest-%08d.ckpt`` — the chain head: last_cid/lsn/next_table_id
  plus ``(table_id, segment_seq)`` and the declared index columns for
  every live table. The manifest lists exactly the current tables — a
  table absent from it is dropped, no tombstones needed — so restore
  reads the newest manifest and composes the referenced segments. It is
  rewritten whole at every link, so a declaration never rides on a
  carried segment.

Publish order makes the chain crash-atomic: segments are written and
fsync'd first (an unreferenced segment is harmless garbage), then the
manifest is fsync'd and renamed into place — the rename is the commit
point. Old manifests and unreferenced segments are garbage-collected
only after a successful publish, keeping one previous manifest as a
fallback against a torn chain head. Replication ships a chain by
*pinning* it (:meth:`CheckpointChain.pin`): published files are
immutable, so a hard link is a copy GC cannot pull away.
"""

from __future__ import annotations

import io
import os
import shutil
import struct
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro import frame
from repro.frame import FrameDecoder, FrameError
from repro.nvm.latency import persistence_event
from repro.storage.backend import Backend
from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import SortedDictionary, UnsortedDictionary
from repro.storage.main import MainColumn, MainPartition
from repro.storage.mvcc import INFINITY_CID, MvccColumns, NO_TID
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.wal.records import _decode_column, _encode_column

@dataclass
class MainColumnSnapshot:
    dict_values: list
    bits: int
    words: np.ndarray  # uint64, packed codes


@dataclass
class DeltaColumnSnapshot:
    dict_values: list
    codes: np.ndarray  # uint32


@dataclass
class TableSnapshot:
    table_id: int
    name: str
    schema_blob: bytes
    main_row_count: int
    main_columns: list[MainColumnSnapshot]
    main_begin: np.ndarray
    main_end: np.ndarray
    delta_row_count: int
    delta_columns: list[DeltaColumnSnapshot]
    delta_begin: np.ndarray
    delta_end: np.ndarray

    @property
    def schema(self) -> Schema:
        return Schema.from_bytes(self.schema_blob)


# ----------------------------------------------------------------------
# Snapshot capture / restore
# ----------------------------------------------------------------------


def snapshot_table(table: Table, last_cid: Optional[int] = None) -> TableSnapshot:
    """Capture one table's full physical state.

    Writers may run meanwhile. The delta's row count is read once,
    first, and every delta array is cut at it, so rows appended during
    the capture are left out whole. With ``last_cid``, a commit id past
    it reads as in flight (∞): the log past the link's LSN stamps it
    again, and a commit the log lost never surfaces.
    """
    main, delta = table.content
    rows = delta.row_count

    def as_of(cids: np.ndarray) -> np.ndarray:
        if last_cid is None:
            return cids
        return np.where(cids > last_cid, np.uint64(INFINITY_CID), cids)

    return TableSnapshot(
        table_id=table.table_id,
        name=table.name,
        schema_blob=table.schema.to_bytes(),
        main_row_count=main.row_count,
        main_columns=[
            MainColumnSnapshot(
                dict_values=col.dictionary.values_list(),
                bits=col.bits,
                words=col.words.to_numpy(),
            )
            for col in main.columns
        ],
        main_begin=as_of(main.mvcc.begin_array()),
        main_end=as_of(main.mvcc.end_array()),
        delta_row_count=rows,
        delta_columns=[
            DeltaColumnSnapshot(
                dict_values=delta.dictionaries[ci].values_list(),
                codes=delta.column_codes(ci)[:rows],
            )
            for ci in range(len(table.schema))
        ],
        delta_begin=as_of(delta.mvcc.begin_array()[:rows]),
        delta_end=as_of(delta.mvcc.end_array()[:rows]),
    )


def restore_table(snapshot: TableSnapshot, backend: Backend) -> Table:
    """Rebuild a table (on DRAM) from its snapshot."""
    schema = snapshot.schema
    main_columns = []
    for col_def, col_snap in zip(schema, snapshot.main_columns):
        dictionary = SortedDictionary.build(
            col_def.dtype, backend, col_snap.dict_values
        )
        words_vec = backend.make_vector(np.uint64)
        if col_snap.words.size:
            words_vec.extend(col_snap.words)
        main_columns.append(
            MainColumn(dictionary, words_vec, col_snap.bits, snapshot.main_row_count)
        )
    main_mvcc = MvccColumns.create(backend)
    if snapshot.main_row_count:
        main_mvcc.extend_committed(snapshot.main_begin, snapshot.main_end)
    main = MainPartition(schema, main_columns, main_mvcc, snapshot.main_row_count)

    dictionaries = [
        UnsortedDictionary.from_values(col_def.dtype, backend, col_snap.dict_values)
        for col_def, col_snap in zip(schema, snapshot.delta_columns)
    ]
    code_vectors = []
    for col_snap in snapshot.delta_columns:
        vec = backend.make_vector(np.uint32)
        if col_snap.codes.size:
            vec.extend(col_snap.codes)
        code_vectors.append(vec)
    delta_mvcc = MvccColumns.create(backend)
    if snapshot.delta_row_count:
        delta_mvcc.end.extend(snapshot.delta_end)
        delta_mvcc.tid.extend(
            np.full(snapshot.delta_row_count, NO_TID, dtype=np.uint64)
        )
        delta_mvcc.begin.extend(snapshot.delta_begin)
    delta = DeltaPartition(schema, backend, dictionaries, code_vectors, delta_mvcc)
    return Table(snapshot.table_id, snapshot.name, schema, backend, main, delta)


# ----------------------------------------------------------------------
# Binary encoding
# ----------------------------------------------------------------------


def _write_array(out: io.BytesIO, arr: np.ndarray) -> None:
    out.write(struct.pack("<Q", arr.size))
    out.write(np.ascontiguousarray(arr).tobytes())


def _read_array(buf: bytes, pos: int, dtype) -> tuple[np.ndarray, int]:
    (count,) = struct.unpack_from("<Q", buf, pos)
    pos += 8
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).copy()
    return arr, pos + arr.nbytes


def _write_dict(out: io.BytesIO, values: list) -> None:
    """A dictionary's values: count, then the log's column codec."""
    out.write(struct.pack("<Q", len(values)))
    out.write(_encode_column(values, len(values)))


def _read_dict(buf: bytes, pos: int) -> tuple[tuple, int]:
    (count,) = struct.unpack_from("<Q", buf, pos)
    return _decode_column(buf, pos + 8, count)


def _write_table(out: io.BytesIO, snap: TableSnapshot) -> None:
    name_raw = snap.name.encode("utf-8")
    out.write(struct.pack("<QH", snap.table_id, len(name_raw)))
    out.write(name_raw)
    out.write(struct.pack("<I", len(snap.schema_blob)))
    out.write(snap.schema_blob)
    out.write(struct.pack("<Q", snap.main_row_count))
    for col in snap.main_columns:
        out.write(struct.pack("<Q", col.bits))
        _write_array(out, col.words)
        _write_dict(out, col.dict_values)
    _write_array(out, snap.main_begin)
    _write_array(out, snap.main_end)
    out.write(struct.pack("<Q", snap.delta_row_count))
    for dcol in snap.delta_columns:
        _write_array(out, dcol.codes)
        _write_dict(out, dcol.dict_values)
    _write_array(out, snap.delta_begin)
    _write_array(out, snap.delta_end)


def _read_table(buf: bytes, pos: int) -> tuple[TableSnapshot, int]:
    table_id, name_len = struct.unpack_from("<QH", buf, pos)
    pos += 10
    name = buf[pos : pos + name_len].decode("utf-8")
    pos += name_len
    (blob_len,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    schema_blob = buf[pos : pos + blob_len]
    pos += blob_len
    schema = Schema.from_bytes(schema_blob)
    (main_rows,) = struct.unpack_from("<Q", buf, pos)
    pos += 8
    main_cols = []
    for _ in schema:
        (bits,) = struct.unpack_from("<Q", buf, pos)
        pos += 8
        words, pos = _read_array(buf, pos, np.uint64)
        values, pos = _read_dict(buf, pos)
        main_cols.append(MainColumnSnapshot(values, bits, words))
    main_begin, pos = _read_array(buf, pos, np.uint64)
    main_end, pos = _read_array(buf, pos, np.uint64)
    (delta_rows,) = struct.unpack_from("<Q", buf, pos)
    pos += 8
    delta_cols = []
    for _ in schema:
        codes, pos = _read_array(buf, pos, np.uint32)
        values, pos = _read_dict(buf, pos)
        delta_cols.append(DeltaColumnSnapshot(values, codes))
    delta_begin, pos = _read_array(buf, pos, np.uint64)
    delta_end, pos = _read_array(buf, pos, np.uint64)
    snap = TableSnapshot(
        table_id, name, schema_blob,
        main_rows, main_cols, main_begin, main_end,
        delta_rows, delta_cols, delta_begin, delta_end,
    )
    return snap, pos


# ----------------------------------------------------------------------
# The checkpoint chain
# ----------------------------------------------------------------------

#: A segment or manifest file is one :mod:`repro.frame` frame whose
#: payload opens with the magic and the fixed fields, so the CRC covers
#: every byte a reader uses. The cap is the frame's u32 length bound.
CHECKPOINT_MAX_BYTES = 2**32 - 1

_SEG_MAGIC = 0x48595243_4B534547  # "HYRCKSEG"
_MAN_MAGIC = 0x48595243_4B4D414E  # "HYRCKMAN"

_SEG_HEADER = struct.Struct("<QQ")  # magic | table_count
_MAN_HEADER = struct.Struct("<QQQQQ")  # magic | cid | lsn | next_id | entries
_MAN_ENTRY = struct.Struct("<QQ")  # table_id | segment_seq

CHAIN_DIRNAME = "checkpoints"


def chain_dir(db_path: str) -> str:
    """Chain directory of the LOG database (or follower) at ``db_path``."""
    return os.path.join(db_path, CHAIN_DIRNAME)


def _seg_name(seq: int) -> str:
    return f"seg-{seq:08d}.ckpt"


def _manifest_name(seq: int) -> str:
    return f"manifest-{seq:08d}.ckpt"


def _parse_seq(filename: str, prefix: str) -> Optional[int]:
    if not (filename.startswith(prefix) and filename.endswith(".ckpt")):
        return None
    digits = filename[len(prefix) : -len(".ckpt")]
    return int(digits) if digits.isdigit() else None


def _publish(path: str, payload: bytes, boundary: str) -> int:
    """Write ``payload`` to ``path`` as one frame, crash-atomically: a
    tmp file, the ``boundary`` persistence event, fsync, rename. Returns
    the bytes written."""
    data = frame.encode(payload, CHECKPOINT_MAX_BYTES)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        persistence_event(boundary)
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return len(data)


def _load(path: str, magic: int, kind: str, parse: Callable[[bytes], tuple]):
    """Read the one-frame file at ``path`` and ``parse(payload) ->
    (result, end)`` it. A short frame, a CRC mismatch, a foreign magic,
    bytes ``parse`` cannot read and bytes past ``end`` or past the frame
    all raise :class:`~repro.frame.FrameError`."""
    decoder = FrameDecoder(CHECKPOINT_MAX_BYTES)
    with open(path, "rb") as f:
        decoder.feed(f.read())
    with closing(decoder.frames()) as frames:
        payload = next(frames, None)
    if payload is None:
        raise FrameError(f"{path} ends inside its frame", frame.SHORT, 0)
    if payload[:8] != struct.pack("<Q", magic):
        raise FrameError(f"{path} is not a checkpoint {kind}", frame.PAYLOAD, 0)
    try:
        result, end = parse(payload)
    except frame.PARSE_ERRORS as exc:
        raise FrameError(f"{path} does not parse: {exc}", frame.PAYLOAD, 0) from None
    if end != len(payload) or decoder.pending_bytes:
        at = frame.HEADER_BYTES + end
        raise FrameError(f"{path} has trailing bytes", frame.PAYLOAD, at)
    return result


def write_segment(path: str, snapshots: list[TableSnapshot]) -> int:
    """Write one segment atomically; returns bytes written.

    A segment becomes load-bearing only once a manifest references it,
    but it still publishes through the ``checkpoint_fsync`` boundary —
    a crash during the fsync leaves at most an orphan ``.tmp``/segment
    file the next GC removes.
    """
    body = io.BytesIO()
    body.write(_SEG_HEADER.pack(_SEG_MAGIC, len(snapshots)))
    for snap in snapshots:
        _write_table(body, snap)
    return _publish(path, body.getvalue(), "checkpoint_fsync")


def _parse_segment(payload: bytes) -> tuple[dict[int, TableSnapshot], int]:
    _, table_count = _SEG_HEADER.unpack_from(payload, 0)
    snapshots: dict[int, TableSnapshot] = {}
    pos = _SEG_HEADER.size
    for _ in range(table_count):
        snap, pos = _read_table(payload, pos)
        snapshots[snap.table_id] = snap
    return snapshots, pos


def read_segment(path: str) -> dict[int, TableSnapshot]:
    """Load and validate one segment: ``{table_id: snapshot}``."""
    return _load(path, _SEG_MAGIC, "segment", _parse_segment)


def write_manifest(
    path: str,
    last_cid: int,
    lsn: int,
    next_table_id: int,
    entries: dict[int, int],
    indexes: Mapping[int, Sequence[str]] = {},
) -> int:
    """Atomically publish a chain manifest; returns bytes written.

    The ``(table_id, segment_seq)`` entries are followed, entry by
    entry, by the table's declared index columns (``indexes``), so the
    older layout, entries only, ends where these are read: it does not
    load (a manifest of no tables reads the same in both).

    The rename below is the chain's commit point: the
    ``manifest_publish`` boundary fires before the fsync, so a crash
    swept there leaves the previous manifest current and every segment
    written for this checkpoint as unreferenced (GC-able) garbage.
    """
    ordered = sorted(entries.items())
    body = io.BytesIO()
    body.write(_MAN_HEADER.pack(_MAN_MAGIC, last_cid, lsn, next_table_id, len(ordered)))
    body.writelines(_MAN_ENTRY.pack(*entry) for entry in ordered)
    for table_id, _ in ordered:
        _write_dict(body, list(indexes.get(table_id, ())))
    return _publish(path, body.getvalue(), "manifest_publish")


def _parse_manifest(payload: bytes) -> tuple[tuple, int]:
    _, last_cid, lsn, next_table_id, count = _MAN_HEADER.unpack_from(payload, 0)
    pos = _MAN_HEADER.size + count * _MAN_ENTRY.size
    entries = dict(_MAN_ENTRY.iter_unpack(payload[_MAN_HEADER.size : pos]))
    indexes = {}
    for table_id in entries:
        columns, pos = _read_dict(payload, pos)
        indexes[table_id] = list(columns)
    return (last_cid, lsn, next_table_id, entries, indexes), pos


def read_manifest(path: str) -> tuple:
    """Load and validate a manifest: (last_cid, lsn, next_table_id,
    {table_id: segment_seq}, {table_id: declared index columns})."""
    return _load(path, _MAN_MAGIC, "manifest", _parse_manifest)


@dataclass
class ChainState:
    """The decoded head of a checkpoint chain (manifest only)."""

    seq: int
    last_cid: int
    lsn: int
    next_table_id: int
    #: table_id -> sequence of the segment holding its snapshot.
    mapping: dict[int, int] = field(default_factory=dict)
    #: table_id -> its declared index columns.
    indexes: dict[int, list[str]] = field(default_factory=dict)


class CheckpointChain:
    """One checkpoint chain directory."""

    def __init__(self, directory: str):
        self.directory = directory

    # -- discovery -----------------------------------------------------

    def _listing(self) -> list[str]:
        try:
            return os.listdir(self.directory)
        except FileNotFoundError:
            return []

    def manifest_seqs(self) -> list[int]:
        """Manifest sequence numbers on disk, newest first."""
        seqs = [
            seq
            for name in self._listing()
            if (seq := _parse_seq(name, "manifest-")) is not None
        ]
        return sorted(seqs, reverse=True)

    def next_seq(self) -> int:
        """One past every sequence number ever used in this directory.

        Scans segments *and* manifests so an orphan segment from a
        crashed publish can never collide with a later checkpoint.
        """
        highest = -1
        for name in self._listing():
            for prefix in ("seg-", "manifest-"):
                seq = _parse_seq(name, prefix)
                if seq is not None and seq > highest:
                    highest = seq
        return highest + 1

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _manifests(self) -> Iterator[ChainState]:
        """Readable manifests, newest first.

        A torn or corrupt manifest is skipped — the publish protocol
        guarantees a successfully renamed older manifest still
        references only live segments.
        """
        for seq in self.manifest_seqs():
            try:
                fields = read_manifest(self._path(_manifest_name(seq)))
            except (OSError, FrameError):
                continue
            yield ChainState(seq, *fields)

    def state(self) -> Optional[ChainState]:
        """Decode the newest readable manifest (no segment I/O)."""
        return next(self._manifests(), None)

    # -- restore -------------------------------------------------------

    def load(self) -> Optional[tuple[ChainState, list[TableSnapshot], int]]:
        """Compose the newest complete chain link.

        Returns ``(state, table snapshots, bytes_read)`` or ``None``
        when no readable manifest exists. A manifest whose segments turn
        out unreadable is skipped the same way a torn manifest is.
        """
        for state in self._manifests():
            try:
                bytes_read = os.path.getsize(
                    self._path(_manifest_name(state.seq))
                )
                by_segment: dict[int, list[int]] = {}
                for table_id, seg_seq in state.mapping.items():
                    by_segment.setdefault(seg_seq, []).append(table_id)
                snapshots: list[TableSnapshot] = []
                for seg_seq in sorted(by_segment):
                    seg_path = self._path(_seg_name(seg_seq))
                    segment = read_segment(seg_path)
                    bytes_read += os.path.getsize(seg_path)
                    snapshots += [segment[t] for t in by_segment[seg_seq]]
            except (OSError, FrameError, KeyError):
                continue
            return state, snapshots, bytes_read
        return None

    # -- ship ----------------------------------------------------------

    def pin(self, dest: str) -> Optional[ChainState]:
        """Install the newest readable link as a chain of its own.

        ``dest`` is replaced by a directory holding the manifest and
        exactly the segments it references — hard links where the
        filesystem allows (published files are never modified, so a
        link is a free copy that this chain's GC cannot take away), byte
        copies otherwise. The link is assembled in a sibling temp
        directory and swapped in whole, so ``dest`` is never left
        half-populated. Returns the pinned manifest's state, or ``None``
        (``dest`` untouched) when there is nothing to pin.
        """
        if os.path.realpath(dest) == os.path.realpath(self.directory):
            raise ValueError(f"cannot pin chain {self.directory} onto itself")
        staging = dest.rstrip(os.sep) + ".tmp"
        for state in self._manifests():
            shutil.rmtree(staging, ignore_errors=True)
            os.makedirs(staging)
            names = [_manifest_name(state.seq)]
            names += [_seg_name(seq) for seq in set(state.mapping.values())]
            try:
                for name in names:
                    src, dst = self._path(name), os.path.join(staging, name)
                    try:
                        os.link(src, dst)
                    except OSError:
                        shutil.copyfile(src, dst)
            except OSError:
                continue  # collected under us; try the next manifest
            shutil.rmtree(dest, ignore_errors=True)
            os.rename(staging, dest)
            return state
        shutil.rmtree(staging, ignore_errors=True)
        return None

    # -- publish -------------------------------------------------------

    def publish(
        self,
        dirty_snapshots: list[TableSnapshot],
        carry_mapping: dict[int, int],
        last_cid: int,
        lsn: int,
        next_table_id: int,
        indexes: Mapping[int, Sequence[str]] = {},
    ) -> tuple[ChainState, int]:
        """Write one incremental checkpoint; returns (new state, bytes).

        ``dirty_snapshots`` are the tables to (re)write; every other
        live table keeps its ``carry_mapping`` segment reference. With
        nothing dirty the publish is manifest-only — a cheap way to
        advance the chain's LSN. GC of superseded files runs only after
        the new manifest is durably in place.
        """
        os.makedirs(self.directory, exist_ok=True)
        seq = self.next_seq()
        bytes_written = 0
        mapping = dict(carry_mapping)
        if dirty_snapshots:
            bytes_written += write_segment(
                self._path(_seg_name(seq)), dirty_snapshots
            )
            for snap in dirty_snapshots:
                mapping[snap.table_id] = seq
        declared = {t: list(indexes.get(t, ())) for t in mapping}
        fields = (last_cid, lsn, next_table_id, mapping, declared)
        bytes_written += write_manifest(self._path(_manifest_name(seq)), *fields)
        self._collect_garbage(keep_manifests=2)
        return ChainState(seq, *fields), bytes_written

    def _collect_garbage(self, keep_manifests: int) -> None:
        """Drop superseded manifests and unreferenced segments.

        Keeps the newest ``keep_manifests`` manifests (the current one
        plus fallbacks against a torn head) and every segment any kept
        manifest references. Removal failures are ignored — garbage is
        retried at the next publish.
        """
        seqs = self.manifest_seqs()
        kept, dropped = seqs[:keep_manifests], seqs[keep_manifests:]
        referenced = {
            seg
            for state in self._manifests()
            if state.seq in kept
            for seg in state.mapping.values()
        }
        doomed = [_manifest_name(seq) for seq in dropped]
        doomed += [
            name
            for name in self._listing()
            if (seg := _parse_seq(name, "seg-")) is not None
            and seg not in referenced
        ]
        for name in doomed:
            try:
                os.remove(self._path(name))
            except OSError:
                pass
