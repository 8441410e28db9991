"""Merge: fold the delta into a fresh main generation.

The building blocks — :func:`freeze_plan`, :func:`fold_generation`,
:func:`fixup_mvcc`, :func:`rebuild_tail_delta` — are what
``Database.merge`` composes into freeze → fold → cutover, so the
compaction runs concurrently with readers and writers;
:func:`replay_merge` repeats a logged one during LOG replay.

The online protocol:

**Freeze** (short critical section: ops-gate exclusive + commit lock)
captures a watermark ``W`` (the published delta row count), survivor
masks over old main and the frozen delta prefix ``[0, W)``, and copies
of the frozen rows' MVCC state. Writers keep appending *past* W into
the same delta — the "side delta" is simply the tail ``[W, ...)`` — so
no scan or rowref changes shape mid-merge.

**Fold** (no locks) builds the next main from immutable inputs: frozen
codes, append-only dictionaries, and the freeze-time masks. Each
column's used codes are found by counting (``bincount``), and its
surviving value domain by one stable sort that merges main's already
sorted run with the delta's values;
old→new code remaps are ``searchsorted`` translate tables applied in
bounded row chunks, with a ``merge_chunk`` persistence-boundary event
(crash point) and a GIL yield between chunks. A survivor is any row a
present or future snapshot could still see: live (``end == INF``),
invalidated past the freeze horizon (``end > H`` where H is the oldest
snapshot any active transaction holds), or still uncommitted
(``tid != NO_TID`` — carried as-is and resolved by cutover fix-up).

**Cutover** (short critical section again) re-reads the frozen rows'
begin/end and scatters any values that changed during the fold into
the new main (:func:`fixup_mvcc`), re-encodes the tail ``[W, ...)``
into a fresh delta (:func:`rebuild_tail_delta`), and publishes the new
(main, delta) pair with one atomic tuple store. On NVM the catalog's
content-pointer store makes the swap durable last, so a crash at any
chunk boundary recovers to the *old* generation intact; in LOG mode a
merge record (the masks + watermark) makes replay repeat the same
deterministic transform at the same log position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.obs import trace_phase
from repro.storage.backend import Backend
from repro.storage.delta import DeltaPartition
from repro.storage.dictionary import SortedDictionary, used_codes
from repro.storage.main import MainPartition
from repro.storage.mvcc import INFINITY_CID, NO_TID
from repro.storage.table import Table
from repro.storage.types import NULL_CODE

_INF = np.uint64(INFINITY_CID)

#: Rows per fold chunk. A ``merge_chunk`` persistence-boundary event
#: fires and the GIL yields between chunks, bounding how long an online
#: fold can starve foreground work.
MERGE_CHUNK_ROWS = 65536


@dataclass
class MergePlan:
    """Freeze-time snapshot of what one merge will compact.

    ``begin_cids``/``end_cids`` hold the folded rows' MVCC state *at
    freeze time* (main block first, then delta block); cutover compares
    them against the live vectors to find rows mutated during the fold.
    """

    watermark: int  # frozen delta row count (rows >= W are the tail)
    main_rows: int  # main row count at freeze
    main_mask: np.ndarray  # bool[main_rows] — survivors
    delta_mask: np.ndarray  # bool[watermark]
    main_idx: np.ndarray  # int64 positions of main survivors
    delta_idx: np.ndarray  # int64 positions of delta survivors
    begin_cids: np.ndarray  # u64[n_survivors] at freeze
    end_cids: np.ndarray  # u64[n_survivors] at freeze


def survivor_mask(
    begin: np.ndarray,
    end: np.ndarray,
    tid: np.ndarray,
    horizon: Optional[int] = None,
    carry_uncommitted: bool = False,
) -> np.ndarray:
    """Rows any present-or-future snapshot could still see.

    * live rows (``end == INF``) always survive;
    * with a ``horizon`` H (the oldest snapshot an active transaction
      holds), rows invalidated *after* H survive with their end set —
      an old reader may still need them. Rows with ``end <= H`` are
      invisible to every snapshot the engine can still produce (any
      later transaction's snapshot is >= H) and are dropped;
    * committed rows (``begin != INF``) survive; with
      ``carry_uncommitted`` rows still locked by an in-flight insert
      (``begin == INF, tid != NO_TID``) are carried too — the cutover
      fix-up resolves them to committed or garbage.
    """
    keep = end == _INF
    if horizon is not None:
        keep = keep | (end > np.uint64(horizon))
    committed = begin != _INF
    if carry_uncommitted:
        committed = committed | (tid != np.uint64(NO_TID))
    return keep & committed


def freeze_plan(
    table: Table,
    horizon: Optional[int] = None,
    carry_uncommitted: bool = False,
) -> MergePlan:
    """Capture the merge-begin watermark and survivor masks.

    For the online merge the caller must hold the table's ops gate
    exclusively *and* the transaction manager's commit lock: the masks
    must be atomic with respect to commits (a delete committing during
    the mask computation would get an end cid above the horizon and
    must not be dropped). The quiesced path calls it bare.
    """
    main, delta = table.content
    w = delta.row_count
    m = main.row_count
    with trace_phase("survivor_scan"):
        m_begin, m_end, m_tid = main.mvcc.state_snapshot(m)
        d_begin, d_end, d_tid = delta.mvcc.state_snapshot(w)
        main_mask = survivor_mask(
            m_begin, m_end, m_tid, horizon, carry_uncommitted
        )
        delta_mask = survivor_mask(
            d_begin, d_end, d_tid, horizon, carry_uncommitted
        )
        main_idx = np.nonzero(main_mask)[0]
        delta_idx = np.nonzero(delta_mask)[0]
        begin_cids = np.concatenate([m_begin[main_idx], d_begin[delta_idx]])
        end_cids = np.concatenate([m_end[main_idx], d_end[delta_idx]])
    return MergePlan(
        watermark=w,
        main_rows=m,
        main_mask=main_mask,
        delta_mask=delta_mask,
        main_idx=main_idx,
        delta_idx=delta_idx,
        begin_cids=begin_cids,
        end_cids=end_cids,
    )


def plan_from_masks(
    table: Table,
    watermark: int,
    main_mask: np.ndarray,
    delta_mask: np.ndarray,
) -> MergePlan:
    """Rebuild a freeze plan from a logged merge record (LOG replay).

    At replay the current begin/end vectors already hold their cutover
    values (every transaction with operations on the table committed or
    aborted before the merge record — cutover guarantees it — and
    replay applied the committed groups first), so the plan's captured
    state *is* the final state and no fix-up pass is needed.
    """
    main, delta = table.content
    if main.row_count != main_mask.size or watermark > delta.row_count:
        raise ValueError(
            f"merge record shape mismatch: main {main_mask.size} vs "
            f"{main.row_count}, watermark {watermark} vs delta "
            f"{delta.row_count}"
        )
    m_begin, m_end, _ = main.mvcc.state_snapshot(main.row_count)
    d_begin, d_end, _ = delta.mvcc.state_snapshot(watermark)
    main_idx = np.nonzero(main_mask)[0]
    delta_idx = np.nonzero(delta_mask)[0]
    return MergePlan(
        watermark=watermark,
        main_rows=main.row_count,
        main_mask=main_mask,
        delta_mask=delta_mask,
        main_idx=main_idx,
        delta_idx=delta_idx,
        begin_cids=np.concatenate([m_begin[main_idx], d_begin[delta_idx]]),
        end_cids=np.concatenate([m_end[main_idx], d_end[delta_idx]]),
    )


def _translate_table(
    used: np.ndarray,
    used_values: np.ndarray,
    domain: np.ndarray,
    old_size: int,
    new_null: int,
) -> np.ndarray:
    """Old-code → new-code remap array via one ``searchsorted``.

    Codes never referenced by a survivor map to the new NULL code; they
    can only be hit by NULL slots (handled by the caller's scatter) or
    never at all.
    """
    mapping = np.full(old_size + 1, new_null, dtype=np.uint32)
    if used.size:
        mapping[used] = np.searchsorted(domain, used_values).astype(
            np.uint32
        )
    return mapping


def fold_generation(
    table: Table,
    plan: MergePlan,
    backend: Backend,
    on_chunk: Optional[Callable[[], None]] = None,
) -> MainPartition:
    """Fold old main + frozen delta survivors into a new main partition.

    Entirely lock-free: every input is immutable once the plan exists —
    main codes, the delta code prefix ``[0, W)``, append-only
    dictionaries, and the plan's masks and MVCC copies. The remap runs
    in ``MERGE_CHUNK_ROWS`` bounded chunks; ``on_chunk`` fires between chunks
    (the online merge emits a ``merge_chunk`` crash point and yields
    the GIL there). Until cutover publishes, nothing references the
    result — a crash anywhere in here recovers to the old generation.
    """
    main, delta = table.content
    schema = table.schema
    chunk = MERGE_CHUNK_ROWS
    n_main = plan.main_idx.size
    n_delta = plan.delta_idx.size
    new_dicts: list[SortedDictionary] = []
    new_codes: list[np.ndarray] = []
    with trace_phase("merge_columns", columns=len(schema)):
        for ci, col in enumerate(schema):
            main_col = main.columns[ci]
            src_main = main_col.codes()[plan.main_idx]
            src_delta = delta.column_codes(ci)[: plan.watermark][
                plan.delta_idx
            ]

            # Surviving value domain: the used codes of each source by
            # counting, one decode per used code, and one merge of main's
            # sorted run with the delta's values.
            used_main = used_codes(src_main, len(main_col.dictionary))
            used_delta = used_codes(src_delta, len(delta.dictionaries[ci]))
            vals_main = main_col.dictionary.decode_array(used_main)
            vals_delta = delta.dictionaries[ci].decode_array(used_delta)
            domain = _sorted_domain(vals_main, vals_delta)
            new_dict = SortedDictionary.build(col.dtype, backend, domain)
            new_null = len(new_dict)

            main_map = _translate_table(
                used_main,
                vals_main,
                domain,
                len(main_col.dictionary),
                new_null,
            )
            delta_map = _translate_table(
                used_delta,
                vals_delta,
                domain,
                len(delta.dictionaries[ci]),
                new_null,
            )

            merged = np.empty(n_main + n_delta, dtype=np.uint32)
            for lo in range(0, n_main, chunk):
                hi = min(lo + chunk, n_main)
                merged[lo:hi] = main_map[src_main[lo:hi]]
                _chunk_boundary(on_chunk)
            for lo in range(0, n_delta, chunk):
                hi = min(lo + chunk, n_delta)
                part = src_delta[lo:hi]
                out = np.full(hi - lo, new_null, dtype=np.uint32)
                non_null = part != np.uint32(NULL_CODE)
                if non_null.any():
                    out[non_null] = delta_map[part[non_null]]
                merged[n_main + lo : n_main + hi] = out
                _chunk_boundary(on_chunk)
            new_dicts.append(new_dict)
            new_codes.append(merged)

    with trace_phase("build_generation"):
        new_main = MainPartition.build(
            schema,
            backend,
            new_dicts,
            new_codes,
            plan.begin_cids,
            plan.end_cids,
        )
    return new_main


def _chunk_boundary(on_chunk: Optional[Callable[[], None]]) -> None:
    if on_chunk is not None:
        on_chunk()


def fixup_mvcc(
    new_main: MainPartition,
    plan: MergePlan,
    main_mvcc,
    delta_mvcc,
) -> int:
    """Re-map MVCC metadata mutated while the fold ran.

    Runs inside the cutover critical section (ops gate exclusive +
    commit lock): compares each folded row's live begin/end against the
    freeze-time copy and scatters the changed values into the new main.
    Deletes/updates that landed on frozen rows during the merge get
    their end cids; inserts that committed get their begin cids;
    inserts that aborted stay ``begin == INF`` (invisible garbage the
    next merge drops). Returns the number of patched cells.
    """
    patched = 0
    n_main = plan.main_idx.size
    cur_main_b = main_mvcc.begin_array()
    cur_main_e = main_mvcc.end_array()
    cur_delta_b = delta_mvcc.begin_array()
    cur_delta_e = delta_mvcc.end_array()
    blocks = (
        (plan.main_idx, cur_main_b, cur_main_e, 0),
        (plan.delta_idx, cur_delta_b, cur_delta_e, n_main),
    )
    for idx, cur_b_all, cur_e_all, base in blocks:
        if idx.size == 0:
            continue
        cur_b = np.asarray(cur_b_all)[idx]
        cur_e = np.asarray(cur_e_all)[idx]
        frozen_b = plan.begin_cids[base : base + idx.size]
        frozen_e = plan.end_cids[base : base + idx.size]
        for local in np.nonzero(cur_b != frozen_b)[0]:
            new_main.mvcc.set_begin(base + int(local), int(cur_b[local]))
            patched += 1
        for local in np.nonzero(cur_e != frozen_e)[0]:
            new_main.mvcc.set_end(base + int(local), int(cur_e[local]))
            patched += 1
    return patched


def rebuild_tail_delta(
    table: Table, watermark: int, backend: Backend
) -> DeltaPartition:
    """Re-encode delta rows past the freeze watermark into a fresh delta.

    Runs inside the cutover critical section — no concurrent appends,
    and no transaction holds operations on the table, so every tail row
    is resolved (``tid == NO_TID``). Row order and values are preserved
    and the batch re-encode (`codes_for_insert`: first-occurrence codes,
    one for all the tail's NaNs) is deterministic, so LOG replay rebuilds
    the identical tail from the merge record. Tail refs shift down by
    ``watermark``; no live undo record references them (see above), so
    the shift is invisible.
    """
    delta = table.delta
    cur = delta.row_count
    new_delta = DeltaPartition.create(table.schema, backend)
    n = cur - watermark
    if n <= 0:
        return new_delta
    tid_tail = delta.mvcc.tid_array()[watermark:cur]
    if (tid_tail != np.uint64(NO_TID)).any():
        raise RuntimeError(
            "merge cutover with transaction-locked tail rows"
        )
    columns = []
    for ci in range(len(table.schema)):
        codes = delta.column_codes(ci)[watermark:cur]
        values = np.empty(n, dtype=object)  # object slots default to None
        non_null = codes != np.uint32(NULL_CODE)
        if non_null.any():
            values[non_null] = np.asarray(
                delta.dictionaries[ci].decode_array(codes[non_null])
            )
        columns.append(values.tolist())
    encoded = new_delta.encode_columns(columns)
    begin_tail = delta.mvcc.begin_array()[watermark:cur]
    end_tail = delta.mvcc.end_array()[watermark:cur]
    new_delta.load_encoded(encoded, begin_tail, end_tail)
    return new_delta


def replay_merge(
    table: Table,
    backend: Backend,
    watermark: int,
    main_mask: np.ndarray,
    delta_mask: np.ndarray,
) -> None:
    """Repeat a logged merge transform at its log position (LOG replay)."""
    # Aborted rows just below the watermark were never logged.
    table.delta.pad_to(watermark)
    plan = plan_from_masks(table, watermark, main_mask, delta_mask)
    new_main = fold_generation(table, plan, backend)
    new_delta = rebuild_tail_delta(table, watermark, backend)
    table.publish_content(new_main, new_delta)
    table.generation += 1


def _sorted_domain(vals_main: np.ndarray, vals_delta: np.ndarray) -> np.ndarray:
    """Sorted distinct union of main's values (sorted and distinct
    already) and the delta's (neither), as numpy's unique gives it: NaN
    last and once, and ``-0.0``/``0.0`` one value.

    One stable sort of the concatenation (a timsort, which takes main's
    run as it is and merges the delta's into it) and an adjacent-distinct
    pass that drops repeats.
    """
    merged = np.sort(np.concatenate([vals_main, vals_delta]), kind="stable")
    if merged.size == 0:
        return merged
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    if merged.dtype.kind == "f" and np.isnan(merged[-1]):
        # NaN sorts last and equals nothing: keep its first copy only.
        first_nan = int(np.searchsorted(merged, merged[-1]))
        keep[first_nan + 1 :] = False
    return merged[keep]
