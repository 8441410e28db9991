"""Per-layer metrics: what a traced run reports and how it is derived.

Three sources, all read from outside the engine:

* **spans** recorded by :mod:`perf.trace` — every ``*_s`` metric is the
  summed *self time* of the named spans over the timed operations;
* **count deltas** of the public ``Database.stats()`` /
  ``metrics_snapshot()["registry"]`` (or wire ``STATS`` / ``METRICS``)
  taken right before and right after the timed operations — the
  registry is process-wide, so only deltas mean anything;
* **recovery reports** (``last_recovery`` / wire ``RECOVERY``) and the
  first-answer probe's own clock, one sample per restart cycle, reported
  as the median over cycles.

A layer a workload does not exercise reports an explicit 0.
"""

from __future__ import annotations

import re

from perf.common import median

#: name -> (unit, better). The single list BENCHMARK.json's
#: ``per_layer`` is generated from (``perf/tests`` keeps them equal).
PER_LAYER: dict[str, tuple[str, str]] = {
    # -- server ---------------------------------------------------------
    "server.requests": ("count", "lower"),
    "server.rejected": ("count", "lower"),
    "server.decode_s": ("s", "lower"),
    "server.admit_s": ("s", "lower"),
    "server.queue_wait_s": ("s", "lower"),
    "server.exec_s": ("s", "lower"),
    "server.encode_s": ("s", "lower"),
    "server.outside_engine_ms": ("ms", "lower"),
    # -- core -----------------------------------------------------------
    "core.insert_s": ("s", "lower"),
    "core.insert_many_s": ("s", "lower"),
    "core.query_s": ("s", "lower"),
    "core.begin_s": ("s", "lower"),
    "core.txn_api_s": ("s", "lower"),
    "core.insert_p50_ms": ("ms", "lower"),
    "core.update_p50_ms": ("ms", "lower"),
    "core.delete_p50_ms": ("ms", "lower"),
    "core.point_read_p50_ms": ("ms", "lower"),
    "core.write_p99_ms": ("ms", "lower"),
    "core.read_p99_ms": ("ms", "lower"),
    "core.merge_count": ("count", "lower"),
    "core.merge_s": ("s", "lower"),
    "core.checkpoint_count": ("count", "lower"),
    "core.checkpoint_s": ("s", "lower"),
    "core.checkpoint_bytes": ("bytes", "lower"),
    # -- txn ------------------------------------------------------------
    "txn.commits": ("count", "lower"),
    "txn.aborts": ("count", "lower"),
    "txn.conflicts": ("count", "lower"),
    "txn.begin_s": ("s", "lower"),
    "txn.commit_s": ("s", "lower"),
    "txn.insert_s": ("s", "lower"),
    "txn.invalidate_s": ("s", "lower"),
    # -- storage --------------------------------------------------------
    "storage.encode_s": ("s", "lower"),
    "storage.append_s": ("s", "lower"),
    "storage.delta_rows_end": ("count", "lower"),
    "storage.main_rows_end": ("count", "lower"),
    "storage.dict_entries_end": ("count", "lower"),
    "storage.merge_freeze_s": ("s", "lower"),
    "storage.merge_fold_s": ("s", "lower"),
    "storage.merge_fixup_s": ("s", "lower"),
    "storage.merge_stall_max_ms": ("ms", "lower"),
    # -- index ----------------------------------------------------------
    "index.probes": ("count", "lower"),
    "index.probe_s": ("s", "lower"),
    "index.maintain_s": ("s", "lower"),
    "index.ensure_current_s": ("s", "lower"),
    # -- nvm ------------------------------------------------------------
    "nvm.flush_calls": ("count", "lower"),
    "nvm.drain_calls": ("count", "lower"),
    "nvm.lines_flushed": ("count", "lower"),
    "nvm.bytes_written": ("bytes", "lower"),
    "nvm.bytes_read": ("bytes", "lower"),
    "nvm.allocated_bytes": ("bytes", "lower"),
    "nvm.flush_s": ("s", "lower"),
    "nvm.flushes_per_commit": ("ratio", "lower"),
    "nvm.lines_per_user_byte": ("ratio", "lower"),
    # -- wal ------------------------------------------------------------
    "wal.records": ("count", "lower"),
    "wal.bytes": ("bytes", "lower"),
    "wal.fsyncs": ("count", "lower"),
    "wal.append_s": ("s", "lower"),
    "wal.fsync_wait_s": ("s", "lower"),
    "wal.fsync_s": ("s", "lower"),
    "wal.fsyncs_per_commit": ("ratio", "lower"),
    "wal.bytes_per_user_byte": ("ratio", "lower"),
    # -- recovery (median over restart cycles) ----------------------------
    "recovery.engine_s": ("s", "lower"),
    "recovery.pool_open_s": ("s", "lower"),
    "recovery.catalog_attach_s": ("s", "lower"),
    "recovery.txn_fixup_s": ("s", "lower"),
    "recovery.checkpoint_load_s": ("s", "lower"),
    "recovery.log_replay_s": ("s", "lower"),
    "recovery.index_rebuild_s": ("s", "lower"),
    "recovery.records_replayed": ("count", "lower"),
    "recovery.replay_records_per_s": ("1/s", "higher"),
    "recovery.inflight_rolled_back": ("count", "lower"),
    "recovery.first_query_s": ("s", "lower"),
    "recovery.first_commit_s": ("s", "lower"),
    "recovery.process_start_s": ("s", "lower"),
    # -- query ----------------------------------------------------------
    "query.scan_s": ("s", "lower"),
    "query.aggregate_s": ("s", "lower"),
    "query.join_s": ("s", "lower"),
    "query.materialize_s": ("s", "lower"),
    "query.mvcc_cache_hits": ("count", "higher"),
    "query.mvcc_cache_misses": ("count", "lower"),
    # -- obs ------------------------------------------------------------
    "obs.boundary_events": ("count", "lower"),
    "obs.boundary_events_per_op": ("ratio", "lower"),
    "obs.trace_overhead_share": ("ratio", "lower"),
    "obs.covered_share": ("ratio", "higher"),
    "obs.host_speed": ("ratio", "higher"),
}

#: ``*_s`` metric -> span names whose self time it sums.
_SPAN_SECONDS = {
    "server.decode_s": ("server.decode",),
    "server.admit_s": ("server.admit",),
    "server.encode_s": ("server.encode",),
    "core.insert_s": ("core.insert",),
    "core.insert_many_s": ("core.insert_many",),
    "core.query_s": ("core.query",),
    "core.begin_s": ("core.begin",),
    "core.txn_api_s": ("core.txn_api",),
    "txn.begin_s": ("txn.begin",),
    "txn.commit_s": ("txn.commit",),
    "txn.insert_s": ("txn.insert",),
    "txn.invalidate_s": ("txn.invalidate",),
    "storage.encode_s": ("storage.encode",),
    "storage.append_s": ("storage.append",),
    "storage.merge_freeze_s": ("storage.merge_freeze",),
    "storage.merge_fold_s": ("storage.merge_fold",),
    "storage.merge_fixup_s": ("storage.merge_fixup",),
    "index.probe_s": ("index.probe",),
    "index.maintain_s": ("index.maintain",),
    "nvm.flush_s": ("nvm.flush",),
    "wal.append_s": ("wal.append",),
    "wal.fsync_wait_s": ("wal.fsync_wait",),
    "query.scan_s": ("query.scan",),
    "query.aggregate_s": ("query.aggregate",),
    "query.join_s": ("query.join",),
    "query.materialize_s": ("query.materialize",),
}

_LABELS = re.compile(r"\{.*\}$")


def flatten_counts(stats: dict, registry: dict) -> dict[str, float]:
    """One flat ``{key: number}`` view of ``stats()`` and the registry.

    Registry series are summed over their labels; a histogram becomes
    ``family.sum`` and ``family.count``.
    """
    out: dict[str, float] = {
        key: float(stats.get(key, 0)) for key in ("commits", "aborts", "conflicts")
    }
    for group in ("nvm", "wal"):
        for key, value in (stats.get(group) or {}).items():
            if isinstance(value, (int, float)):
                out[f"{group}.{key}"] = float(value)
    for series, value in registry.items():
        family = _LABELS.sub("", series)
        if isinstance(value, dict):
            out[family + ".sum"] = out.get(family + ".sum", 0.0) + value["sum"]
            out[family + ".count"] = out.get(family + ".count", 0.0) + value["count"]
        else:
            out[family] = out.get(family, 0.0) + float(value)
    return out


def table_ends(stats: dict) -> dict[str, float]:
    """End-of-run sizes summed over the engine's tables."""
    tables = (stats.get("tables") or {}).values()
    return {
        "delta_rows": float(sum(t["delta_rows"] for t in tables)),
        "main_rows": float(sum(t["main_rows"] for t in tables)),
        "dict_entries": float(
            sum(
                sum(t["dictionary_entries"]["main"])
                + sum(t["dictionary_entries"]["delta"])
                for t in tables
            )
        ),
    }


def delta(after: dict, before: dict) -> dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def recovery_sample(report: dict) -> dict[str, float]:
    """The fields of one ``RecoveryReport.as_dict()`` the metrics use."""
    phases = report.get("phases", {})
    # Parallel replay reports its two passes instead of ``log_replay``.
    replay = (
        phases.get("log_replay", 0.0)
        + phases.get("log_partition", 0.0)
        + phases.get("parallel_apply", 0.0)
    )
    return {
        "engine_s": report.get("total_seconds", 0.0),
        "pool_open_s": phases.get("pool_open", 0.0),
        "catalog_attach_s": phases.get("catalog_attach", 0.0),
        "txn_fixup_s": phases.get("txn_fixup", 0.0),
        "checkpoint_load_s": phases.get("checkpoint_load", 0.0),
        "log_replay_s": replay,
        "index_rebuild_s": phases.get("index_rebuild", 0.0),
        "records_replayed": float(report.get("log_records_replayed", 0)),
        "inflight_rolled_back": float(report.get("txns_rolled_back", 0)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    *,
    timed_spans: dict,
    counts: dict[str, float],
    ends: dict[str, float],
    allocated_bytes: float,
    ops: int,
    user_bytes_written: float,
    op_p50_ms: dict[str, float],
    tail_ms: dict[str, float],
    cycles: list[dict],
    merge_stall_max_ms: float,
    trace_overhead_share: float,
    covered_share: float,
    host_speed: float,
    outside_engine_ms: float = 0.0,
) -> dict[str, float]:
    """Every name in :data:`PER_LAYER`, from one traced run's raw data.

    ``op_p50_ms`` / ``tail_ms`` are raw latencies of the traced run, the
    tail being p99 or the highest percentile with ≥ 10 samples beyond it.
    ``cycles`` holds one dict per restart cycle: a
    :func:`recovery_sample` plus ``first_query_s``, ``first_commit_s``,
    ``ensure_current_s`` and (served) ``process_start_s``.
    """

    def self_s(*names: str) -> float:
        return sum(timed_spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names: str) -> float:
        return float(sum(timed_spans.get(n, {}).get("calls", 0) for n in names))

    def cycle_median(key: str) -> float:
        return median([c.get(key, 0.0) for c in cycles])

    c = counts.get
    out = {name: self_s(*spans) for name, spans in _SPAN_SECONDS.items()}
    commits = c("commits", 0.0)
    boundary = c("persistence_events_total", 0.0)
    replayed = cycle_median("records_replayed")
    out.update(
        {
            "server.requests": c("server_requests_total", 0.0),
            "server.rejected": c("server_rejected_total", 0.0),
            "server.queue_wait_s": c("server_queue_seconds.sum", 0.0),
            "server.exec_s": c("server_exec_seconds.sum", 0.0),
            "server.outside_engine_ms": outside_engine_ms,
            "core.insert_p50_ms": op_p50_ms.get("insert", 0.0),
            "core.update_p50_ms": op_p50_ms.get("update", 0.0),
            "core.delete_p50_ms": op_p50_ms.get("delete", 0.0),
            "core.point_read_p50_ms": op_p50_ms.get("point_read", 0.0),
            "core.write_p99_ms": tail_ms["write"],
            "core.read_p99_ms": tail_ms["read"],
            "core.merge_count": c("engine_merges_total", 0.0),
            "core.merge_s": c("engine_merge_seconds.sum", 0.0),
            "core.checkpoint_count": c("engine_checkpoints_total", 0.0),
            "core.checkpoint_s": c("engine_checkpoint_seconds.sum", 0.0),
            "core.checkpoint_bytes": c("engine_checkpoint_bytes_total", 0.0),
            "txn.commits": commits,
            "txn.aborts": c("aborts", 0.0),
            "txn.conflicts": c("conflicts", 0.0),
            "storage.delta_rows_end": ends.get("delta_rows", 0.0),
            "storage.main_rows_end": ends.get("main_rows", 0.0),
            "storage.dict_entries_end": ends.get("dict_entries", 0.0),
            "storage.merge_stall_max_ms": merge_stall_max_ms,
            "index.probes": calls("index.probe"),
            "index.ensure_current_s": cycle_median("ensure_current_s"),
            "nvm.flush_calls": c("nvm.flush_calls", 0.0),
            "nvm.drain_calls": c("nvm.drain_calls", 0.0),
            "nvm.lines_flushed": c("nvm.lines_flushed", 0.0),
            "nvm.bytes_written": c("nvm.bytes_written", 0.0),
            "nvm.bytes_read": c("nvm.bytes_read", 0.0),
            "nvm.allocated_bytes": allocated_bytes,
            "nvm.flushes_per_commit": _ratio(c("nvm.flush_calls", 0.0), commits),
            "nvm.lines_per_user_byte": _ratio(
                c("nvm.lines_flushed", 0.0), user_bytes_written
            ),
            "wal.records": c("wal.records", 0.0),
            "wal.bytes": c("wal.bytes", 0.0),
            "wal.fsyncs": c("wal.syncs", 0.0),
            "wal.fsync_s": c("wal_fsync_seconds.sum", 0.0),
            "wal.fsyncs_per_commit": _ratio(c("wal.syncs", 0.0), commits),
            "wal.bytes_per_user_byte": _ratio(c("wal.bytes", 0.0), user_bytes_written),
            "recovery.records_replayed": replayed,
            "recovery.replay_records_per_s": _ratio(
                replayed, cycle_median("log_replay_s")
            ),
            "recovery.first_query_s": cycle_median("first_query_s"),
            "recovery.first_commit_s": cycle_median("first_commit_s"),
            "recovery.process_start_s": cycle_median("process_start_s"),
            "query.mvcc_cache_hits": c("mvcc_cache_hits_total", 0.0),
            "query.mvcc_cache_misses": c("mvcc_cache_misses_total", 0.0),
            "obs.boundary_events": boundary,
            "obs.boundary_events_per_op": _ratio(boundary, ops),
            "obs.trace_overhead_share": trace_overhead_share,
            "obs.covered_share": covered_share,
            "obs.host_speed": host_speed,
        }
    )
    for key in (
        "engine_s",
        "pool_open_s",
        "catalog_attach_s",
        "txn_fixup_s",
        "checkpoint_load_s",
        "log_replay_s",
        "index_rebuild_s",
        "inflight_rolled_back",
    ):
        out["recovery." + key] = cycle_median(key)
    return {name: float(out[name]) for name in PER_LAYER}
