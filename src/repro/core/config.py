"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.nvm.latency import LatencyModel
from repro.nvm.pool import PMemMode


class DurabilityMode(Enum):
    """How the engine survives restarts.

    * ``NVM`` — Hyrise-NV: all table, MVCC, and index structures live on
      (simulated) non-volatile memory; restart is a fix-up pass over the
      transaction table.
    * ``LOG`` — classic baseline: DRAM structures + write-ahead log +
      checkpoints; restart replays.
    * ``NONE`` — DRAM only, no durability; the lower bound for runtime
      overhead comparisons.
    """

    NVM = "nvm"
    LOG = "log"
    NONE = "none"


@dataclass
class EngineConfig:
    """Tunables for a :class:`~repro.core.database.Database`.

    Defaults reproduce the paper's primary configuration (NVM mode,
    synchronous commit for the log baseline).
    """

    mode: DurabilityMode = DurabilityMode.NVM
    #: Hash-partition shard count for a *new* directory (an existing one
    #: keeps the count it was created with; ``1`` also means "whatever is
    #: there"). :func:`~repro.core.open_engine` returns a plain
    #: :class:`Database` at ``1`` and otherwise a ``ShardedEngine`` running
    #: one ``Database`` per shard under ``path/shard-NNNN/``.
    shards: int = 1
    #: Size of each pmem extent file (NVM mode).
    extent_size: int = 64 * 1024 * 1024
    #: STRICT enables cache-line crash simulation (tests); FAST for speed.
    pmem_mode: PMemMode = PMemMode.FAST
    #: NVM latency model; None = default (no injected delays).
    latency: Optional[LatencyModel] = None
    #: Commits per fsync in LOG mode (1 = sync commit, 0 = async).
    #: Under concurrent writers ``1`` means group commit: every commit
    #: waits for durability, but one leader fsync covers every commit
    #: record that reached the log by then.
    group_commit_size: int = 1
    #: Modelled WAL device fsync latency in seconds (LOG mode). Added
    #: to every fsync with a GIL-releasing sleep, so group commit's
    #: fsync amortisation is measurable on fast local disks (E12).
    wal_fsync_delay_s: float = 0.0
    #: Transaction-table slots (max concurrent transactions).
    txn_slots: int = 256
    #: LOG mode: write a checkpoint right after every merge (required for
    #: rowref stability across restarts; disable only in experiments that
    #: never merge).
    checkpoint_after_merge: bool = True
    #: Merge a table automatically once its delta exceeds this many rows.
    #: Commits wake the background maintenance daemon, which runs the
    #: merge *online* (concurrently with readers and writers). None
    #: disables the row-count trigger.
    auto_merge_rows: Optional[int] = None
    #: Additionally trigger a merge when the delta holds at least this
    #: fraction of a table's rows (and the table is non-trivial — see
    #: ``merge_delta_fraction_floor``). None disables the fraction
    #: trigger. Either trigger enables the maintenance daemon.
    merge_delta_fraction: Optional[float] = None
    #: Minimum delta rows before the fraction trigger applies (avoids
    #: merging tiny tables over and over).
    merge_delta_fraction_floor: int = 1024
    #: Rows per fold chunk of the online merge. A ``merge_chunk``
    #: persistence-boundary event fires and the GIL yields between
    #: chunks, bounding how long the fold can starve foreground work.
    merge_chunk_rows: int = 65536
    #: How long a merge cutover keeps retrying to find a moment with no
    #: transaction holding operations on the table before giving up
    #: (the merge is abandoned and retried later).
    merge_cutover_timeout_s: float = 5.0
    #: Poll interval of the background maintenance daemon.
    maintenance_interval_s: float = 0.05
    #: Trigger a background checkpoint once this many log bytes have
    #: accumulated since the last one (LOG mode; enables the
    #: maintenance daemon). None disables the byte trigger.
    checkpoint_log_bytes: Optional[int] = None
    #: Trigger a background checkpoint once the *estimated* replay time
    #: of the accumulated log tail (from the engine's own
    #: ``recovery_replay_bytes_per_second`` telemetry) exceeds this many
    #: seconds. None disables the estimate trigger.
    checkpoint_max_replay_s: Optional[float] = None

    def validated(self) -> "EngineConfig":
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.group_commit_size < 0:
            raise ValueError("group_commit_size must be >= 0")
        if self.wal_fsync_delay_s < 0:
            raise ValueError("wal_fsync_delay_s must be >= 0")
        if self.txn_slots < 1:
            raise ValueError("txn_slots must be >= 1")
        if self.auto_merge_rows is not None and self.auto_merge_rows < 1:
            raise ValueError("auto_merge_rows must be >= 1")
        if self.merge_delta_fraction is not None and not (
            0.0 < self.merge_delta_fraction <= 1.0
        ):
            raise ValueError("merge_delta_fraction must be in (0, 1]")
        if self.merge_delta_fraction_floor < 0:
            raise ValueError("merge_delta_fraction_floor must be >= 0")
        if self.merge_chunk_rows < 1:
            raise ValueError("merge_chunk_rows must be >= 1")
        if self.merge_cutover_timeout_s <= 0:
            raise ValueError("merge_cutover_timeout_s must be > 0")
        if self.maintenance_interval_s <= 0:
            raise ValueError("maintenance_interval_s must be > 0")
        if self.checkpoint_log_bytes is not None and self.checkpoint_log_bytes < 1:
            raise ValueError("checkpoint_log_bytes must be >= 1")
        if (
            self.checkpoint_max_replay_s is not None
            and self.checkpoint_max_replay_s <= 0
        ):
            raise ValueError("checkpoint_max_replay_s must be > 0")
        return self
