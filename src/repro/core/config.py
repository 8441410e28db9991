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
    #: Merge a table once its delta holds this many rows. Commits wake
    #: the background maintenance daemon, which runs the merge *online*
    #: (concurrently with readers and writers) and then rests the table
    #: for about twice the measured merge time. None: no automatic merge.
    auto_merge_rows: Optional[int] = None
    #: How long a merge cutover keeps retrying to find a moment with no
    #: transaction holding operations on the table before giving up
    #: (the merge is abandoned and retried later).
    merge_cutover_timeout_s: float = 5.0
    #: LOG mode restart budget: checkpoint in the background once the
    #: *estimated* replay time of the log since the last checkpoint
    #: (its bytes over the engine's measured
    #: ``recovery_replay_bytes_per_second``) exceeds this many seconds.
    #: A LOG engine also checkpoints after every merge, whatever this
    #: is. None: no background checkpoint.
    checkpoint_max_replay_s: Optional[float] = None

    def validated(self) -> "EngineConfig":
        if self.group_commit_size < 0:
            raise ValueError("group_commit_size must be >= 0")
        if self.wal_fsync_delay_s < 0:
            raise ValueError("wal_fsync_delay_s must be >= 0")
        if self.auto_merge_rows is not None and self.auto_merge_rows < 1:
            raise ValueError("auto_merge_rows must be >= 1")
        if self.merge_cutover_timeout_s <= 0:
            raise ValueError("merge_cutover_timeout_s must be > 0")
        if (
            self.checkpoint_max_replay_s is not None
            and self.checkpoint_max_replay_s <= 0
        ):
            raise ValueError("checkpoint_max_replay_s must be > 0")
        return self
