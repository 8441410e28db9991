"""Recovery: instant NVM fix-up vs. log replay.

The two recovery paths embody the paper's comparison:

* :func:`~repro.recovery.nvm_recovery.recover_nvm` — attach the pool,
  walk the (bounded) transaction table, roll in-flight transactions back
  or forward. Work is O(in-flight transactions): *instant*, independent
  of dataset size.
* :func:`~repro.recovery.log_recovery.recover_log` — load the last
  checkpoint, replay the log tail through the one
  :class:`~repro.recovery.log_recovery.LogReplayer` (which replication
  followers also run), rebuild volatile lookup structures and indexes.
  Work is O(dataset + log tail).
"""

from repro.recovery.report import RecoveryReport
from repro.recovery.nvm_recovery import recover_nvm
from repro.recovery.log_recovery import LogReplayer, recover_log
from repro.recovery.validator import validate_database

__all__ = [
    "LogReplayer",
    "RecoveryReport",
    "recover_log",
    "recover_nvm",
    "validate_database",
]
