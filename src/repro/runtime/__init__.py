"""Resilient streaming runtime layered over the DISC clusterer.

The core algorithm (``repro.core``) assumes clean, uninterrupted input; this
package supplies everything a real deployment needs around it:

- :class:`~repro.runtime.store.CheckpointStore` — a durable on-disk
  checkpoint store (atomic write-tmp-fsync-rename, CRC + format validation,
  rotation, stride-offset metadata).
- :class:`~repro.runtime.supervisor.Supervisor` — drives a stream through
  DISC, checkpoints every N strides at stride boundaries, and resumes after
  a crash by restoring state and replaying only the partial stride, with
  byte-identical results to an uninterrupted run.
- :class:`~repro.runtime.policies.InputGuard` — input-fault policies
  (``strict`` / ``skip`` / ``clamp``) for malformed records, non-finite
  coordinates and out-of-order timestamps, with a dead-letter sink and
  per-reason counters surfaced through :class:`~repro.runtime.stats.RuntimeStats`.
- :class:`~repro.runtime.wal.WriteAheadLog` — a segmented, CRC-framed
  per-tenant write-ahead log (configurable fsync policy, torn-tail
  recovery, checkpoint-keyed compaction) closing the serve layer's
  acknowledged-but-unjournaled durability hole.
- :mod:`~repro.runtime.chaos` — a fault-injection harness (kill at stride
  boundaries, corrupt checkpoints, flaky index queries, torn WAL writes,
  bit flips, simulated power loss and full disks) used by the test suite
  to prove the recovery contract.
- :mod:`~repro.runtime.invariants` — a debug-mode state checker that
  degrades to a full re-cluster with a logged warning instead of letting a
  corrupted incremental state propagate silently.
"""

from repro.runtime.chaos import (
    ChaosKill,
    ChaosMonkey,
    DiskFull,
    FlakyIndex,
    RuntimeHooks,
    bit_flip,
    corrupt_checkpoint,
    power_loss,
    torn_write,
    truncate_mid_record,
)
from repro.runtime.invariants import check_state, rebuild
from repro.runtime.policies import (
    DeadLetterSink,
    FaultPolicy,
    InputGuard,
    MalformedPointError,
    read_dead_letters,
)
from repro.runtime.stats import RuntimeStats
from repro.runtime.store import CheckpointStore
from repro.runtime.supervisor import Supervisor
from repro.runtime.wal import WalError, WalStats, WriteAheadLog

__all__ = [
    "ChaosKill",
    "ChaosMonkey",
    "CheckpointStore",
    "DeadLetterSink",
    "DiskFull",
    "FaultPolicy",
    "FlakyIndex",
    "InputGuard",
    "MalformedPointError",
    "RuntimeHooks",
    "RuntimeStats",
    "Supervisor",
    "WalError",
    "WalStats",
    "WriteAheadLog",
    "bit_flip",
    "check_state",
    "corrupt_checkpoint",
    "power_loss",
    "read_dead_letters",
    "rebuild",
    "torn_write",
    "truncate_mid_record",
]
