"""Read-side subsystem: CDC journal, snapshot archive, time travel.

The serving layer computes cluster-evolution events every stride; this
package makes them consumable. :mod:`repro.query.journal` persists a
stride-sequenced change-data-capture log per tenant (the feed behind the
``SUBSCRIBE``/``EVENTS`` protocol verbs), and :mod:`repro.query.archive`
keeps sparse full snapshots so ``QUERY {as_of: ...}`` can answer
label/membership questions about any retained past stride without
touching the live session.
"""

from repro.query.archive import ArchiveError, SnapshotArchive, stride_at_time
from repro.query.journal import (
    EvolutionJournal,
    JournalError,
    JournalStats,
    encode_record,
    stride_record,
)

__all__ = [
    "ArchiveError",
    "SnapshotArchive",
    "stride_at_time",
    "EvolutionJournal",
    "JournalError",
    "JournalStats",
    "encode_record",
    "stride_record",
]
