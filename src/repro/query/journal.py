"""Per-tenant evolution journal: a stride-sequenced CDC log.

Every window advance produces a :class:`~repro.core.events.StrideSummary`
(the paper's six evolution event types) and a new
:class:`~repro.common.snapshot.Clustering`. The journal persists one
*record* per stride — the events plus the membership delta against the
previous stride — in the same segmented, CRC32-framed, torn-tail-safe
format as the ingest write-ahead log (:class:`repro.runtime.wal.SegmentedLog`
is the shared engine). Sequence numbers **are** stride indices, so a
``SUBSCRIBE`` cursor, an ``EVENTS`` range, a ``QUERY`` consistency token,
and an ``AS_OF`` stride all live on one axis.

The record is built by :func:`stride_record`, a pure function of
``(stride, previous clustering, clustering, summary, time)`` — the serve
push path, the journal replay path, and an offline
:func:`repro.api.cluster_stream` run therefore produce byte-identical
records by construction (canonical encoding via :func:`encode_record`).

Record layout (canonical JSON, sorted keys)::

    {
      "stride": 17,              # == journal sequence number
      "time": 41.0,              # stamp of the point that closed the stride
      "events": [["merge", [3, 5], 102], ...],
      "counts": {"ex_cores": 2, "neo_cores": 3, "inserted": 8, "deleted": 8},
      "clusters": 4,             # live clusters after the stride
      "add":    {"830": [3, "border"], ...},   # pid -> [label, category]
      "expire": [101, 102],                    # pids that left the window
      "change": {"640": [5, "core"], ...}      # pid -> new [label, category]
    }

Deltas are *reassignment-complete*: a cid rewrite by ``compact_cids``
shows up as ``change`` entries like any other relabel, so replaying
``add``/``expire``/``change`` from an empty (or archived) base state
reconstructs the exact membership at any retained stride.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.common.canonical import canonical_json
from repro.common.counters import CounterGroup
from repro.common.limits import MAX_JOURNAL_RECORD_BYTES
from repro.common.snapshot import CATEGORY_NAMES, Clustering
from repro.core.events import StrideSummary
from repro.runtime.wal import SegmentedLog, WalError


class JournalError(WalError):
    """The evolution journal could not append, scan, or read."""


@dataclass
class JournalStats(CounterGroup):
    """Cumulative counters of one journal (survives tenant restarts).

    The fields are the ``journal`` block of STATS, the trace and the
    Prometheus textfile.

    Attributes:
        appends: stride records appended.
        fsyncs: physical ``fsync`` calls issued.
        bytes: framed bytes appended.
        reads: records served to ``EVENTS``/``SUBSCRIBE`` readers.
        truncated_tail: recovery scans that had to cut a torn/corrupt tail.
        compacted_segments: segments garbage-collected by retention.
    """

    appends: int = 0
    fsyncs: int = 0
    bytes: int = 0
    reads: int = 0
    truncated_tail: int = 0
    compacted_segments: int = 0


# ------------------------------------------------------------------ records


def stride_record(
    stride: int,
    prev: Clustering | None,
    clustering: Clustering,
    summary: StrideSummary,
    *,
    time: float | None = None,
) -> dict:
    """The CDC record of one stride: events + membership delta vs ``prev``.

    Pure and deterministic: every consumer (the live push path, a journal
    replay, an offline ``cluster_stream`` run) calls this with the same
    inputs and gets the same record. ``prev=None`` means the empty window
    (stride 0, or the base of a fresh materialization). The delta is a
    merge of the two results' pid-sorted columns.
    """
    prev = Clustering({}, {}) if prev is None else prev
    pid = clustering.pid
    # Row in ``prev`` of every current pid, and whether the pid is there.
    at = np.searchsorted(prev.pid, pid)
    kept = at < len(prev.pid)
    kept[kept] = prev.pid[at[kept]] == pid[kept]
    before = at[kept]
    changed = kept.copy()
    changed[kept] = (prev.label[before] != clustering.label[kept]) | (
        prev.cat[before] != clustering.cat[kept]
    )
    return {
        "stride": stride,
        "time": time,
        "events": [
            [event.kind.value, list(event.cluster_ids), event.trigger]
            for event in summary.events
        ],
        "counts": {
            "ex_cores": summary.num_ex_cores,
            "neo_cores": summary.num_neo_cores,
            "inserted": summary.num_inserted,
            "deleted": summary.num_deleted,
        },
        "clusters": clustering.num_clusters,
        "add": _entries(clustering, ~kept),
        "expire": np.delete(prev.pid, before).tolist(),
        "change": _entries(clustering, changed),
    }


def _entries(c: Clustering, rows: np.ndarray) -> dict[str, list]:
    """``{pid: [label, category]}`` of the selected rows, in pid order."""
    names = CATEGORY_NAMES[c.cat[rows]].tolist()
    entries = zip(c.pid[rows].tolist(), c.label[rows].tolist(), names)
    return {str(pid): [label, name] for pid, label, name in entries}


def encode_record(record: dict) -> bytes:
    """Canonical bytes of one record (sorted keys, compact separators)."""
    return canonical_json(record)


def apply_record(state: dict[int, list], record: dict) -> None:
    """Apply one record's membership delta to ``{pid: [label, category]}``."""
    for pid, value in record["add"].items():
        state[int(pid)] = list(value)
    for pid in record["expire"]:
        state.pop(int(pid), None)
    for pid, value in record["change"].items():
        state[int(pid)] = list(value)


# ------------------------------------------------------------------ journal


class EvolutionJournal(SegmentedLog):
    """Durable CDC log keyed by stride index.

    The storage engine (framing, fsync policies, recovery scan, rotation,
    compaction) is :class:`~repro.runtime.wal.SegmentedLog`; this subclass
    fixes the codec to canonical stride records, makes :meth:`publish`
    idempotent across crash-replay (a record at a stride the journal
    already holds is skipped, since the deterministic pipeline re-derives
    it byte-identically), and caps records below the serve transport
    ceiling so every record ships in one push frame.
    """

    prefix = "evj"
    max_record_bytes = MAX_JOURNAL_RECORD_BYTES

    def __init__(self, directory: str | os.PathLike, **kwargs) -> None:
        kwargs.setdefault("stats", JournalStats())
        super().__init__(directory, **kwargs)

    def _encode_body(self, seq: int, record: dict) -> bytes:
        if int(record.get("stride", -1)) != seq:
            raise JournalError(
                f"record stride {record.get('stride')!r} != journal seq {seq}"
            )
        return encode_record(record)

    def _decode_body(self, body: bytes) -> tuple[int, dict]:
        try:
            record = json.loads(body)
            return int(record["stride"]), record
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(f"undecodable journal record body: {exc}") from exc

    # ---------------------------------------------------------- publishing

    def publish(self, record: dict) -> int | None:
        """Append one stride record; return its seq, or ``None`` if it is
        already journaled (idempotent crash-replay).

        A record *ahead* of the contiguous tail is a bug in the caller
        (strides close in order) and raises :class:`JournalError`.
        """
        seq = int(record["stride"])
        if seq < self.next_seq:
            return None
        if seq != self.next_seq:
            raise JournalError(
                f"journal gap: got stride {seq}, expected {self.next_seq}"
            )
        return self.append(record)

    # ---------------------------------------------------------- reading

    @property
    def head(self) -> int:
        """One past the newest journaled stride (the live cursor)."""
        return self.next_seq

    @property
    def floor(self) -> int:
        """Oldest stride still retained (== ``head`` when empty)."""
        return self.floor_seq

    def read(
        self,
        from_seq: int,
        to_seq: int | None = None,
        *,
        limit: int | None = None,
    ) -> list[dict]:
        """Records with ``from_seq <= stride`` (``< to_seq``), in order."""
        records: list[dict] = []
        for _, record in self.scan(max(0, from_seq), to_seq):
            records.append(record)
            if limit is not None and len(records) >= limit:
                break
        self.stats.reads += len(records)
        return records

    # ---------------------------------------------------------- compaction

    def compact(self, upto_seq: int) -> int:
        removed = super().compact(upto_seq)
        self.stats.compacted_segments += removed
        return removed
