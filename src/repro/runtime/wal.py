"""Segmented, CRC-framed append-only logs; the ingest write-ahead log.

Two durable logs share one storage engine. :class:`SegmentedLog` is the
engine: segmented, length-prefixed, CRC32-framed files with contiguous
sequence numbers, fsync-policy commits, clean-prefix torn-tail recovery,
and checkpoint-keyed compaction. :class:`WriteAheadLog` specialises it for
*raw admitted stream items* — :class:`~repro.common.points.StreamPoint`
and :class:`~repro.datasets.io.MalformedRecord` alike — journaled before
they are fed to the clustering pipeline;
:class:`repro.query.journal.EvolutionJournal` specialises it for the CDC
stream of per-stride evolution records.

Together with the checkpoint store the WAL closes the serving layer's
durability hole: a checkpoint covers the stream up to its
``stream_offset``, and the WAL covers the acknowledged tail past it, so a
``kill -9`` at any instant loses nothing that was acknowledged.

Record framing (binary, append-only)::

    +----------------+----------------+----------------------+
    | length (4B LE) | crc32 (4B LE)  | body (length bytes)  |
    +----------------+----------------+----------------------+

The body carries the record's **sequence number** and payload (the codec
is the subclass's). Sequence numbers are assigned by the log, start at 0
for a fresh stream, and are strictly contiguous — which is what lets a
recovery scan detect any corruption (torn tail, truncation inside a
record, bit rot) and truncate back to the longest clean prefix.

Durability is governed by the fsync policy:

- ``always`` — fsync at every :meth:`SegmentedLog.commit` (the ACK
  boundary): an acknowledged record is durable before the
  acknowledgement leaves;
- ``every_n`` — fsync once per N appended records;
- ``interval`` — fsync when at least ``fsync_interval_s`` elapsed since
  the previous one.

Segments rotate at ``segment_bytes``; each file is named by the sequence
number of its first record (``<prefix>-<seq:012d>.seg``), so
:meth:`SegmentedLog.compact` can garbage-collect every segment whose whole
range is covered by a durable checkpoint without reading it.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.common.counters import CounterGroup
from repro.common.errors import ReproError
from repro.common.limits import MAX_RECORD_BYTES  # noqa: F401  (re-export)
from repro.common.points import StreamPoint
from repro.datasets.io import MalformedRecord

#: fsync policies (see module docstring).
FSYNC_POLICIES = ("always", "every_n", "interval")

_HEADER = struct.Struct("<II")  # (body length, crc32 of body)


class WalError(ReproError):
    """A segmented log could not append, scan, or replay."""


@dataclass
class WalStats(CounterGroup):
    """Cumulative counters of one log (survives tenant restarts).

    The fields are the ``wal`` block of STATS, the trace and the
    Prometheus textfile.

    Attributes:
        appends: records appended (not counting replays).
        fsyncs: physical ``fsync`` calls issued.
        bytes: framed bytes appended.
        replayed: records fed back into a pipeline by :meth:`replay`.
        truncated_tail: recovery scans that had to cut a torn/corrupt tail.
        tenant_restarts: supervised session restarts recovered through this
            log (incremented by the serving layer's supervisor).
    """

    appends: int = 0
    fsyncs: int = 0
    bytes: int = 0
    replayed: int = 0
    truncated_tail: int = 0
    tenant_restarts: int = 0


# ------------------------------------------------------------------ encoding


def encode_item(seq: int, item: StreamPoint | MalformedRecord) -> bytes:
    """One record body: ``{"s": seq, "p": [...]}`` or ``{"s": seq, "m": [...]}``."""
    if isinstance(item, StreamPoint):
        payload = {"s": seq, "p": [item.pid, list(item.coords), item.time]}
    elif isinstance(item, MalformedRecord):
        payload = {"s": seq, "m": [item.line_no, item.raw, item.error]}
    else:
        raise WalError(f"cannot journal item of type {type(item).__name__}")
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_item(body: bytes) -> tuple[int, StreamPoint | MalformedRecord]:
    """Inverse of :func:`encode_item`; raises :class:`WalError` on garbage."""
    try:
        payload = json.loads(body)
        seq = int(payload["s"])
        if "p" in payload:
            pid, coords, stamp = payload["p"]
            return seq, StreamPoint(
                int(pid), tuple(float(c) for c in coords), float(stamp)
            )
        line_no, raw, error = payload["m"]
        return seq, MalformedRecord(int(line_no), str(raw), str(error))
    except (KeyError, TypeError, ValueError) as exc:
        raise WalError(f"undecodable WAL record body: {exc}") from exc


def frame(body: bytes) -> bytes:
    """Length-prefix + CRC32 framing around one record body."""
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


# ------------------------------------------------------------------ segments


@dataclass
class _Segment:
    """One on-disk segment: its path and the seq range it holds."""

    path: Path
    first_seq: int
    last_seq: int = -1  # -1: empty (no complete record yet)
    size: int = 0
    synced_size: int = 0  # bytes known durable (for power-loss simulation)
    records: int = 0

    @property
    def empty(self) -> bool:
        return self.last_seq < self.first_seq


def _scan_segment(
    path: Path,
    expect_seq: int,
    decode=decode_item,
    max_record_bytes: int = MAX_RECORD_BYTES,
) -> tuple[list[tuple[int, int]], int]:
    """Validate one segment file front to back.

    Returns ``(records, good_bytes)`` where ``records`` is a list of
    ``(seq, frame_offset)`` for every complete, CRC-valid, contiguous
    record, and ``good_bytes`` is the clean prefix length. Anything past
    ``good_bytes`` — a torn header, a body cut short, a CRC mismatch, a
    sequence gap — is corruption to be truncated by the caller.
    """
    data = path.read_bytes()
    records: list[tuple[int, int]] = []
    offset = 0
    seq = expect_seq
    while True:
        if offset + _HEADER.size > len(data):
            break  # torn header (or clean EOF)
        length, crc = _HEADER.unpack_from(data, offset)
        if length > max_record_bytes:
            break  # corrupted length prefix
        body_start = offset + _HEADER.size
        if body_start + length > len(data):
            break  # body cut short
        body = data[body_start : body_start + length]
        if zlib.crc32(body) != crc:
            break  # bit rot / mid-record overwrite
        try:
            rec_seq, _ = decode(body)
        except WalError:
            break  # valid CRC over garbage should be impossible; be safe
        if rec_seq != seq:
            break  # sequence gap — a record is missing or duplicated
        records.append((seq, offset))
        seq += 1
        offset = body_start + length
    return records, offset


class SegmentedLog:
    """Append-only, segmented, torn-write-safe journal of framed records.

    Opening a log performs the recovery scan: every segment is validated
    front to back, the first invalid byte truncates its segment, and any
    later segments (whose records would leave a hole) are deleted — the log
    always reopens to the longest clean, contiguous prefix of what was ever
    acknowledged.

    Subclasses provide the record codec (:meth:`_encode_body` /
    :meth:`_decode_body`), the segment file ``prefix``, and the per-record
    size ceiling ``max_record_bytes``.

    Args:
        directory: segment directory; created when missing.
        fsync: one of :data:`FSYNC_POLICIES`.
        fsync_every: records per fsync under ``every_n``.
        fsync_interval_s: seconds between fsyncs under ``interval``.
        segment_bytes: rotation threshold for the active segment.
        stats: a :class:`WalStats` to adopt (the serving layer passes the
            previous incarnation's stats across tenant restarts).
        fault: optional injection point — called as ``fault(n_bytes)``
            before every physical append; raising ``OSError`` simulates a
            full disk (see :class:`repro.runtime.chaos.DiskFull`).
    """

    prefix = "log"
    max_record_bytes = MAX_RECORD_BYTES

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: str = "always",
        fsync_every: int = 64,
        fsync_interval_s: float = 0.05,
        segment_bytes: int = 4 * 1024 * 1024,
        stats: WalStats | None = None,
        fault=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if fsync_every < 1:
            raise WalError(f"fsync_every must be >= 1, got {fsync_every}")
        if segment_bytes < 1:
            raise WalError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_every = fsync_every
        self.fsync_interval_s = float(fsync_interval_s)
        self.segment_bytes = segment_bytes
        self.stats = stats if stats is not None else WalStats()
        self.fault = fault
        self._handle = None  # open file of the active segment
        self._unsynced = 0  # records appended since the last fsync
        self._last_sync = time.monotonic()
        self._broken: str | None = None
        self._segments: list[_Segment] = []
        self.next_seq = 0
        self._recover()

    # ------------------------------------------------------------- codec

    def _encode_body(self, seq: int, item) -> bytes:
        """Record body for ``item`` at sequence number ``seq``."""
        raise NotImplementedError

    def _decode_body(self, body: bytes):
        """Inverse of :meth:`_encode_body` → ``(seq, item)``; raise
        :class:`WalError` on garbage."""
        raise NotImplementedError

    # ------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Scan all segments, truncate the torn tail, set ``next_seq``."""
        paths = sorted(self.directory.glob(f"{self.prefix}-*.seg"))
        segments: list[_Segment] = []
        truncated = False
        for path in paths:
            try:
                first_seq = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue  # foreign file; leave it alone
            if truncated:
                # A previous segment lost its tail: later records would
                # leave a hole in the sequence, so they cannot be kept.
                path.unlink()
                continue
            if segments and first_seq != segments[-1].last_seq + 1:
                # Gap between segments (manual deletion, lost rename):
                # everything from here on is unreachable by replay.
                truncated = True
                path.unlink()
                continue
            records, good_bytes = _scan_segment(
                path, first_seq, self._decode_body, self.max_record_bytes
            )
            size = path.stat().st_size
            if good_bytes < size:
                with open(path, "r+b") as handle:
                    handle.truncate(good_bytes)
                truncated = True
            if not records and segments:
                # A fully-torn (now empty) non-first segment carries no
                # information; drop it so naming stays consistent.
                path.unlink()
                continue
            segments.append(
                _Segment(
                    path=path,
                    first_seq=first_seq,
                    last_seq=first_seq + len(records) - 1,
                    size=good_bytes,
                    synced_size=good_bytes,
                    records=len(records),
                )
            )
        if truncated:
            self.stats.truncated_tail += 1
        self._segments = segments
        self.next_seq = segments[-1].last_seq + 1 if segments else 0

    # ------------------------------------------------------------- appending

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable-framed record (-1: none)."""
        return self.next_seq - 1

    @property
    def floor_seq(self) -> int:
        """Oldest sequence number still retained (== ``next_seq`` if empty)."""
        for segment in self._segments:
            if not segment.empty:
                return segment.first_seq
        return self.next_seq

    def append(self, item) -> int:
        """Frame and write one item; return its sequence number.

        The write lands in the OS page cache; durability follows at the
        next :meth:`commit` according to the fsync policy. On a physical
        write failure (e.g. ``ENOSPC``) the active segment is rolled back
        to its last consistent size and :class:`WalError` is raised — the
        item was *not* journaled and must not be acknowledged.
        """
        if self._broken is not None:
            raise WalError(f"{type(self).__name__} is broken: {self._broken}")
        seq = self.next_seq
        body = self._encode_body(seq, item)
        if len(body) > self.max_record_bytes:
            raise WalError(
                f"record body of {len(body)} bytes exceeds the "
                f"{self.max_record_bytes}-byte ceiling"
            )
        data = frame(body)
        segment = self._active_segment(len(data))
        try:
            if self.fault is not None:
                self.fault(len(data))
            self._handle.write(data)
        except OSError as exc:
            self._rollback(segment, exc)
            raise WalError(f"append failed: {exc}") from exc
        segment.size += len(data)
        segment.last_seq = seq
        segment.records += 1
        self.next_seq = seq + 1
        self._unsynced += 1
        self.stats.appends += 1
        self.stats.bytes += len(data)
        return seq

    def commit(self) -> None:
        """The ACK boundary: make appended records durable per the policy."""
        if self._unsynced == 0:
            return
        if self.fsync == "always":
            self.sync()
        elif self.fsync == "every_n":
            if self._unsynced >= self.fsync_every:
                self.sync()
        else:  # interval
            if time.monotonic() - self._last_sync >= self.fsync_interval_s:
                self.sync()

    def sync(self) -> None:
        """Unconditional flush + fsync of the active segment."""
        if self._handle is None:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        segment = self._segments[-1]
        segment.synced_size = segment.size
        self._unsynced = 0
        self._last_sync = time.monotonic()
        self.stats.fsyncs += 1

    def close(self) -> None:
        """Fsync and close the active segment (crash-equivalent if skipped)."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def _active_segment(self, incoming: int) -> _Segment:
        """The segment the next record goes to, rotating when full."""
        if self._segments and self._handle is not None:
            active = self._segments[-1]
            if active.size + incoming <= self.segment_bytes or active.records == 0:
                return active
            # Rotate: seal the full segment durably before moving on, so a
            # crash between the two files can only tear the *new* one.
            self.sync()
            self._handle.close()
            self._handle = None
        path = self.directory / f"{self.prefix}-{self.next_seq:012d}.seg"
        if self._handle is None:
            if not self._segments or self._segments[-1].path != path:
                self._segments.append(_Segment(path=path, first_seq=self.next_seq))
            self._handle = open(path, "ab")
        return self._segments[-1]

    def _rollback(self, segment: _Segment, exc: OSError) -> None:
        """Cut a failed partial write so the tail stays frame-aligned."""
        try:
            self._handle.flush()
        except OSError:
            pass
        try:
            os.ftruncate(self._handle.fileno(), segment.size)
            self._handle.seek(segment.size)
        except OSError as trunc_exc:
            # Cannot restore frame alignment: further appends would corrupt
            # the log, so refuse them until the log is reopened (the
            # recovery scan will cut the partial frame).
            self._broken = (
                f"rollback after failed append also failed ({trunc_exc}); "
                "reopen the log to recover"
            )

    # ------------------------------------------------------------- reading

    def scan(self, from_seq: int, to_seq: int | None = None):
        """Yield ``(seq, item)`` for records with ``from_seq <= seq``
        (``< to_seq`` when given), in sequence order.

        A segment's records carry consecutive seqs from its ``first_seq``
        (the recovery scan cuts a segment at any gap, and appends count
        up), so records outside the range are stepped over by their
        headers alone and never decoded.
        """
        self.flush()
        for segment in list(self._segments):
            if segment.empty or segment.last_seq < from_seq:
                continue
            if to_seq is not None and segment.first_seq >= to_seq:
                break
            data = segment.path.read_bytes()[: segment.size]
            offset = 0
            seq = segment.first_seq
            while offset + _HEADER.size <= len(data):
                if to_seq is not None and seq >= to_seq:
                    return
                length, _ = _HEADER.unpack_from(data, offset)
                if seq >= from_seq:
                    body = data[offset + _HEADER.size : offset + _HEADER.size + length]
                    yield self._decode_body(body)
                seq += 1
                offset += _HEADER.size + length

    def flush(self) -> None:
        """Flush buffered writes (no fsync) so reads see every append."""
        if self._handle is not None:
            self._handle.flush()

    # ------------------------------------------------------------- compaction

    def compact(self, upto_seq: int) -> int:
        """Delete segments fully covered by a checkpoint at ``upto_seq``.

        A segment may be garbage-collected once every record in it has a
        sequence number below ``upto_seq`` — i.e. the durable checkpoint's
        ``stream_offset`` already accounts for all of them. The active
        (last) segment is never deleted. Returns the number of segments
        removed.
        """
        removed = 0
        while len(self._segments) > 1:
            head = self._segments[0]
            if head.last_seq >= upto_seq or head.empty:
                break
            try:
                head.path.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent cleanup
                pass
            self._segments.pop(0)
            removed += 1
        return removed

    # ------------------------------------------------------------- inspection

    def segments(self) -> list[Path]:
        """Segment paths currently on disk, oldest first."""
        return [s.path for s in self._segments]

    def durable_extents(self) -> dict[Path, int]:
        """Bytes per segment known to have been fsynced.

        :func:`repro.runtime.chaos.power_loss` truncates files to these
        extents to simulate what a ``kill -9`` + power cut would leave
        behind under the weaker fsync policies.
        """
        return {s.path: s.synced_size for s in self._segments}

    def __len__(self) -> int:
        return sum(s.records for s in self._segments)


class WriteAheadLog(SegmentedLog):
    """The ingest write-ahead log: admitted stream items, pre-pipeline.

    See :class:`SegmentedLog` for the storage engine (recovery, fsync
    policies, rotation, compaction); this subclass fixes the codec to the
    ``{"s": seq, "p"|"m": [...]}`` item encoding and adds :meth:`replay`.
    """

    prefix = "wal"
    max_record_bytes = MAX_RECORD_BYTES

    def _encode_body(self, seq: int, item) -> bytes:
        return encode_item(seq, item)

    def _decode_body(self, body: bytes):
        return decode_item(body)

    def append(self, item: StreamPoint | MalformedRecord) -> int:
        """Frame and write one item; return its admission sequence number."""
        return super().append(item)

    def replay(self, from_seq: int) -> list[StreamPoint | MalformedRecord]:
        """Items with sequence number >= ``from_seq``, in admission order.

        This is the recovery tail: a resumed pipeline restores its
        checkpoint (covering ``[0, stream_offset)``) and replays
        ``replay(stream_offset)`` to reconstruct every acknowledged item
        past it.
        """
        items = [item for _, item in self.scan(from_seq)]
        self.stats.replayed += len(items)
        return items
