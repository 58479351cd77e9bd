"""Stride-indexed snapshot archive: time travel over the journal.

``AS_OF(stride)`` needs the full membership at an arbitrary past stride,
but the journal only stores deltas. The archive keeps *sparse full
snapshots* every K strides — the same columnar-list + CRC-envelope shape
as the checkpoint store's v3 payloads, holding the stride's three result
columns (categories by name) — and answers any retained stride by loading
the newest snapshot at or before it and replaying the journal deltas
between them, as ``Clustering.payload``, the function ``SNAPSHOT`` answers
with. Nothing here touches the live session: snapshots are written by the
session's single writer at the publish point, reads happen from files and
the journal.

Snapshot envelope (written by :func:`~repro.runtime.store.write_atomic`, like
checkpoints)::

    {"format": 1, "stride": 42, "crc32": ..., "payload":
        {"pid": [2, 5, ...], "label": [0, 0, ...], "cat": ["core", ...]}}

``AS_OF(time)`` resolves a stream timestamp to a stride first: the
journal stamps each record with the time of the point that closed its
stride, so the answer is the newest retained stride whose stamp is at or
before the asked time (see :func:`stride_at_time`).
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path

from repro.common.canonical import canonical_json
from repro.common.errors import ReproError
from repro.common.snapshot import CATEGORY_NAMES, Category, Clustering
from repro.query.journal import EvolutionJournal, apply_record
from repro.runtime.store import write_atomic

ARCHIVE_FORMAT = 1

_NAME = re.compile(r"^snap-(\d{10})\.json$")


class ArchiveError(ReproError):
    """A snapshot could not be written, loaded, or materialized."""


def stride_at_time(journal: EvolutionJournal, time: float) -> int | None:
    """Newest retained stride whose closing stamp is <= ``time``.

    Returns ``None`` when ``time`` predates every retained record.

    Stamps rise along the stride axis, and a record without one is skipped,
    so this bisects ``[floor, head)``: each probe decodes the first stamped
    record at or after its midpoint (one record, unless unstamped ones
    follow it), and ``O(log n)`` probes settle the answer.
    """
    found: int | None = None
    lo, hi = journal.floor, journal.head
    while lo < hi:
        mid = (lo + hi) // 2
        stamped = next(
            (
                (stride, record["time"])
                for stride, record in journal.scan(mid, hi)
                if record.get("time") is not None
            ),
            None,
        )
        if stamped is not None and stamped[1] <= time:
            found = stamped[0]
            lo = found + 1
        else:
            hi = mid
    return found


class SnapshotArchive:
    """Directory of sparse membership snapshots, one file per K strides.

    Args:
        directory: snapshot directory; created when missing.
        every: snapshot cadence in strides (``maybe_snapshot`` writes at
            stride 0, K, 2K, ...). ``0`` disables automatic snapshots —
            materialization then replays the journal from its floor.
        journal: the tenant's evolution journal (delta source).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        every: int = 0,
        journal: EvolutionJournal | None = None,
    ) -> None:
        if every < 0:
            raise ArchiveError(f"every must be >= 0, got {every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = every
        self.journal = journal
        self.snapshots_written = 0
        self._strides = self._scan()

    def _scan(self) -> list[int]:
        strides = []
        for path in self.directory.iterdir():
            match = _NAME.match(path.name)
            if match:
                strides.append(int(match.group(1)))
        return sorted(strides)

    # ---------------------------------------------------------------- writing

    def maybe_snapshot(self, stride: int, clustering: Clustering) -> bool:
        """Write a snapshot when ``stride`` is on the cadence grid."""
        if self.every <= 0 or stride % self.every != 0:
            return False
        self.snapshot(stride, clustering)
        return True

    def snapshot(self, stride: int, clustering: Clustering) -> Path:
        """Atomically persist the full membership at ``stride``."""
        payload = {
            "pid": clustering.pid.tolist(),
            "label": clustering.label.tolist(),
            "cat": CATEGORY_NAMES[clustering.cat].tolist(),
        }
        envelope = {
            "format": ARCHIVE_FORMAT,
            "stride": int(stride),
            "crc32": zlib.crc32(canonical_json(payload)),
            "payload": payload,
        }
        final = self.directory / f"snap-{stride:010d}.json"
        write_atomic(final, json.dumps(envelope, sort_keys=True).encode("utf-8"))
        if stride not in self._strides:
            self._strides.append(stride)
            self._strides.sort()
        self.snapshots_written += 1
        return final

    # ---------------------------------------------------------------- reading

    def strides(self) -> list[int]:
        """Strides with a snapshot on disk, oldest first."""
        return list(self._strides)

    def latest_at_or_before(self, stride: int) -> int | None:
        """Newest snapshot stride <= ``stride``, or ``None``."""
        found = None
        for snap in self._strides:
            if snap > stride:
                break
            found = snap
        return found

    def load(self, stride: int) -> dict[int, list]:
        """Membership at a snapshot stride: ``{pid: [label, category]}``."""
        path = self.directory / f"snap-{stride:010d}.json"
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ArchiveError(f"no snapshot at stride {stride}") from exc
        except (OSError, ValueError) as exc:
            raise ArchiveError(f"unreadable snapshot {path.name}: {exc}") from exc
        try:
            payload = envelope["payload"]
            if zlib.crc32(canonical_json(payload)) != envelope["crc32"]:
                raise ArchiveError(f"snapshot {path.name} failed its CRC check")
            return {
                int(pid): [label, cat]
                for pid, label, cat in zip(
                    payload["pid"], payload["label"], payload["cat"]
                )
            }
        except (KeyError, TypeError) as exc:
            raise ArchiveError(f"malformed snapshot {path.name}: {exc}") from exc

    def materialize(self, stride: int) -> dict[int, list]:
        """Full membership at ``stride``: nearest snapshot + delta replay.

        Raises :class:`ArchiveError` when ``stride`` is not answerable —
        ahead of the journal head, or behind both the oldest snapshot and
        the journal's retention floor.
        """
        if self.journal is None:
            raise ArchiveError("archive has no journal to replay deltas from")
        if stride >= self.journal.head:
            raise ArchiveError(
                f"stride {stride} is ahead of the journal head "
                f"({self.journal.head - 1} is the newest closed stride)"
            )
        base = self.latest_at_or_before(stride)
        if base is not None:
            state = self.load(base)
            replay_from = base + 1
        elif self.journal.floor == 0:
            state = {}
            replay_from = 0
        else:
            raise ArchiveError(
                f"stride {stride} predates both the oldest snapshot and the "
                f"journal retention floor ({self.journal.floor})"
            )
        for record in self.journal.read(replay_from, stride + 1):
            apply_record(state, record)
        return state

    def as_of(
        self, stride: int | None = None, time: float | None = None
    ) -> dict:
        """The ``QUERY {as_of}`` answer at a past stride (or at the stride
        live when ``time`` passed): what ``SNAPSHOT`` answered then."""
        if (stride is None) == (time is None):
            raise ArchiveError("as_of needs exactly one of stride or time")
        if stride is None:
            if self.journal is None:
                raise ArchiveError("archive has no journal to resolve time")
            stride = stride_at_time(self.journal, time)
            if stride is None:
                raise ArchiveError(f"no retained stride at or before time {time}")
        state = self.materialize(stride)
        clustering = Clustering(
            {pid: label for pid, (label, _) in state.items()},
            {pid: Category(cat) for pid, (_, cat) in state.items()},
        )
        return {"stride": stride, **clustering.payload()}
