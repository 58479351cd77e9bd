"""Fault-injection harness for the resilient runtime.

Recovery code that is never exercised is broken code. This module gives the
test suite (and operators rehearsing incident response) three precise ways
to hurt a run:

- :class:`ChaosMonkey` — runtime hooks that kill the run at a chosen stride
  boundary (or after a chosen checkpoint) by raising :class:`ChaosKill`;
- :func:`corrupt_checkpoint` — flip bytes inside a checkpoint file so the
  store's CRC validation must catch it;
- :class:`FlakyIndex` — a :class:`~repro.index.base.NeighborIndex` wrapper
  whose queries start raising after a fuse burns down, simulating a failing
  index substrate mid-stride;
- write-ahead-log faults — :func:`torn_write`, :func:`truncate_mid_record`,
  :func:`bit_flip`, :func:`power_loss`, and :class:`DiskFull`, covering the
  four ways a journal dies in production: a crash mid-append, a filesystem
  that lost the tail, silent bit rot, and a full disk.

The recovery contract proven by ``tests/test_runtime_recovery.py``: kill a
supervised run at *any* stride boundary, resume from the store, and the
final snapshot is byte-identical to an uninterrupted run — on every
registered index backend.
"""

from __future__ import annotations

import errno
import os
import struct
import zlib

from repro.common.errors import IndexError_, ReproError
from repro.index.base import NeighborIndex


class ChaosKill(ReproError):
    """Injected crash: the simulated process death of a supervised run."""


class RuntimeHooks:
    """Observation/injection points the Supervisor calls around each stride.

    Subclass and override what you need; the default implementations do
    nothing. Any hook may raise to simulate a crash at that point.
    """

    def before_stride(self, stride: int) -> None:
        """Called at the boundary before stride ``stride`` is processed."""

    def after_stride(self, stride: int, summary, clustering) -> None:
        """Called after stride ``stride`` closed (pre-checkpoint), with its snapshot."""

    def before_checkpoint(self, stride: int) -> None:
        """Called just before a checkpoint for ``stride`` is written.

        The serving layer syncs the evolution journal here so a durable
        checkpoint can never get ahead of the CDC history it implies —
        after any crash the journal holds every stride the checkpoint
        covers, and WAL-tail replay re-derives the rest.
        """

    def after_checkpoint(self, stride: int, path) -> None:
        """Called after a checkpoint for ``stride`` was durably written."""


class ChaosMonkey(RuntimeHooks):
    """Hooks that kill the run at configured points.

    Args:
        kill_before_stride: raise :class:`ChaosKill` at the boundary before
            this stride index is processed (0-based; the uninterrupted run
            numbers its strides 0, 1, 2, ...).
        kill_after_checkpoint: raise right after the checkpoint taken at
            this stride count is written — the worst case for resume logic
            (state persisted, progress lost).
    """

    def __init__(
        self,
        kill_before_stride: int | None = None,
        kill_after_checkpoint: int | None = None,
    ) -> None:
        self.kill_before_stride = kill_before_stride
        self.kill_after_checkpoint = kill_after_checkpoint
        self.kills = 0

    def before_stride(self, stride: int) -> None:
        if self.kill_before_stride is not None and stride >= self.kill_before_stride:
            self.kills += 1
            raise ChaosKill(
                f"chaos: injected crash at the boundary before stride {stride}"
            )

    def after_checkpoint(self, stride: int, path) -> None:
        if (
            self.kill_after_checkpoint is not None
            and stride >= self.kill_after_checkpoint
        ):
            self.kills += 1
            raise ChaosKill(
                f"chaos: injected crash right after checkpoint at stride {stride}"
            )


def enumerate_fault_points(
    n_strides: int, checkpoint_every: int
) -> list[dict[str, int]]:
    """Every distinct :class:`ChaosMonkey` kill site of an ``n_strides`` run.

    Returns one kwargs dict per site, in boundary order: a
    ``kill_before_stride`` for every stride boundary after the first (a
    kill before stride 0 never starts the run, so it proves nothing), and
    a ``kill_after_checkpoint`` for every checkpoint the run would take
    under ``checkpoint_every`` — the state-persisted/progress-lost worst
    case. The fuzz harness samples these; exhaustive sweeps (the recovery
    tests) iterate them all.
    """
    if n_strides < 1:
        return []
    points: list[dict[str, int]] = [
        {"kill_before_stride": stride} for stride in range(1, n_strides)
    ]
    if checkpoint_every >= 1:
        points.extend(
            {"kill_after_checkpoint": stride}
            for stride in range(checkpoint_every, n_strides + 1, checkpoint_every)
        )
    return points


def corrupt_checkpoint(path: str | os.PathLike, offset: int = -20) -> None:
    """Flip one byte of a checkpoint file, in place.

    ``offset`` indexes into the file (negative = from the end; the default
    lands inside the JSON payload, past the envelope header). The flip XORs
    the byte with 0x01 after nudging digits, so the file stays the same
    length — simulating silent bit rot rather than truncation.
    """
    with open(path, "r+b") as handle:
        data = bytearray(handle.read())
        if not data:
            raise ReproError(f"cannot corrupt empty file {path}")
        index = offset % len(data)
        byte = data[index]
        if ord("0") <= byte <= ord("9"):
            # Rotate a digit so the JSON stays parseable but the CRC breaks.
            data[index] = ord("0") + (byte - ord("0") + 1) % 10
        else:
            data[index] = byte ^ 0x01
        handle.seek(0)
        handle.write(data)
        handle.truncate()


class FlakyIndex(NeighborIndex):
    """Index wrapper whose queries fail once a fuse burns down.

    It declares no epochs, so MS-BFS probes it with fused ``ball_pids``.

    Args:
        inner: the real backend.
        fail_after: number of range queries (``ball``, ``ball_pids`` and
            ``ball_many_pids``) served before every further query raises.
        exc: exception type raised once the fuse is burnt.
    """

    def __init__(
        self,
        inner: NeighborIndex,
        fail_after: int,
        exc: type[Exception] = IndexError_,
    ) -> None:
        self.inner = inner
        self.fail_after = fail_after
        self.exc = exc
        self.queries = 0

    @property
    def stats(self):
        return self.inner.stats

    def _fuse(self) -> None:
        self.queries += 1
        if self.queries > self.fail_after:
            raise self.exc(
                f"chaos: index query #{self.queries} failed "
                f"(fuse was {self.fail_after})"
            )

    # ------------------------------------------------------------- primitives

    def insert(self, pid, coords):
        self.inner.insert(pid, coords)

    def delete(self, pid):
        self.inner.delete(pid)

    def ball(self, center, radius):
        self._fuse()
        return self.inner.ball(center, radius)

    def ball_pids(self, center, radius):
        self._fuse()
        return self.inner.ball_pids(center, radius)

    def ball_many_pids(self, centers, radius):
        self._fuse()
        return self.inner.ball_many_pids(centers, radius)

    def coords_of(self, pid):
        return self.inner.coords_of(pid)

    def items(self):
        return self.inner.items()

    def insert_many(self, items):
        self.inner.insert_many(items)

    def delete_many(self, pids):
        self.inner.delete_many(pids)

    def __len__(self):
        return len(self.inner)

    def __contains__(self, pid):
        return pid in self.inner


# ---------------------------------------------------------------- WAL faults
#
# These operate on raw segment files (any file, really) and simulate the
# damage a write-ahead log must survive: the recovery scan in
# :class:`repro.runtime.wal.WriteAheadLog` must reopen every one of these
# to a clean, contiguous prefix.

_WAL_HEADER = struct.Struct("<II")


def torn_write(path: str | os.PathLike, keep_bytes: int | None = None) -> int:
    """Tear the file mid-frame, as a crash during ``write()`` would.

    Truncates ``path`` to ``keep_bytes`` (default: half a header past the
    last full record boundary — guaranteed to land *inside* a frame).
    Returns the resulting file size.
    """
    size = os.path.getsize(path)
    if keep_bytes is None:
        keep_bytes = max(0, size - _last_frame_length(path) + _WAL_HEADER.size // 2)
    keep_bytes = max(0, min(keep_bytes, size))
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)
    return keep_bytes


def truncate_mid_record(path: str | os.PathLike) -> int:
    """Cut the last record's *body* short (header intact, body torn).

    The length prefix promises more bytes than exist — the recovery scan
    must notice the short body rather than read past EOF. Returns the
    resulting file size.
    """
    size = os.path.getsize(path)
    last = _last_frame_length(path)
    if last <= _WAL_HEADER.size + 1:
        raise ReproError(f"no record body to truncate in {path}")
    keep = size - (last - _WAL_HEADER.size) // 2 - 1
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return keep


def bit_flip(path: str | os.PathLike, offset: int = -3) -> None:
    """Flip one bit inside the file, simulating silent media corruption.

    ``offset`` indexes into the file (negative = from the end; the default
    lands in the last record's body, so its CRC32 must catch the damage).
    """
    with open(path, "r+b") as handle:
        data = handle.read()
        if not data:
            raise ReproError(f"cannot bit-flip empty file {path}")
        index = offset % len(data)
        handle.seek(index)
        handle.write(bytes([data[index] ^ 0x40]))


def power_loss(wal) -> int:
    """Simulate a power cut: drop every byte not yet fsynced.

    Closes the log's file handle without syncing and truncates each
    segment to its last *fsynced* extent (``wal.durable_extents()``) —
    exactly what survives a kernel-buffer loss under the ``every_n`` and
    ``interval`` fsync policies. Returns the number of bytes destroyed.
    """
    extents = wal.durable_extents()
    if wal._handle is not None:
        wal._handle.flush()
        wal._handle.close()
        wal._handle = None
    lost = 0
    for path, synced in extents.items():
        size = os.path.getsize(path)
        if size > synced:
            with open(path, "r+b") as handle:
                handle.truncate(synced)
            lost += size - synced
    return lost


class DiskFull:
    """ENOSPC injector for the WAL's physical-write fault point.

    Pass as ``WriteAheadLog(..., fault=DiskFull(after_bytes=N))``: once N
    bytes have been written the "disk" is full and every further append
    raises ``OSError(ENOSPC)`` until :meth:`free` is called.
    """

    def __init__(self, after_bytes: int) -> None:
        self.after_bytes = after_bytes
        self.written = 0
        self.full = False

    def __call__(self, n_bytes: int) -> None:
        if self.full or self.written + n_bytes > self.after_bytes:
            self.full = True
            raise OSError(errno.ENOSPC, "chaos: no space left on device")
        self.written += n_bytes

    def free(self) -> None:
        """Clear the fault, as if an operator freed disk space."""
        self.full = False
        self.after_bytes = float("inf")


def _last_frame_length(path: str | os.PathLike) -> int:
    """Total framed length (header + body) of the file's last valid record."""
    data = open(path, "rb").read()
    offset = 0
    last = 0
    while offset + _WAL_HEADER.size <= len(data):
        length, crc = _WAL_HEADER.unpack_from(data, offset)
        body = data[offset + _WAL_HEADER.size : offset + _WAL_HEADER.size + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break
        last = _WAL_HEADER.size + length
        offset += last
    if last == 0:
        raise ReproError(f"no complete record in {path}")
    return last
