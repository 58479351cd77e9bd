"""Durable on-disk checkpoint store with atomic writes and rotation.

One store owns one directory. Each checkpoint is a single JSON file named
``checkpoint-<stride>.json`` whose envelope carries a format version, the
stride offset it was taken at, and a CRC32 over the canonical encoding of
the payload; the payload is written in that encoding:

.. code-block:: json

    {"crc32":3735928559,"format":1,"payload":{...},"stride":42}

Durability discipline (the classic write-tmp-fsync-rename dance):

1. the envelope is written to a ``.tmp`` file in the same directory;
2. the file is flushed and ``fsync``-ed;
3. ``os.replace`` atomically installs it under its final name;
4. the directory itself is ``fsync``-ed so the rename survives a crash.

A reader therefore never observes a torn file: either the old checkpoint
exists, or the new one does. Bit rot and manual tampering are caught by the
CRC on load; an unknown format version is rejected rather than guessed at.
Rotation keeps the newest ``keep`` checkpoints and deletes older ones after
every successful save.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path

from repro.common.canonical import canonical_json
from repro.core.checkpoint import CheckpointError

STORE_FORMAT = 1

_NAME = re.compile(r"^checkpoint-(\d{10})\.json$")


def write_atomic(path: Path, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (steps 1–4 above).

    A crash at any moment leaves the old file or the complete new one,
    never an empty or torn one.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. directories on some FSes
        pass
    finally:
        os.close(fd)


class CheckpointStore:
    """Directory-backed store of versioned, CRC-protected checkpoints.

    Args:
        directory: where checkpoint files live; created if missing.
        keep: how many checkpoints to retain (>= 1). Older files are
            deleted after each successful save.
    """

    def __init__(self, directory: str | os.PathLike, keep: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.swept_orphans = self._sweep_orphans()

    def _sweep_orphans(self) -> int:
        """Delete ``*.tmp`` leftovers of a crash between write and rename.

        A crash inside :meth:`save` (after the tmp write, before the
        ``os.replace``) strands a ``checkpoint-*.json.tmp`` file that no
        rotation pass would ever touch — it is not a checkpoint, just dead
        bytes accumulating forever. They carry no recoverable state (the
        rename never happened, so the previous checkpoint is still the
        newest valid one); sweep them on startup. Returns the count.
        """
        swept = 0
        for stale in self.directory.glob("checkpoint-*.json.tmp"):
            try:
                stale.unlink()
                swept += 1
            except FileNotFoundError:  # pragma: no cover - concurrent cleanup
                pass
        return swept

    # ---------------------------------------------------------------- writing

    def save(self, stride: int, payload: dict) -> Path:
        """Durably persist ``payload`` as the checkpoint for ``stride``.

        Returns the final file path. The write is atomic: a crash at any
        moment leaves either no new file or a complete, CRC-valid one.

        The payload is encoded once: the envelope, keys in sorted order, is
        written around the canonical body the CRC covers. :meth:`load`
        parses the file as JSON whatever its spacing.
        """
        body = canonical_json(payload)
        data = b'{"crc32":%d,"format":%d,"payload":%s,"stride":%d}' % (
            zlib.crc32(body), STORE_FORMAT, body, int(stride)
        )
        final = self.directory / f"checkpoint-{stride:010d}.json"
        write_atomic(final, data)
        self._rotate()
        return final

    def _rotate(self) -> None:
        paths = self.checkpoints()
        for stale in paths[: -self.keep]:
            try:
                stale.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent cleanup
                pass

    # ---------------------------------------------------------------- reading

    def checkpoints(self) -> list[Path]:
        """Checkpoint files on disk, oldest first (by stride)."""
        found = []
        for path in self.directory.iterdir():
            match = _NAME.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        found.sort()
        return [path for _, path in found]

    def load(self, path: str | os.PathLike) -> tuple[int, dict]:
        """Validate and decode one checkpoint file.

        Returns ``(stride, payload)``. Raises :class:`CheckpointError` when
        the file is unreadable, has an unknown format version, is missing
        envelope fields, or fails the CRC check.
        """
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {path} is not valid JSON "
                f"(truncated or corrupted write?): {exc}"
            ) from exc
        if not isinstance(envelope, dict):
            raise CheckpointError(f"checkpoint {path}: envelope is not an object")
        fmt = envelope.get("format")
        if fmt != STORE_FORMAT:
            raise CheckpointError(
                f"checkpoint {path}: unsupported store format {fmt!r} "
                f"(this build reads format {STORE_FORMAT})"
            )
        for key in ("stride", "crc32", "payload"):
            if key not in envelope:
                raise CheckpointError(f"checkpoint {path}: missing {key!r}")
        payload = envelope["payload"]
        if not isinstance(payload, dict):
            raise CheckpointError(f"checkpoint {path}: payload is not an object")
        crc = zlib.crc32(canonical_json(payload))
        if crc != envelope["crc32"]:
            raise CheckpointError(
                f"checkpoint {path} failed its integrity check "
                f"(crc32 {crc} != recorded {envelope['crc32']}); "
                "refusing to restore corrupted state"
            )
        return int(envelope["stride"]), payload

    def latest(self) -> tuple[int, dict]:
        """Load the newest checkpoint; raise when none exists or it is bad.

        Corruption is reported, not silently skipped: an operator must
        delete (or repair) a bad newest checkpoint deliberately before an
        older one will be used.
        """
        paths = self.checkpoints()
        if not paths:
            raise CheckpointError(
                f"no checkpoint found in {self.directory} (nothing to resume)"
            )
        return self.load(paths[-1])

    def __len__(self) -> int:
        return len(self.checkpoints())
