"""Checkpointing DISC's window state for fault tolerance.

A stream processor that dies mid-stream should not have to replay a whole
window. :func:`to_checkpoint` captures everything DISC needs — the per-point
state columns, the cluster-id forest, the generation counters, and the name
of the index backend the run was using — as a JSON-friendly dict;
:func:`from_checkpoint` validates the payload *before* building anything,
rebuilds the same backend through the index registry (bulk-loading via the
batched ``insert_many`` layer, which STR-packs on the R-tree), and returns a
DISC that continues the stream with byte-identical results to an
uninterrupted run.

Format version 3 serializes the :class:`~repro.core.store.PointStore`
columns directly — one JSON array per column, rows in window insertion
order, with ``-1`` encoding the ``None`` of ``cid``/``anchor`` and the
``flags`` bitfield carrying ``was_core`` (deleted rows never reach a
checkpoint). Versions 1 and 2 carried one object per record; they are
lifted into columns on restore and continue byte-identically (covered by
tests/test_checkpoint.py).

The durable envelope around these payloads (CRC, atomic writes, rotation)
lives in :mod:`repro.runtime.store`; this module owns only the logical
DISC state <-> dict mapping.
"""

from __future__ import annotations

import json

import numpy as np

from repro.common.errors import ConfigurationError, ReproError
from repro.core.disc import DISC
from repro.core.store import DELETED, NO_ID, WAS_CORE
from repro.index.registry import available_indexes, backend_name, check_backend

CHECKPOINT_VERSION = 3

#: Versions this build can restore. Version 1 predates the index registry
#: and carries no backend name; it restores onto the default backend.
#: Versions 1-2 carry per-record objects instead of columns.
SUPPORTED_VERSIONS = (1, 2, 3)

_REQUIRED_KEYS = (
    "eps",
    "tau",
    "multi_starter",
    "epoch_probing",
    "cid_parents",
    "cid_next",
)

_REQUIRED_RECORD_KEYS = (
    "pid",
    "coords",
    "time",
    "n_eps",
    "c_core",
    "was_core",
    "cid",
    "anchor",
)

_COLUMN_KEYS = (
    "pid",
    "coords",
    "time",
    "n_eps",
    "c_core",
    "flags",
    "cid",
    "anchor",
)


class CheckpointError(ReproError):
    """Raised when a checkpoint payload cannot be restored."""


def to_checkpoint(disc: DISC) -> dict:
    """Capture a DISC instance's full logical state.

    Exited ex-cores never survive past the end of an ``advance`` call, so a
    checkpoint taken between strides holds live points only. An index no
    backend name rebuilds raises :class:`CheckpointError`.
    """
    if disc.params.index is None and backend_name(disc.index) is None:
        raise CheckpointError(
            f"cannot checkpoint a DISC on a {type(disc.index).__name__}: no "
            f"registered backend ({', '.join(available_indexes())}) restores it"
        )
    state = disc.state
    arena = state.store
    slots = arena.live_slots()
    if len(slots) and np.any(arena.flags[slots] & DELETED):
        raise CheckpointError("checkpoint mid-stride: deleted record still present")
    columns = {
        "pid": arena.pid[slots].tolist(),
        "coords": arena.coords[slots].tolist(),
        "time": arena.time[slots].tolist(),
        "n_eps": arena.n_eps[slots].tolist(),
        "c_core": arena.c_core[slots].tolist(),
        "flags": arena.flags[slots].astype(int).tolist(),
        "cid": arena.cid[slots].tolist(),
        "anchor": arena.anchor[slots].tolist(),
    }
    cids = state.cids
    return {
        "version": CHECKPOINT_VERSION,
        "eps": disc.params.eps,
        "tau": disc.params.tau,
        "index": disc.params.index,
        "multi_starter": disc.multi_starter,
        "epoch_probing": disc.epoch_probing,
        "columns": columns,
        "cid_parents": {str(k): v for k, v in cids._parent.items()},
        "cid_next": cids._next_id,
    }


def _validate_coords(i: int, coords, dim: int | None) -> int:
    if not isinstance(coords, (list, tuple)) or not coords:
        raise CheckpointError(
            f"checkpoint record {i} has invalid coords {coords!r}"
        )
    if dim is None:
        return len(coords)
    if len(coords) != dim:
        raise CheckpointError(
            f"checkpoint record {i} is {len(coords)}-dimensional; "
            f"earlier records are {dim}-dimensional"
        )
    return dim


def _validate(payload: dict) -> None:
    """Reject a malformed payload before any state is constructed."""
    version = payload.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}; "
            f"this build restores versions "
            f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)}"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if version >= 3:
        if "columns" not in payload:
            missing.append("columns")
    elif "records" not in payload:
        missing.append("records")
    if missing:
        raise CheckpointError(
            f"checkpoint is missing required keys: {', '.join(missing)}"
        )
    index = payload.get("index")
    if index is not None:
        if not isinstance(index, str):
            raise CheckpointError(
                f"checkpoint 'index' must be a backend name or null, got {index!r}"
            )
        try:
            check_backend(index)
        except ConfigurationError as exc:
            raise CheckpointError(str(exc)) from None
    if version >= 3:
        _validate_columns(payload["columns"])
    else:
        _validate_records(payload["records"])


def _validate_records(records) -> None:
    if not isinstance(records, list):
        raise CheckpointError("checkpoint 'records' must be a list")
    dim: int | None = None
    for i, entry in enumerate(records):
        if not isinstance(entry, dict):
            raise CheckpointError(f"checkpoint record {i} is not an object")
        missing = [key for key in _REQUIRED_RECORD_KEYS if key not in entry]
        if missing:
            raise CheckpointError(
                f"checkpoint record {i} is missing keys: {', '.join(missing)}"
            )
        dim = _validate_coords(i, entry["coords"], dim)


def _validate_columns(columns) -> None:
    if not isinstance(columns, dict):
        raise CheckpointError("checkpoint 'columns' must be an object")
    missing = [key for key in _COLUMN_KEYS if key not in columns]
    if missing:
        raise CheckpointError(
            f"checkpoint columns are missing keys: {', '.join(missing)}"
        )
    lengths = {key: len(columns[key]) for key in _COLUMN_KEYS}
    if len(set(lengths.values())) > 1:
        raise CheckpointError(
            "checkpoint columns have mismatched lengths: "
            + ", ".join(f"{k}={v}" for k, v in sorted(lengths.items()))
        )
    dim: int | None = None
    for i, coords in enumerate(columns["coords"]):
        dim = _validate_coords(i, coords, dim)
    for i, flags in enumerate(columns["flags"]):
        if not isinstance(flags, int) or flags & ~int(WAS_CORE):
            raise CheckpointError(
                f"checkpoint record {i} has invalid flags {flags!r}"
            )


def _columns_from_records(records: list[dict]) -> dict:
    """Lift a v1/v2 per-record payload into the v3 column layout."""
    return {
        "pid": [entry["pid"] for entry in records],
        "coords": [entry["coords"] for entry in records],
        "time": [entry["time"] for entry in records],
        "n_eps": [entry["n_eps"] for entry in records],
        "c_core": [entry["c_core"] for entry in records],
        "flags": [int(WAS_CORE) if entry["was_core"] else 0 for entry in records],
        "cid": [
            NO_ID if entry["cid"] is None else entry["cid"] for entry in records
        ],
        "anchor": [
            NO_ID if entry["anchor"] is None else entry["anchor"]
            for entry in records
        ],
    }


def from_checkpoint(payload: dict) -> DISC:
    """Rebuild a DISC instance from :func:`to_checkpoint` output.

    The payload is validated up front (version, required keys, coordinate
    dimensionality) so a bad checkpoint raises :class:`CheckpointError`
    before any state exists to corrupt. The spatial index is rebuilt on the
    backend named in the payload via the registry, using the batched
    ``insert_many`` layer so backends with bulk machinery (STR packing on
    the R-tree) load fast.
    """
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint payload must be an object, got {type(payload).__name__}"
        )
    _validate(payload)
    try:
        disc = DISC(
            payload["eps"],
            payload["tau"],
            index=payload.get("index"),
            multi_starter=payload["multi_starter"],
            epoch_probing=payload["epoch_probing"],
        )
        if payload["version"] >= 3:
            columns = payload["columns"]
        else:
            columns = _columns_from_records(payload["records"])
        _populate(disc, columns)
        state = disc.state
        parents = {
            int(k): int(v) for k, v in payload["cid_parents"].items()
        }
        state.cids._parent = parents
        state.cids._size = {k: 1 for k in parents}  # sizes only bias unions
        state.cids._next_id = int(payload["cid_next"])
        state.cids._rebuild_members()
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    return disc


def _populate(disc: DISC, columns: dict) -> None:
    """Load the state columns into the new instance's point store."""
    arena = disc.state.store
    pids = [int(pid) for pid in columns["pid"]]
    coords = [tuple(float(c) for c in row) for row in columns["coords"]]
    times = [float(t) for t in columns["time"]]
    slots = arena.bulk_insert(pids, coords, times)
    if len(slots):
        arena.n_eps[slots] = [int(v) for v in columns["n_eps"]]
        arena.c_core[slots] = [int(v) for v in columns["c_core"]]
        arena.cid[slots] = [int(v) for v in columns["cid"]]
        arena.anchor[slots] = [int(v) for v in columns["anchor"]]
        arena.flags[slots] = np.asarray(
            [int(v) for v in columns["flags"]], dtype=np.uint8
        )
    disc.index.insert_many(list(zip(pids, coords)))


def dumps(disc: DISC) -> str:
    """Checkpoint as a JSON string."""
    return json.dumps(to_checkpoint(disc))


def loads(text: str) -> DISC:
    """Restore from a JSON string checkpoint."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"invalid JSON: {exc}") from exc
    return from_checkpoint(payload)
