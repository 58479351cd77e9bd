"""The stdlib-only JSON-lines TCP protocol of the serving layer.

One request frame per line, one response frame per line, in order. A frame
is a JSON object with an ``op`` (``OPEN`` / ``INGEST`` / ``QUERY`` /
``SNAPSHOT`` / ``EVENTS`` / ``SUBSCRIBE`` / ``STATS`` / ``DRAIN`` /
``CLOSE``), an optional client correlation ``id`` (echoed verbatim), and
op-specific fields. Responses are either a success envelope::

    {"ok": true, "op": "INGEST", "id": 7, ...op-specific fields...}

or an error envelope that never kills the connection::

    {"ok": false, "id": 7, "error": {"code": "no-such-session",
                                     "message": "..."}}

Points travel as ``[pid, [coord, ...], time]`` triples. A row that cannot
be parsed is *not* a protocol error: it is forwarded to the session as a
:class:`~repro.datasets.io.MalformedRecord` so the tenant's configured
input-fault policy (strict/skip/clamp) decides its fate — the wire format
stays policy-agnostic, exactly like the file readers.

``SUBSCRIBE`` adds the one exception to strict request/response ordering:
after its success envelope, the server interleaves *push frames* on the
same connection. A push frame is distinguished by a ``push`` key instead
of ``ok`` — ``{"push": "event", "session": ..., "record": {...}}`` for
each journaled stride, and a terminal
``{"push": "end", "session": ..., "reason": ..., "cursor": ...}`` when
the subscription stops (drain, close, slow-consumer disconnect, or
shard failover). Clients that subscribe on a connection they also issue
requests on must demultiplex by that key.

The protocol is deployment-agnostic: a sharded server (``--shards N``)
speaks exactly the same frames. The only visible differences are additive —
a session-less ``STATS`` response gains ``shards``, ``router_pid``,
``worker_restarts`` and a ``shard_detail`` list (per-shard pid, rss_bytes,
alive, restarts, degraded state, tenant names), and frames addressed to a
tenant whose worker is down carry the ``shard-unavailable`` error code.

See ``docs/serving.md`` for the full frame catalogue.
"""

from __future__ import annotations

import json
import math

from repro.common.errors import ReproError
from repro.common.limits import MAX_FRAME_BYTES  # noqa: F401  (re-export)
from repro.common.points import StreamPoint
from repro.datasets.io import MalformedRecord

#: Ops a client may send.
OPS = (
    "OPEN",
    "INGEST",
    "QUERY",
    "SNAPSHOT",
    "EVENTS",
    "SUBSCRIBE",
    "STATS",
    "DRAIN",
    "CLOSE",
)

#: Error codes carried by error envelopes.
ERROR_CODES = (
    "bad-frame",  # not JSON, not an object, or over the line limit
    "unknown-op",  # op missing or not in OPS
    "bad-request",  # op-specific fields missing or malformed
    "session-exists",  # OPEN of a name already being served
    "no-such-session",  # any op addressed to an unknown session
    "draining",  # INGEST after DRAIN
    "session-failed",  # the writer task died (e.g. strict-policy fault)
    "wal-error",  # the write-ahead log could not make a batch durable
    "shard-unavailable",  # the owning worker is down/restarting/circuit-open
    "internal",  # unexpected server-side failure
)

#: Slow-consumer policies for ``SUBSCRIBE`` (mirrors ingest backpressure):
#: ``block`` stalls the stride pipeline until the subscriber catches up,
#: ``disconnect`` ends the subscription with a terminal push frame.
SUBSCRIBE_POLICIES = ("block", "disconnect")


class ProtocolError(ReproError):
    """A frame that could not be decoded or validated.

    Attributes:
        code: one of :data:`ERROR_CODES`.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ServeError(ReproError):
    """A service-level failure, carrying a protocol error code.

    Raised by :class:`~repro.serve.service.ClusterService` and
    :class:`~repro.serve.session.TenantSession`; the dispatcher turns it
    into an error envelope without dropping the connection.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# ------------------------------------------------------------------- frames


def encode_frame(frame: dict) -> bytes:
    """Serialize one frame to its wire form (compact JSON + newline)."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one wire line into a frame dict.

    Raises:
        ProtocolError: when the line is over the size limit, is not valid
            JSON, or is not a JSON object.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "bad-frame", f"frame exceeds {MAX_FRAME_BYTES} bytes"
        )
    try:
        frame = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad-frame", f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("bad-frame", "frame must be a JSON object")
    return frame


def ok_response(op: str, request_id=None, **fields) -> dict:
    """Build a success envelope for ``op``, echoing the correlation id."""
    response = {"ok": True, "op": op}
    if request_id is not None:
        response["id"] = request_id
    response.update(fields)
    return response


def error_response(code: str, message: str, request_id=None) -> dict:
    """Build an error envelope (connection stays usable)."""
    response = {"ok": False, "error": {"code": code, "message": message}}
    if request_id is not None:
        response["id"] = request_id
    return response


# ------------------------------------------------------------------- points


def encode_point(point: StreamPoint) -> list:
    """One point in wire form: ``[pid, [coords...], time]``."""
    return [point.pid, list(point.coords), point.time]


def encode_points(points) -> list[list]:
    # Already-encoded wire rows pass through untouched, so callers may mix
    # StreamPoints with raw rows (tests exercise malformed rows this way).
    return [p if isinstance(p, list) else encode_point(p) for p in points]


#: Types of a decoded JSON number, matched exactly: a bool is not a number.
_NUMBER = frozenset((int, float))


def decode_point(row, seq: int) -> StreamPoint | MalformedRecord:
    """Decode one wire row ``[pid, coords]`` or ``[pid, coords, time]``.

    ``pid`` must be a JSON integer, ``coords`` a non-empty JSON list of
    numbers and ``time`` a number; a bool is none of these. Any other row
    becomes a :class:`MalformedRecord` (with ``seq`` as its line number)
    instead of an exception, so the session's input-fault policy — not the
    transport — decides whether to raise, skip or clamp. Non-finite
    coordinates are *not* rejected here for the same reason: the guard's
    clamp policy must get the chance to repair them.
    """
    try:
        pid, coords, *rest = row
        time = rest[0] if rest else 0.0
        if (
            type(pid) is not int
            or type(coords) is not list
            or not coords
            or not _NUMBER.issuperset(map(type, coords))
            or type(time) not in _NUMBER
        ):
            raise TypeError(
                "want an integer pid, a non-empty list of numbers as coords "
                "and a numeric time"
            )
        point = StreamPoint(pid, tuple(map(float, coords)), float(time))
    except (TypeError, ValueError, OverflowError) as exc:
        return MalformedRecord(seq, repr(row), str(exc))
    if not math.isfinite(point.time):
        return MalformedRecord(seq, repr(row), "non-finite timestamp")
    return point


def decode_points(rows, start_seq: int = 0) -> list[StreamPoint | MalformedRecord]:
    """Decode an ``INGEST`` frame's point rows, preserving order."""
    if not isinstance(rows, list):
        raise ProtocolError("bad-request", "INGEST points must be a list")
    return [decode_point(row, start_seq + i) for i, row in enumerate(rows)]
