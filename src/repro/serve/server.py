"""The asyncio TCP server: frames in, envelopes out, graceful drain.

The server is deliberately thin: each connection reads JSON-lines frames
and hands them to :func:`dispatch`, which translates ops into
:class:`~repro.serve.service.ClusterService` calls and failures into error
envelopes (a bad frame never kills a healthy connection; only an oversized
one does, because the stream cannot be resynchronised). All sessions are
shared across connections — any client may query a tenant another client
feeds.

``SIGTERM``/``SIGINT`` trigger the graceful path: stop accepting, drain
every tenant (flush queues, final checkpoints), close. ``kill -9`` skips
all of that by design — the recovery drill in CI proves the checkpoint
layer brings every tenant back exactly.
"""

from __future__ import annotations

import asyncio
import signal
import sys

from repro._version import __version__
from repro.common.errors import ReproError
from repro.common.snapshot import Clustering
from repro.serve import protocol
from repro.serve.config import SessionConfig
from repro.serve.protocol import ProtocolError, ServeError
from repro.serve.service import ClusterService

#: readline() needs headroom over the frame limit for the newline itself.
_STREAM_LIMIT = protocol.MAX_FRAME_BYTES + 1024


async def dispatch(service: ClusterService, frame: dict) -> dict:
    """Execute one request frame against the service; never raises."""
    rid = frame.get("id")
    op = frame.get("op")
    if op not in protocol.OPS:
        return protocol.error_response(
            "unknown-op", f"unknown op {op!r}; expected one of {protocol.OPS}", rid
        )
    try:
        return await _dispatch_op(service, op, frame, rid)
    except (ProtocolError, ServeError) as exc:
        return protocol.error_response(exc.code, str(exc), rid)
    except ReproError as exc:
        return protocol.error_response("bad-request", str(exc), rid)
    except Exception as exc:  # pragma: no cover - defensive envelope
        return protocol.error_response(
            "internal", f"{type(exc).__name__}: {exc}", rid
        )


def _session_name(frame: dict) -> str:
    name = frame.get("session")
    if not isinstance(name, str) or not name:
        raise ProtocolError(
            "bad-request", f"frame needs a string 'session' field, got {name!r}"
        )
    return name


async def _dispatch_op(
    service: ClusterService, op: str, frame: dict, rid
) -> dict:
    if op == "OPEN":
        name = _session_name(frame)
        config_payload = frame.get("config")
        if not isinstance(config_payload, dict):
            raise ProtocolError("bad-request", "OPEN needs a 'config' object")
        resume = frame.get("resume", "auto")
        if resume not in (True, False, "auto"):
            raise ProtocolError(
                "bad-request", f"resume must be true/false/'auto', got {resume!r}"
            )
        session = service.open(name, SessionConfig.from_dict(config_payload), resume=resume)
        return protocol.ok_response(
            op,
            rid,
            session=name,
            stride=session.view.stride,
            replay_offset=session.replay_offset,
            version=__version__,
        )

    if op == "INGEST":
        session = service.get(_session_name(frame))
        session.require_healthy()
        if session.draining:
            raise ServeError(
                "draining", f"session {session.name!r} is draining"
            )
        items = protocol.decode_points(
            frame.get("points"), start_seq=session.received
        )
        # The writer admits the batch up to its first stride-closing row
        # before the reply, so a failure caused by those rows (strict
        # policy) surfaces in this response rather than the next one.
        result = await session.ingest(items)
        session.require_healthy()
        return protocol.ok_response(op, rid, session=session.name, **result)

    if op == "QUERY":
        session = service.get(_session_name(frame))
        session.queries += 1
        try:
            pid = int(frame["pid"]) if "pid" in frame else None
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad-request", f"bad pid: {exc}") from exc
        if "as_of" in frame:
            spec = frame["as_of"]
            if not isinstance(spec, dict) or not (
                set(spec) <= {"stride", "time"}
            ):
                raise ProtocolError(
                    "bad-request",
                    "as_of must be an object with 'stride' or 'time'",
                )
            try:
                stride = int(spec["stride"]) if "stride" in spec else None
                time = float(spec["time"]) if "time" in spec else None
            except (TypeError, ValueError) as exc:
                raise ProtocolError("bad-request", f"bad as_of: {exc}") from exc
            payload = session.as_of(stride=stride, time=time)
            if pid is not None:
                key = str(pid)
                present = key in payload["categories"]
                labels = payload["labels"]  # noise has none
                payload = {
                    "stride": payload["stride"],
                    "pid": pid,
                    "present": present,
                    "label": labels.get(key, Clustering.NOISE_ID) if present else None,
                    "category": payload["categories"].get(key),
                }
            return protocol.ok_response(op, rid, session=session.name, **payload)
        view = session.view
        if pid is not None:
            return protocol.ok_response(op, rid, **view.membership(pid))
        if "coords" in frame:
            coords = frame["coords"]
            # A non-empty JSON list of finite numbers; a bool is not one, nor
            # an integer beyond the float range.
            if not isinstance(coords, list) or not coords or not all(
                type(c) in (int, float) and abs(c) <= sys.float_info.max
                for c in coords
            ):
                raise ProtocolError(
                    "bad-request", "coords must be a non-empty list of finite numbers"
                )
            probe = tuple(float(c) for c in coords)
            return protocol.ok_response(op, rid, **view.classify(probe))
        raise ProtocolError("bad-request", "QUERY needs 'pid' or 'coords'")

    if op == "SNAPSHOT":
        session = service.get(_session_name(frame))
        session.queries += 1
        return protocol.ok_response(op, rid, **session.view.snapshot_payload())

    if op == "EVENTS":
        session = service.get(_session_name(frame))
        session.queries += 1
        try:
            cursor = int(frame.get("cursor", 0))
            limit = frame.get("limit")
            limit = None if limit is None else int(limit)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad-request", f"bad cursor/limit: {exc}") from exc
        records, head, floor = session.events(cursor, limit=limit)
        next_cursor = (
            records[-1]["stride"] + 1 if records else max(cursor, floor)
        )
        return protocol.ok_response(
            op,
            rid,
            session=session.name,
            events=records,
            next_cursor=next_cursor,
            head=head,
            floor=floor,
        )

    if op == "SUBSCRIBE":
        # Handled by handle_connection (it owns the writer the pump task
        # streams to); reaching the plain dispatcher means the transport
        # cannot stream.
        raise ProtocolError(
            "bad-request", "SUBSCRIBE needs a streaming connection"
        )

    if op == "STATS":
        if frame.get("session") is None:
            return protocol.ok_response(op, rid, **service.stats())
        session = service.get(_session_name(frame))
        return protocol.ok_response(
            op, rid, version=__version__, **session.stats()
        )

    if op == "DRAIN":
        result = await service.drain(
            _session_name(frame), flush_tail=bool(frame.get("flush_tail", False))
        )
        return protocol.ok_response(op, rid, **result)

    # CLOSE
    name = _session_name(frame)
    await service.close(name)
    return protocol.ok_response(op, rid, session=name)


#: Journal records streamed per read while a pump catches up a backlog.
_PUMP_CHUNK = 256


async def _write_frame(writer, wlock: asyncio.Lock, frame: dict) -> None:
    """Write one frame under the connection's write lock.

    Responses from the request loop and push frames from pump tasks share
    one socket; the lock keeps whole frames from interleaving.
    """
    async with wlock:
        writer.write(protocol.encode_frame(frame))
        await writer.drain()


def _prepare_subscription(service, frame: dict):
    """Validate a ``SUBSCRIBE`` frame and register the subscriber.

    Returns ``(response, (session, sub, cursor, head) | None)``.
    Registration happens here — synchronously, before the success envelope
    is written — so no stride closed after the reply can be missed; the
    pump task is started only *after* the envelope is on the wire, so push
    frames never precede it.
    """
    rid = frame.get("id")
    try:
        name = _session_name(frame)
        session = service.get(name)
        session.require_healthy()
        try:
            cursor = int(frame.get("cursor", 0))
            queue_limit = int(frame.get("queue_limit", 256))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad-request", f"bad cursor/queue_limit: {exc}"
            ) from exc
        if queue_limit < 1:
            raise ProtocolError(
                "bad-request", f"queue_limit must be >= 1, got {queue_limit}"
            )
        policy = frame.get("policy", "block")
        sub, effective, head = session.subscribe(
            cursor=cursor, policy=policy, queue_limit=queue_limit
        )
    except (ProtocolError, ServeError) as exc:
        return protocol.error_response(exc.code, str(exc), rid), None
    except ReproError as exc:
        return protocol.error_response("bad-request", str(exc), rid), None
    response = protocol.ok_response(
        "SUBSCRIBE",
        rid,
        session=name,
        cursor=effective,
        head=head,
        policy=policy,
    )
    if effective > max(cursor, 0):
        # Retention compaction ate part of the asked range; tell the
        # client where its stream actually starts.
        response["truncated"] = True
    return response, (session, sub, effective, head)


async def _subscription_pump(
    session, sub, cursor: int, head: int, writer, wlock: asyncio.Lock
) -> None:
    """Stream one subscription: journal backlog, live queue, terminal frame.

    Records in ``[cursor, head)`` (strides journaled before registration)
    come from the journal; records from ``head`` on arrive through the
    subscriber queue the session writer fans out to. The two ranges are
    disjoint by construction, so the client sees every stride exactly once
    and in order.
    """
    name = session.name
    try:
        sub.task = asyncio.current_task()
        try:
            while cursor < head and not sub.closed:
                records = session.evjournal.read(
                    cursor, head, limit=_PUMP_CHUNK
                )
                if not records:
                    break  # compacted under us; resume at the live queue
                for record in records:
                    await _write_frame(
                        writer,
                        wlock,
                        {"push": "event", "session": name, "record": record},
                    )
                    cursor = record["stride"] + 1
        except ReproError as exc:
            sub.end(f"journal-error: {exc}")
        while not (sub.closed and sub.queue.empty()):
            record = await sub.queue.get()
            if record is None:
                break
            await _write_frame(
                writer,
                wlock,
                {"push": "event", "session": name, "record": record},
            )
            cursor = record["stride"] + 1
        await _write_frame(
            writer,
            wlock,
            {
                "push": "end",
                "session": name,
                "reason": sub.reason or "closed",
                "cursor": cursor,
            },
        )
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        session.unsubscribe(sub)


async def handle_connection(
    service: ClusterService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client connection: request/response, in order.

    ``SUBSCRIBE`` frames additionally spawn a pump task that interleaves
    push frames with later responses on the same socket (serialized by a
    per-connection write lock).
    """
    wlock = asyncio.Lock()
    pumps: set[asyncio.Task] = set()
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # The stream cannot be resynchronised past an oversized
                # frame; report and hang up.
                await _write_frame(
                    writer,
                    wlock,
                    protocol.error_response(
                        "bad-frame", "frame exceeds the line limit"
                    ),
                )
                break
            if not line:
                break  # client hung up
            if line.strip() == b"":
                continue
            pump_args = None
            try:
                frame = protocol.decode_frame(line)
            except ProtocolError as exc:
                response = protocol.error_response(exc.code, str(exc))
            else:
                if frame.get("op") == "SUBSCRIBE":
                    response, pump_args = _prepare_subscription(service, frame)
                else:
                    response = await dispatch(service, frame)
            try:
                await _write_frame(writer, wlock, response)
            except BaseException:
                if pump_args is not None:
                    pump_args[0].unsubscribe(pump_args[1])
                raise
            if pump_args is not None:
                task = asyncio.create_task(
                    _subscription_pump(*pump_args, writer, wlock)
                )
                pumps.add(task)
                task.add_done_callback(pumps.discard)
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        for task in list(pumps):
            task.cancel()
        if pumps:
            await asyncio.gather(*pumps, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def run_server(
    service: ClusterService,
    host: str = "127.0.0.1",
    port: int = 7171,
    *,
    resume: bool = False,
    ready: asyncio.Event | None = None,
    stop: asyncio.Event | None = None,
) -> None:
    """Run the TCP server until stopped, then drain gracefully.

    Args:
        service: the tenant registry to serve.
        host, port: bind address (``port=0`` picks a free port; the chosen
            one is printed on the ready line).
        resume: resurrect persisted tenants from ``service.data_dir``
            before accepting connections.
        ready: optional event set once the socket is listening (in-process
            harnesses).
        stop: optional external stop trigger; SIGTERM/SIGINT set it too.
    """
    if resume:
        resumed = service.resume_all()
        if resumed:
            print(f"serve: resumed {len(resumed)} session(s): {', '.join(resumed)}")
    stop = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread or unsupported platform

    server = await asyncio.start_server(
        lambda r, w: handle_connection(service, r, w),
        host,
        port,
        limit=_STREAM_LIMIT,
    )
    bound_port = server.sockets[0].getsockname()[1]
    service.port = bound_port
    print(f"serve: listening on {host}:{bound_port} (repro {__version__})", flush=True)
    if ready is not None:
        ready.set()
    async with server:
        await stop.wait()
        server.close()
        await server.wait_closed()
    report = await service.shutdown()
    drained = sum(1 for r in report.values() if r.get("checkpointed"))
    print(
        f"serve: drained {len(report)} session(s), "
        f"{drained} final checkpoint(s) written",
        flush=True,
    )


def main(args) -> int:
    """Entry point behind ``repro serve``.

    ``--shards N`` (N >= 1) hands the whole deployment to the sharded
    front end in :mod:`repro.serve.router`; ``--shards 0`` (the default)
    is the original single-process path, byte-for-byte.
    """
    if getattr(args, "shards", 0):
        from repro.serve import router

        return router.main(args)
    service = ClusterService(
        data_dir=args.data_dir,
        metrics_dir=args.metrics_dir,
        trace_dir=args.trace_dir,
        restart_budget=args.restart_budget,
        restart_backoff_s=args.restart_backoff,
        restart_reset_s=getattr(args, "restart_reset", 5.0),
    )
    try:
        asyncio.run(
            run_server(service, args.host, args.port, resume=args.resume)
        )
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    except ReproError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 1
    return 0
