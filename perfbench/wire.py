"""A pipelined JSON-lines client for ``repro serve`` and an open-loop sender.

The benchmark drives the server from outside, over TCP, with blocking
sockets and threads rather than asyncio: ``time.sleep`` wakes within tens
of microseconds, while an event loop's timers round up to a millisecond,
which would add up to 1 ms of generator lateness to every sample.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future


class ServerGone(ConnectionError):
    """The server closed the connection with requests still in flight."""


class Connection:
    """One TCP connection with many requests in flight.

    Replies are matched to requests by the frame ``id`` the connection
    assigns; push frames (``{"push": ...}``) go to ``on_push`` with their
    arrival time. A reader thread stamps every arrival the moment its line
    is read.
    """

    def __init__(self, host: str, port: int, *, on_push=None):
        self.on_push = on_push
        self._sock = socket.create_connection((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._next_id = 0
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def send(self, frame: dict) -> Future:
        """Write one request now; the future resolves to ``(reply, arrival)``."""
        future: Future = Future()
        with self._lock:
            self._next_id += 1
            rid = self._next_id
            self._pending[rid] = future
            data = json.dumps({**frame, "id": rid}, separators=(",", ":"))
            self._sock.sendall(data.encode() + b"\n")
        return future

    def request(self, frame: dict, timeout: float = 60.0) -> dict:
        """Send one request and wait for its reply."""
        reply, _ = self.send(frame).result(timeout)
        return reply

    def _read_loop(self) -> None:
        error = ServerGone("server closed the connection")
        try:
            for line in self._file:
                arrival = time.perf_counter()
                frame = json.loads(line)
                if "push" in frame:
                    if self.on_push is not None:
                        self.on_push(frame, arrival)
                    continue
                with self._lock:
                    future = self._pending.pop(frame.get("id"), None)
                if future is None:
                    error = ServerGone(f"reply to no request: {frame}")
                    break
                future.set_result((frame, arrival))
        except (OSError, ValueError) as exc:
            error = ServerGone(f"connection failed: {exc}")
        with self._lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            future.set_exception(error)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=10)


def open_loop(conn: Connection, frames, due):
    """Send ``frames[i]`` at ``due[i]`` without waiting for replies.

    Returns ``(sent, futures)``: the actual send times (their lag behind
    ``due`` is the generator's lateness) and one reply future per frame.
    """
    sent, futures = [], []
    for frame, when in zip(frames, due):
        delay = when - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent.append(time.perf_counter())
        futures.append(conn.send(frame))
    return sent, futures


def collect(futures, timeout: float) -> tuple[list, list]:
    """Wait for every reply; return ``(replies, arrivals)`` (``None``: lost)."""
    deadline = time.monotonic() + timeout
    replies, arrivals = [], []
    for future in futures:
        try:
            reply, arrival = future.result(max(0.0, deadline - time.monotonic()))
        except (TimeoutError, ConnectionError):  # counted as lost, not raised
            reply, arrival = None, None
        replies.append(reply)
        arrivals.append(arrival)
    return replies, arrivals
