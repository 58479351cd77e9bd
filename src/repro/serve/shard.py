"""Worker processes for the sharded serving layer.

DISC's striding pipeline is single-writer by construction, so one tenant can
never use more than one core — but tenants share *nothing* except the
listener socket, which makes them embarrassingly parallel. This module
supplies the process-level half of that parallelism:

- :func:`place` — deterministic consistent-hash placement of tenant names
  onto ``N`` shards (an md5 ring with virtual nodes, stable across
  processes, restarts, and Python hash randomisation);
- the **worker**: ``python -m repro.serve.shard`` runs one ordinary
  :class:`~repro.serve.service.ClusterService` behind a Unix-domain socket,
  speaking the unchanged JSON-lines protocol (the TCP dispatcher is reused
  verbatim — a worker is just today's server on a different transport);
- :class:`ShardedClusterService` — the router-process handle that spawns
  the workers, supervises them (restart with exponential backoff, a
  restart-budget circuit breaker that *decays* after a healthy interval —
  the same policy :class:`~repro.serve.service.ClusterService` applies to
  tenants), migrates legacy single-process data-dir layouts, and aggregates
  per-shard ``STATS``.

Durability is namespaced per shard: tenant state lives under
``<data-dir>/shard-<k>/<tenant>/`` where ``k = place(tenant, shards)``, so
a restarted worker can ``resume_all()`` exactly its own tenants.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import hashlib
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro._version import __version__

#: Virtual nodes per shard on the placement ring. Enough for an even spread
#: at small shard counts without making ring construction noticeable.
VNODES = 64

#: Shard data directories under the service data-dir.
_SHARD_DIR = re.compile(r"^shard-(\d+)$")

#: How often the supervisor polls a worker process for liveness.
_POLL_S = 0.1


# ----------------------------------------------------------------- placement


def _ring(shards: int) -> tuple[list[int], list[int]]:
    """The consistent-hash ring for ``shards`` workers: (hashes, owners)."""
    entries = []
    for k in range(shards):
        for v in range(VNODES):
            digest = hashlib.md5(f"shard-{k}#{v}".encode("ascii")).digest()
            entries.append((int.from_bytes(digest[:8], "big"), k))
    entries.sort()
    return [h for h, _ in entries], [k for _, k in entries]


_RING_CACHE: dict[int, tuple[list[int], list[int]]] = {}


def place(name: str, shards: int) -> int:
    """The shard owning tenant ``name`` under an ``N``-shard deployment.

    Deterministic in (name, shards) only — the same tenant lands on the
    same shard across router restarts, which is what pins its data
    directory. Uses md5 (not :func:`hash`, which is randomised per
    process) over a ring with :data:`VNODES` virtual nodes per shard, so
    growing ``shards`` moves only ``~1/N`` of the tenants.
    """
    if shards <= 1:
        return 0
    if shards not in _RING_CACHE:
        _RING_CACHE[shards] = _ring(shards)
    hashes, owners = _RING_CACHE[shards]
    point = int.from_bytes(hashlib.md5(name.encode("utf-8")).digest()[:8], "big")
    index = bisect.bisect_right(hashes, point) % len(hashes)
    return owners[index]


def migrate_layout(data_dir: Path, shards: int) -> list[tuple[str, int]]:
    """Re-home tenant directories into ``shard-<k>/`` subdirectories.

    Handles both migrations an operator can hit: a legacy single-process
    layout (``<data-dir>/<tenant>/session.json`` at the top level, written
    by ``--shards 0``) and a re-shard (``--shards`` changed, so some
    tenants now belong to a different worker). Returns the moved
    ``(tenant, shard)`` pairs.
    """
    moved = []
    if not data_dir.is_dir():
        return moved
    for meta in sorted(data_dir.glob("*/session.json")):
        tenant = meta.parent.name
        if _SHARD_DIR.match(tenant):
            continue  # a shard dir, not a legacy tenant dir
        moved.append((tenant, place(tenant, shards)))
    for meta in sorted(data_dir.glob("shard-*/*/session.json")):
        tenant = meta.parent.name
        match = _SHARD_DIR.match(meta.parent.parent.name)
        if match is None or place(tenant, shards) == int(match.group(1)):
            continue
        moved.append((tenant, place(tenant, shards)))
    for tenant, shard in moved:
        target = data_dir / f"shard-{shard}" / tenant
        target.parent.mkdir(parents=True, exist_ok=True)
        source = next(
            p
            for p in (
                [data_dir / tenant]
                + sorted(data_dir.glob(f"shard-*/{tenant}"))
            )
            if p.is_dir() and p != target
        )
        shutil.move(str(source), str(target))
    return moved


# -------------------------------------------------------------- worker side


async def run_worker(
    service,
    socket_path: str,
    *,
    resume: bool = False,
    stop: asyncio.Event | None = None,
) -> None:
    """Serve one shard's :class:`ClusterService` on a Unix-domain socket.

    The connection handler is the exact TCP one — the JSON-lines protocol
    does not care about the transport — so everything proven for the
    single-process server (framing, error envelopes, drain semantics)
    holds per shard by construction.
    """
    from repro.serve.server import _STREAM_LIMIT, handle_connection

    if resume:
        resumed = service.resume_all()
        if resumed:
            print(
                f"shard: resumed {len(resumed)} session(s): {', '.join(resumed)}",
                flush=True,
            )
    stop = stop or asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    ppid = os.getppid()

    async def _orphan_watch() -> None:
        # A kill -9'd router cannot signal its workers. Poll for
        # reparenting so an orphaned worker drains (final checkpoint
        # included) instead of serving a socket nobody routes to.
        while not stop.is_set():
            if os.getppid() != ppid:
                print(
                    "shard: router is gone; draining", file=sys.stderr, flush=True
                )
                stop.set()
                break
            await asyncio.sleep(1.0)

    watchdog = asyncio.create_task(_orphan_watch(), name="shard-orphan-watch")
    server = await asyncio.start_unix_server(
        lambda r, w: handle_connection(service, r, w),
        path=socket_path,
        limit=_STREAM_LIMIT,
    )
    print(
        f"shard: listening on {socket_path} (pid {os.getpid()}, repro {__version__})",
        flush=True,
    )
    async with server:
        await stop.wait()
        server.close()
        await server.wait_closed()
    watchdog.cancel()
    try:
        await watchdog
    except asyncio.CancelledError:
        pass
    report = await service.shutdown()
    drained = sum(1 for r in report.values() if r.get("checkpointed"))
    print(
        f"shard: drained {len(report)} session(s), "
        f"{drained} final checkpoint(s) written",
        flush=True,
    )


def _build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve.shard",
        description="one shard worker of a sharded repro serve deployment",
    )
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--socket", required=True, help="Unix socket path to bind")
    parser.add_argument("--data-dir")
    parser.add_argument("--metrics-dir")
    parser.add_argument("--trace-dir")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--restart-budget", type=int, default=3)
    parser.add_argument("--restart-backoff", type=float, default=0.05)
    parser.add_argument("--restart-reset", type=float, default=5.0)
    return parser


def worker_main(argv: list[str] | None = None) -> int:
    """Entry point of one worker process (``python -m repro.serve.shard``)."""
    from repro.serve.service import ClusterService

    args = _build_worker_parser().parse_args(argv)
    service = ClusterService(
        data_dir=args.data_dir,
        metrics_dir=args.metrics_dir,
        trace_dir=args.trace_dir,
        restart_budget=args.restart_budget,
        restart_backoff_s=args.restart_backoff,
        restart_reset_s=args.restart_reset,
        metric_labels={"shard": str(args.shard)},
    )
    try:
        asyncio.run(run_worker(service, args.socket, resume=args.resume))
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0


# -------------------------------------------------------------- router side


def _rss_bytes(pid: int) -> int:
    """Resident set size of a process, linux-style; 0 when unknowable."""
    try:
        fields = Path(f"/proc/{pid}/statm").read_text().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-linux
        return 0


class ShardWorker:
    """The router's handle on one worker process."""

    def __init__(self, index: int, socket_path: str) -> None:
        self.index = index
        self.socket_path = socket_path
        self.proc: subprocess.Popen | None = None
        self.restarts = 0  # cumulative supervised restarts (STATS)
        self.budget_used = 0  # restarts in the current unhealthy window
        self.degraded: str | None = None  # "restarting" / "circuit-open"
        self.healthy_since = 0.0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> int | None:
        return None if self.proc is None else self.proc.pid


class ShardedClusterService:
    """Places tenants onto worker processes and keeps those processes alive.

    The router-side core of ``repro serve --shards N``: it owns the worker
    :class:`subprocess.Popen` handles and their per-shard Unix sockets, but
    no tenant state whatsoever — every session lives inside exactly one
    worker's ordinary :class:`~repro.serve.service.ClusterService`. Worker
    supervision mirrors tenant supervision one level up: a dead worker is
    respawned with ``--resume`` (its tenants come back from checkpoint +
    WAL) under exponential backoff, a restart budget opens the circuit on a
    crash-looping shard, and a shard that stays healthy for
    ``restart_reset_s`` earns its budget back.

    Args:
        shards: worker process count (>= 1; ``0`` is the caller's cue to
            use the in-process :class:`ClusterService` instead).
        data_dir: root durability directory; workers get
            ``<data_dir>/shard-<k>``. ``None`` serves ephemeral tenants.
        metrics_dir / trace_dir: per-tenant observability sinks, shared by
            all workers (tenant names are globally unique; Prometheus
            series carry a ``shard`` label).
        restart_budget / restart_backoff_s / restart_reset_s: worker *and*
            tenant supervision knobs (forwarded to each worker).
        socket_dir: where the per-shard Unix sockets live; a short
            ``/tmp`` directory is created (and cleaned up) by default —
            Unix socket paths have a ~100-byte limit, so test tmp dirs are
            a poor home for them.
    """

    def __init__(
        self,
        shards: int,
        *,
        data_dir: str | os.PathLike | None = None,
        metrics_dir: str | os.PathLike | None = None,
        trace_dir: str | os.PathLike | None = None,
        restart_budget: int = 3,
        restart_backoff_s: float = 0.05,
        restart_reset_s: float = 5.0,
        socket_dir: str | os.PathLike | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"a sharded service needs shards >= 1, got {shards}")
        self.shards = shards
        self.data_dir = None if data_dir is None else Path(data_dir)
        self.metrics_dir = None if metrics_dir is None else Path(metrics_dir)
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        self.restart_budget = restart_budget
        self.restart_backoff_s = restart_backoff_s
        self.restart_reset_s = restart_reset_s
        self.accepting = True
        self.port: int | None = None  # set by run_router once bound
        self._owns_socket_dir = socket_dir is None
        self.socket_dir = Path(
            tempfile.mkdtemp(prefix="repro-shards-")
            if socket_dir is None
            else socket_dir
        )
        self.workers = [
            ShardWorker(k, str(self.socket_dir / f"shard-{k}.sock"))
            for k in range(shards)
        ]
        self._watchers: list[asyncio.Task] = []

    # ------------------------------------------------------------- placement

    def shard_for(self, name: str) -> ShardWorker:
        return self.workers[place(name, self.shards)]

    # ------------------------------------------------------------- lifecycle

    async def start(self, *, resume: bool = False) -> None:
        """Migrate the data-dir layout, spawn every worker, await readiness."""
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
            moved = migrate_layout(self.data_dir, self.shards)
            if moved:
                print(
                    f"serve: migrated {len(moved)} tenant dir(s) into the "
                    f"sharded layout: "
                    + ", ".join(f"{t}→shard-{k}" for t, k in moved),
                    flush=True,
                )
        for worker in self.workers:
            self._spawn(worker, resume=resume)
        await asyncio.gather(*(self._wait_ready(w) for w in self.workers))
        loop = asyncio.get_running_loop()
        self._watchers = [
            loop.create_task(self._watch(w), name=f"shard-supervisor-{w.index}")
            for w in self.workers
        ]

    def _spawn(self, worker: ShardWorker, *, resume: bool) -> None:
        try:
            os.unlink(worker.socket_path)
        except OSError:
            pass
        argv = [
            sys.executable,
            "-m",
            "repro.serve.shard",
            "--shard",
            str(worker.index),
            "--socket",
            worker.socket_path,
            "--restart-budget",
            str(self.restart_budget),
            "--restart-backoff",
            str(self.restart_backoff_s),
            "--restart-reset",
            str(self.restart_reset_s),
        ]
        if self.data_dir is not None:
            argv += ["--data-dir", str(self.data_dir / f"shard-{worker.index}")]
        if self.metrics_dir is not None:
            argv += ["--metrics-dir", str(self.metrics_dir)]
        if self.trace_dir is not None:
            argv += ["--trace-dir", str(self.trace_dir)]
        if resume:
            argv.append("--resume")
        env = dict(os.environ)
        # The worker must import the same repro the router runs — prepend
        # its package root so uninstalled source checkouts work too.
        package_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (package_root, env.get("PYTHONPATH"))
            if p
        )
        worker.proc = subprocess.Popen(argv, env=env)
        worker.healthy_since = time.monotonic()

    async def _wait_ready(self, worker: ShardWorker, timeout: float = 30.0) -> None:
        """Block until the worker's socket accepts connections."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not worker.alive:
                raise RuntimeError(
                    f"shard-{worker.index} worker died during startup "
                    f"(exit {worker.proc.returncode})"
                )
            try:
                _, writer = await self.connect(worker)
            except OSError:
                await asyncio.sleep(0.05)
                continue
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - close races
                pass
            return
        raise RuntimeError(f"shard-{worker.index} worker never became ready")

    async def connect(
        self, worker: ShardWorker
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """One fresh upstream connection to a worker (router, STATS, readiness).

        A dead worker refuses connections, so the first one that succeeds
        ends a ``restarting`` mark (never ``circuit-open``).
        """
        from repro.serve.server import _STREAM_LIMIT

        conn = await asyncio.open_unix_connection(
            worker.socket_path, limit=_STREAM_LIMIT
        )
        if worker.degraded == "restarting":
            worker.degraded = None
        return conn

    async def stop(self) -> None:
        """Graceful shutdown: SIGTERM every worker, await their drains."""
        self.accepting = False
        for task in self._watchers:
            task.cancel()
        self._watchers = []
        for worker in self.workers:
            if worker.alive:
                worker.proc.send_signal(signal.SIGTERM)
        for worker in self.workers:
            if worker.proc is None:
                continue
            try:
                await asyncio.to_thread(worker.proc.wait, 30)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck drain
                worker.proc.kill()
                await asyncio.to_thread(worker.proc.wait)
        if self._owns_socket_dir:
            shutil.rmtree(self.socket_dir, ignore_errors=True)

    # ----------------------------------------------------------- supervision

    async def _watch(self, worker: ShardWorker) -> None:
        """Keep one worker alive: restart with backoff, budget, decay.

        The same circuit-breaker policy the in-worker ``ClusterService``
        applies to tenant writers, applied to the worker processes: crash
        → backoff → respawn with ``--resume`` (tenants return from
        checkpoint + WAL), a budget of restarts per unhealthy window, and
        the window closes again after ``restart_reset_s`` of health.
        """
        while self.accepting:
            if worker.alive:
                if (
                    worker.budget_used
                    and time.monotonic() - worker.healthy_since
                    > self.restart_reset_s
                ):
                    worker.budget_used = 0
                await asyncio.sleep(_POLL_S)
                continue
            if not self.accepting:  # pragma: no cover - stop() race
                return
            attempt = worker.budget_used
            if attempt >= self.restart_budget:
                worker.degraded = "circuit-open"
                print(
                    f"serve: shard-{worker.index} crashed with its restart "
                    f"budget exhausted ({self.restart_budget}); circuit open",
                    file=sys.stderr,
                    flush=True,
                )
                return
            worker.degraded = "restarting"
            print(
                f"serve: shard-{worker.index} worker died "
                f"(exit {worker.proc.returncode if worker.proc else '?'}); "
                f"restart {attempt + 1}/{self.restart_budget} in "
                f"{self.restart_backoff_s * 2**attempt:.3f}s",
                file=sys.stderr,
                flush=True,
            )
            await asyncio.sleep(self.restart_backoff_s * 2**attempt)
            if not self.accepting:
                return
            worker.budget_used += 1
            worker.restarts += 1
            self._spawn(worker, resume=True)
            try:
                await self._wait_ready(worker)
            except RuntimeError:
                continue  # died again during startup; loop charges the budget
            worker.healthy_since = time.monotonic()

    # ----------------------------------------------------------------- stats

    async def _worker_stats(self, worker: ShardWorker) -> dict | None:
        """One worker's session-less STATS, or None when unreachable."""
        from repro.serve import protocol

        if not worker.alive:
            return None
        try:
            reader, writer = await self.connect(worker)
        except OSError:
            return None
        try:
            writer.write(protocol.encode_frame({"op": "STATS"}))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            if not line:
                return None
            reply = protocol.decode_frame(line)
            return reply if reply.get("ok") else None
        except (OSError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - close races
                pass

    async def stats(self) -> dict:
        """The aggregated session-less ``STATS`` payload.

        A strict superset of the single-process shape: the familiar
        server-wide totals, plus ``shards`` and a per-worker
        ``shard_detail`` list (pid, rss, tenant names, restart counters,
        degraded state) — the router's own supervision view included.
        """
        per_shard = await asyncio.gather(
            *(self._worker_stats(w) for w in self.workers)
        )
        sessions: list[str] = []
        degraded: dict[str, str] = {}
        totals = {"received": 0, "ingested": 0, "queries": 0, "tenant_restarts": 0}
        detail = []
        for worker, stats in zip(self.workers, per_shard):
            entry = {
                "shard": worker.index,
                "pid": worker.pid,
                "alive": worker.alive,
                "rss_bytes": _rss_bytes(worker.pid) if worker.alive else 0,
                "restarts": worker.restarts,
                "degraded": worker.degraded,
                "tenants": [],
            }
            if worker.degraded is not None:
                degraded[f"shard-{worker.index}"] = worker.degraded
            if stats is not None:
                entry["tenants"] = stats.get("sessions", [])
                sessions.extend(entry["tenants"])
                for name, state in stats.get("degraded", {}).items():
                    degraded[name] = state
                for key in totals:
                    totals[key] += stats.get(key, 0)
            detail.append(entry)
        return {
            "version": __version__,
            "accepting": self.accepting,
            "shards": self.shards,
            "router_pid": os.getpid(),
            "worker_restarts": sum(w.restarts for w in self.workers),
            "sessions": sorted(sessions),
            "degraded": dict(sorted(degraded.items())),
            **totals,
            "shard_detail": detail,
        }


if __name__ == "__main__":
    sys.exit(worker_main())
