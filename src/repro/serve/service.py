"""The tenant registry: open / resume / query / drain / close sessions.

A :class:`ClusterService` is the server's in-process core (the TCP layer in
:mod:`repro.serve.server` is a thin frame dispatcher over it, and tests
drive it directly). It owns the tenant map and the durability layout: under
``data_dir`` each tenant gets ::

    <data_dir>/<tenant>/session.json    # SessionConfig (write_atomic)
    <data_dir>/<tenant>/ckpt/           # the Supervisor's CheckpointStore
    <data_dir>/<tenant>/wal/            # write-ahead log segments (opt-in)
    <data_dir>/<tenant>/evj/            # evolution journal (CDC) segments
    <data_dir>/<tenant>/archive/        # sparse AS_OF snapshots (opt-in)

so :meth:`ClusterService.resume_all` can resurrect every tenant of a killed
server — config from the metadata file, clustering state from the newest
checkpoint, the acknowledged tail from the WAL — without clients re-sending
their ``OPEN`` frames.

The service also *supervises* its sessions: every tenant gets a watcher
task that waits on the session's ``crashed`` event (set when the writer
task dies on anything other than a policy-governed fault). A crashed tenant
is isolated — its connections get error envelopes, co-resident tenants are
untouched — marked degraded in ``STATS``, and restarted in place from
checkpoint + WAL with exponential backoff. A restart-budget circuit breaker
stops the loop when a tenant keeps dying: past the budget it stays failed
until an operator intervenes.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re
from pathlib import Path

from repro._version import __version__
from repro.common.errors import ConfigurationError
from repro.query.archive import SnapshotArchive
from repro.query.journal import EvolutionJournal
from repro.runtime.store import write_atomic
from repro.runtime.wal import WriteAheadLog
from repro.serve.config import SessionConfig
from repro.serve.protocol import ServeError
from repro.serve.session import TenantSession

logger = logging.getLogger("repro.serve")

#: Tenant names are path components; keep them boring.
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ClusterService:
    """Hosts many independent tenant sessions.

    Args:
        data_dir: root directory for per-tenant durability (checkpoints +
            session metadata). ``None`` serves ephemeral tenants only.
        metrics_dir: when set, each tenant maintains a Prometheus textfile
            ``<metrics_dir>/<tenant>.prom`` (atomic rewrites).
        trace_dir: when set, each tenant appends one JSON trace record per
            stride to ``<trace_dir>/<tenant>.jsonl``.
        journal: when True, every session records its post-admission item
            sequence in ``session.journal`` (test instrumentation).
        restart_budget: supervised restarts allowed per tenant *per
            unhealthy window* before the circuit breaker opens and the
            tenant stays failed.
        restart_backoff_s: base of the exponential restart backoff
            (``backoff * 2**attempt`` seconds before each restart).
        restart_reset_s: how long a restarted tenant must stay healthy for
            its budget window to close (the restart count resets to 0). A
            tenant that crashes once a day forever keeps healing; only a
            crash *loop* opens the circuit.
        metric_labels: extra Prometheus labels stamped on every series of
            the per-tenant textfiles (the sharded deployment passes
            ``{"shard": k}``).
    """

    def __init__(
        self,
        *,
        data_dir: str | os.PathLike | None = None,
        metrics_dir: str | os.PathLike | None = None,
        trace_dir: str | os.PathLike | None = None,
        journal: bool = False,
        restart_budget: int = 3,
        restart_backoff_s: float = 0.05,
        restart_reset_s: float = 5.0,
        metric_labels: dict | None = None,
    ) -> None:
        self.data_dir = None if data_dir is None else Path(data_dir)
        self.metrics_dir = None if metrics_dir is None else Path(metrics_dir)
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        self.journal = journal
        self.restart_budget = restart_budget
        self.restart_backoff_s = restart_backoff_s
        self.restart_reset_s = restart_reset_s
        self.metric_labels = dict(metric_labels or {})
        self.sessions: dict[str, TenantSession] = {}
        # tenant -> "restarting" / "circuit-open" / "unreadable-metadata"
        self.degraded: dict[str, str] = {}
        self.accepting = True
        self.port: int | None = None  # set by run_server once bound
        self._watchers: dict[str, asyncio.Task] = {}
        self._restart_counts: dict[str, int] = {}  # current unhealthy window
        self._restart_totals: dict[str, int] = {}  # lifetime (STATS)
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)

    # -------------------------------------------------------------- lifecycle

    def open(
        self,
        name: str,
        config: SessionConfig,
        *,
        resume: bool | str = "auto",
    ) -> TenantSession:
        """Create (or restore) a tenant session and start its writer task.

        Must run inside the event loop. ``resume="auto"`` picks up a
        checkpoint when one exists, so re-``OPEN``-ing a durable tenant
        after a crash continues it instead of starting over.
        """
        if not self.accepting:
            raise ServeError("draining", "server is draining; no new sessions")
        if not _NAME.match(name):
            raise ServeError(
                "bad-request",
                f"invalid session name {name!r} (want {_NAME.pattern})",
            )
        if name in self.sessions:
            # Idempotent re-OPEN: after a crash the server's --resume path
            # may have resurrected the tenant before the client reconnects;
            # the client's OPEN then just reattaches (and learns the replay
            # offset). A *conflicting* config is still an error.
            existing = self.sessions[name]
            if existing.config == config:
                return existing
            raise ServeError(
                "session-exists",
                f"session {name!r} is already being served with a different config",
            )
        store = None
        wal = None
        evjournal = None
        archive = None
        if self.data_dir is not None:
            tenant_dir = self.data_dir / name
            tenant_dir.mkdir(parents=True, exist_ok=True)
            self._write_meta(tenant_dir / "session.json", config)
            store = str(tenant_dir / "ckpt")
            if config.wal:
                wal = self._make_wal(tenant_dir, config)
            if config.journal:
                evjournal, archive = self._make_query_side(tenant_dir, config)
        elif config.wal:
            raise ServeError(
                "bad-request",
                "the write-ahead log needs a durable tenant: "
                "start the server with --data-dir",
            )
        elif config.journal:
            raise ServeError(
                "bad-request",
                "the evolution journal needs a durable tenant: "
                "start the server with --data-dir",
            )
        session = TenantSession(
            name,
            config,
            store=store,
            tracer=self._make_tracer(name),
            journal=[] if self.journal else None,
            wal=wal,
            evjournal=evjournal,
            archive=archive,
        )
        session.start(resume=resume if store is not None else False)
        self.sessions[name] = session
        self.degraded.pop(name, None)  # its metadata is readable again
        self._supervise(name)
        return session

    def resume_all(self) -> list[str]:
        """Resurrect every tenant persisted under ``data_dir``.

        Returns the resumed tenant names, sorted. Tenants without a
        checkpoint yet (killed before the first one) restart fresh from
        their persisted config — either way the client replays the stream
        from the beginning and the session swallows the covered prefix. A
        tenant whose ``session.json`` cannot be read is skipped: logged at
        error level, listed in STATS ``degraded`` as
        ``"unreadable-metadata"``, and its directory left untouched.
        """
        if self.data_dir is None:
            return []
        resumed = []
        for meta_path in sorted(self.data_dir.glob("*/session.json")):
            name = meta_path.parent.name
            if name in self.sessions:
                continue
            try:
                config = self._read_meta(meta_path)
            except ServeError as exc:
                logger.error("tenant %s not resumed: %s", name, exc)
                self.degraded[name] = "unreadable-metadata"
                continue
            self.open(name, config, resume="auto")
            resumed.append(name)
        return resumed

    def get(self, name: str) -> TenantSession:
        try:
            return self.sessions[name]
        except KeyError:
            raise ServeError(
                "no-such-session", f"no session named {name!r}"
            ) from None

    async def drain(self, name: str, *, flush_tail: bool = False) -> dict:
        """Drain one tenant: stop admitting, flush, final checkpoint."""
        return await self.get(name).drain(flush_tail=flush_tail)

    async def close(self, name: str) -> None:
        """Stop one tenant's writer and forget it (checkpoints remain)."""
        session = self.get(name)
        self._unwatch(name)
        await session.close()
        if session.wal is not None:
            session.wal.close()
        if session.evjournal is not None:
            session.evjournal.close()
        if session.tracer is not None:
            session.tracer.close()
        self.degraded.pop(name, None)
        del self.sessions[name]

    async def shutdown(self, *, flush_tail: bool = False) -> dict:
        """Graceful drain of the whole server.

        Stops admitting new sessions, drains every tenant (queues flushed,
        final checkpoints written), then stops the writer tasks. Returns a
        per-tenant drain report.
        """
        self.accepting = False
        for name in list(self._watchers):
            self._unwatch(name)
        report = {}
        for name in sorted(self.sessions):
            report[name] = await self.sessions[name].drain(flush_tail=flush_tail)
        for name in list(self.sessions):
            await self.close(name)
        return report

    def stats(self) -> dict:
        """Server-level stats for a session-less ``STATS`` frame."""
        return {
            "version": __version__,
            "accepting": self.accepting,
            "sessions": sorted(self.sessions),
            "degraded": {name: state for name, state in sorted(self.degraded.items())},
            "tenant_restarts": sum(self._restart_totals.values()),
            "received": sum(s.received for s in self.sessions.values()),
            "ingested": sum(s.ingested for s in self.sessions.values()),
            "queries": sum(s.queries for s in self.sessions.values()),
        }

    # ------------------------------------------------------------ supervision

    def _supervise(self, name: str) -> None:
        """Attach the self-healing watcher for one tenant."""
        self._unwatch(name)
        self._watchers[name] = asyncio.get_running_loop().create_task(
            self._watch(name), name=f"serve-supervisor-{name}"
        )

    def _unwatch(self, name: str) -> None:
        task = self._watchers.pop(name, None)
        if task is not None and not task.done():
            task.cancel()

    async def _watch(self, name: str) -> None:
        """Restart a crashed tenant from checkpoint + WAL, with backoff.

        One watcher per tenant: it waits for the session's ``crashed``
        event, backs off exponentially, rebuilds the session *in place*
        (same config, same store, same WAL, same tracer) and keeps
        watching the replacement. The restart budget is a circuit breaker:
        a tenant that keeps dying stays failed — its connections keep
        getting error envelopes — rather than burning CPU in a crash loop.
        Co-resident tenants never notice any of this.

        The budget covers one *unhealthy window*, not the tenant's
        lifetime: a replacement that stays healthy for ``restart_reset_s``
        resets the count, so isolated crashes days apart never accumulate
        into a spurious circuit-open (they still show up in the cumulative
        ``tenant_restarts`` stat).
        """
        while True:
            session = self.sessions.get(name)
            if session is None:
                return
            if self._restart_counts.get(name, 0) and not session.crashed.is_set():
                # A budget window is open: give the replacement
                # restart_reset_s to prove itself before charging the next
                # crash against the same window.
                try:
                    await asyncio.wait_for(
                        session.crashed.wait(), timeout=self.restart_reset_s
                    )
                except asyncio.TimeoutError:
                    if (
                        self.sessions.get(name) is session
                        and session.failed is None
                    ):
                        self._restart_counts[name] = 0
                    continue
            else:
                await session.crashed.wait()
            if self.sessions.get(name) is not session:
                continue  # replaced under us (re-OPEN race); watch the new one
            attempt = self._restart_counts.get(name, 0)
            if attempt >= self.restart_budget:
                self.degraded[name] = "circuit-open"
                logger.error(
                    "tenant %s: crashed again with restart budget exhausted "
                    "(%d); circuit open — session stays failed (%s)",
                    name,
                    self.restart_budget,
                    session.failed,
                )
                return
            self.degraded[name] = "restarting"
            logger.warning(
                "tenant %s: writer crashed (%s); restart %d/%d in %.3fs",
                name,
                session.failed,
                attempt + 1,
                self.restart_budget,
                self.restart_backoff_s * 2**attempt,
            )
            await asyncio.sleep(self.restart_backoff_s * 2**attempt)
            if self.sessions.get(name) is not session or not self.accepting:
                self.degraded.pop(name, None)
                return
            self._restart_counts[name] = attempt + 1
            self._restart_totals[name] = self._restart_totals.get(name, 0) + 1
            replacement = self._rebuild(name, session)
            self.sessions[name] = replacement
            self.degraded.pop(name, None)

    def _rebuild(self, name: str, crashed: TenantSession) -> TenantSession:
        """Build the replacement session for a crashed tenant.

        Reuses the crashed session's store path, WAL (same object — the
        process never died, so its segments and stats carry over), and
        tracer. The replacement resumes from the newest checkpoint and
        replays the WAL tail past it, recovering every acknowledged item —
        including ones that were still queued when the writer died. It
        starts with ``swallow_prefix=False``: connected producers never saw
        a crash and keep sending only *new* points.
        """
        store = (
            str(self.data_dir / name / "ckpt") if self.data_dir is not None else None
        )
        if crashed.wal is not None:
            crashed.wal.stats.tenant_restarts += 1
        replacement = TenantSession(
            name,
            crashed.config,
            store=store,
            tracer=crashed.tracer,
            journal=[] if self.journal else None,
            wal=crashed.wal,
            evjournal=crashed.evjournal,
            archive=crashed.archive,
        )
        # Live subscriptions survive the in-place restart: the pump tasks
        # hold subscriber queues, not the session object, and WAL-tail
        # replay republishes idempotently — no duplicates, no gaps.
        replacement._subscribers = crashed._subscribers
        replacement.restarts = self._restart_totals.get(name, 0)
        replacement.start(
            resume="auto" if store is not None else False, swallow_prefix=False
        )
        return replacement

    def _make_wal(self, tenant_dir: Path, config: SessionConfig) -> WriteAheadLog:
        return WriteAheadLog(
            tenant_dir / "wal",
            fsync=config.wal_fsync,
            fsync_every=config.wal_fsync_every,
            fsync_interval_s=config.wal_fsync_interval_s,
            segment_bytes=config.wal_segment_bytes,
        )

    def _make_query_side(
        self, tenant_dir: Path, config: SessionConfig
    ) -> tuple[EvolutionJournal, SnapshotArchive]:
        """The tenant's CDC journal + AS_OF archive (journal fsync knobs
        mirror the WAL's ``every_n``/``interval`` parameters)."""
        evjournal = EvolutionJournal(
            tenant_dir / "evj",
            fsync=config.journal_fsync,
            fsync_every=config.wal_fsync_every,
            fsync_interval_s=config.wal_fsync_interval_s,
            segment_bytes=config.journal_segment_bytes,
        )
        archive = SnapshotArchive(
            tenant_dir / "archive",
            every=config.archive_every,
            journal=evjournal,
        )
        return evjournal, archive

    # -------------------------------------------------------------- internals

    def _make_tracer(self, name: str):
        if self.metrics_dir is None and self.trace_dir is None:
            return None
        from repro.observability import (
            JsonlTraceWriter,
            PrometheusTextfileExporter,
            Tracer,
        )

        sinks = []
        if self.trace_dir is not None:
            sinks.append(JsonlTraceWriter(self.trace_dir / f"{name}.jsonl"))
        if self.metrics_dir is not None:
            sinks.append(
                PrometheusTextfileExporter(
                    self.metrics_dir / f"{name}.prom",
                    labels=self.metric_labels or None,
                )
            )
        return Tracer(*sinks)

    @staticmethod
    def _write_meta(path: Path, config: SessionConfig) -> None:
        payload = {"version": __version__, "config": config.as_dict()}
        write_atomic(path, json.dumps(payload, indent=2).encode("utf-8"))

    @staticmethod
    def _read_meta(path: Path) -> SessionConfig:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return SessionConfig.from_dict(payload["config"])
        except (OSError, ValueError, KeyError, TypeError, ConfigurationError) as exc:
            raise ServeError(
                "internal", f"unreadable session metadata {path}: {exc}"
            ) from exc
