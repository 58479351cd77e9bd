"""One tenant's served pipeline: queue, writer task, published views.

A :class:`TenantSession` owns one
:class:`~repro.runtime.supervisor.Supervisor` (and therefore one DISC, one
window cursor, one input guard, one checkpoint store) and drives it from a
bounded :class:`asyncio.Queue` with a **single writer task** — the only code
that ever mutates clustering state. Producers enqueue through
:meth:`TenantSession.offer` under the session's admission policy
(``block`` / ``shed-oldest`` / ``reject``); readers are answered from
:attr:`TenantSession.view`, an immutable :class:`SessionView` the writer
swaps in atomically after every window advance (copy-on-publish: the
stride's one snapshot, shared with its CDC record, plus read-only numpy
columns of its core points). Because a view is fully constructed before the
single reference assignment, a reader can never observe a half-advanced
stride, and because reads touch only the published view, they never contend
with ingestion.
"""

from __future__ import annotations

import asyncio
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.common.config import WindowSpec
from repro.common.distance import dists_to_many, eps_sq_bound, within_eps
from repro.common.errors import ConfigurationError, ReproError
from repro.common.points import StreamPoint
from repro.common.snapshot import CORE_CODE, Clustering
from repro.datasets.io import MalformedRecord
from repro.query.archive import ArchiveError, SnapshotArchive
from repro.query.journal import EvolutionJournal, stride_record
from repro.runtime.chaos import RuntimeHooks
from repro.runtime.stats import RuntimeStats
from repro.runtime.supervisor import Supervisor
from repro.runtime.wal import WalError, WriteAheadLog
from repro.serve.config import SessionConfig
from repro.serve.protocol import SUBSCRIBE_POLICIES, ServeError

#: Queue sentinel telling the writer task to exit.
_CLOSE = object()


class _DurabilityHooks(RuntimeHooks):
    """Couple the supervisor's stride/checkpoint boundaries to the logs.

    - :meth:`after_stride` publishes the stride's CDC record to the
      evolution journal (and its snapshot to the archive, on cadence)
      *inside* the supervisor's stride step — so by the time a checkpoint
      is taken, every stride it covers is already journaled.
    - :meth:`before_checkpoint` fsyncs the journal, making the invariant
      durable: a durable checkpoint at stride S implies a durable journal
      through stride S. Recovery can therefore always resume publishing
      contiguously (WAL-tail replay re-derives anything past the
      checkpoint idempotently).
    - :meth:`after_checkpoint` garbage-collects WAL segments the
      checkpoint's ``stream_offset`` covers, and journal segments older
      than the retention window (never past the newest archive snapshot
      that still needs them for delta replay).
    """

    def __init__(self, session: "TenantSession") -> None:
        self.session = session

    def after_stride(self, stride: int, summary, clustering) -> None:
        self.session._journal_stride(stride, summary, clustering)

    def before_checkpoint(self, stride: int) -> None:
        evjournal = self.session.evjournal
        if evjournal is not None:
            try:
                evjournal.sync()
            except OSError as exc:  # pragma: no cover - disk failure
                self.session.journal_error = f"journal sync failed: {exc}"

    def after_checkpoint(self, stride: int, path) -> None:
        wal = self.session.wal
        if wal is not None:
            wal.compact(self.session.supervisor.stats.points_seen)
        self.session._compact_journal(stride)


class _Subscriber:
    """One live ``SUBSCRIBE`` consumer: a bounded push queue + its policy.

    The writer fans freshly journaled records into :attr:`queue`; the
    server-side pump task drains it onto the subscriber's connection. A
    ``None`` in the queue is the terminal marker (:attr:`reason` says why).
    """

    __slots__ = ("queue", "policy", "closed", "reason", "task")

    def __init__(self, policy: str, queue_limit: int) -> None:
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self.policy = policy
        self.closed = False
        self.reason: str | None = None
        self.task = None  # the pump task, attached by the server

    def end(self, reason: str) -> None:
        """Mark the subscription over and wake the pump.

        When the queue is full (the slow consumer that usually got us
        here), the newest undelivered record is dropped to make room for
        the terminal marker — the ``end`` frame's ``cursor`` tells the
        client where to resume, so nothing is silently lost.
        """
        if self.closed:
            return
        self.closed = True
        self.reason = reason
        try:
            self.queue.put_nowait(None)
        except asyncio.QueueFull:
            try:
                self.queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - race-free
                pass
            try:
                self.queue.put_nowait(None)
            except asyncio.QueueFull:  # pragma: no cover - race-free
                pass


@dataclass(frozen=True, slots=True, eq=False)
class SessionView:
    """Immutable, point-in-time read surface of one tenant.

    Published by the writer once per window advance; every query of the
    serving layer is answered from the newest view without touching live
    clustering state.

    Attributes:
        stride: index of the window advance this view reflects (``-1``
            before the first advance).
        clustering: the :class:`~repro.common.snapshot.Clustering` snapshot.
        eps: the session's distance threshold (the ad-hoc classification
            radius).
        core_pids, core_coords, core_labels: the core points as
            row-aligned ``(n,)`` int64 pids, ``(n, d)`` float64 coordinates
            and ``(n,)`` int64 cluster ids, in no particular row order; the
            view takes them over and marks them read-only.
    """

    stride: int
    clustering: Clustering
    eps: float
    core_pids: np.ndarray
    core_coords: np.ndarray
    core_labels: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.core_pids, self.core_coords, self.core_labels):
            column.flags.writeable = False

    @classmethod
    def empty(cls, eps: float) -> "SessionView":
        ids = np.empty(0, dtype=np.int64)
        return cls(-1, Clustering({}, {}), eps, ids, np.empty((0, 0)), ids.copy())

    @classmethod
    def from_state(cls, stride: int, clustering: Clustering, state) -> "SessionView":
        """The view of ``clustering``: its core rows sliced from its columns,
        their coordinates copied (never aliased) out of the quiescent window
        ``state`` it was taken from."""
        core = clustering.cat == CORE_CODE
        pids = clustering.pid[core]
        coords = state.store.coords[state.store.slots_of(pids.tolist())]
        labels = clustering.label[core]
        return cls(stride, clustering, state.params.eps, pids, coords, labels)

    def membership(self, pid: int) -> dict:
        """Label + category of a tracked point (noise when unknown)."""
        return {
            "pid": pid,
            "stride": self.stride,
            "label": self.clustering.label_of(pid),
            "category": self.clustering.category_of(pid).value,
            "tracked": pid in self.clustering,
        }

    def classify(self, coords: tuple[float, ...]) -> dict:
        """Label an ad-hoc point by its nearest core within ``eps``.

        The DBSCAN assignment rule for a hypothetical arrival: a point
        within ``eps`` of a core belongs to that core's cluster (nearest
        core wins; exact distance ties break to the lowest cluster label,
        then the lowest core pid, so the answer never depends on the order
        the core rows are stored in); otherwise it is noise, as is a probe of
        another dimensionality. One O(cores) vectorised scan (see
        ``docs/serving.md`` for capacity notes): one squared sum and one
        comparison per core against
        :func:`~repro.common.distance.eps_sq_bound`, which keeps every core
        within ``eps``. The hits are ranked, and the first that passes
        :func:`~repro.common.distance.within_eps` wins, so ``eps`` is
        decided as every index backend decides it. ``distance`` is
        ``math.dist``, so a labelled reply never exceeds ``eps``. The reply
        holds plain Python values: it is JSON-encoded as is.
        """
        best = None
        if self.core_coords.shape[1] == len(coords):
            sq = dists_to_many(coords, self.core_coords)
            (hits,) = np.nonzero(sq <= eps_sq_bound(self.eps))
            # lexsort's last key is the primary one.
            keys = (self.core_pids[hits], self.core_labels[hits], sq[hits])
            for row in hits[np.lexsort(keys)].tolist():
                if within_eps(coords, self.core_coords[row].tolist(), self.eps):
                    best = row
                    break
        return {
            "stride": self.stride,
            "label": (
                Clustering.NOISE_ID if best is None else int(self.core_labels[best])
            ),
            "nearest_core": None if best is None else int(self.core_pids[best]),
            "distance": (
                None if best is None
                else math.dist(coords, self.core_coords[best].tolist())
            ),
        }

    def snapshot_payload(self) -> dict:
        """The full-snapshot wire form (labels, categories, counts)."""
        return {"stride": self.stride, **self.clustering.payload()}


class TenantSession:
    """One tenant: bounded ingest queue, single writer, published views.

    Args:
        name: tenant identifier (protocol ``session`` field).
        config: the session's :class:`~repro.serve.config.SessionConfig`.
        store: checkpoint directory (or ``None`` for a non-durable tenant).
        tracer: optional :class:`~repro.observability.trace.Tracer` for
            per-tenant stride traces / Prometheus metrics.
        journal: optional list collecting every raw item the writer fed to
            the pipeline, in order — the *post-admission* sequence. Tests
            use it to replay a served run through ``api.cluster_stream`` and
            prove byte-identical labels under every backpressure policy.
        wal: optional :class:`~repro.runtime.wal.WriteAheadLog`. When set,
            :meth:`offer` journals every admitted item *before* it is
            acknowledged (ACK ⇒ durable under ``fsync=always``), and
            :meth:`start` replays the WAL tail past the restored
            checkpoint's stream offset — a ``kill -9`` at any instant loses
            zero acknowledged points. A WAL demands the ``block`` policy:
            :meth:`offer` journals-then-enqueues, and the shedding policies
            drop *already journaled (and acked)* items from the queue, so a
            post-crash replay would resurrect points the pre-crash pipeline
            never fed and the restarted tenant's labels would silently
            diverge from a never-crashed run. ``SessionConfig`` enforces the
            rule for config-driven WALs; this constructor enforces it again
            for directly injected ``wal`` objects, which bypass the config.
        evjournal: optional :class:`~repro.query.journal.EvolutionJournal`.
            When set, the writer publishes every closed stride's CDC
            record (events + membership delta) at the copy-on-publish
            point — the feed behind ``SUBSCRIBE``/``EVENTS`` and the delta
            source for ``AS_OF`` time travel. Unlike the WAL it works
            under any backpressure policy: it journals *derived strides*,
            not admissions.
        archive: optional :class:`~repro.query.archive.SnapshotArchive`
            writing sparse full snapshots every ``config.archive_every``
            strides for ``AS_OF`` queries.
    """

    def __init__(
        self,
        name: str,
        config: SessionConfig,
        *,
        store=None,
        tracer=None,
        journal: list | None = None,
        wal: WriteAheadLog | None = None,
        evjournal: EvolutionJournal | None = None,
        archive: SnapshotArchive | None = None,
    ) -> None:
        if wal is not None and config.backpressure != "block":
            raise ConfigurationError(
                f"session {name!r}: a write-ahead log requires the 'block' "
                f"backpressure policy, not {config.backpressure!r} — "
                "shed-oldest/reject drop items after they were journaled "
                "and acked, so WAL replay after a crash would resurrect "
                "points the live pipeline never processed"
            )
        self.name = name
        self.config = config
        self.tracer = tracer
        self.journal = journal
        self.wal = wal
        self.evjournal = evjournal
        self.archive = archive
        if tracer is not None and wal is not None:
            tracer.sources["wal"] = wal.stats
        if tracer is not None and evjournal is not None:
            tracer.sources["journal"] = evjournal.stats
        needs_hooks = wal is not None or evjournal is not None or archive is not None
        self.supervisor = Supervisor(
            config.eps,
            config.tau,
            WindowSpec(window=config.window, stride=config.stride),
            store=store,
            checkpoint_every=config.checkpoint_every,
            index=config.index,
            time_based=config.time_based,
            policy=config.on_malformed,
            stats=RuntimeStats(),
            hooks=_DurabilityHooks(self) if needs_hooks else None,
            tracer=tracer,
        )
        self.view: SessionView = SessionView.empty(config.eps)
        self.draining = False
        self.drained = False
        self.failed: str | None = None
        self.received = 0  # raw items offered by producers
        self.shed = 0  # queued items dropped by shed-oldest
        self.rejected = 0  # items refused by reject (or while draining)
        self.skipped_replay = 0  # replayed prefix consumed after a resume
        self.ingested = 0  # items fed into the pipeline by the writer
        self.queries = 0
        self.restarts = 0  # supervised restarts of this tenant (service-set)
        self.wal_error: str | None = None  # last journalling failure, if any
        self.journal_error: str | None = None  # last CDC/archive failure
        self.journal_floor_pinned: str | None = None  # why floor < retention cut
        self.crashed = asyncio.Event()  # unexpected writer death (supervision)
        self.replay_offset = 0  # prefix length a resume asked us to swallow
        self._skip = 0  # replay prefix still to swallow (resume)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=config.queue_limit)
        self._pausing = False  # the writer waits between an item's steps
        self._writer: asyncio.Task | None = None
        self._journal_prev: Clustering | None = None  # CDC delta base
        self._last_time: float | None = None  # stamp of the last fed point
        self._pending_push: list[dict] = []  # journaled, not yet fanned out
        self._subscribers: list[_Subscriber] = []

    # ------------------------------------------------------------- lifecycle

    def start(
        self, *, resume: bool | str = False, swallow_prefix: bool = True
    ) -> int:
        """Initialise (or restore) the pipeline and start the writer task.

        Returns the replay offset: how many leading raw stream items the
        restored state already covers — the checkpoint's stream offset plus
        every acknowledged item recovered from the write-ahead log past it.
        With ``swallow_prefix`` (the default, for full-server restarts) the
        session swallows exactly that many subsequent offers itself, so a
        producer simply re-sends the stream from the beginning after a
        crash. A supervised in-place restart passes ``False``: connected
        clients never saw the crash and keep sending *new* points only.
        """
        offset = self.supervisor.begin(resume=resume)
        if self.supervisor.stride > 0 and (
            self.evjournal is not None or self.archive is not None
        ):
            # The CDC delta base after a restore is the checkpointed
            # clustering (stride index ``supervisor.stride - 1``): the next
            # closed stride diffs against it, exactly as the pre-crash
            # writer would have.
            self._journal_prev = self.supervisor.clusterer.snapshot()
        replayed = 0
        if self.wal is not None:
            # The acknowledged tail the checkpoint does not cover. Feeding
            # it reconstructs exactly the pre-crash pipeline state: same
            # items, same order, same stride boundaries — and the stride
            # hooks re-derive (and idempotently skip) the journal records
            # those boundaries produced before the crash.
            try:
                for item in self.wal.replay(offset):
                    if isinstance(item, StreamPoint):
                        self._last_time = item.time
                    self.supervisor.feed(item)
                    if self.journal is not None:
                        self.journal.append(item)
                    replayed += 1
                    self.ingested += 1
            except ReproError as exc:
                # Deterministic re-failure (e.g. a journaled malformed
                # record under the strict policy): the session comes back
                # in the same failed state the crash left it in.
                self.failed = f"{type(exc).__name__}: {exc}"
        self.replay_offset = offset + replayed
        self._skip = self.replay_offset if swallow_prefix else 0
        self._flush_pending_nowait()
        if self.supervisor.stride > 0:
            # Restored mid-run: publish the recovered clustering so readers
            # see the resumed state before the first new advance.
            self._publish(self.supervisor.snapshot())
        self._writer = asyncio.get_running_loop().create_task(
            self._writer_loop(), name=f"serve-writer-{self.name}"
        )
        return self.replay_offset

    async def close(self) -> None:
        """Stop the writer task (does not checkpoint; see :meth:`drain`)."""
        self.end_subscriptions("closed")
        if self._writer is None:
            return
        if not self._writer.done():
            await self._queue.put(_CLOSE)
        await self._writer
        self._writer = None

    # ------------------------------------------------------------- ingestion

    async def offer(
        self, items: Iterable[StreamPoint | MalformedRecord]
    ) -> dict:
        """Admit a batch of raw stream items under the session policy.

        Returns the admission outcome: ``accepted`` (enqueued, or swallowed
        as replayed prefix after a resume), ``shed``, ``rejected``, and the
        queue ``depth`` afterwards. With a write-ahead log every accepted
        item is journaled before enqueueing and the log is committed before
        this method returns — the acknowledgement implies durability under
        the configured fsync policy.
        """
        accepted = shed = rejected = 0
        journaled = 0
        policy = self.config.backpressure
        for item in items:
            self.received += 1
            if self.failed is not None or self.draining:
                rejected += 1
                continue
            if self._skip > 0:
                # Replay of a prefix the restored checkpoint already covers.
                self._skip -= 1
                self.skipped_replay += 1
                accepted += 1
                continue
            if self.wal is not None:
                # Journal-then-enqueue: an item the producer will see
                # acknowledged exists on disk (page cache at worst; the
                # commit below applies the fsync policy) before the
                # pipeline can touch it. A failed append (disk full, broken
                # log) refuses the item instead of acknowledging it.
                try:
                    self.wal.append(item)
                    journaled += 1
                except WalError as exc:
                    self.wal_error = str(exc)
                    rejected += 1
                    continue
            if policy == "block":
                await self._queue.put(item)
                accepted += 1
            elif policy == "shed-oldest":
                while self._queue.full():
                    try:
                        self._queue.get_nowait()
                    except asyncio.QueueEmpty:  # pragma: no cover - race-free
                        break
                    self._queue.task_done()
                    shed += 1
                self._queue.put_nowait(item)
                accepted += 1
            else:  # reject
                if self._queue.full():
                    rejected += 1
                else:
                    self._queue.put_nowait(item)
                    accepted += 1
        self.shed += shed
        self.rejected += rejected
        if self.wal is not None and journaled:
            try:
                self.wal.commit()  # the ACK boundary: durable per policy
            except OSError as exc:
                # The fsync itself failed: the batch is enqueued but its
                # durability cannot be promised — withhold the ack.
                self.wal_error = f"WAL commit failed: {exc}"
                raise ServeError(
                    "wal-error",
                    f"session {self.name!r} could not make the batch "
                    f"durable: {exc}",
                ) from exc
        result = {
            "accepted": accepted,
            "shed": shed,
            "rejected": rejected,
            "depth": self._queue.qsize(),
        }
        if self.wal_error is not None and rejected:
            result["wal_error"] = self.wal_error
        return result

    async def ingest(
        self, items: Iterable[StreamPoint | MalformedRecord]
    ) -> dict:
        """:meth:`offer` a batch, then let the writer admit it up to its
        first stride-closing row (the ``INGEST`` op).

        The writer runs until it waits before a stride or runs out of
        items, so a failure those rows cause (strict policy) is set when
        this returns; the stride itself runs after. That takes one
        scheduling slot, or, when the writer was waiting between the steps
        of an earlier item, the slots that finish that item first.
        """
        pausing = self.ingested if self._pausing else None
        result = await self.offer(items)
        await asyncio.sleep(0)
        while pausing is not None and self._pausing and self.ingested == pausing:
            await asyncio.sleep(0)
        return result

    async def drain(self, *, flush_tail: bool = False) -> dict:
        """Stop admitting, flush the queue, take the final checkpoint.

        Args:
            flush_tail: also close the trailing partial stride
                (end-of-stream semantics, matching what
                ``api.cluster_stream`` does when its input ends). Leave
                ``False`` to drain for a restart: the partial batch is
                checkpointed as-is and the resumed session continues the
                stream exactly where it stopped.

        Returns ``{"stride", "ingested", "checkpointed"}``.
        """
        self.draining = True
        if self.failed is None:
            await self._queue.join()  # writer has fed everything enqueued
            if flush_tail and self.failed is None:
                if results := self.supervisor.finish():
                    self._publish(results[-1][0])
            if self._pending_push:
                await self._fanout(self._take_pending())
            # The writer may have died on an item it dequeued during the
            # join; never checkpoint a failed session.
            path = None if self.failed else self.supervisor.final_checkpoint()
        else:
            path = None
        self.end_subscriptions("drained")
        self.drained = True
        return {
            "stride": self.view.stride,
            "ingested": self.ingested,
            "checkpointed": path is not None,
        }

    # ------------------------------------------------------------- the writer

    async def _writer_loop(self) -> None:
        """The single writer: dequeue, feed, publish. Nothing else mutates.

        An item is fed through :meth:`Supervisor.steps
        <repro.runtime.supervisor.Supervisor.steps>`, with one await after
        each step, so a stride-closing item holds the loop one step at a
        time: its admission (where an INGEST's scheduling slot ends), then
        its stride with the journal record, view publish and push, then any
        due checkpoint.
        """
        while True:
            item = await self._queue.get()
            if item is _CLOSE:
                self._queue.task_done()
                return
            if isinstance(item, StreamPoint):
                # The stamp any stride this item closes is journaled under.
                self._last_time = item.time
            try:
                steps = self.supervisor.steps(item)
                while True:
                    try:
                        results = next(steps, None)
                    except ReproError as exc:
                        self.failed = f"{type(exc).__name__}: {exc}"
                        self._queue.task_done()
                        self._discard_queue()
                        return
                    if results is None:
                        break
                    if results:
                        # No await since the stride's journal publish, so a
                        # SUBSCRIBE sees the record in its backlog or in its
                        # queue, never both.
                        self._publish(results[-1][0])
                        if self._pending_push:
                            # Commit-then-push: under journal_fsync=always a
                            # record is durable before any subscriber can
                            # observe it, so a crash can never lose an event
                            # a client already reacted to.
                            await self._fanout(self._take_pending())
                    self._pausing = True
                    try:
                        await asyncio.sleep(0)
                    finally:
                        self._pausing = False
                if self.journal is not None:
                    self.journal.append(item)
                self.ingested += 1
            except Exception as exc:  # noqa: BLE001 - crash isolation
                # Anything else, anywhere in the item's handling, is an
                # unexpected crash: isolate the tenant and signal the
                # service supervisor, which restarts it from
                # checkpoint + WAL with backoff. (Cancellation is not an
                # Exception and propagates.)
                self.failed = f"crashed: {type(exc).__name__}: {exc}"
                self._queue.task_done()
                self._discard_queue()
                self.crashed.set()
                return
            self._queue.task_done()

    def _discard_queue(self) -> None:
        """Unblock join()/producers after a writer failure."""
        while True:
            try:
                self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            self._queue.task_done()

    def _publish(self, clustering: Clustering) -> None:
        """Swap in an immutable view of ``clustering``, the supervisor's
        snapshot of the current state, atomically.

        Runs between strides in the writer task (or during start/drain, when
        the writer is idle), so it reads a quiescent clusterer. The view is
        complete before the single reference assignment below — the only
        "lock" the read path needs.
        """
        self.view = SessionView.from_state(
            self.supervisor.stride - 1, clustering, self.supervisor.clusterer.state
        )

    # ------------------------------------------------------------- CDC journal

    def _journal_stride(self, stride: int, summary, clustering: Clustering) -> None:
        """Publish one closed stride's CDC record (supervisor hook).

        ``clustering`` is the stride's one snapshot, shared with its view.
        Runs inside the supervisor's stride step (or ``finish``) right
        after the stride closed and *before* any checkpoint for it can be
        taken, so the journal never trails a durable checkpoint.
        Already-journaled strides (WAL-tail replay after a crash) are
        skipped idempotently by ``publish`` — the deterministic pipeline
        re-derives them byte-identically.
        Journal/archive failures degrade CDC (recorded in
        ``journal_error``) instead of failing the tenant.
        """
        if self.evjournal is None and self.archive is None:
            return
        record = stride_record(
            stride,
            self._journal_prev,
            clustering,
            summary,
            time=self._last_time,
        )
        self._journal_prev = clustering
        if self.evjournal is not None:
            try:
                if self.evjournal.publish(record) is not None:
                    self._pending_push.append(record)
            except WalError as exc:
                self.journal_error = str(exc)
                self.end_subscriptions("journal-error")
        if self.archive is not None:
            try:
                self.archive.maybe_snapshot(stride, clustering)
            except (ArchiveError, OSError) as exc:
                self.journal_error = str(exc)

    def _compact_journal(self, stride: int) -> None:
        """Retention GC at a checkpoint boundary (supervisor hook).

        Keeps at least ``journal_retention`` strides of history, and never
        cuts past the newest archive snapshot still needed to answer
        ``AS_OF`` at the retention floor (delta replay starts from a
        snapshot at or before the asked stride).

        When the archive has no snapshot at or before the retention cut —
        a replay-only archive (``archive_every=0``), or a snapshot cadence
        coarser than the retention window — compaction still advances to
        the newest *answerable* stride (the floor every retained ``AS_OF``
        can already be served from) instead of pinning the floor at 0 and
        letting the journal grow without bound; the reason the floor lags
        the retention cut is surfaced in ``STATS``.
        """
        evjournal = self.evjournal
        retention = self.config.journal_retention
        if evjournal is None or retention <= 0:
            return
        upto = stride - retention
        answerable = upto
        reason = None
        if self.archive is not None:
            snap = self.archive.latest_at_or_before(upto)
            if snap is not None:
                # Delta replay for AS_OF(upto) starts at snap: history in
                # [snap+1, upto) stays needed, everything older does not.
                answerable = min(upto, snap + 1)
                if answerable < upto:
                    reason = (
                        f"archive cadence {self.archive.every} > retention "
                        f"{retention}: the newest snapshot at or before the "
                        f"retention cut {upto} is stride {snap}, so the "
                        f"floor holds at {answerable} until the next "
                        "snapshot crosses the cut"
                    )
            else:
                # No snapshot at or before the cut at all. With a
                # replay-only archive (archive_every=0) every AS_OF
                # materializes by replaying from stride 0, so no prefix is
                # ever cuttable; with a snapshotting archive this means
                # even the stride-0 snapshot is missing — equally nothing
                # to stand a delta replay on. Either way AS_OF coverage
                # wins over retention: compact only what is already gone.
                answerable = min(upto, evjournal.floor)
                if answerable < upto:
                    reason = (
                        "replay-only archive (archive_every=0): AS_OF "
                        "replays the journal from stride 0, so retention "
                        f"cannot advance the floor past {evjournal.floor}"
                        if self.archive.every <= 0
                        else f"no archive snapshot at or before the "
                        f"retention cut {upto}; the floor holds at "
                        f"{evjournal.floor}"
                    )
        self.journal_floor_pinned = reason
        if answerable > 0:
            evjournal.compact(answerable)

    def _take_pending(self) -> list[dict]:
        """Freshly journaled records, committed (fsync policy) for push."""
        pending, self._pending_push = self._pending_push, []
        if pending and self.evjournal is not None:
            try:
                self.evjournal.commit()
            except OSError as exc:  # pragma: no cover - disk failure
                self.journal_error = f"journal commit failed: {exc}"
        return pending

    def _flush_pending_nowait(self) -> None:
        """Best-effort fanout during synchronous recovery (``start``).

        Subscribers carried across a supervised restart get records that
        became *newly* journaled during WAL-tail replay (possible when the
        journal's fsync policy is weaker than the WAL's). A full queue here
        ends that subscription — the client resumes from its cursor.
        """
        for record in self._take_pending():
            for sub in list(self._subscribers):
                if sub.closed:
                    continue
                try:
                    sub.queue.put_nowait(record)
                except asyncio.QueueFull:
                    sub.end("slow-consumer")

    async def _fanout(self, records: list[dict]) -> None:
        """Deliver records to every live subscriber under its policy.

        ``block`` awaits queue space — the writer stalls, the ingest queue
        fills, and producers feel it as backpressure, exactly like the
        ingest ``block`` policy. ``disconnect`` ends the subscription when
        its queue is full (the terminal frame carries the resume cursor).
        """
        for record in records:
            for sub in list(self._subscribers):
                if sub.closed:
                    self._subscribers.remove(sub)
                    continue
                if sub.policy == "block":
                    await sub.queue.put(record)
                else:  # disconnect
                    try:
                        sub.queue.put_nowait(record)
                    except asyncio.QueueFull:
                        sub.end("slow-consumer")

    # ---------------------------------------------------------- subscriptions

    def subscribe(
        self,
        *,
        cursor: int = 0,
        policy: str = "block",
        queue_limit: int = 256,
    ) -> tuple[_Subscriber, int, int]:
        """Register a push consumer; return ``(subscriber, cursor, head)``.

        Atomic with respect to the writer (no awaits): records below
        ``head`` at registration time are the backlog the server pump
        streams from the journal; records from ``head`` on arrive through
        the subscriber queue. ``cursor`` is clamped to the journal's
        retention floor (the response tells the client where it actually
        starts).
        """
        if self.evjournal is None:
            raise ServeError(
                "bad-request",
                f"session {self.name!r} has no evolution journal; "
                "open it with journal=true to subscribe",
            )
        if policy not in SUBSCRIBE_POLICIES:
            raise ServeError(
                "bad-request",
                f"unknown subscribe policy {policy!r}; "
                f"expected one of {SUBSCRIBE_POLICIES}",
            )
        if self.drained:
            raise ServeError(
                "draining", f"session {self.name!r} is drained; no more strides"
            )
        effective = max(int(cursor), self.evjournal.floor)
        head = self.evjournal.head
        sub = _Subscriber(policy, queue_limit)
        self._subscribers.append(sub)
        return sub, effective, head

    def unsubscribe(self, sub: _Subscriber) -> None:
        if sub in self._subscribers:
            self._subscribers.remove(sub)

    def end_subscriptions(self, reason: str) -> None:
        """Terminate every live subscription (drain/close/failure)."""
        for sub in list(self._subscribers):
            sub.end(reason)
        self._subscribers.clear()

    def events(
        self, cursor: int = 0, limit: int | None = None
    ) -> tuple[list[dict], int, int]:
        """``EVENTS`` pull: ``(records, head, floor)`` from the journal."""
        if self.evjournal is None:
            raise ServeError(
                "bad-request",
                f"session {self.name!r} has no evolution journal; "
                "open it with journal=true to read events",
            )
        records = self.evjournal.read(max(0, int(cursor)), limit=limit)
        return records, self.evjournal.head, self.evjournal.floor

    def as_of(self, stride: int | None = None, time: float | None = None) -> dict:
        """``AS_OF`` time travel: full membership payload at a past stride."""
        if self.archive is None:
            raise ServeError(
                "bad-request",
                f"session {self.name!r} has no snapshot archive; "
                "open it with journal=true to time-travel",
            )
        try:
            return self.archive.as_of(stride=stride, time=time)
        except ArchiveError as exc:
            raise ServeError("bad-request", str(exc)) from exc

    # ------------------------------------------------------------- read side

    def require_healthy(self) -> None:
        """Raise when the writer has died (strict-policy fault etc.)."""
        if self.failed is not None:
            raise ServeError(
                "session-failed", f"session {self.name!r} failed: {self.failed}"
            )

    def stats(self) -> dict:
        """Operational counters for the ``STATS`` frame."""
        supervisor_stats = self.supervisor.stats
        payload = {
            "session": self.name,
            "stride": self.view.stride,
            "window_points": self.view.clustering.num_points,
            "clusters": self.view.clustering.num_clusters,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "backpressure": self.config.backpressure,
            "received": self.received,
            "ingested": self.ingested,
            "shed": self.shed,
            "rejected": self.rejected,
            "skipped_replay": self.skipped_replay,
            "queries": self.queries,
            "draining": self.draining,
            "drained": self.drained,
            "failed": self.failed,
            "restarts": self.restarts,
            "runtime": supervisor_stats.as_dict(),
            "config": self.config.as_dict(),
        }
        if self.wal is not None:
            payload["wal"] = self.wal.stats.as_dict()
            if self.wal_error is not None:
                payload["wal_error"] = self.wal_error
        if self.evjournal is not None:
            payload["journal"] = {
                **self.evjournal.stats.as_dict(),
                "head": self.evjournal.head,
                "floor": self.evjournal.floor,
                "subscribers": len(self._subscribers),
            }
            if self.journal_floor_pinned is not None:
                payload["journal"]["floor_pinned"] = self.journal_floor_pinned
            if self.journal_error is not None:
                payload["journal_error"] = self.journal_error
        if self.archive is not None:
            payload["archive"] = {
                "snapshots": len(self.archive.strides()),
                "every": self.archive.every,
            }
        if self.tracer is not None:
            payload["trace"] = self.tracer.aggregate.latency_summary()
        return payload
