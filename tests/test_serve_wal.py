"""Exactly-once ingest: WAL-backed sessions, kill drills, supervision.

Two contracts are proven here, in-process (the subprocess TCP variant lives
in ``test_serve_recovery.py`` and the CI ``wal-smoke`` job):

1. **Durability** — with ``wal_fsync="always"`` under the ``block`` policy,
   a simulated kill -9 + power cut after *any* acknowledged point loses
   zero acknowledged points: the resumed session's replay offset covers
   every ack, and its per-stride labels are byte-identical to an offline
   ``cluster_stream`` over the same stream.
2. **Self-healing** — an unexpected writer crash isolates the tenant,
   leaves co-resident tenants untouched, and the service restarts it from
   checkpoint + WAL (restart budget, exponential backoff, degraded STATS).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.common.errors import ConfigurationError
from repro.observability import InMemorySink, Tracer, validate_trace_record
from repro.observability.sinks import PrometheusTextfileExporter
from repro.runtime.chaos import DiskFull, power_loss
from repro.runtime.wal import WriteAheadLog
from repro.serve import ClusterService, ServeError, SessionConfig, TenantSession

from .conftest import clustered_stream

EPS, TAU = 0.8, 4
WINDOW, STRIDE = 40, 10
N_POINTS = 90  # 9 full strides


def make_config(**overrides) -> SessionConfig:
    base = dict(
        eps=EPS,
        tau=TAU,
        window=WINDOW,
        stride=STRIDE,
        checkpoint_every=2,
        wal=True,
    )
    base.update(overrides)
    return SessionConfig(**base)


def make_wal(tmp_path, config: SessionConfig) -> WriteAheadLog:
    return WriteAheadLog(
        tmp_path / "wal",
        fsync=config.wal_fsync,
        fsync_every=config.wal_fsync_every,
        fsync_interval_s=config.wal_fsync_interval_s,
        segment_bytes=config.wal_segment_bytes,
    )


def offline_history(points, config: SessionConfig) -> list[dict]:
    spec = WindowSpec(window=config.window, stride=config.stride)
    return [
        dict(snapshot.labels)
        for snapshot, _ in cluster_stream(
            points, spec, eps=config.eps, tau=config.tau
        )
    ]


class TestConfig:
    def test_wal_requires_block_policy(self):
        for policy in ("shed-oldest", "reject"):
            with pytest.raises(ConfigurationError, match="block"):
                make_config(backpressure=policy)

    def test_wal_fields_round_trip(self):
        config = make_config(
            wal_fsync="every_n", wal_fsync_every=7, wal_segment_bytes=512
        )
        assert SessionConfig.from_dict(config.as_dict()) == config

    def test_bad_fsync_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="fsync"):
            make_config(wal_fsync="yolo")

    def test_wal_tenant_needs_data_dir(self):
        async def run():
            service = ClusterService(data_dir=None)
            with pytest.raises(ServeError, match="data-dir"):
                service.open("t", make_config())

        asyncio.run(run())


async def _life1(tmp_path, points, cut, config):
    """Feed ``cut`` points one ack at a time, then die without any grace."""
    wal = make_wal(tmp_path, config)
    session = TenantSession(
        "t", config, store=str(tmp_path / "ckpt"), wal=wal
    )
    session.start(resume="auto")
    for i, point in enumerate(points[:cut]):
        result = await session.offer([point])
        assert result["accepted"] == 1
        if i % 7 == 6:
            # Give the writer a scheduling slot so strides advance and
            # checkpoints (and WAL compaction) interleave with ingest —
            # the drill then dies with arbitrary checkpoint/queue overlap.
            await asyncio.sleep(0)
    # kill -9: cancel the writer mid-flight, zero cleanup, no drain.
    session._writer.cancel()
    try:
        await session._writer
    except asyncio.CancelledError:
        pass
    return wal


async def _life2(tmp_path, points, config):
    """Resume, re-send the stream from the start, drain with tail flush."""
    wal = make_wal(tmp_path, config)
    session = TenantSession(
        "t", config, store=str(tmp_path / "ckpt"), wal=wal
    )
    views = []
    original = session._publish

    def capture(*args):
        original(*args)
        views.append(session.view)

    session._publish = capture
    offset = session.start(resume="auto")
    for i in range(0, len(points), 30):
        await session.offer(points[i : i + 30])
    await session.drain(flush_tail=True)
    await session.close()
    wal.close()
    return session, offset, views


def run_kill_drill(tmp_path, points, cut, config, history):
    wal = asyncio.run(_life1(tmp_path, points, cut, config))
    power_loss(wal)  # drop every byte the OS never fsynced
    session, offset, views = asyncio.run(_life2(tmp_path, points, config))
    # Every life-2 view must match the offline run at its stride — the
    # recovered state is byte-identical, not merely similar.
    for view in views:
        if view.stride >= 0:
            assert dict(view.clustering.labels) == history[view.stride], (
                f"cut={cut}: stride {view.stride} diverged after resume"
            )
    assert views[-1].stride == len(history) - 1, f"cut={cut}: wrong stride count"
    return session, offset


class TestKillAtEveryRecord:
    """The acceptance drill: die after every single acknowledged point."""

    @pytest.mark.chaos
    def test_fsync_always_never_loses_an_ack(self, tmp_path):
        points = clustered_stream(21, N_POINTS)
        config = make_config(wal_fsync="always")
        history = offline_history(points, config)
        for cut in range(1, N_POINTS + 1):
            directory = tmp_path / f"cut-{cut}"
            _, offset = run_kill_drill(tmp_path=directory, points=points,
                                       cut=cut, config=config, history=history)
            # ACK => durable: the resumed state covers every acknowledged
            # point, so the producer's re-send is swallowed entirely.
            assert offset == cut, (
                f"cut={cut}: resumed replay offset {offset} lost "
                f"{cut - offset} acknowledged point(s)"
            )

    @pytest.mark.chaos
    @pytest.mark.parametrize("fsync,kwargs", [
        ("every_n", {"wal_fsync_every": 5}),
        ("interval", {"wal_fsync_interval_s": 0.0}),
    ])
    def test_weaker_policies_still_recover_exactly(self, tmp_path, fsync, kwargs):
        """every_n / interval may lose un-fsynced acks to a power cut, but
        the recovered prefix is always clean and the re-sent stream
        converges to the byte-identical offline result."""
        points = clustered_stream(22, N_POINTS)
        config = make_config(wal_fsync=fsync, **kwargs)
        history = offline_history(points, config)
        for cut in range(1, N_POINTS + 1):
            directory = tmp_path / f"cut-{cut}"
            _, offset = run_kill_drill(tmp_path=directory, points=points,
                                       cut=cut, config=config, history=history)
            assert 0 <= offset <= cut  # never invents points it was not sent


class TestAckDurability:
    def test_offer_commits_before_returning(self, tmp_path):
        """The moment offer() returns, every accepted point must already be
        on durable storage (fsync=always): power-cut and read it back."""
        points = clustered_stream(23, 25)

        async def run():
            config = make_config(wal_fsync="always")
            wal = make_wal(tmp_path, config)
            session = TenantSession("t", config, store=str(tmp_path / "ckpt"), wal=wal)
            session.start()
            await session.offer(points)
            session._writer.cancel()
            try:
                await session._writer
            except asyncio.CancelledError:
                pass
            return wal

        wal = asyncio.run(run())
        power_loss(wal)
        recovered = make_wal(tmp_path, make_config())
        assert recovered.replay(0) == list(points)

    def test_disk_full_rejects_instead_of_lying(self, tmp_path):
        points = clustered_stream(24, 60)

        async def run():
            config = make_config()
            wal = make_wal(tmp_path, config)
            wal.fault = DiskFull(after_bytes=800)
            session = TenantSession("t", config, store=str(tmp_path / "ckpt"), wal=wal)
            session.start()
            result = await session.offer(points)
            # Some points fit, the rest were refused — but never acked-then-lost.
            assert result["accepted"] + result["rejected"] == len(points)
            assert result["rejected"] > 0
            assert "wal_error" in result
            assert session.wal_error is not None
            # The session is degraded, not dead: queries still work and the
            # disk filling up did not corrupt the journal.
            session.require_healthy()
            stats = session.stats()
            assert stats["wal"]["appends"] == result["accepted"]
            # Space frees up: ingest resumes on the same log.
            wal.fault.free()
            more = await session.offer(points[:5])
            assert more["accepted"] == 5
            await session.drain()
            await session.close()

        asyncio.run(run())

    def test_replayed_items_not_rejournaled(self, tmp_path):
        points = clustered_stream(25, N_POINTS)
        config = make_config()

        async def life(resend):
            wal = make_wal(tmp_path, config)
            session = TenantSession("t", config, store=str(tmp_path / "ckpt"), wal=wal)
            session.start(resume="auto")
            if resend:
                await session.offer(points)
            await session.drain()
            await session.close()
            wal.close()
            return session, wal

        session, wal = asyncio.run(life(resend=True))
        appends_before = wal.stats.appends
        assert appends_before == N_POINTS
        # Second life: the full re-send is swallowed as replayed prefix and
        # must not be journaled again.
        session2, wal2 = asyncio.run(life(resend=True))
        assert session2.skipped_replay == N_POINTS
        assert wal2.stats.appends == 0


class TestSupervision:
    @staticmethod
    def crash_writer(session):
        """Arrange for the next fed item to explode with a non-ReproError."""

        def boom(item):
            raise RuntimeError("segfault du jour")

        session.supervisor.steps = boom

    @staticmethod
    async def wait_restarted(service, name, crashed, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while asyncio.get_running_loop().time() < deadline:
            current = service.sessions.get(name)
            if current is not None and current is not crashed and current.failed is None:
                return current
            await asyncio.sleep(0.01)
        raise AssertionError(f"tenant {name} was never restarted")

    def test_crash_restarts_without_disturbing_other_tenants(self, tmp_path):
        points = clustered_stream(26, N_POINTS)
        config = make_config()

        async def run():
            service = ClusterService(
                data_dir=tmp_path, restart_budget=3, restart_backoff_s=0.01
            )
            a = service.open("a", config)
            b = service.open("b", config)
            await a.offer(points[:40])
            await b.offer(points[:40])
            await asyncio.sleep(0.05)  # let both writers catch up

            self.crash_writer(a)
            await a.offer(points[40:45])
            await asyncio.sleep(0.02)  # writer dies on the poisoned feed
            assert a.failed is not None and "crashed" in a.failed
            with pytest.raises(ServeError, match="failed"):
                a.require_healthy()

            # Isolation: tenant b never notices.
            assert b.failed is None
            result = await b.offer(points[40:45])
            assert result["accepted"] == 5

            # Degraded in STATS while down, then self-healed.
            assert service.stats()["degraded"].get("a") in ("restarting", None)
            healed = await self.wait_restarted(service, "a", a)
            assert healed.restarts == 1
            assert service.stats()["degraded"] == {}
            assert service.stats()["tenant_restarts"] == 1

            # The restarted tenant recovered every acknowledged point (the
            # crashed batch included — it was journaled before the ack) and
            # keeps ingesting *new* points without the client re-sending.
            result = await healed.offer(points[45:])
            assert result["accepted"] == len(points) - 45
            await service.drain("a", flush_tail=True)
            labels = {
                str(pid): cid
                for pid, cid in healed.view.clustering.labels.items()
            }
            await service.drain("b")
            await service.shutdown()
            return labels

        labels = asyncio.run(run())
        offline = offline_history(points, config)[-1]
        assert labels == {str(pid): cid for pid, cid in offline.items()}

    def test_restart_budget_opens_the_circuit(self, tmp_path):
        points = clustered_stream(27, 50)
        config = make_config()

        async def run():
            service = ClusterService(
                data_dir=tmp_path, restart_budget=2, restart_backoff_s=0.005
            )
            session = service.open("t", config)
            crashed = session
            for crash in range(3):
                self.crash_writer(crashed)
                await crashed.offer(points[crash : crash + 1])
                await asyncio.sleep(0.01)
                if crash < 2:
                    crashed = await self.wait_restarted(service, "t", crashed)
                    assert crashed.restarts == crash + 1
            # Third crash exhausts the budget: circuit opens, stays failed.
            await asyncio.sleep(0.1)
            assert service.degraded.get("t") == "circuit-open"
            final = service.sessions["t"]
            assert final.failed is not None
            with pytest.raises(ServeError, match="failed"):
                final.require_healthy()
            assert service.stats()["tenant_restarts"] == 2
            await service.close("t")

        asyncio.run(run())

    def test_restart_budget_decays_after_healthy_interval(self, tmp_path):
        """A tenant that crashes rarely must keep healing forever.

        Regression: ``_watch`` incremented ``_restart_counts`` on every
        restart and never reset it, so the budget was a *lifetime* cap — a
        tenant crashing once a day tripped a ``restart_budget=2`` breaker
        on its third crash ever, despite every restart having succeeded.
        The budget now covers one unhealthy window: a replacement that
        stays healthy for ``restart_reset_s`` earns the full budget back.
        Pre-fix, the third widely-spaced crash below goes circuit-open and
        this test fails."""
        points = clustered_stream(31, 60)
        config = make_config()

        async def run():
            service = ClusterService(
                data_dir=tmp_path,
                restart_budget=2,
                restart_backoff_s=0.005,
                restart_reset_s=0.05,
            )
            session = service.open("t", config)
            for crash in range(4):
                self.crash_writer(session)
                await session.offer(points[crash : crash + 1])
                await asyncio.sleep(0.01)
                session = await self.wait_restarted(service, "t", session)
                # Outlive restart_reset_s: the budget window closes.
                await asyncio.sleep(0.15)
            assert service.degraded == {}
            session.require_healthy()
            # The decay resets the breaker, not the books: lifetime restart
            # counts keep accumulating in STATS.
            assert service.stats()["tenant_restarts"] == 4
            assert session.restarts == 4
            await service.shutdown()

        asyncio.run(run())

    def test_wal_less_tenant_still_restarts_from_checkpoint(self, tmp_path):
        """Supervision works without a WAL too — the restart recovers the
        checkpointed prefix (weaker: un-checkpointed acks are lost)."""
        points = clustered_stream(28, 60)
        config = make_config(wal=False)

        async def run():
            service = ClusterService(
                data_dir=tmp_path, restart_budget=1, restart_backoff_s=0.005
            )
            session = service.open("t", config)
            await session.offer(points[:50])
            await asyncio.sleep(0.05)
            self.crash_writer(session)
            await session.offer(points[50:51])
            await asyncio.sleep(0.01)
            healed = await self.wait_restarted(service, "t", session)
            assert healed.wal is None
            assert healed.supervisor.stride > 0  # restored, not fresh
            await service.shutdown()

        asyncio.run(run())


class TestShedCrashConsistency:
    """Shed-oldest vs. the WAL: shed points must never be resurrected.

    ``offer`` journals-then-enqueues, and shed-oldest drops *queued* items
    — items that were already journaled and acknowledged. A post-crash WAL
    replay would re-feed them, making the restarted tenant process points
    the pre-crash pipeline never saw (label divergence from a never-crashed
    run). The combination is therefore rejected outright — at the config
    level (``SessionConfig``) *and* at the session level for directly
    injected WAL objects, which bypass the config flag — and the
    kill-after-shed drill proves checkpoint-only recovery stays consistent.
    """

    def test_wal_object_requires_block_policy_at_session_level(self, tmp_path):
        """Regression (fail-pre-fix): ``TenantSession`` accepted a ``wal``
        object alongside a shed-oldest config because the config-level
        check only guards the ``config.wal`` *flag*, not the injected
        object — exactly the resurrection hole described above."""
        config = make_config(wal=False, backpressure="shed-oldest")
        wal = make_wal(tmp_path, config)

        async def run():
            with pytest.raises(ConfigurationError, match="block"):
                TenantSession(
                    "t", config, store=str(tmp_path / "ckpt"), wal=wal
                )

        try:
            asyncio.run(run())
        finally:
            wal.close()

    @pytest.mark.chaos
    def test_kill_after_shed_recovers_consistent_labels(self, tmp_path):
        """Kill -9 a shed-oldest tenant *after* it shed points, resume from
        checkpoint, and prove the post-restart labels are byte-identical to
        an offline run over the post-admission sequence — i.e. nothing shed
        ever reappears in the pipeline."""
        points = clustered_stream(32, 150)
        # queue_limit is a stride multiple so the post-admission sequence
        # stays stride-aligned — cluster_stream flushes a partial tail at
        # end-of-stream, the drained session (flush_tail=False) does not.
        config = make_config(
            wal=False,
            backpressure="shed-oldest",
            queue_limit=20,
            checkpoint_every=1,
        )

        async def life1():
            session = TenantSession(
                "t", config, store=str(tmp_path / "ckpt"), journal=[]
            )
            session.start()
            # Flood the queue in one offer: shed-oldest admits without
            # yielding, so the writer sees none of it until we sleep.
            result = await session.offer(points[:120])
            assert result["shed"] > 0, "the drill needs actual sheds"
            while session._queue.qsize():
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.02)  # trailing feed + checkpoint land
            fed = list(session.journal)
            # kill -9: cancel the writer mid-flight, zero cleanup.
            session._writer.cancel()
            try:
                await session._writer
            except asyncio.CancelledError:
                pass
            return fed, result["shed"]

        async def life2():
            session = TenantSession(
                "t", config, store=str(tmp_path / "ckpt"), journal=[]
            )
            views = []
            original = session._publish

            def capture(*args):
                original(*args)
                views.append(session.view)

            session._publish = capture
            # Supervised-restart semantics: the producer keeps sending only
            # new points, nothing is re-sent or swallowed.
            offset = session.start(resume="auto", swallow_prefix=False)
            await session.offer(points[120:])
            await session.drain(flush_tail=False)
            fed = list(session.journal)
            await session.close()
            return offset, fed, views

        fed1, shed = asyncio.run(life1())
        offset, fed2, views = asyncio.run(life2())
        assert shed > 0 and len(fed1) < 120  # sheds really thinned the feed
        assert 0 < offset <= len(fed1)  # checkpoint covers a fed prefix only
        # What the resumed pipeline is accountable for: the checkpointed
        # prefix of the post-admission sequence plus the new points.
        combined = fed1[:offset] + fed2
        history = offline_history(combined, config)
        for view in views:
            if view.stride >= 0:
                assert dict(view.clustering.labels) == history[view.stride], (
                    f"stride {view.stride}: resumed labels diverged — a shed "
                    "point was resurrected or the checkpoint lied"
                )
        assert views[-1].stride == len(history) - 1


class TestWalObservability:
    def test_trace_records_carry_schema_valid_wal_block(self, tmp_path):
        points = clustered_stream(29, N_POINTS)
        config = make_config()

        async def run():
            sink = InMemorySink()
            prom = PrometheusTextfileExporter(tmp_path / "t.prom")
            tracer = Tracer(sink, prom)
            wal = make_wal(tmp_path, config)
            session = TenantSession(
                "t", config, store=str(tmp_path / "ckpt"), wal=wal, tracer=tracer
            )
            session.start()
            await session.offer(points)
            await session.drain(flush_tail=True)
            await session.close()
            tracer.close()
            return sink, session

        sink, session = asyncio.run(run())
        assert sink.records, "no strides traced"
        for trace in sink.records:
            record = trace.as_dict()
            assert "wal" in record
            validate_trace_record(record)
        last = sink.records[-1].as_dict()["wal"]
        assert last["appends"] == N_POINTS
        assert last["fsyncs"] > 0
        text = (tmp_path / "t.prom").read_text()
        assert 'disc_wal_total{stat="appends"} 90' in text
        assert 'disc_wal_total{stat="tenant_restarts"} 0' in text
        # STATS surfaces the same counters.
        stats = session.stats()
        assert stats["wal"]["appends"] == N_POINTS
        assert stats["restarts"] == 0

    def test_compaction_bounds_segment_count(self, tmp_path):
        points = clustered_stream(30, 200)
        config = make_config(wal_segment_bytes=400, checkpoint_every=1)

        async def run():
            wal = make_wal(tmp_path, config)
            session = TenantSession(
                "t", config, store=str(tmp_path / "ckpt"), wal=wal
            )
            session.start()
            await session.offer(points)
            await session.drain()
            await session.close()
            return wal

        wal = asyncio.run(run())
        # Checkpoint-keyed compaction: everything the newest checkpoint
        # covers is garbage-collected; only the tail survives.
        live = wal.segments()
        assert len(live) <= 3, f"compaction left {len(live)} segments"
        first_live = int(live[0].stem.split("-")[1])
        offset = wal.stats.appends
        assert first_live <= offset
        wal.close()
