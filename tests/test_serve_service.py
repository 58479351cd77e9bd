"""ClusterService: tenant registry, durability layout, metrics sinks."""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.serve import ServeError, SessionConfig
from repro.serve.server import dispatch
from repro.serve.service import ClusterService

from .conftest import clustered_stream

CONFIG = SessionConfig(eps=0.8, tau=4, window=120, stride=30, checkpoint_every=2)


def run(coro):
    return asyncio.run(coro)


class TestRegistry:
    def test_open_get_close(self, tmp_path):
        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            session = service.open("alpha", CONFIG)
            assert service.get("alpha") is session
            await service.close("alpha")
            with pytest.raises(ServeError) as err:
                service.get("alpha")
            assert err.value.code == "no-such-session"

        run(scenario())

    def test_reopen_same_config_is_idempotent(self, tmp_path):
        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            first = service.open("alpha", CONFIG)
            assert service.open("alpha", CONFIG) is first  # reattach
            await service.shutdown()

        run(scenario())

    def test_reopen_conflicting_config_is_refused(self, tmp_path):
        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            service.open("alpha", CONFIG)
            other = SessionConfig(eps=1.5, tau=3, window=60, stride=20)
            with pytest.raises(ServeError) as err:
                service.open("alpha", other)
            assert err.value.code == "session-exists"
            await service.shutdown()

        run(scenario())

    @pytest.mark.parametrize(
        "name", ["", ".hidden", "a/b", "a b", "-dash", "x" * 65, "é"]
    )
    def test_bad_names_are_refused(self, name, tmp_path):
        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            with pytest.raises(ServeError) as err:
                service.open(name, CONFIG)
            assert err.value.code == "bad-request"

        run(scenario())

    def test_draining_service_refuses_opens(self, tmp_path):
        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            service.open("alpha", CONFIG)
            await service.shutdown()
            with pytest.raises(ServeError) as err:
                service.open("beta", CONFIG)
            assert err.value.code == "draining"

        run(scenario())

    def test_stats_aggregates_across_tenants(self, tmp_path):
        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            for name in ("alpha", "beta"):
                session = service.open(name, CONFIG)
                await session.offer(clustered_stream(1, 50))
            stats = service.stats()
            assert stats["sessions"] == ["alpha", "beta"]
            assert stats["received"] == 100
            assert "version" in stats
            await service.shutdown()

        run(scenario())


class TestDurability:
    def test_layout_and_metadata(self, tmp_path):
        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            session = service.open("alpha", CONFIG)
            await session.offer(clustered_stream(2, 120))
            await service.shutdown(flush_tail=False)

        run(scenario())
        meta = json.loads((tmp_path / "alpha" / "session.json").read_text())
        assert SessionConfig.from_dict(meta["config"]) == CONFIG
        assert list((tmp_path / "alpha" / "ckpt").glob("checkpoint-*.json"))

    def test_session_metadata_is_fsynced_before_the_rename(
        self, tmp_path, monkeypatch
    ):
        """A power loss must not leave an empty session.json: its bytes are
        fsynced before the rename, and the directory after it."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.fspath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)

        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            service.open("alpha", CONFIG)
            during_open = list(calls)
            await service.shutdown()
            return during_open

        during_open = run(scenario())
        meta = tmp_path / "alpha" / "session.json"
        rename = during_open.index(("replace", os.fspath(meta)))
        assert ("fsync", meta.stat().st_ino) in during_open[:rename]
        assert ("fsync", meta.parent.stat().st_ino) in during_open[rename:]

    def test_resume_all_restores_every_tenant(self, tmp_path):
        points = {name: clustered_stream(i, 240) for i, name in enumerate(["a1", "a2"])}

        async def first_life():
            service = ClusterService(data_dir=tmp_path)
            for name, stream in points.items():
                session = service.open(name, CONFIG)
                await session.offer(stream)
            # Simulate a crash: drain queues so checkpoints exist, but do
            # not CLOSE (the dirs stay behind either way).
            await service.shutdown(flush_tail=False)

        async def second_life():
            service = ClusterService(data_dir=tmp_path)
            resumed = service.resume_all()
            assert resumed == ["a1", "a2"]
            offsets = {n: service.get(n).replay_offset for n in resumed}
            await service.shutdown()
            return offsets

        run(first_life())
        offsets = run(second_life())
        assert offsets == {"a1": 240, "a2": 240}

    def test_resume_all_skips_a_tenant_with_unreadable_metadata(
        self, tmp_path, caplog
    ):
        points = clustered_stream(0, 240)

        async def first_life():
            service = ClusterService(data_dir=tmp_path)
            for name in ("good", "torn"):
                await service.open(name, CONFIG).offer(points)
            await service.shutdown(flush_tail=False)

        async def second_life():
            service = ClusterService(data_dir=tmp_path)
            resumed = service.resume_all()
            stats = service.stats()
            offset = service.get("good").replay_offset
            await service.shutdown()
            return resumed, stats, offset

        run(first_life())
        meta = tmp_path / "torn" / "session.json"
        meta.write_bytes(meta.read_bytes()[:20])  # a torn write
        before = sorted(
            (p.relative_to(tmp_path), p.read_bytes())
            for p in (tmp_path / "torn").rglob("*")
            if p.is_file()
        )
        with caplog.at_level("ERROR", logger="repro.serve"):
            resumed, stats, offset = run(second_life())
        assert resumed == ["good"]
        assert offset == 240
        assert stats["degraded"] == {"torn": "unreadable-metadata"}
        assert "torn" not in stats["sessions"]
        assert any(str(meta) in record.getMessage() for record in caplog.records)
        after = sorted(
            (p.relative_to(tmp_path), p.read_bytes())
            for p in (tmp_path / "torn").rglob("*")
            if p.is_file()
        )
        assert after == before, "the unreadable tenant's files must stay as they were"

    def test_resume_all_skips_metadata_with_an_invalid_config(self, tmp_path):
        # Say, written by a newer version with a policy this one lacks.
        bad = tmp_path / "bad"
        bad.mkdir()
        config = {**CONFIG.as_dict(), "backpressure": "drop-newest"}
        (bad / "session.json").write_text(json.dumps({"config": config}))

        async def scenario():
            service = ClusterService(data_dir=tmp_path)
            resumed = service.resume_all()
            degraded = service.stats()["degraded"]
            await service.shutdown()
            return resumed, degraded

        assert run(scenario()) == ([], {"bad": "unreadable-metadata"})

    def test_open_on_an_unknown_backend_leaves_no_tenant_behind(self, tmp_path):
        bad = {**CONFIG.as_dict(), "index": "nope"}

        async def first_life():
            service = ClusterService(data_dir=tmp_path)
            await service.open("good", CONFIG).offer(clustered_stream(0, 240))
            reply = await dispatch(
                service, {"op": "OPEN", "session": "bad", "config": bad}
            )
            await service.shutdown(flush_tail=False)
            return reply

        async def second_life():
            service = ClusterService(data_dir=tmp_path)
            resumed = service.resume_all()
            stats = service.stats()
            await service.shutdown()
            return resumed, stats

        reply = run(first_life())
        assert reply["ok"] is False
        assert "'nope'" in reply["error"]["message"]
        assert "rtree" in reply["error"]["message"]
        assert not (tmp_path / "bad").exists()
        resumed, stats = run(second_life())
        assert resumed == ["good"]
        assert stats["degraded"] == {}

    def test_resume_all_skips_a_tenant_stored_on_a_retired_backend(
        self, tmp_path, caplog
    ):
        # Written before the grid backend left the registry.
        async def first_life():
            service = ClusterService(data_dir=tmp_path)
            for name in ("good", "old"):
                await service.open(name, CONFIG).offer(clustered_stream(0, 240))
            await service.shutdown(flush_tail=False)

        async def second_life():
            service = ClusterService(data_dir=tmp_path)
            resumed = service.resume_all()
            stats = service.stats()
            await service.shutdown()
            return resumed, stats

        run(first_life())
        meta = tmp_path / "old" / "session.json"
        payload = json.loads(meta.read_text())
        payload["config"]["index"] = "grid"
        meta.write_text(json.dumps(payload))
        with caplog.at_level("ERROR", logger="repro.serve"):
            resumed, stats = run(second_life())
        assert resumed == ["good"]
        assert stats["degraded"] == {"old": "unreadable-metadata"}
        assert any("'grid'" in record.getMessage() for record in caplog.records)

    def test_resume_all_without_data_dir_is_empty(self):
        async def scenario():
            return ClusterService().resume_all()

        assert run(scenario()) == []

    def test_ephemeral_service_writes_nothing(self, tmp_path):
        async def scenario():
            service = ClusterService()  # no data_dir
            session = service.open("alpha", CONFIG)
            await session.offer(clustered_stream(3, 120))
            report = await service.shutdown(flush_tail=False)
            assert report["alpha"]["checkpointed"] is False

        run(scenario())
        assert list(tmp_path.iterdir()) == []


class TestObservability:
    def test_metrics_and_trace_sinks_are_written(self, tmp_path):
        metrics_dir = tmp_path / "metrics"
        trace_dir = tmp_path / "trace"

        async def scenario():
            service = ClusterService(
                data_dir=tmp_path / "data",
                metrics_dir=metrics_dir,
                trace_dir=trace_dir,
            )
            session = service.open("alpha", CONFIG)
            await session.offer(clustered_stream(4, 120))
            stats = await asyncio.to_thread(session.stats)
            assert "trace" not in stats or True  # stats() works with a tracer
            await service.shutdown()

        run(scenario())
        prom = (metrics_dir / "alpha.prom").read_text()
        assert "disc_build_info" in prom
        trace_lines = (trace_dir / "alpha.jsonl").read_text().splitlines()
        assert len(trace_lines) == 4  # one record per stride (120/30)
        assert all(json.loads(line)["stride"] >= 0 for line in trace_lines)
