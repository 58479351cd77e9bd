"""Tenant-session semantics: backpressure, equivalence, drain, failure.

The acceptance bar: under *every* backpressure policy, a served session's
per-stride labels are byte-identical to ``api.cluster_stream`` run over the
same post-admission point sequence (the session journal).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random

import numpy as np
import pytest

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.common.snapshot import Clustering
from repro.datasets.io import MalformedRecord
from repro.query.archive import SnapshotArchive
from repro.query.journal import EvolutionJournal
from repro.serve import ServeError, SessionConfig, TenantSession
from repro.serve.protocol import decode_frame, encode_frame, ok_response
from repro.serve.session import SessionView

from .conftest import clustered_stream

EPS, TAU = 0.8, 4


def make_config(**overrides) -> SessionConfig:
    base = dict(eps=EPS, tau=TAU, window=120, stride=30)
    base.update(overrides)
    return SessionConfig(**base)


def record_views(session: TenantSession) -> list:
    """Capture every published view, in publication order."""
    views = []
    original = session._publish

    def capture(*args):
        original(*args)
        views.append(session.view)

    session._publish = capture
    return views


def offline_label_history(points, config: SessionConfig) -> list[dict]:
    spec = WindowSpec(window=config.window, stride=config.stride)
    return [
        dict(snapshot.labels)
        for snapshot, _ in cluster_stream(
            points, spec, eps=config.eps, tau=config.tau
        )
    ]


async def drive_session(config, points, *, batch=17, drain=True, flush_tail=True):
    """Offer ``points`` to a fresh session in batches; return the evidence."""
    session = TenantSession("t", config, journal=[])
    views = record_views(session)
    session.start()
    outcomes = []
    for i in range(0, len(points), batch):
        outcomes.append(await session.offer(points[i : i + batch]))
    if drain:
        await session.drain(flush_tail=flush_tail)
    await session.close()
    return session, views, outcomes


class TestPolicyEquivalence:
    """Served labels == offline labels on the post-admission sequence."""

    def check_policy(self, policy, queue_limit=2048, batch=17):
        points = clustered_stream(11, 450)
        config = make_config(backpressure=policy, queue_limit=queue_limit)
        session, views, _ = asyncio.run(
            drive_session(config, points, batch=batch)
        )
        # Everything the writer consumed, in order — under `block` that is
        # the whole stream; under shed/reject a subsequence.
        journal = session.journal
        assert journal, "writer consumed nothing"
        served = [dict(v.clustering.labels) for v in views]
        assert served == offline_label_history(journal, config)
        return session, journal, points

    def test_block_policy_is_lossless_and_exact(self):
        session, journal, points = self.check_policy("block")
        assert journal == points  # block never drops
        assert session.shed == session.rejected == 0

    def test_shed_oldest_policy_is_exact_on_survivors(self):
        # A tiny queue and large bursts force shedding: put_nowait never
        # yields to the writer inside a burst, so the queue overflows.
        session, journal, points = self.check_policy(
            "shed-oldest", queue_limit=8, batch=64
        )
        assert session.shed > 0
        assert len(journal) + session.shed == len(points)

    def test_reject_policy_is_exact_on_survivors(self):
        session, journal, points = self.check_policy(
            "reject", queue_limit=8, batch=64
        )
        assert session.rejected > 0
        assert len(journal) + session.rejected == len(points)

    def test_admission_outcomes_add_up(self):
        points = clustered_stream(12, 300)
        config = make_config(backpressure="reject", queue_limit=16)
        session, _, outcomes = asyncio.run(
            drive_session(config, points, batch=40)
        )
        accepted = sum(o["accepted"] for o in outcomes)
        rejected = sum(o["rejected"] for o in outcomes)
        assert accepted + rejected == len(points) == session.received
        assert session.ingested == accepted  # drained queue: all consumed


class TestViews:
    def test_initial_view_is_empty(self):
        session = TenantSession("t", make_config())
        assert session.view.stride == -1
        assert session.view.clustering.num_points == 0
        assert session.view.classify((0.0, 0.0))["label"] == -1

    def test_views_are_published_per_stride(self):
        points = clustered_stream(13, 300)
        config = make_config()
        _, views, _ = asyncio.run(drive_session(config, points))
        assert [v.stride for v in views] == list(range(len(views)))
        assert len(views) == 300 // config.stride

    def test_view_membership_and_classify_agree_with_snapshot(self):
        points = clustered_stream(14, 240)
        config = make_config()
        session, views, _ = asyncio.run(drive_session(config, points))
        view = views[-1]
        clustering = view.clustering
        for pid, cid in clustering.labels.items():
            assert view.membership(pid)["label"] == cid
        # Every core classifies to its own cluster (distance 0).
        for coords, label in zip(view.core_coords.tolist(), view.core_labels.tolist()):
            result = view.classify(tuple(coords))
            assert result["label"] == label
            assert result["distance"] == 0.0

    def test_view_columns_are_read_only_copies(self):
        points = clustered_stream(14, 240)
        session, _, _ = asyncio.run(drive_session(make_config(), points))
        view = session.view
        assert len(view.core_pids) > 0
        arena = session.supervisor.clusterer.state.store
        for column in (view.core_pids, view.core_coords, view.core_labels):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        assert view.core_coords.shape == (len(view.core_pids), 2)
        assert not np.shares_memory(view.core_coords, arena.coords)
        assert not np.shares_memory(view.core_pids, arena.pid)

    def test_view_answers_do_not_change_after_later_strides(self):
        points = clustered_stream(24, 360)
        probes = [p.coords for p in points[::15]]
        session = TenantSession("t", make_config())
        seen = []
        original = session._publish

        def capture(*args):
            original(*args)
            view = session.view
            seen.append((view, [view.classify(q) for q in probes]))

        session._publish = capture

        async def scenario():
            session.start()
            for i in range(0, len(points), 20):
                await session.offer(points[i : i + 20])
            await session.drain()
            await session.close()

        asyncio.run(scenario())
        assert len(seen) == 360 // 30
        for view, answers in seen:
            assert [view.classify(q) for q in probes] == answers

    def test_classify_out_of_range_is_noise(self):
        points = clustered_stream(15, 240)
        _, views, _ = asyncio.run(drive_session(make_config(), points))
        result = views[-1].classify((1e6, 1e6))
        assert result["label"] == -1
        assert result["nearest_core"] is None


def make_view(cores, eps=1.5) -> SessionView:
    """A view over ``(pid, coords, label)`` core rows, in the given order."""
    pids, coords, labels = zip(*cores)
    return SessionView(
        0,
        Clustering({}, {}),
        eps,
        np.array(pids, dtype=np.int64),
        np.array(coords, dtype=np.float64),
        np.array(labels, dtype=np.int64),
    )


class TestClassifyTieBreak:
    """Regression: classify() must not depend on core iteration order.

    Pre-fix, an exact-distance tie went to whichever core the tuple
    happened to list first — and the tuple's order tracked the clusterer's
    internal iteration order, so two equivalent states could answer the
    same probe differently. The contract now: nearest core wins; exact
    ties break to the lowest cluster label, then the lowest core pid.
    """

    TIED = [(7, (0.0, 0.0), 5), (2, (2.0, 0.0), 3)]  # probe (1,0): both at 1.0

    def test_exact_tie_breaks_to_lowest_label_in_any_order(self):
        # Fails pre-fix: the given order answered label 5, reversed
        # answered label 3.
        for order in itertools.permutations(self.TIED):
            answer = make_view(order).classify((1.0, 0.0))
            assert answer["label"] == 3
            assert answer["nearest_core"] == 2
            assert answer["distance"] == 1.0

    def test_label_tie_breaks_to_lowest_pid(self):
        cores = [(9, (0.0, 0.0), 4), (4, (2.0, 0.0), 4)]
        for order in itertools.permutations(cores):
            answer = make_view(order).classify((1.0, 0.0))
            assert answer["nearest_core"] == 4

    def test_distance_still_dominates_the_tie_break(self):
        # A strictly nearer core beats any label/pid preference.
        cores = [(1, (0.0, 0.0), 1), (2, (1.25, 0.0), 9)]
        answer = make_view(cores).classify((1.0, 0.0))
        assert answer["label"] == 9
        assert answer["nearest_core"] == 2

    def test_order_invariance_under_many_permutations(self):
        cores = [
            (11, (0.0, 0.0), 2),
            (5, (2.0, 0.0), 8),
            (3, (1.0, 1.0), 8),
            (8, (1.0, -1.0), 2),
        ]
        probes = [(1.0, 0.0), (0.5, 0.5), (1.0, 2.0), (9.0, 9.0)]
        for probe in probes:
            answers = {
                tuple(sorted(make_view(order).classify(probe).items()))
                for order in itertools.permutations(cores)
            }
            assert len(answers) == 1, f"probe {probe} is order-dependent"


def reference_classify(view: SessionView, coords) -> dict:
    """The per-core scan ``classify`` replaced, kept as its reference: it
    decides and measures with ``math.dist``, the definition of "within eps"."""
    best = None  # (distance, label, pid)
    for pid, core_coords, label in zip(
        view.core_pids.tolist(), view.core_coords.tolist(), view.core_labels.tolist()
    ):
        if len(core_coords) != len(coords):
            continue
        distance = math.dist(coords, core_coords)
        if distance <= view.eps:
            key = (distance, label, pid)
            if best is None or key < best:
                best = key
    return {
        "stride": view.stride,
        "label": Clustering.NOISE_ID if best is None else best[1],
        "nearest_core": None if best is None else best[2],
        "distance": None if best is None else best[0],
    }


def random_cores(rng: random.Random, dim: int, *, grid: bool) -> list[tuple]:
    """``(pid, coords, label)`` rows; grid rows repeat coordinates and labels."""
    n = rng.randint(1, 60)
    pids = rng.sample(range(1000), n)
    if grid:
        coords = [tuple(rng.randint(-6, 6) * 0.25 for _ in range(dim)) for _ in pids]
    else:
        coords = [tuple(rng.uniform(-1.5, 1.5) for _ in range(dim)) for _ in pids]
    return [(pid, xyz, rng.randint(0, 3)) for pid, xyz in zip(pids, coords)]


def random_probes(rng: random.Random, cores, dim: int, *, grid: bool) -> list:
    """Probes on the half grid (exact ties), at cores, and scattered."""
    probes = [coords for _, coords, _ in rng.sample(cores, min(5, len(cores)))]
    for _ in range(20):
        if grid:
            probes.append(tuple(rng.randint(-14, 14) * 0.125 for _ in range(dim)))
        else:
            probes.append(tuple(rng.uniform(-2.0, 2.0) for _ in range(dim)))
    return probes


class TestVectorisedClassify:
    """``classify`` answers exactly as the per-core scan it replaced."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_cores_match_the_reference_exactly(self, dim):
        # On the 0.25 grid every squared distance is exact in float64, so
        # the answers must be identical. The grid also forces exact-distance
        # ties between cores of equal and of different labels.
        rng = random.Random(100 + dim)
        ties = 0
        for _ in range(60):
            cores = random_cores(rng, dim, grid=True)
            view = make_view(cores, eps=rng.choice([0.25, 0.5, 0.75, 1.0]))
            for probe in random_probes(rng, cores, dim, grid=True):
                expected = reference_classify(view, probe)
                assert view.classify(probe) == expected, (cores, probe)
                if expected["distance"] is not None:
                    dists = [math.dist(probe, c) for _, c, _ in cores]
                    ties += dists.count(min(dists)) > 1
        assert ties >= 10, "the grid sets must exercise exact-distance ties"

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_continuous_cores_match_the_reference(self, dim):
        # Off the grid too: the distance comes from math.dist on both
        # sides, so the answers, distance included, must be identical.
        rng = random.Random(200 + dim)
        for _ in range(60):
            cores = random_cores(rng, dim, grid=False)
            view = make_view(cores, eps=rng.uniform(0.1, 1.0))
            for probe in random_probes(rng, cores, dim, grid=False):
                assert view.classify(probe) == reference_classify(view, probe)

    def test_probe_of_another_dimensionality_is_noise(self):
        view = make_view([(1, (0.0, 0.0), 4), (2, (0.5, 0.0), 4)])
        for probe in [(0.0,), (0.0, 0.0, 0.0)]:
            assert view.classify(probe) == {
                "stride": 0,
                "label": Clustering.NOISE_ID,
                "nearest_core": None,
                "distance": None,
            }

    def test_reply_survives_the_wire_unchanged(self):
        view = make_view([(7, (0.0, 0.0), 5), (2, (3.0, 0.0), 3)])
        for probe in [(1.0, 0.0), (9.0, 9.0)]:
            answer = view.classify(probe)
            assert type(answer["label"]) is int
            assert answer["nearest_core"] is None or type(answer["nearest_core"]) is int
            assert answer["distance"] is None or type(answer["distance"]) is float
            frame = ok_response("QUERY", 1, **answer)
            assert decode_frame(encode_frame(frame)) == frame


class TestJournalRetention:
    """Regression: retention GC vs archive cadence (``_compact_journal``).

    Pre-fix, a retention cut with no archive snapshot at-or-before it
    clamped to 0 — the journal never shrank — silently. The contract now:
    compact to the newest *answerable* stride, and when that lags the
    retention cut, say why in STATS (``journal.floor_pinned``).
    """

    def drive(self, tmp_path, *, retention, archive_every, n=300):
        async def scenario():
            evjournal = EvolutionJournal(
                tmp_path / "evj", segment_bytes=1
            )
            archive = SnapshotArchive(
                tmp_path / "arch", every=archive_every, journal=evjournal
            )
            config = make_config(
                journal=True,
                journal_retention=retention,
                archive_every=archive_every,
                checkpoint_every=2,
            )
            session = TenantSession(
                "t",
                config,
                store=str(tmp_path / "ckpt"),
                evjournal=evjournal,
                archive=archive,
            )
            session.start()
            await session.offer(clustered_stream(21, n))
            await session.drain(flush_tail=True)
            await session.close()
            return session, evjournal, archive

        return asyncio.run(scenario())

    def test_fine_cadence_advances_the_floor_unpinned(self, tmp_path):
        # Snapshot cadence (2) <= retention (3): there is always a
        # snapshot at or before the cut, so the floor tracks retention.
        session, evjournal, archive = self.drive(
            tmp_path, retention=3, archive_every=2
        )
        assert session.failed is None
        assert evjournal.floor > 0
        assert session.journal_floor_pinned is None
        assert "floor_pinned" not in session.stats()["journal"]
        # Everything retained is still answerable.
        for stride in range(evjournal.floor, evjournal.head - 1):
            assert archive.materialize(stride) is not None

    def test_coarse_cadence_pins_the_floor_and_says_why(self, tmp_path):
        # Snapshot cadence (8) > retention (2): the cut outruns the
        # newest snapshot, so the floor holds at snapshot+1 — but it
        # must still advance past 0, and STATS must explain the lag.
        # 420 points = 14 strides: the final cut (>= 11) is well past the
        # newest snapshot (8), so the pin is visible in the end state.
        session, evjournal, archive = self.drive(
            tmp_path, retention=2, archive_every=8, n=420
        )
        assert session.failed is None
        assert evjournal.floor > 0  # pre-fix: stuck at 0 forever
        snap = max(archive.strides())
        assert evjournal.floor <= snap + 1
        reason = session.stats()["journal"]["floor_pinned"]
        assert "archive cadence 8" in reason
        assert "retention 2" in reason
        # The floor's stride is answerable: snapshot + delta replay.
        assert archive.materialize(evjournal.floor) is not None

    def test_replay_only_archive_never_compacts_but_reports(self, tmp_path):
        # archive_every=0: AS_OF replays from stride 0, so no prefix is
        # ever cuttable. Retention must not break time travel — and must
        # not be silent about it either.
        session, evjournal, archive = self.drive(
            tmp_path, retention=2, archive_every=0
        )
        assert session.failed is None
        assert evjournal.floor == 0
        reason = session.stats()["journal"]["floor_pinned"]
        assert "replay-only" in reason
        for stride in range(evjournal.head - 1):
            assert archive.materialize(stride) is not None

    def test_no_retention_means_no_gc_and_no_pin(self, tmp_path):
        session, evjournal, _ = self.drive(
            tmp_path, retention=0, archive_every=2
        )
        assert evjournal.floor == 0
        assert session.journal_floor_pinned is None


class TestDrain:
    def test_drain_without_tail_flush_keeps_partial_batch(self):
        points = clustered_stream(16, 310)  # 10 full strides + 10 pending
        config = make_config()
        session, views, _ = asyncio.run(
            drive_session(config, points, flush_tail=False)
        )
        assert views[-1].stride == 9  # the pending 10 points closed no stride
        assert session.ingested == 310

    def test_drain_with_tail_flush_matches_end_of_stream(self):
        points = clustered_stream(16, 310)
        config = make_config()
        session, views, _ = asyncio.run(
            drive_session(config, points, flush_tail=True)
        )
        assert views[-1].stride == 10  # tail stride closed
        assert [dict(v.clustering.labels) for v in views] == (
            offline_label_history(points, config)
        )

    def test_ingest_after_drain_is_rejected(self):
        async def scenario():
            session = TenantSession("t", make_config())
            session.start()
            await session.offer(clustered_stream(17, 60))
            await session.drain()
            outcome = await session.offer(clustered_stream(17, 30, start_id=60))
            await session.close()
            return session, outcome

        session, outcome = asyncio.run(scenario())
        assert outcome["accepted"] == 0
        assert outcome["rejected"] == 30
        assert session.drained


class TestFailure:
    def test_strict_policy_fault_fails_the_session(self):
        async def scenario():
            session = TenantSession("t", make_config(on_malformed="strict"))
            session.start()
            bad = MalformedRecord(0, "garbage", "unparsable")
            await session.offer([bad])
            await session.drain()  # must not hang on a dead writer
            await session.close()
            return session

        session = asyncio.run(scenario())
        assert session.failed is not None
        with pytest.raises(ServeError) as err:
            session.require_healthy()
        assert err.value.code == "session-failed"

    def test_writer_crash_outside_feed_fails_and_signals(self):
        # Regression: only ``supervisor.feed`` was guarded, so an exception
        # from ``_publish`` ended the writer task silently — ``failed`` and
        # ``crashed`` stayed unset and ``drain()`` waited forever on the
        # queue join.
        async def scenario():
            session = TenantSession("t", make_config())
            original = session._publish
            calls = []

            def flaky(*args):
                calls.append(args)
                if len(calls) == 2:
                    raise RuntimeError("publish blew up")
                original(*args)

            session._publish = flaky
            session.start()
            await session.offer(clustered_stream(23, 150))
            await asyncio.wait_for(session.drain(), timeout=5)
            outcome = await session.offer(clustered_stream(23, 10, start_id=150))
            await session.close()
            return session, outcome

        session, outcome = asyncio.run(scenario())
        assert session.failed == "crashed: RuntimeError: publish blew up"
        assert session.crashed.is_set()
        assert session.view.stride == 0  # the first publish landed
        assert outcome["rejected"] == 10

    def test_skip_policy_survives_malformed_items(self):
        async def scenario():
            session = TenantSession(
                "t", make_config(on_malformed="skip"), journal=[]
            )
            session.start()
            stream = list(clustered_stream(18, 120))
            stream.insert(40, MalformedRecord(40, "garbage", "unparsable"))
            await session.offer(stream)
            await session.drain(flush_tail=True)
            await session.close()
            return session

        session = asyncio.run(scenario())
        assert session.failed is None
        assert session.supervisor.stats.points_dead_lettered == 1
        # The journal holds the raw consumed sequence including the bad
        # record; the offline run under the same policy must agree.
        config = make_config(on_malformed="skip")
        spec = WindowSpec(window=config.window, stride=config.stride)
        offline = [
            dict(snapshot.labels)
            for snapshot, _ in cluster_stream(
                session.journal, spec, eps=EPS, tau=TAU, on_malformed="skip"
            )
        ]
        assert dict(session.view.clustering.labels) == offline[-1]

    def test_stats_shape(self):
        points = clustered_stream(19, 240)
        config = make_config(backpressure="reject")
        session, _, _ = asyncio.run(drive_session(config, points))
        stats = session.stats()
        assert stats["session"] == "t"
        assert stats["stride"] == session.view.stride
        assert stats["backpressure"] == "reject"
        assert stats["runtime"]["strides"] == session.view.stride + 1
        assert stats["config"] == config.as_dict()
