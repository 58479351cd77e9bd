"""Tests for cluster-id forest compaction on long streams."""

import random

from repro.common.points import StreamPoint
from repro.core.disc import DISC
from repro.core.store import NO_ID
from repro.metrics.compare import assert_equivalent
from repro.baselines.dbscan import SlidingDBSCAN


def churn_stream(rng, n):
    points = []
    for i in range(n):
        cx = rng.choice([0.0, 3.0])
        points.append(
            StreamPoint(i, (cx + rng.gauss(0, 0.5), rng.gauss(0, 0.5)), float(i))
        )
    return points


class TestCompaction:
    def test_compact_preserves_labels(self):
        rng = random.Random(1)
        disc = DISC(0.6, 4)
        points = churn_stream(rng, 120)
        disc.advance(points, ())
        before = disc.labels()
        size = disc.state.compact_cids()
        after = disc.labels()
        # Same partition, ids resolved to roots.
        groups_before = {}
        for pid, cid in before.items():
            groups_before.setdefault(cid, set()).add(pid)
        groups_after = {}
        for pid, cid in after.items():
            groups_after.setdefault(cid, set()).add(pid)
        assert set(map(frozenset, groups_before.values())) == set(
            map(frozenset, groups_after.values())
        )
        assert size == len(set(after.values()))

    def test_fresh_ids_after_compaction_do_not_collide(self):
        disc = DISC(0.6, 3)
        rng = random.Random(2)
        first = churn_stream(rng, 60)
        disc.advance(first, ())
        disc.state.compact_cids()
        # Add a brand-new far-away cluster: its id must be new, not a reused
        # root of an existing cluster.
        far = [
            StreamPoint(1000 + i, (50.0 + 0.2 * i, 50.0), 0.0) for i in range(5)
        ]
        disc.advance(far, ())
        labels = disc.labels()
        old_ids = {cid for pid, cid in labels.items() if pid < 1000}
        new_ids = {cid for pid, cid in labels.items() if pid >= 1000}
        assert not (old_ids & new_ids)

    def test_forest_stays_bounded_on_long_stream(self):
        rng = random.Random(3)
        disc = DISC(0.6, 4)
        disc.compact_every = 20
        alive: list[StreamPoint] = []
        next_pid = 0
        for _ in range(200):  # 200 strides of churn
            batch = []
            for _ in range(20):
                cx = rng.choice([0.0, 3.0, 6.0])
                batch.append(
                    StreamPoint(
                        next_pid,
                        (cx + rng.gauss(0, 0.5), rng.gauss(0, 0.5)),
                        float(next_pid),
                    )
                )
                next_pid += 1
            out = alive[:20] if len(alive) >= 100 else []
            alive = alive[len(out):] + batch
            disc.advance(batch, out)
        # Without compaction this grows with every emerge/merge/split event
        # (hundreds over 200 strides); with it, it tracks live clusters.
        assert len(disc.state.cids) <= disc.snapshot().num_clusters + 40

    def test_vectorized_remap_rewrites_cids_to_roots(self):
        """The one-pass cid remap points every live core straight at its
        root: labels unchanged, one forest entry per live root, and the id
        counter carried forward."""
        disc = DISC(0.6, 4)
        disc.advance(churn_stream(random.Random(7), 150), ())
        labels = disc.labels()
        next_id = disc.state.cids._next_id
        size = disc.state.compact_cids()
        assert disc.labels() == labels
        store = disc.state.store
        slots = store.live_slots()
        raw = store.cid[slots[store.cid[slots] != NO_ID]]
        assert {disc.state.cids.find(int(c)) for c in raw} == set(raw.tolist())
        assert size == len(set(raw.tolist()))
        assert disc.state.cids._next_id == next_id

    def test_compact_on_columnar_skips_lingering_rows(self):
        """Compaction must only remap live rows; mid-run it is always called
        between strides, where every resident row is live."""
        rng = random.Random(8)
        disc = DISC(0.6, 4)
        disc.compact_every = 2
        alive: list[StreamPoint] = []
        next_pid = 0
        for _ in range(12):
            batch = churn_stream(rng, 20)
            batch = [
                StreamPoint(next_pid + i, p.coords, float(next_pid + i))
                for i, p in enumerate(batch)
            ]
            next_pid += len(batch)
            out = alive[:20] if len(alive) >= 80 else []
            alive = alive[len(out):] + batch
            disc.advance(batch, out)
        disc.state.store.check_invariants()
        before = disc.labels()
        disc.state.compact_cids()
        assert set(disc.labels()) == set(before)

    def test_exactness_survives_compaction_cycles(self):
        rng = random.Random(4)
        disc = DISC(0.6, 4)
        disc.compact_every = 3  # compact aggressively mid-stream
        reference = SlidingDBSCAN(0.6, 4)
        alive: list[StreamPoint] = []
        next_pid = 0
        for _ in range(25):
            batch = []
            for _ in range(25):
                cx = rng.choice([0.0, 3.0])
                batch.append(
                    StreamPoint(
                        next_pid,
                        (cx + rng.gauss(0, 0.5), rng.gauss(0, 0.5)),
                        float(next_pid),
                    )
                )
                next_pid += 1
            out = alive[:25] if len(alive) >= 100 else []
            alive = alive[len(out):] + batch
            disc.advance(batch, out)
            reference.advance(batch, out)
            coords = {p.pid: p.coords for p in alive}
            assert_equivalent(
                disc.snapshot(), reference.snapshot(), coords, disc.params
            )
