"""Long-haul stress: sustained churn with periodic exactness audits.

A single DISC instance survives hundreds of strides of adversarial churn —
blobs drifting, appearing and vanishing, bulk departures — while staying
exact against from-scratch DBSCAN at every audit point and keeping its
internal bookkeeping (anchors, counts, index) consistent.
"""

import random

from repro.baselines.dbscan import SlidingDBSCAN
from repro.common.points import StreamPoint
from repro.core.disc import DISC
from repro.core.store import DELETED
from repro.metrics.compare import assert_equivalent


def audit_internal_state(disc):
    """Bookkeeping invariants that must hold between strides."""
    store = disc.state.store
    eps, tau = disc.params.eps, disc.params.tau
    slots = store.live_slots()
    assert not (store.flags[slots] & DELETED).any(), "exited row outlived its stride"
    for slot in slots.tolist():
        pid = int(store.pid[slot])
        ball = [qid for qid, _ in disc.index.ball(store.coords[slot].tolist(), eps)]
        # n_eps is exact.
        assert store.n_eps[slot] == len(ball), f"n_eps drift for {pid}"
        # c_core is exact.
        true_c = sum(
            1 for qid in ball if qid != pid and store.n_eps[store.slot_of(qid)] >= tau
        )
        assert store.c_core[slot] == true_c, f"c_core drift for {pid}"
        if store.n_eps[slot] < tau and true_c > 0:  # a border: its anchor is core
            assert store.n_eps[store.slot_of(int(store.anchor[slot]))] >= tau
    assert len(disc.index) == len(slots)


def test_sustained_churn_stays_exact():
    rng = random.Random(77)
    disc = DISC(0.7, 4)
    disc.compact_every = 37  # exercise compaction mid-run
    reference = SlidingDBSCAN(0.7, 4)
    alive: list[StreamPoint] = []
    next_pid = 0
    blob_centers = [[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]]

    for stride in range(120):
        # Drift the blobs; occasionally teleport one (dissipation + birth).
        for center in blob_centers:
            center[0] += rng.gauss(0, 0.08)
            center[1] += rng.gauss(0, 0.08)
        if rng.random() < 0.05:
            idx = rng.randrange(len(blob_centers))
            blob_centers[idx] = [rng.uniform(-3, 7), rng.uniform(-3, 6)]

        batch = []
        batch_size = rng.choice([10, 25, 40])
        for _ in range(batch_size):
            if rng.random() < 0.15:
                coords = (rng.uniform(-4, 8), rng.uniform(-4, 7))
            else:
                cx, cy = rng.choice(blob_centers)
                coords = (cx + rng.gauss(0, 0.45), cy + rng.gauss(0, 0.45))
            batch.append(StreamPoint(next_pid, coords, float(next_pid)))
            next_pid += 1

        # Departures: usually FIFO, occasionally a bulk purge.
        if rng.random() < 0.1 and len(alive) > 80:
            n_out = rng.randrange(40, min(len(alive), 80))
        else:
            n_out = max(0, len(alive) + batch_size - 150)
            n_out = min(n_out, len(alive))
        delta_out = alive[:n_out]
        alive = alive[n_out:] + batch

        disc.advance(batch, delta_out)
        reference.advance(batch, delta_out)

        if stride % 10 == 0:
            coords = {p.pid: p.coords for p in alive}
            assert_equivalent(
                disc.snapshot(), reference.snapshot(), coords, disc.params
            )
        if stride % 40 == 0:
            audit_internal_state(disc)
            disc.index.check_invariants()

    # Final full audit.
    coords = {p.pid: p.coords for p in alive}
    assert_equivalent(
        disc.snapshot(), reference.snapshot(), coords, disc.params
    )
    audit_internal_state(disc)
