"""The recovery contract: kill anywhere, resume, get identical results.

These tests prove the property the runtime package exists for — a
supervised run killed at *any* stride boundary and resumed from its store
produces a final snapshot byte-identical (via the result's canonical
encoding, ``Clustering.encode``) to an uninterrupted run, on every
registered index backend.
"""

import logging

import pytest

from repro.common.config import WindowSpec
from repro.common.errors import IndexError_
from repro.core.checkpoint import CheckpointError
from repro.core.checkpoint import dumps as disc_dumps
from repro.core.checkpoint import loads as disc_loads
from repro.core.disc import DISC
from repro.index.registry import available_indexes, make_index
from repro.metrics.compare import assert_equivalent
from repro.runtime import (
    ChaosKill,
    ChaosMonkey,
    CheckpointStore,
    FlakyIndex,
    RuntimeStats,
    Supervisor,
    check_state,
    corrupt_checkpoint,
)
from repro.runtime.chaos import RuntimeHooks
from repro.window.sliding import materialize_slides
from tests.conftest import clustered_stream

EPS, TAU = 0.7, 4
SPEC = WindowSpec(window=100, stride=40)


def shifted_stream(seed, n):
    """A second, differently-shaped dataset: tighter blobs, more noise."""
    return clustered_stream(
        seed,
        n,
        centers=((0.0, 0.0), (4.0, 4.0)),
        spread=0.35,
        noise_fraction=0.35,
    )


DATASETS = {
    "blobs4": lambda: clustered_stream(11, 260),
    "blobs2-noisy": lambda: shifted_stream(12, 260),
}


def run_to_end(supervisor, points, resume=False):
    last = None
    for snapshot, _ in supervisor.run(points, resume=resume):
        last = snapshot
    return last


@pytest.mark.chaos
@pytest.mark.parametrize("index", available_indexes())
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestKillAnywhereResumeIdentical:
    def test_every_stride_boundary(self, tmp_path, index, dataset):
        points = DATASETS[dataset]()
        reference = run_to_end(Supervisor(EPS, TAU, SPEC, index=index), points)
        assert reference is not None
        expected = reference.encode()
        n_strides = sum(1 for _ in Supervisor(EPS, TAU, SPEC, index=index).run(points))

        for kill_at in range(n_strides):
            store_dir = tmp_path / f"{index}-{kill_at}"
            killed = Supervisor(
                EPS,
                TAU,
                SPEC,
                store=str(store_dir),
                checkpoint_every=1,
                index=index,
                hooks=ChaosMonkey(kill_before_stride=kill_at),
            )
            with pytest.raises(ChaosKill):
                run_to_end(killed, points)

            resumed = Supervisor(
                EPS, TAU, SPEC, store=str(store_dir), checkpoint_every=1, index=index
            )
            final = run_to_end(resumed, points, resume="auto")
            assert final.encode() == expected, (
                f"kill at stride {kill_at} on {index}/{dataset} diverged"
            )
            if kill_at > 0:
                assert resumed.stats.resumes == 1
                assert resumed.stats.resumed_at_stride == kill_at


@pytest.mark.chaos
class TestChaosVariants:
    def test_kill_after_checkpoint_is_recoverable(self, tmp_path):
        """The worst case: state persisted, progress lost right after."""
        points = clustered_stream(13, 220)
        expected = run_to_end(Supervisor(EPS, TAU, SPEC), points).encode()

        store_dir = str(tmp_path / "ck")
        killed = Supervisor(
            EPS,
            TAU,
            SPEC,
            store=store_dir,
            checkpoint_every=2,
            hooks=ChaosMonkey(kill_after_checkpoint=2),
        )
        with pytest.raises(ChaosKill):
            run_to_end(killed, points)

        resumed = Supervisor(EPS, TAU, SPEC, store=store_dir, checkpoint_every=2)
        assert run_to_end(resumed, points, resume=True).encode() == expected

    def test_repeated_kills_then_final_resume(self, tmp_path):
        """Crash-loop drill: die at stride 1, 2, 3, ... then finish clean."""
        points = clustered_stream(14, 200)
        expected = run_to_end(Supervisor(EPS, TAU, SPEC), points).encode()
        store_dir = str(tmp_path / "ck")
        for kill_at in (1, 2, 3, 4):
            supervisor = Supervisor(
                EPS,
                TAU,
                SPEC,
                store=store_dir,
                checkpoint_every=1,
                hooks=ChaosMonkey(kill_before_stride=kill_at),
            )
            with pytest.raises(ChaosKill):
                run_to_end(supervisor, points, resume="auto")
        survivor = Supervisor(EPS, TAU, SPEC, store=store_dir, checkpoint_every=1)
        assert run_to_end(survivor, points, resume=True).encode() == expected

    def test_resume_true_requires_a_checkpoint(self, tmp_path):
        supervisor = Supervisor(EPS, TAU, SPEC, store=str(tmp_path / "empty"))
        with pytest.raises(CheckpointError, match="nothing to resume"):
            run_to_end(supervisor, clustered_stream(15, 50), resume=True)

    def test_resume_auto_starts_fresh_without_checkpoint(self, tmp_path):
        points = clustered_stream(15, 120)
        expected = run_to_end(Supervisor(EPS, TAU, SPEC), points).encode()
        supervisor = Supervisor(EPS, TAU, SPEC, store=str(tmp_path / "empty"))
        assert run_to_end(supervisor, points, resume="auto").encode() == expected
        assert supervisor.stats.resumes == 0


@pytest.mark.chaos
class TestCorruptedCheckpoints:
    def _store_with_checkpoints(self, tmp_path, points):
        store_dir = str(tmp_path / "ck")
        supervisor = Supervisor(
            EPS,
            TAU,
            SPEC,
            store=store_dir,
            checkpoint_every=1,
            hooks=ChaosMonkey(kill_before_stride=3),
        )
        with pytest.raises(ChaosKill):
            run_to_end(supervisor, points)
        return CheckpointStore(store_dir)

    def test_corrupted_latest_is_reported_not_restored(self, tmp_path):
        points = clustered_stream(16, 200)
        store = self._store_with_checkpoints(tmp_path, points)
        # Offset 10 is the first digit of the envelope's recorded crc32
        # (sorted keys put it first): the JSON stays parseable, the CRC
        # check must be what catches the rot.
        corrupt_checkpoint(store.checkpoints()[-1], offset=10)
        supervisor = Supervisor(EPS, TAU, SPEC, store=store)
        with pytest.raises(CheckpointError, match="integrity check"):
            run_to_end(supervisor, points, resume=True)

    def test_unknown_backend_is_reported_not_restored(self, tmp_path):
        points = clustered_stream(16, 200)
        store = self._store_with_checkpoints(tmp_path, points)
        stride, payload = store.latest()
        payload["disc"]["index"] = "grid"  # a backend this build lacks
        store.save(stride, payload)
        supervisor = Supervisor(EPS, TAU, SPEC, store=store)
        with pytest.raises(CheckpointError, match="unknown index backend 'grid'"):
            run_to_end(supervisor, points, resume=True)

    def test_torn_write_is_reported_too(self, tmp_path):
        points = clustered_stream(16, 200)
        store = self._store_with_checkpoints(tmp_path, points)
        corrupt_checkpoint(store.checkpoints()[-1])  # structural byte
        supervisor = Supervisor(EPS, TAU, SPEC, store=store)
        with pytest.raises(CheckpointError):
            run_to_end(supervisor, points, resume=True)

    def test_operator_deletes_bad_checkpoint_then_resumes(self, tmp_path):
        """The documented remediation: remove the bad file, resume older."""
        points = clustered_stream(17, 200)
        expected = run_to_end(Supervisor(EPS, TAU, SPEC), points).encode()
        store = self._store_with_checkpoints(tmp_path, points)
        bad = store.checkpoints()[-1]
        corrupt_checkpoint(bad)
        bad.unlink()
        supervisor = Supervisor(EPS, TAU, SPEC, store=store, checkpoint_every=1)
        assert run_to_end(supervisor, points, resume=True).encode() == expected


@pytest.mark.chaos
class TestFlakyIndex:
    def test_queries_fail_after_fuse(self):
        # The batched query layer serves a whole phase per invocation, and
        # an all-arrival stride reads its neo-core balls from COLLECT's one
        # search. So the first advance issues one fused call, and the
        # second burns the fuse after its departures' call, on its
        # arrivals' call.
        points = clustered_stream(18, 150)
        flaky = FlakyIndex(make_index("vectorgrid", eps=EPS), fail_after=2)
        disc = DISC(EPS, TAU, index=flaky)
        disc.advance(points[:100], ())
        with pytest.raises(IndexError_, match="chaos: index query"):
            disc.advance(points[100:], points[:50])
        assert flaky.queries == 3

    def test_recovery_from_index_failure_via_checkpoint(self):
        """Die mid-stride on a failing index, restore, finish identically."""
        points = clustered_stream(19, 200)
        slides = materialize_slides(points, SPEC)

        reference = DISC(EPS, TAU)
        for delta_in, delta_out in slides:
            reference.advance(delta_in, delta_out)

        disc = DISC(EPS, TAU)
        saved = disc_dumps(disc)
        crashed_at = None
        for i, (delta_in, delta_out) in enumerate(slides):
            if i == 2:
                # Substrate starts failing: queries die mid-stride. This
                # stride issues three fused calls (departures, arrivals and
                # the ex-core scans), so the third one fails.
                disc.index = FlakyIndex(disc.index, fail_after=2)
                try:
                    disc.advance(delta_in, delta_out)
                except IndexError_:
                    crashed_at = i
                    break
            disc.advance(delta_in, delta_out)
            saved = disc_dumps(disc)
        assert crashed_at == 2

        healthy = disc_loads(saved)  # last good checkpoint, healthy backend
        for delta_in, delta_out in slides[crashed_at:]:
            healthy.advance(delta_in, delta_out)
        assert healthy.labels() == reference.labels()


class _CorruptAt(RuntimeHooks):
    """Flip one cached neighbour count right before a chosen stride."""

    def __init__(self, supervisor_ref, stride):
        self.supervisor_ref = supervisor_ref
        self.stride = stride

    def before_stride(self, stride):
        if stride != self.stride:
            return
        disc = self.supervisor_ref[0].clusterer
        # Newest record that stays non-core even after the drift: it will
        # not expire this stride, and the nudge cannot flip its category
        # mid-advance — only the cached count goes stale.
        store = disc.state.store
        slots = store.live_slots()
        victims = slots[store.n_eps[slots] < disc.params.tau - 1]
        victim = store.slot_of(int(store.pid[victims].max()))
        store.n_eps[victim] += 1  # silent corruption: cached count drifts


class TestInvariantChecker:
    def test_clean_run_has_no_violations(self):
        disc = DISC(EPS, TAU)
        disc.advance(clustered_stream(20, 150), ())
        assert check_state(disc) == []

    def test_detects_neps_drift(self):
        disc = DISC(EPS, TAU)
        disc.advance(clustered_stream(20, 100), ())
        disc.state.store.n_eps[disc.state.store.live_slots()[0]] += 3
        violations = check_state(disc)
        assert any("n_eps mismatch" in v for v in violations)

    def test_detects_dangling_anchor(self):
        disc = DISC(EPS, TAU)
        disc.advance(clustered_stream(21, 150), ())
        store = disc.state.store
        slots = store.live_slots()
        borders = slots[(store.n_eps[slots] < TAU) & (store.c_core[slots] > 0)]
        assert len(borders), "stream should produce at least one border"
        store.anchor[borders[0]] = 10**9
        violations = check_state(disc)
        assert any("absent point" in v for v in violations)

    def test_supervisor_heals_by_rebuilding(self, caplog):
        points = clustered_stream(22, 220)
        reference = run_to_end(Supervisor(EPS, TAU, SPEC), points)

        holder = []
        stats = RuntimeStats()
        supervisor = Supervisor(
            EPS,
            TAU,
            SPEC,
            stats=stats,
            hooks=_CorruptAt(holder, stride=2),
            check_invariants=True,
        )
        holder.append(supervisor)
        with caplog.at_level(logging.WARNING, logger="repro.runtime"):
            final = run_to_end(supervisor, points)
        assert stats.invariant_failures == 1
        assert stats.rebuilds == 1
        assert any("invariant" in r.message for r in caplog.records)
        # Healed state is clean and clustering-equivalent to the reference
        # (cluster ids are re-minted by the rebuild, so compare structure).
        assert check_state(supervisor.clusterer) == []
        store = supervisor.clusterer.state.store
        slots = store.live_slots()
        coords = dict(
            zip(store.pid[slots].tolist(), map(tuple, store.coords[slots].tolist()))
        )
        assert_equivalent(final, reference, coords, supervisor.clusterer.params)
