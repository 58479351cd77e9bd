"""Snapshot-archive unit tests: materialization, AS_OF, corruption.

The archive's contract: for any retained stride, nearest-snapshot +
journal-delta replay reconstructs exactly the membership the pipeline had
when that stride closed. The tests drive a real DISC pipeline, track the
ground-truth membership per stride, and compare every materialization
against it — under several snapshot cadences, including none at all.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api import cluster_stream
from repro.common.config import WindowSpec
from repro.common.snapshot import Clustering
from repro.query.archive import ArchiveError, SnapshotArchive, stride_at_time
from repro.query.journal import EvolutionJournal, stride_record

from .conftest import clustered_stream

EPS, TAU = 0.8, 4
WINDOW, STRIDE = 120, 30


def pipeline_history(points, *, journal_dir, every, archive_dir):
    """Run DISC offline, journaling every stride; return ground truth.

    Returns ``(journal, archive, states)`` where ``states[s]`` is the
    membership ``{pid: [label, cat]}`` at stride ``s``.
    """
    journal = EvolutionJournal(journal_dir)
    archive = SnapshotArchive(archive_dir, every=every, journal=journal)
    last = {"time": None}

    def tracked():
        for p in points:
            last["time"] = p.time
            yield p

    spec = WindowSpec(window=WINDOW, stride=STRIDE)
    prev = None
    states = []
    for s, (clustering, summary) in enumerate(
        cluster_stream(tracked(), spec, eps=EPS, tau=TAU)
    ):
        journal.publish(
            stride_record(s, prev, clustering, summary, time=last["time"])
        )
        archive.maybe_snapshot(s, clustering)
        prev = clustering
        states.append(
            {
                pid: [clustering.labels.get(pid, Clustering.NOISE_ID), cat.value]
                for pid, cat in clustering.categories.items()
            }
        )
    journal.commit()
    return journal, archive, states


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    root = tmp_path_factory.mktemp("archive-history")
    points = clustered_stream(33, 360)
    return pipeline_history(
        points, journal_dir=root / "evj", every=4, archive_dir=root / "arch"
    )


class TestMaterialize:
    def test_every_stride_matches_ground_truth(self, history):
        journal, archive, states = history
        assert len(states) == 360 // STRIDE
        assert archive.strides() == [0, 4, 8]
        for s, expected in enumerate(states[:-1]):
            assert archive.materialize(s) == expected, f"stride {s} diverged"

    def test_newest_closed_stride_is_not_answerable(self, history):
        journal, archive, states = history
        # AS_OF serves *past* strides; the newest is the live view's job.
        with pytest.raises(ArchiveError, match="ahead of the journal head"):
            archive.materialize(len(states))

    def test_without_snapshots_replays_from_empty(self, tmp_path):
        points = clustered_stream(34, 240)
        journal, archive, states = pipeline_history(
            points,
            journal_dir=tmp_path / "evj",
            every=0,  # no snapshots at all: pure delta replay from stride 0
            archive_dir=tmp_path / "arch",
        )
        assert archive.strides() == []
        for s, expected in enumerate(states[:-1]):
            assert archive.materialize(s) == expected

    def test_compaction_keeps_snapshot_answerable_strides(self, tmp_path):
        points = clustered_stream(35, 360)
        journal, archive, states = pipeline_history(
            points,
            journal_dir=tmp_path / "evj",
            every=4,
            archive_dir=tmp_path / "arch",
        )
        # Cut history below stride 4 (the second snapshot covers 4+).
        journal.compact(4)
        assert journal.floor <= 4
        for s in range(4, len(states) - 1):
            assert archive.materialize(s) == states[s]
        # A stride below every snapshot AND below the floor is refused —
        # unless the floor is still 0 (nothing was actually cut).
        if journal.floor > 0:
            orphan = journal.floor - 1
            if archive.latest_at_or_before(orphan) is None:
                with pytest.raises(ArchiveError):
                    archive.materialize(orphan)


class TestAsOf:
    def test_as_of_stride_payload(self, history):
        journal, archive, states = history
        payload = archive.as_of(stride=5)
        assert payload["stride"] == 5
        assert payload["num_points"] == len(states[5])
        # Noise carries no label, as in SNAPSHOT.
        assert payload["labels"] == {
            str(pid): lab
            for pid, (lab, _) in states[5].items()
            if lab != Clustering.NOISE_ID
        }
        assert payload["categories"] == {
            str(pid): cat for pid, (_, cat) in states[5].items()
        }
        core_labels = {
            lab for lab, cat in states[5].values() if cat == "core"
        }
        assert payload["num_clusters"] == len(core_labels)

    def test_as_of_stride_decodes_only_the_replayed_records(
        self, history, monkeypatch
    ):
        # Near the head, the answer is the newest snapshot plus a couple of
        # deltas; the records before them are stepped over undecoded.
        journal, archive, states = history
        stride = journal.head - 2
        base = archive.latest_at_or_before(stride)
        assert 0 < stride - base < journal.head - 2
        decoded = []
        original = journal._decode_body

        def counting(body):
            decoded.append(body)
            return original(body)

        monkeypatch.setattr(journal, "_decode_body", counting)
        payload = archive.as_of(stride=stride)
        assert payload["num_points"] == len(states[stride])
        assert len(decoded) == stride - base

    def test_as_of_time_resolves_to_stride(self, history):
        journal, archive, states = history
        records = journal.read(0)
        # Exactly at a stride's closing stamp -> that stride.
        r = records[3]
        assert stride_at_time(journal, r["time"]) == r["stride"]
        assert archive.as_of(time=r["time"])["stride"] == r["stride"]
        # Between two stamps -> the earlier stride.
        mid = (records[3]["time"] + records[4]["time"]) / 2.0
        if records[3]["time"] < mid < records[4]["time"]:
            assert archive.as_of(time=mid)["stride"] == 3

    def test_time_before_history_errors(self, history):
        journal, archive, states = history
        first = journal.read(0, 1)[0]["time"]
        with pytest.raises(ArchiveError, match="no retained stride"):
            archive.as_of(time=first - 1e6)

    def test_exactly_one_selector_required(self, history):
        journal, archive, _ = history
        with pytest.raises(ArchiveError, match="exactly one"):
            archive.as_of()
        with pytest.raises(ArchiveError, match="exactly one"):
            archive.as_of(stride=1, time=1.0)


class TestStrideAtTimeBoundaries:
    """The at-or-before contract of time-travel resolution, edge by edge.

    ``stride_at_time`` answers "what did the pipeline know at time t":
    the *newest* retained stride whose closing stamp is ``<= t``. These
    tests pin the boundaries — exact hit, duplicate stamps, midpoints,
    pre-floor times, unstamped records — on a hand-built journal where
    every stamp is chosen, not emergent.
    """

    @staticmethod
    def journal_with_stamps(tmp_path, stamps):
        journal = EvolutionJournal(tmp_path / "stamps")
        for stride, stamp in enumerate(stamps):
            journal.publish({"stride": stride, "time": stamp})
        journal.commit()
        return journal

    def test_exact_stamp_resolves_to_that_stride(self, tmp_path):
        journal = self.journal_with_stamps(tmp_path, [10.0, 20.0, 30.0])
        assert stride_at_time(journal, 10.0) == 0
        assert stride_at_time(journal, 20.0) == 1
        assert stride_at_time(journal, 30.0) == 2

    def test_between_stamps_resolves_to_the_earlier_stride(self, tmp_path):
        journal = self.journal_with_stamps(tmp_path, [10.0, 20.0, 30.0])
        assert stride_at_time(journal, 19.999) == 0
        assert stride_at_time(journal, 20.001) == 1
        assert stride_at_time(journal, 1e9) == 2  # far future: newest

    def test_duplicate_stamps_resolve_to_the_newest_stride(self, tmp_path):
        # Strides 1 and 2 closed at the same instant (e.g. a burst of
        # identical timestamps under a time-based window): AS_OF must
        # answer with the newest knowledge at that instant.
        journal = self.journal_with_stamps(tmp_path, [10.0, 20.0, 20.0, 30.0])
        assert stride_at_time(journal, 20.0) == 2
        assert stride_at_time(journal, 25.0) == 2

    def test_time_before_every_stamp_is_none(self, tmp_path):
        journal = self.journal_with_stamps(tmp_path, [10.0, 20.0])
        assert stride_at_time(journal, 9.999) is None

    def test_unstamped_records_are_skipped(self, tmp_path):
        journal = self.journal_with_stamps(tmp_path, [10.0, None, 30.0])
        # Stride 1 carries no stamp: it is invisible to time resolution,
        # not a barrier to it.
        assert stride_at_time(journal, 15.0) == 0
        assert stride_at_time(journal, 30.0) == 2

    def test_compaction_moves_the_answerable_floor(self, tmp_path):
        # One record per segment (segment_bytes=1) so compaction really
        # drops strides 0 and 1 instead of keeping their shared segment.
        journal = EvolutionJournal(tmp_path / "stamps", segment_bytes=1)
        for stride, stamp in enumerate([10.0, 20.0, 30.0, 40.0]):
            journal.publish({"stride": stride, "time": stamp})
        journal.commit()
        journal.compact(2)
        assert journal.floor == 2
        # Times at or past the floor's stamp still resolve…
        assert stride_at_time(journal, 30.0) == 2
        assert stride_at_time(journal, 45.0) == 3
        # …but a time covered only by compacted strides predates retained
        # history now: None, never a stale (dropped) stride index.
        assert stride_at_time(journal, 15.0) is None

    def test_resolution_decodes_logarithmically_many_records(
        self, tmp_path, monkeypatch
    ):
        n = 400
        journal = self.journal_with_stamps(tmp_path, [float(s) for s in range(n)])
        decoded = []
        original = journal._decode_body

        def counting(body):
            decoded.append(body)
            return original(body)

        monkeypatch.setattr(journal, "_decode_body", counting)
        for time in (-1.0, 0.0, 137.5, 250.0, n - 1.0, 1e9):
            decoded.clear()
            expected = None if time < 0 else min(int(time), n - 1)
            assert stride_at_time(journal, time) == expected
            # One probe per halving of [floor, head): 9 for 400 records.
            assert len(decoded) <= n.bit_length()

    @pytest.mark.parametrize("seed", range(20))
    def test_bisection_answers_as_a_full_scan_does(self, tmp_path, seed):
        """Rising stamps with repeats and unstamped records anywhere: every
        probe time answers as reading the retained records in order."""
        rng = random.Random(seed)
        stamps, clock = [], 0.0
        for _ in range(rng.randrange(1, 60)):
            if rng.random() < 0.25:
                stamps.append(None)
            else:
                clock += rng.choice((0.0, 1.0, 2.5))
                stamps.append(clock)
        journal = self.journal_with_stamps(tmp_path, stamps)

        def full_scan(time):
            found = None
            for record in journal.read(journal.floor):
                stamp = record.get("time")
                if stamp is not None and stamp > time:
                    break
                if stamp is not None:
                    found = record["stride"]
            return found

        probes = {-1.0, clock + 1.0} | {s for s in stamps if s is not None}
        probes |= {s + 0.5 for s in stamps if s is not None}
        for time in sorted(probes):
            assert stride_at_time(journal, time) == full_scan(time), time

    def test_as_of_time_at_exact_and_duplicate_stamps(self, history):
        journal, archive, states = history
        records = journal.read(0)
        # Every retained record's exact stamp answers with that stride (or
        # the newest stride sharing the stamp).
        for record in records[:-1]:
            stamp = record["time"]
            newest = max(
                r["stride"] for r in records if r["time"] == stamp
            )
            if newest < len(states) - 1:
                assert archive.as_of(time=stamp)["stride"] == newest


class TestCorruption:
    def test_crc_mismatch_is_detected(self, tmp_path):
        points = clustered_stream(36, 240)
        journal, archive, states = pipeline_history(
            points,
            journal_dir=tmp_path / "evj",
            every=4,
            archive_dir=tmp_path / "arch",
        )
        path = archive.directory / "snap-0000000004.json"
        envelope = json.loads(path.read_text())
        envelope["payload"]["label"][0] += 1  # silent bitrot
        path.write_text(json.dumps(envelope, sort_keys=True))
        with pytest.raises(ArchiveError, match="CRC"):
            archive.load(4)

    def test_missing_snapshot_errors(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        with pytest.raises(ArchiveError, match="no snapshot"):
            archive.load(7)

    def test_reopen_rediscovers_snapshots(self, tmp_path):
        points = clustered_stream(37, 240)
        journal, archive, states = pipeline_history(
            points,
            journal_dir=tmp_path / "evj",
            every=4,
            archive_dir=tmp_path / "arch",
        )
        reopened = SnapshotArchive(
            tmp_path / "arch", every=4, journal=journal
        )
        assert reopened.strides() == archive.strides()
        assert reopened.materialize(5) == states[5]
