"""Evolution-journal unit tests: records, idempotence, recovery, limits.

The journal reuses the WAL's segmented CRC32-framed storage engine, so the
contract mirrors ``test_runtime_wal.py``: any tail damage recovers to a
clean contiguous prefix. On top of that sit the CDC-specific guarantees —
records are pure functions of the stride inputs (byte-identical across
live / replay / offline builders), ``publish`` is idempotent across
crash-replay, and every record fits one transport frame.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.limits import (
    MAX_FRAME_BYTES,
    MAX_JOURNAL_RECORD_BYTES,
    PUSH_ENVELOPE_BYTES,
)
from repro.common.snapshot import Category, Clustering
from repro.core.events import EvolutionEvent, EvolutionKind, StrideSummary
from repro.query.journal import (
    EvolutionJournal,
    JournalError,
    JournalStats,
    apply_record,
    encode_record,
    stride_record,
)
from repro.runtime.chaos import bit_flip
from repro.runtime.wal import WalError
from repro.serve import protocol


def clustering(members: dict[int, tuple[int, str]]) -> Clustering:
    """Build a Clustering from ``{pid: (label, category_name)}``."""
    labels = {pid: label for pid, (label, _) in members.items()}
    categories = {pid: Category(cat) for pid, (_, cat) in members.items()}
    return Clustering(labels, categories)


def summary(**kwargs) -> StrideSummary:
    return StrideSummary(**kwargs)


def record_at(journal: EvolutionJournal, stride: int, **extra) -> dict:
    """A small well-formed record for ``stride`` (storage-level tests)."""
    base = {
        "stride": stride,
        "time": float(stride),
        "events": [],
        "counts": {"ex_cores": 0, "neo_cores": 0, "inserted": 1, "deleted": 0},
        "clusters": 0,
        "add": {str(stride): [0, "core"]},
        "expire": [],
        "change": {},
    }
    base.update(extra)
    return base


class TestStrideRecord:
    def test_membership_delta_against_previous(self):
        prev = clustering({1: (0, "core"), 2: (0, "border"), 3: (-1, "noise")})
        now = clustering({2: (1, "core"), 3: (-1, "noise"), 4: (1, "border")})
        record = stride_record(5, prev, now, summary(), time=12.5)
        assert record["stride"] == 5
        assert record["time"] == 12.5
        assert record["add"] == {"4": [1, "border"]}
        assert record["expire"] == [1]
        assert record["change"] == {"2": [1, "core"]}  # label AND cat moved

    def test_category_change_alone_is_reported(self):
        prev = clustering({1: (0, "core"), 2: (0, "border")})
        now = clustering({1: (0, "core"), 2: (0, "core")})
        record = stride_record(0, prev, now, summary())
        assert record["change"] == {"2": [0, "core"]}
        assert record["add"] == {} and record["expire"] == []

    def test_none_prev_means_everything_is_added(self):
        now = clustering({7: (0, "core"), 9: (-1, "noise")})
        record = stride_record(0, None, now, summary())
        assert record["add"] == {"7": [0, "core"], "9": [-1, "noise"]}
        assert record["expire"] == [] and record["change"] == {}

    def test_events_and_counts_serialize(self):
        events = [
            EvolutionEvent(EvolutionKind.MERGE, (3, 5), 102),
            EvolutionEvent(EvolutionKind.DISSIPATE, (), None),
        ]
        record = stride_record(
            2,
            None,
            clustering({}),
            summary(events=events, num_ex_cores=1, num_neo_cores=2,
                    num_inserted=8, num_deleted=8),
        )
        assert record["events"] == [["merge", [3, 5], 102], ["dissipate", [], None]]
        assert record["counts"] == {
            "ex_cores": 1, "neo_cores": 2, "inserted": 8, "deleted": 8,
        }

    def test_encoding_is_canonical_and_deterministic(self):
        prev = clustering({1: (0, "core")})
        now = clustering({1: (0, "core"), 2: (0, "border")})
        a = encode_record(stride_record(3, prev, now, summary(), time=1.0))
        b = encode_record(stride_record(3, prev, now, summary(), time=1.0))
        assert a == b
        assert json.loads(a) == json.loads(b)
        # sorted keys, compact separators: canonical for byte comparisons
        assert a == json.dumps(
            json.loads(a), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def test_apply_record_round_trips_the_delta(self):
        prev = clustering({1: (0, "core"), 2: (0, "border"), 3: (-1, "noise")})
        now = clustering({2: (1, "core"), 3: (1, "border"), 4: (1, "core")})
        record = stride_record(1, prev, now, summary())
        state = {1: [0, "core"], 2: [0, "border"], 3: [-1, "noise"]}
        apply_record(state, record)
        assert state == {2: [1, "core"], 3: [1, "border"], 4: [1, "core"]}


class TestPublish:
    def test_sequences_are_stride_indices(self, tmp_path):
        journal = EvolutionJournal(tmp_path)
        assert journal.publish(record_at(journal, 0)) == 0
        assert journal.publish(record_at(journal, 1)) == 1
        assert journal.head == 2
        assert journal.floor == 0

    def test_republish_is_idempotent(self, tmp_path):
        journal = EvolutionJournal(tmp_path)
        journal.publish(record_at(journal, 0))
        journal.publish(record_at(journal, 1))
        # Crash-replay re-derives stride 0 and 1; both are skipped.
        assert journal.publish(record_at(journal, 0)) is None
        assert journal.publish(record_at(journal, 1)) is None
        assert journal.head == 2
        assert journal.stats.appends == 2

    def test_gap_is_a_bug_and_raises(self, tmp_path):
        journal = EvolutionJournal(tmp_path)
        journal.publish(record_at(journal, 0))
        with pytest.raises(JournalError, match="gap"):
            journal.publish(record_at(journal, 5))

    def test_mislabeled_record_raises(self, tmp_path):
        journal = EvolutionJournal(tmp_path)
        with pytest.raises(JournalError):
            journal.append({"stride": 9, "add": {}})  # append at seq 0

    def test_survives_reopen(self, tmp_path):
        journal = EvolutionJournal(tmp_path)
        for s in range(5):
            journal.publish(record_at(journal, s))
        journal.close()
        reopened = EvolutionJournal(tmp_path)
        assert reopened.head == 5
        assert [r["stride"] for r in reopened.read(0)] == [0, 1, 2, 3, 4]


class TestRead:
    def test_range_and_limit(self, tmp_path):
        journal = EvolutionJournal(tmp_path)
        for s in range(10):
            journal.publish(record_at(journal, s))
        assert [r["stride"] for r in journal.read(3, 7)] == [3, 4, 5, 6]
        assert [r["stride"] for r in journal.read(0, limit=4)] == [0, 1, 2, 3]
        assert journal.stats.reads == 8

    def test_compaction_moves_the_floor(self, tmp_path):
        journal = EvolutionJournal(tmp_path, segment_bytes=1)  # 1 record/segment
        for s in range(6):
            journal.publish(record_at(journal, s))
        removed = journal.compact(4)
        assert removed > 0
        assert journal.stats.compacted_segments == removed
        assert journal.floor > 0
        remaining = [r["stride"] for r in journal.read(0)]
        assert remaining == list(range(journal.floor, 6))


class TestFrameCeiling:
    """Satellite: journal records must fit the serve transport frame."""

    def test_limit_constants_are_consistent(self):
        # A record + its push envelope must fit one protocol frame.
        assert MAX_JOURNAL_RECORD_BYTES + PUSH_ENVELOPE_BYTES <= MAX_FRAME_BYTES
        assert protocol.MAX_FRAME_BYTES == MAX_FRAME_BYTES
        assert EvolutionJournal.max_record_bytes == MAX_JOURNAL_RECORD_BYTES

    def test_oversized_record_is_rejected_at_append(self, tmp_path):
        journal = EvolutionJournal(tmp_path)
        blob = "x" * MAX_JOURNAL_RECORD_BYTES
        with pytest.raises(WalError, match="ceiling"):
            journal.publish(record_at(journal, 0, add={"0": [0, blob]}))
        # The journal stays clean and appendable after the rejection.
        assert journal.publish(record_at(journal, 0)) == 0

    def test_every_journaled_record_ships_in_one_push_frame(self, tmp_path):
        journal = EvolutionJournal(tmp_path)
        big = {str(pid): [pid, "core"] for pid in range(2000)}
        journal.publish(record_at(journal, 0, add=big))
        [record] = journal.read(0)
        frame = protocol.encode_frame(
            {"push": "event", "session": "tenant-with-a-long-name", "record": record}
        )
        assert len(frame) <= MAX_FRAME_BYTES


class TestStats:
    def test_fields_match_schema_tuple(self):
        assert set(JournalStats().as_dict()) == {
            "appends",
            "fsyncs",
            "bytes",
            "reads",
            "truncated_tail",
            "compacted_segments",
        }

    def test_counters_accumulate(self, tmp_path):
        journal = EvolutionJournal(tmp_path, fsync="always")
        journal.publish(record_at(journal, 0))
        journal.commit()
        stats = journal.stats.as_dict()
        assert stats["appends"] == 1
        assert stats["fsyncs"] >= 1
        assert stats["bytes"] > 0


@settings(max_examples=50, deadline=None)
@given(
    n_records=st.integers(min_value=1, max_value=20),
    damage=st.one_of(
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=600)),
        st.tuples(st.just("flip"), st.integers(min_value=0, max_value=599)),
    ),
)
def test_any_tail_damage_recovers_to_clean_prefix(tmp_path_factory, n_records, damage):
    """Property: arbitrary byte damage to the journal's tail segment
    recovers the longest clean contiguous prefix of strides — never garbage,
    never a gap — and publishing continues from the recovered head."""
    directory = tmp_path_factory.mktemp("evj")
    journal = EvolutionJournal(directory, segment_bytes=10**9)  # single segment
    for s in range(n_records):
        journal.publish(record_at(journal, s))
    journal.close()
    tail = directory / "evj-000000000000.seg"
    size = os.path.getsize(tail)
    kind, arg = damage
    if kind == "truncate":
        with open(tail, "r+b") as handle:
            handle.truncate(min(arg, size))
    else:
        bit_flip(tail, offset=arg % size)

    recovered = EvolutionJournal(directory)
    replayed = recovered.read(0)
    assert [r["stride"] for r in replayed] == list(range(len(replayed)))
    assert all(
        encode_record(r) == encode_record(record_at(recovered, r["stride"]))
        for r in replayed
    )
    # The pipeline re-derives the lost strides; publish resumes cleanly.
    next_stride = recovered.head
    assert recovered.publish(record_at(recovered, next_stride)) == next_stride
    recovered.commit()
    recovered.close()
    assert EvolutionJournal(directory).head == next_stride + 1
