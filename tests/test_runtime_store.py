"""Unit tests for the durable checkpoint store (envelope, CRC, rotation)."""

import json
import zlib

import pytest

from repro.common.canonical import canonical_json
from repro.common.config import WindowSpec
from repro.core.checkpoint import CheckpointError
from repro.runtime import CheckpointStore, Supervisor, corrupt_checkpoint
from repro.runtime.store import STORE_FORMAT
from tests.conftest import clustered_stream

PAYLOAD = {"stride": 7, "nested": {"values": [1.5, 2.25], "name": "run"}}


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "ck")


class TestSaveLoad:
    def test_round_trip(self, store):
        path = store.save(7, PAYLOAD)
        assert path.name == "checkpoint-0000000007.json"
        stride, payload = store.load(path)
        assert stride == 7
        assert payload == PAYLOAD

    def test_latest_picks_highest_stride(self, store):
        store.save(3, {"n": 3})
        store.save(12, {"n": 12})
        store.save(7, {"n": 7})
        stride, payload = store.latest()
        assert stride == 12
        assert payload == {"n": 12}

    def test_no_temp_files_left_behind(self, store):
        store.save(1, PAYLOAD)
        leftovers = [p for p in store.directory.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_latest_with_empty_store_raises(self, store):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            store.latest()

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        CheckpointStore(nested).save(0, {})
        assert nested.is_dir()

    def test_foreign_files_ignored(self, store):
        store.save(2, PAYLOAD)
        (store.directory / "notes.txt").write_text("operator scribbles")
        (store.directory / "checkpoint-junk.json").write_text("{}")
        assert len(store.checkpoints()) == 1


class TestLayout:
    def test_envelope_is_written_around_the_canonical_body(self, store):
        path = store.save(7, PAYLOAD)
        body = canonical_json(PAYLOAD)
        assert path.read_bytes() == (
            b'{"crc32":%d,"format":%d,"payload":%s,"stride":7}'
            % (zlib.crc32(body), STORE_FORMAT, body)
        )

    def test_previous_layout_still_restores(self, tmp_path):
        """A checkpoint written as ``json.dumps(envelope, sort_keys=True)``,
        the payload encoded a second time with default spacing, resumes a
        run that ends where an uninterrupted one does."""
        spec = WindowSpec(window=100, stride=40)
        points = clustered_stream(11, 260)
        whole = list(Supervisor(0.7, 4, spec).run(points))

        store = CheckpointStore(tmp_path / "ck")
        killed = Supervisor(0.7, 4, spec, store=store, checkpoint_every=2)
        killed.begin()
        for item in points[:200]:
            killed.feed(item)
        path = store.checkpoints()[-1]
        stride, payload = store.load(path)
        envelope = {
            "format": STORE_FORMAT,
            "stride": stride,
            "crc32": zlib.crc32(canonical_json(payload)),
            "payload": payload,
        }
        path.write_bytes(json.dumps(envelope, sort_keys=True).encode("utf-8"))

        resumed = Supervisor(0.7, 4, spec, store=store, checkpoint_every=2)
        tail = list(resumed.run(points, resume=True))
        assert resumed.stats.resumed_at_stride == stride
        assert len(tail) == len(whole) - stride
        assert tail[-1][0].encode() == whole[-1][0].encode()


class TestRotation:
    def test_keeps_newest_n(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        for stride in range(1, 8):
            store.save(stride, {"n": stride})
        names = [p.name for p in store.checkpoints()]
        assert names == [
            "checkpoint-0000000005.json",
            "checkpoint-0000000006.json",
            "checkpoint-0000000007.json",
        ]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep"):
            CheckpointStore(tmp_path, keep=0)


class TestValidation:
    def test_crc_catches_payload_rot(self, store):
        path = store.save(1, PAYLOAD)
        # Rot a digit inside the payload region so the JSON stays parseable.
        raw = path.read_text()
        target = raw.index('"values":[1.5')
        flipped = raw[: target + 11] + "9" + raw[target + 12 :]
        path.write_text(flipped)
        with pytest.raises(CheckpointError, match="integrity check"):
            store.load(path)

    def test_corrupt_checkpoint_helper_is_detected(self, store):
        path = store.save(1, PAYLOAD)
        corrupt_checkpoint(path)
        with pytest.raises(CheckpointError):
            store.load(path)

    def test_truncated_file(self, store):
        path = store.save(1, PAYLOAD)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            store.load(path)

    def test_unknown_format_version(self, store):
        path = store.save(1, PAYLOAD)
        envelope = json.loads(path.read_text())
        envelope["format"] = STORE_FORMAT + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="unsupported store format"):
            store.load(path)

    def test_missing_envelope_fields(self, store):
        path = store.save(1, PAYLOAD)
        envelope = json.loads(path.read_text())
        del envelope["crc32"]
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="crc32"):
            store.load(path)

    def test_non_object_envelope(self, store):
        path = store.directory / "checkpoint-0000000009.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="not an object"):
            store.load(path)


class TestOrphanSweep:
    def test_stale_tmp_files_swept_on_startup(self, tmp_path):
        directory = tmp_path / "ck"
        first = CheckpointStore(directory)
        first.save(5, PAYLOAD)
        # A crash between the tmp write and the durable rename strands the
        # tmp file; no later save or rotation would ever remove it.
        (directory / "checkpoint-0000000006.json.tmp").write_text("{half a")
        (directory / "checkpoint-0000000007.json.tmp").write_text("")
        store = CheckpointStore(directory)
        assert store.swept_orphans == 2
        assert list(directory.glob("*.tmp")) == []
        # Real checkpoints are untouched: the pre-crash state still loads.
        stride, payload = store.latest()
        assert stride == 5
        assert payload == PAYLOAD

    def test_fresh_store_sweeps_nothing(self, store):
        assert store.swept_orphans == 0
