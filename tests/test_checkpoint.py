"""Tests: a restored DISC continues the stream with identical results."""

import json

import pytest

from repro.baselines.dbscan import SlidingDBSCAN
from repro.common.config import WindowSpec
from repro.core.checkpoint import (
    CheckpointError,
    dumps,
    from_checkpoint,
    loads,
    to_checkpoint,
)
from repro.core.disc import DISC
from repro.index import GridIndex
from repro.index.registry import available_indexes, make_index
from repro.metrics.compare import assert_equivalent
from repro.window.sliding import materialize_slides
from tests.conftest import clustered_stream


def run_slides(method, slides):
    for delta_in, delta_out in slides:
        method.advance(delta_in, delta_out)


def legacy_payload(disc, version=2):
    """Rewrite a v3 column checkpoint into the v1/v2 per-record shape."""
    payload = to_checkpoint(disc)
    cols = payload.pop("columns")
    payload["records"] = [
        {
            "pid": cols["pid"][i],
            "coords": cols["coords"][i],
            "time": cols["time"][i],
            "n_eps": cols["n_eps"][i],
            "c_core": cols["c_core"][i],
            "was_core": bool(cols["flags"][i] & 1),
            "cid": None if cols["cid"][i] == -1 else cols["cid"][i],
            "anchor": None if cols["anchor"][i] == -1 else cols["anchor"][i],
        }
        for i in range(len(cols["pid"]))
    ]
    payload["version"] = version
    if version == 1:
        del payload["index"]  # pre-registry checkpoints had no backend name
    return payload


class TestRoundTrip:
    def test_snapshot_identical_after_restore(self):
        disc = DISC(0.7, 4)
        points = clustered_stream(1, 150)
        disc.advance(points, ())
        restored = from_checkpoint(to_checkpoint(disc))
        assert restored.labels() == disc.labels()
        original = disc.snapshot()
        copy = restored.snapshot()
        assert original.categories == copy.categories

    def test_restore_reemits_identical_payload(self):
        disc = DISC(0.7, 4)
        disc.advance(clustered_stream(12, 150), ())
        payload = to_checkpoint(disc)
        restored = from_checkpoint(payload)
        assert restored.labels() == disc.labels()
        assert json.dumps(to_checkpoint(restored), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )

    def test_json_roundtrip(self):
        disc = DISC(0.7, 4)
        disc.advance(clustered_stream(2, 100), ())
        restored = loads(dumps(disc))
        assert restored.labels() == disc.labels()

    def test_configuration_preserved(self):
        disc = DISC(0.9, 5, multi_starter=False, epoch_probing=False)
        disc.advance(clustered_stream(3, 60), ())
        restored = from_checkpoint(to_checkpoint(disc))
        assert restored.params.eps == 0.9
        assert restored.params.tau == 5
        assert restored.multi_starter is False
        assert restored.epoch_probing is False

    def test_continuation_matches_uninterrupted_run(self):
        spec = WindowSpec(window=120, stride=30)
        points = clustered_stream(4, 420)
        slides = materialize_slides(points, spec)

        uninterrupted = DISC(0.7, 4)
        run_slides(uninterrupted, slides)

        first_half = DISC(0.7, 4)
        run_slides(first_half, slides[:7])
        resumed = loads(dumps(first_half))
        run_slides(resumed, slides[7:])

        window = points[-120:]
        coords = {p.pid: p.coords for p in window}
        assert_equivalent(
            resumed.snapshot(),
            uninterrupted.snapshot(),
            coords,
            resumed.params,
        )
        # Stronger than equivalence: identical resolved labels.
        assert resumed.labels() == uninterrupted.labels()

    def test_restored_instance_is_exact_vs_dbscan(self):
        spec = WindowSpec(window=100, stride=25)
        points = clustered_stream(5, 300)
        slides = materialize_slides(points, spec)
        disc = DISC(0.7, 4)
        reference = SlidingDBSCAN(0.7, 4)
        window = []
        for i, (delta_in, delta_out) in enumerate(slides):
            if i == 6:
                disc = loads(dumps(disc))  # crash/restore mid-stream
            disc.advance(delta_in, delta_out)
            reference.advance(delta_in, delta_out)
            out_ids = {p.pid for p in delta_out}
            window = [p for p in window if p.pid not in out_ids] + list(delta_in)
            coords = {p.pid: p.coords for p in window}
            assert_equivalent(
                disc.snapshot(), reference.snapshot(), coords, disc.params
            )


class TestBackendRestore:
    @pytest.mark.parametrize("index", available_indexes())
    def test_backend_survives_round_trip(self, index):
        """The payload names its backend; restore rebuilds the same one."""
        spec = WindowSpec(window=100, stride=25)
        points = clustered_stream(7, 300)
        slides = materialize_slides(points, spec)
        disc = DISC(0.7, 4, index=index)
        run_slides(disc, slides[:6])

        payload = to_checkpoint(disc)
        assert payload["index"] == index
        restored = from_checkpoint(payload)
        assert restored.params.index == index
        assert restored.labels() == disc.labels()

        # The restored instance must *continue* identically, not just match
        # at the restore point — the index was rebuilt via bulk load.
        run_slides(disc, slides[6:])
        run_slides(restored, slides[6:])
        assert restored.labels() == disc.labels()

    @pytest.mark.parametrize("index", ["linear", "vectorgrid"])
    def test_index_instance_checkpoints_its_backend_name(self, index):
        """A DISC handed a registered backend's instance restores on it."""
        disc = DISC(0.7, 4, index=make_index(index, eps=0.7))
        disc.advance(clustered_stream(8, 120), ())
        payload = to_checkpoint(disc)
        assert payload["index"] == index
        restored = from_checkpoint(payload)
        assert type(restored.index) is type(disc.index)
        assert restored.labels() == disc.labels()

    def test_unregistered_index_instance_is_a_checkpoint_error(self):
        """No backend name restores a ``GridIndex``: refuse, by class."""
        disc = DISC(0.7, 4, index=GridIndex(0.7))
        disc.advance(clustered_stream(8, 120), ())
        with pytest.raises(CheckpointError, match="GridIndex"):
            to_checkpoint(disc)

    def test_unknown_backend_is_a_checkpoint_error(self):
        """A backend this build lacks (``grid`` left the registry)."""
        disc = DISC(0.7, 4)
        disc.advance(clustered_stream(8, 120), ())
        payload = {**to_checkpoint(disc), "index": "grid"}
        with pytest.raises(
            CheckpointError,
            match="unknown index backend 'grid'; registered: linear, rtree, vectorgrid",
        ):
            from_checkpoint(payload)

    def test_version1_payload_restores_on_default_backend(self):
        """Pre-registry checkpoints carry no backend name; still restorable."""
        disc = DISC(0.7, 4)
        disc.advance(clustered_stream(8, 120), ())
        restored = from_checkpoint(legacy_payload(disc, version=1))
        assert restored.labels() == disc.labels()


class TestFormatVersions:
    """v1/v2 object payloads must restore byte-identically to v3 columns."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_payload_restores_byte_identical(self, version):
        spec = WindowSpec(window=120, stride=30)
        points = clustered_stream(11, 300)
        slides = materialize_slides(points, spec)
        disc = DISC(0.7, 4)
        run_slides(disc, slides[:6])

        v3 = to_checkpoint(disc)
        restored = from_checkpoint(legacy_payload(disc, version=version))
        assert restored.labels() == disc.labels()
        # Re-checkpointing the legacy restore reproduces the v3 payload
        # byte for byte (modulo the index name a v1 payload cannot carry).
        re_emitted = to_checkpoint(restored)
        if version == 1:
            re_emitted["index"] = v3["index"]
        assert json.dumps(re_emitted, sort_keys=True) == json.dumps(
            v3, sort_keys=True
        )
        # And the restored instance continues the stream identically.
        run_slides(disc, slides[6:])
        run_slides(restored, slides[6:])
        assert restored.labels() == disc.labels()


class TestErrors:
    def test_bad_version(self):
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            from_checkpoint({"version": 99})

    def test_missing_fields(self):
        with pytest.raises(CheckpointError, match="missing required keys"):
            from_checkpoint({"version": 1, "eps": 1.0})

    def test_invalid_json(self):
        with pytest.raises(CheckpointError):
            loads("{oops")

    def test_columns_must_be_an_object(self):
        disc = DISC(0.5, 3)
        payload = to_checkpoint(disc)
        payload["columns"] = ["not", "an", "object"]
        with pytest.raises(CheckpointError, match="must be an object"):
            from_checkpoint(payload)

    def test_legacy_records_must_be_a_list(self):
        disc = DISC(0.5, 3)
        payload = legacy_payload(disc)
        payload["records"] = {"not": "a list"}
        with pytest.raises(CheckpointError, match="must be a list"):
            from_checkpoint(payload)

    def test_column_missing(self):
        disc = DISC(0.5, 3)
        disc.advance(clustered_stream(6, 30), ())
        payload = to_checkpoint(disc)
        del payload["columns"]["n_eps"]
        with pytest.raises(CheckpointError, match="columns are missing"):
            from_checkpoint(payload)

    def test_column_lengths_must_agree(self):
        disc = DISC(0.5, 3)
        disc.advance(clustered_stream(6, 30), ())
        payload = to_checkpoint(disc)
        payload["columns"]["n_eps"] = payload["columns"]["n_eps"][:-1]
        with pytest.raises(CheckpointError, match="mismatched lengths"):
            from_checkpoint(payload)

    def test_legacy_record_missing_keys(self):
        disc = DISC(0.5, 3)
        disc.advance(clustered_stream(6, 30), ())
        payload = legacy_payload(disc)
        del payload["records"][0]["n_eps"]
        with pytest.raises(CheckpointError, match="record 0 is missing"):
            from_checkpoint(payload)

    def test_inconsistent_record_dims(self):
        disc = DISC(0.5, 3)
        disc.advance(clustered_stream(6, 30), ())
        payload = to_checkpoint(disc)
        payload["columns"]["coords"][1] = [1.0, 2.0, 3.0]
        with pytest.raises(CheckpointError, match="dimensional"):
            from_checkpoint(payload)

    def test_invalid_flags(self):
        disc = DISC(0.5, 3)
        disc.advance(clustered_stream(6, 30), ())
        payload = to_checkpoint(disc)
        payload["columns"]["flags"][0] = 2  # the DELETED bit never persists
        with pytest.raises(CheckpointError, match="invalid flags"):
            from_checkpoint(payload)

    def test_index_must_be_a_name(self):
        disc = DISC(0.5, 3)
        payload = to_checkpoint(disc)
        payload["index"] = 42
        with pytest.raises(CheckpointError, match="backend name"):
            from_checkpoint(payload)

    def test_validation_happens_before_construction(self):
        """A bad payload must fail fast, not half-build a DISC."""
        disc = DISC(0.5, 3)
        disc.advance(clustered_stream(6, 30), ())
        payload = to_checkpoint(disc)
        payload["columns"]["coords"][2] = []
        with pytest.raises(CheckpointError, match="invalid coords"):
            from_checkpoint(payload)

    def test_empty_window_checkpoint(self):
        disc = DISC(0.5, 3)
        restored = loads(dumps(disc))
        assert len(restored) == 0
        restored.advance(clustered_stream(6, 40), ())
        assert restored.snapshot().num_clusters >= 1
