"""The bytes a user sees of one stride's result, pinned by golden files.

One fixed noisy stream runs through DISC for 35 strides, with the cluster-id
forest compacted every few strides. Five outputs of that run are compared
byte for byte with the files under ``tests/golden/``:

- ``result_records.jsonl``: the canonical encoding of every stride's CDC
  record (the journal body and the byte-identity form of ``EVENTS``);
- ``result_pushes.jsonl``: each record inside a live ``SUBSCRIBE`` push
  frame, as the server writes it (wire key order included);
- ``result_labels.csv``: ``write_labels`` of the final window;
- ``result_snapshot.jsonl``: the ``SNAPSHOT`` reply line of the final view;
- ``result_archive.json``: the archive snapshot file of the final stride.

A change meant to alter one of them regenerates the files with
``PYTHONPATH=src python -m tests.test_result_golden``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.common.config import WindowSpec
from repro.core.disc import DISC
from repro.datasets.io import write_labels
from repro.query.archive import SnapshotArchive
from repro.query.journal import encode_record, stride_record
from repro.serve import protocol
from repro.serve.session import SessionView
from repro.window.sliding import materialize_slides

from .conftest import clustered_stream

GOLDEN = Path(__file__).parent / "golden"
EPS, TAU = 0.7, 4
SPEC = WindowSpec(window=200, stride=40)
N_POINTS = 1400
#: Compact the cid forest this often, so its rewrites land in the records.
COMPACT_EVERY = 4


def result_outputs(directory: Path) -> dict[str, bytes]:
    """Golden file name -> the bytes the fixed run produces for it."""
    disc = DISC(EPS, TAU)
    disc.compact_every = COMPACT_EVERY
    records, pushes = [], []
    prev = clustering = None
    stride = -1
    for stride, (delta_in, delta_out) in enumerate(
        materialize_slides(clustered_stream(41, N_POINTS, noise_fraction=0.3), SPEC)
    ):
        summary = disc.advance(delta_in, delta_out)
        clustering = disc.snapshot()
        record = stride_record(
            stride, prev, clustering, summary, time=delta_in[-1].time
        )
        records.append(encode_record(record))
        pushes.append(
            protocol.encode_frame(
                {"push": "event", "session": "golden", "record": record}
            )
        )
        prev = clustering
    labels = directory / "labels.csv"
    write_labels(str(labels), clustering)
    view = SessionView.from_state(stride, clustering, disc.state)
    reply = protocol.ok_response("SNAPSHOT", None, **view.snapshot_payload())
    archive = SnapshotArchive(directory / "archive")
    return {
        "result_records.jsonl": b"".join(r + b"\n" for r in records),
        "result_pushes.jsonl": b"".join(pushes),
        "result_labels.csv": labels.read_bytes(),
        "result_snapshot.jsonl": protocol.encode_frame(reply),
        "result_archive.json": archive.snapshot(stride, clustering).read_bytes(),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return result_outputs(tmp_path_factory.mktemp("result-golden"))


@pytest.mark.parametrize(
    "name",
    [
        "result_records.jsonl",
        "result_pushes.jsonl",
        "result_labels.csv",
        "result_snapshot.jsonl",
        "result_archive.json",
    ],
)
def test_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


def test_run_covers_compaction_and_churn(outputs):
    """The pinned run is long and noisy enough to mean something."""
    lines = outputs["result_records.jsonl"].splitlines()
    assert len(lines) >= 30
    assert b'"noise"' in outputs["result_archive.json"]
    assert sum(b'"change":{}' not in line for line in lines) >= 5


if __name__ == "__main__":  # regenerate the golden files
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, data in result_outputs(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)", file=sys.stderr)
