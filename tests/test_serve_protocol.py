"""Wire-level tests of the JSON-lines serving protocol."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.points import StreamPoint
from repro.datasets.io import MalformedRecord
from repro.serve import SessionConfig
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    ProtocolError,
    decode_frame,
    decode_point,
    decode_points,
    encode_frame,
    encode_point,
    error_response,
    ok_response,
)


class TestFrames:
    def test_round_trip(self):
        frame = {"op": "INGEST", "session": "t1", "points": [[1, [0.5, 1.5], 2.0]]}
        wire = encode_frame(frame)
        assert wire.endswith(b"\n")
        assert b"\n" not in wire[:-1]  # one frame per line, always
        assert decode_frame(wire) == frame

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"{not json}\n")
        assert err.value.code == "bad-frame"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"[1, 2, 3]\n")
        assert err.value.code == "bad-frame"

    def test_decode_rejects_oversized(self):
        line = b"x" * (MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError) as err:
            decode_frame(line)
        assert err.value.code == "bad-frame"

    def test_ok_envelope_echoes_id(self):
        response = ok_response("STATS", 42, sessions=[])
        assert response["ok"] is True
        assert response["op"] == "STATS"
        assert response["id"] == 42
        assert response["sessions"] == []

    def test_error_envelope_shape(self):
        response = error_response("no-such-session", "nope", 7)
        assert response["ok"] is False
        assert response["id"] == 7
        assert response["error"]["code"] == "no-such-session"
        assert response["error"]["message"] == "nope"
        assert response["error"]["code"] in ERROR_CODES

    def test_every_op_is_documented(self):
        assert OPS == (
            "OPEN",
            "INGEST",
            "QUERY",
            "SNAPSHOT",
            "EVENTS",
            "SUBSCRIBE",
            "STATS",
            "DRAIN",
            "CLOSE",
        )


class TestPoints:
    def test_point_round_trip(self):
        point = StreamPoint(17, (1.25, -3.5), 9.0)
        row = encode_point(point)
        assert json.loads(json.dumps(row)) == row  # JSON-safe
        assert decode_point(row, 0) == point

    def test_time_defaults_to_zero(self):
        assert decode_point([1, [2.0]], 0) == StreamPoint(1, (2.0,), 0.0)

    def test_malformed_row_becomes_record_not_error(self):
        # The input-fault policy, not the transport, decides malformed rows.
        decoded = decode_point(["x", [1.0], 0.0], 5)
        assert isinstance(decoded, MalformedRecord)
        assert decoded.line_no == 5

    def test_empty_coords_is_malformed(self):
        assert isinstance(decode_point([1, [], 0.0], 0), MalformedRecord)

    def test_non_finite_coords_pass_through_for_clamp_policy(self):
        # NaN coords must reach the guard so `clamp` can repair them.
        decoded = decode_point([1, [float("nan"), 1.0], 0.0], 0)
        assert isinstance(decoded, StreamPoint)
        decoded = decode_point([1, [float("inf"), float("-inf")], 0.0], 0)
        assert isinstance(decoded, StreamPoint)

    @pytest.mark.parametrize(
        "row",
        [
            [1, "12", 0.0],  # a string as coords
            [1, {"1": 0, "2": 0}, 0.0],  # an object as coords
            [1, [True, 2.0], 0.0],  # a bool is not a number
            [1, [1.0, "2"], 0.0],
            [1, [1.0, None], 0.0],
            [1, [[1.0], 2.0], 0.0],
            [1, [10**400], 0.0],  # an integer beyond the float range
            ["7", [1.0], 0.0],  # a pid sent as a string
            [1.9, [1.0], 0.0],  # a fractional pid
            [1.0, [1.0], 0.0],
            [True, [1.0], 0.0],
            [1, [1.0], "5"],  # a time sent as a string
            [1, [1.0], True],
            [1, [1.0], None],
        ],
    )
    def test_mistyped_row_is_malformed(self, row):
        decoded = decode_point(row, 3)
        assert isinstance(decoded, MalformedRecord)
        assert decoded.line_no == 3

    def test_integer_coords_and_time_are_numbers(self):
        assert decode_point([1, [2, -3], 5], 0) == StreamPoint(1, (2.0, -3.0), 5.0)

    def test_decode_points_preserves_order_and_seq(self):
        rows = [[1, [0.0], 0.0], "garbage", [2, [1.0], 1.0]]
        decoded = decode_points(rows, start_seq=10)
        assert decoded[0] == StreamPoint(1, (0.0,), 0.0)
        assert isinstance(decoded[1], MalformedRecord)
        assert decoded[1].line_no == 11
        assert decoded[2] == StreamPoint(2, (1.0,), 1.0)

    def test_decode_points_requires_list(self):
        with pytest.raises(ProtocolError) as err:
            decode_points("not-a-list")
        assert err.value.code == "bad-request"


class TestSessionConfig:
    def test_round_trip(self):
        config = SessionConfig(
            eps=0.8,
            tau=4,
            window=400,
            stride=100,
            index="vectorgrid",
            backpressure="shed-oldest",
            queue_limit=64,
            checkpoint_every=8,
        )
        assert SessionConfig.from_dict(config.as_dict()) == config

    def test_rejects_unknown_backpressure(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(eps=1.0, tau=3, window=10, stride=5, backpressure="drop")

    def test_rejects_bad_queue_limit(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(eps=1.0, tau=3, window=10, stride=5, queue_limit=0)

    def test_rejects_unknown_fault_policy(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(eps=1.0, tau=3, window=10, stride=5, on_malformed="ignore")

    def test_from_dict_validates(self):
        with pytest.raises(ConfigurationError):
            SessionConfig.from_dict({"eps": 1.0})  # missing required fields
