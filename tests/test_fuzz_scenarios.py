"""Scenario generator determinism and case-file round-trips.

The whole fuzz subsystem rests on one invariant: a scenario is a pure
function of its integer seed. Same seed, same Python build → identical
points, probes, and parameters, so any failure is replayable from the seed
alone. These tests pin that, plus the JSONL case format tier-1 replays.
"""

from __future__ import annotations

import pytest

from repro.fuzz.scenarios import (
    CASE_FORMAT,
    EDGE_BOX,
    FEATURES,
    CaseError,
    Scenario,
    generate_scenario,
    load_case,
    save_case,
    scenarios_from_seed,
)

SEEDS = [0, 1, 42, 2**31 - 1]


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_scenario(self, seed):
        a = generate_scenario(seed)
        b = generate_scenario(seed)
        assert a.points == b.points
        assert a.probes == b.probes
        assert (a.eps, a.tau, a.window, a.stride, a.time_based) == (
            b.eps,
            b.tau,
            b.window,
            b.stride,
            b.time_based,
        )
        assert a.features == b.features

    def test_different_seeds_differ(self):
        streams = {tuple(generate_scenario(s).points) for s in range(8)}
        assert len(streams) > 1

    def test_scenarios_from_seed_derives_distinct_named_scenarios(self):
        batch = scenarios_from_seed(5, 3)
        assert [s.name for s in batch] == ["seed-5.0", "seed-5.1", "seed-5.2"]
        assert len({tuple(s.points) for s in batch}) == 3
        # Re-derivation is stable too.
        again = scenarios_from_seed(5, 3)
        assert [s.points for s in again] == [s.points for s in batch]


class TestStreamShape:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_is_well_formed(self, seed):
        scenario = generate_scenario(seed)
        assert scenario.points, "empty stream fuzzes nothing"
        assert scenario.probes
        times = [p.time for p in scenario.points]
        assert times == sorted(times), "stream must be time-ordered"
        pids = [p.pid for p in scenario.points]
        assert len(pids) == len(set(pids)) or "pid_reuse" in scenario.features
        assert scenario.window % scenario.stride == 0
        assert set(scenario.features) <= set(FEATURES)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_coordinates_snap_to_quarter_grid(self, seed):
        # 0.25 multiples are exact binary floats: distances computed from
        # them are exact, so "at exactly eps" probes really are at eps.
        # Only eps edges leave the grid, on purpose, and only in their box
        # (q sits up to eps left of it).
        scenario = generate_scenario(seed)
        for point in scenario.points:
            on_grid = all(value * 4 == int(value * 4) for value in point.coords)
            assert on_grid or point.coords[0] >= EDGE_BOX[0][0] - scenario.eps

    def test_with_points_replaces_only_the_stream(self):
        scenario = generate_scenario(3)
        halved = scenario.with_points(scenario.points[::2])
        assert len(halved.points) == (len(scenario.points) + 1) // 2
        assert halved.eps == scenario.eps
        assert halved.probes == scenario.probes
        assert isinstance(halved, Scenario)

    def test_describe_mentions_the_knobs(self):
        text = generate_scenario(9).describe()
        assert "eps=" in text
        assert "tau=" in text
        assert "window=" in text


class TestCaseFiles:
    def test_round_trip_preserves_everything(self, tmp_path):
        scenario = generate_scenario(42)
        meta = {"oracle": "classify", "backend": "vectorgrid", "detail": "x"}
        path = save_case(tmp_path / "case.jsonl", scenario, meta=meta)
        loaded, loaded_meta = load_case(path)
        assert loaded.points == scenario.points
        assert loaded.probes == scenario.probes
        assert loaded.name == scenario.name
        assert loaded.seed == scenario.seed
        assert (loaded.eps, loaded.tau, loaded.window, loaded.stride) == (
            scenario.eps,
            scenario.tau,
            scenario.window,
            scenario.stride,
        )
        assert loaded.time_based == scenario.time_based
        assert loaded_meta == meta

    def test_save_is_byte_stable(self, tmp_path):
        scenario = generate_scenario(7)
        a = save_case(tmp_path / "a.jsonl", scenario, meta={"k": 1})
        b = save_case(tmp_path / "b.jsonl", scenario, meta={"k": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_header_declares_the_format_version(self, tmp_path):
        path = save_case(tmp_path / "c.jsonl", generate_scenario(1))
        header = path.read_text().splitlines()[0]
        assert f'"case": {CASE_FORMAT}'.replace(" ", "") in header.replace(
            " ", ""
        )

    def test_malformed_cases_raise_case_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(CaseError):
            load_case(empty)

        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n")
        with pytest.raises(CaseError):
            load_case(garbage)

        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text('{"case": 999, "name": "x"}\n')
        with pytest.raises(CaseError):
            load_case(wrong)
