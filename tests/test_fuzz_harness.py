"""Harness end-to-end: determinism, shrinking, case files, CLI exit codes.

The acceptance bar from the issue: with the classify tie-break bug
re-introduced, ``fuzz_seed`` must *find* it, *shrink* the failing stream to
a handful of points, and write a case file that replays clean once the fix
is back — the exact workflow a real finding goes through.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import EXIT_FUZZ, main
from repro.fuzz import FuzzReport, fuzz_seed, replay_case, run_fuzz
from repro.fuzz.harness import check_scenario
from repro.fuzz.scenarios import generate_scenario, load_case
from repro.fuzz.shrink import shrink
from repro.index.registry import available_indexes
from repro.serve.session import SessionView

from .test_fuzz_oracles import order_dependent_classify

FAST = dict(backends=["vectorgrid"], oracles=["equivalence", "classify"])


class TestDeterminism:
    def test_fuzz_seed_render_is_bit_reproducible(self):
        a = fuzz_seed(7, **FAST)
        b = fuzz_seed(7, **FAST)
        assert a.render() == b.render()
        assert a.as_dict() == b.as_dict()

    def test_cli_runs_are_byte_identical(self, tmp_path, capsys):
        argv = ["fuzz", "--seed", "7", "--backends", "vectorgrid",
                "--oracles", "equivalence"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestCheckScenario:
    def test_counts_checks_across_the_matrix(self):
        scenario = generate_scenario(7)
        failures, checks = check_scenario(
            scenario, backends=["vectorgrid", "linear"],
            oracles=["equivalence", "classify"],
        )
        assert failures == []
        assert checks == 4

    def test_unknown_oracle_is_rejected(self):
        with pytest.raises(KeyError, match="unknown oracle"):
            check_scenario(generate_scenario(1), oracles=["nonsense"])

    def test_defaults_cover_every_backend(self):
        scenario = generate_scenario(7)
        _, checks = check_scenario(scenario, oracles=["classify"])
        assert checks == len(available_indexes())


class TestAcceptance:
    """Re-introduce the classify bug; the harness must catch and shrink it."""

    def test_bug_is_found_shrunk_and_archived(self, tmp_path, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(SessionView, "classify", order_dependent_classify)
            report = fuzz_seed(
                42, backends=["vectorgrid"], oracles=["classify"],
                out_dir=tmp_path,
            )
        assert not report.ok
        assert all(f.oracle == "classify" for f in report.failures)
        assert report.cases, "a shrunk case file must be written"

        for path in report.cases:
            scenario, meta = load_case(path)
            # The issue's bar: the minimized stream is tiny.
            assert len(scenario.points) <= 20
            assert meta["oracle"] == "classify"
            assert meta["backend"] == "vectorgrid"
            assert meta["original_points"] > len(scenario.points)

        # With the fix back in place every archived case replays clean —
        # exactly how the committed corpus guards the regression.
        for path in report.cases:
            assert replay_case(path).ok

        # And the buggy tree keeps failing the replay: the case really
        # does pin the bug, not some shrinking artifact.
        with monkeypatch.context() as m:
            m.setattr(SessionView, "classify", order_dependent_classify)
            assert not replay_case(report.cases[0]).ok

    def test_shrinking_is_monotone_and_preserves_failure(self, monkeypatch):
        scenario = generate_scenario(42000)  # seed-42.0's sub-seed

        def loses_point_89(candidate):
            return not any(p.pid == 89 for p in candidate.points)

        # Predicate: "fails" while pid 89 is *absent* — inverted on
        # purpose so the minimum is empty-of-89, trivially checkable.
        shrunk = shrink(
            scenario.with_points([p for p in scenario.points if p.pid != 89]),
            loses_point_89,
        )
        assert loses_point_89(shrunk)
        assert len(shrunk.points) <= 1

    def test_shrink_treats_new_crashes_as_not_failing(self):
        scenario = generate_scenario(3)
        calls = {"n": 0}

        def flaky(candidate):
            calls["n"] += 1
            if len(candidate.points) < len(scenario.points) // 2:
                raise RuntimeError("different bug")
            return True

        shrunk = shrink(scenario, flaky)
        # Never minimized past the crash threshold.
        assert len(shrunk.points) >= len(scenario.points) // 2
        assert calls["n"] > 0


class TestReports:
    def test_merge_accumulates(self):
        a = fuzz_seed(7, **FAST)
        b = fuzz_seed(8, **FAST)
        merged = FuzzReport()
        merged.merge(a)
        merged.merge(b)
        assert merged.seeds == [7, 8]
        assert merged.checks == a.checks + b.checks
        assert merged.scenarios == a.scenarios + b.scenarios

    def test_run_fuzz_sweeps_seeds(self):
        report = run_fuzz([7, 8], **FAST)
        assert report.seeds == [7, 8]
        assert report.ok
        assert report.render().endswith("0 failure(s)")

    def test_as_dict_is_json_serializable(self):
        report = fuzz_seed(7, **FAST)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["seeds"] == [7]


class TestCli:
    def test_exactly_one_mode_required(self, capsys):
        assert main(["fuzz"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_fuzz_exit_code_on_finding(self, tmp_path, monkeypatch, capsys):
        with monkeypatch.context() as m:
            m.setattr(SessionView, "classify", order_dependent_classify)
            code = main(
                ["fuzz", "--seed", "42", "--backends", "vectorgrid",
                 "--oracles", "classify", "--out", str(tmp_path),
                 "--json", str(tmp_path / "report.json")]
            )
        assert code == EXIT_FUZZ
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "shrunk" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["ok"] is False
        assert payload["failures"]

    def test_replay_mode_via_cli(self, tmp_path, monkeypatch, capsys):
        with monkeypatch.context() as m:
            m.setattr(SessionView, "classify", order_dependent_classify)
            report = fuzz_seed(
                42, backends=["vectorgrid"], oracles=["classify"],
                out_dir=tmp_path,
            )
        case = report.cases[0]
        assert main(["fuzz", "--replay", case]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_oracle_is_a_usage_error(self, capsys):
        code = main(["fuzz", "--seed", "1", "--oracles", "bogus"])
        assert code == 1
        assert "fuzz error" in capsys.readouterr().err
