"""Oracle-matrix unit tests: clean streams pass, planted bugs are caught.

Each oracle is exercised twice: once over a generated scenario on a healthy
tree (no failures — the contract holds), and once against a deliberately
broken implementation (the failure is reported, with the oracle/backend/
stride triple the harness needs for shrinking). Plus the fault-point
enumeration the checkpoint oracle samples from.
"""

from __future__ import annotations

import math

import pytest

from repro.common.snapshot import Clustering
from repro.fuzz.oracles import (
    ORACLES,
    OracleFailure,
    _tie_runs,
    oracle_checkpoint,
    oracle_classify,
    oracle_equivalence,
    oracle_permutation,
    oracle_serve,
)
from repro.fuzz.scenarios import generate_scenario, scenarios_from_seed
from repro.runtime.chaos import enumerate_fault_points
from repro.serve.session import SessionView

BACKEND = "vectorgrid"


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(7)


class TestCleanScenarioPasses:
    """Seed 7 is a known-clean stream; every oracle must agree."""

    def test_equivalence(self, scenario):
        assert oracle_equivalence(scenario, BACKEND) == []

    def test_permutation(self, scenario):
        assert oracle_permutation(scenario, BACKEND) == []

    def test_classify(self, scenario):
        assert oracle_classify(scenario, BACKEND) == []

    def test_checkpoint(self, scenario):
        assert oracle_checkpoint(scenario, BACKEND) == []

    def test_serve(self, scenario):
        assert oracle_serve(scenario, BACKEND) == []

    def test_registry_is_complete(self):
        assert set(ORACLES) == {
            "equivalence",
            "permutation",
            "classify",
            "checkpoint",
            "serve",
        }


def order_dependent_classify(self, coords):
    """The pre-fix tie-break: strict ``<`` lets the first core seen win an
    exact-distance tie, so the answer depends on core iteration order."""
    best_pid = None
    best_label = Clustering.NOISE_ID
    best = None
    for pid, core_coords, label in zip(
        self.core_pids.tolist(), self.core_coords.tolist(), self.core_labels.tolist()
    ):
        if len(core_coords) != len(coords):
            continue
        distance = math.dist(coords, core_coords)
        if distance <= self.eps and (best is None or distance < best):
            best, best_pid, best_label = distance, pid, label
    return {
        "stride": self.stride,
        "label": best_label,
        "nearest_core": best_pid,
        "distance": best,
    }


class TestPlantedBugsAreCaught:
    def test_classify_oracle_catches_order_dependent_tie_break(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            SessionView, "classify", order_dependent_classify
        )
        hits = [
            failure
            for sc in scenarios_from_seed(42, 3)
            for failure in oracle_classify(sc, BACKEND)
        ]
        assert hits, "probes at exact midpoints must expose the tie-break"
        for failure in hits:
            assert failure.oracle == "classify"
            assert failure.backend == BACKEND
            assert failure.stride is not None
            assert "core-order-dependent" in failure.detail

    def test_equivalence_oracle_catches_skewed_reference(
        self, scenario, monkeypatch
    ):
        # Stand-in for a broken incremental path: make the two sides of
        # the differential disagree (reference clusters with tau+1) and
        # the oracle must report the first diverging stride.
        import repro.fuzz.oracles as oracles_mod
        from repro.baselines.dbscan import SlidingDBSCAN

        monkeypatch.setattr(
            oracles_mod,
            "SlidingDBSCAN",
            lambda eps, tau, index: SlidingDBSCAN(eps, tau + 1, index=index),
        )
        failures = oracle_equivalence(scenario, BACKEND)
        assert failures
        assert failures[0].oracle == "equivalence"
        assert failures[0].stride is not None

    def test_serve_oracle_catches_mismatched_session_params(
        self, scenario, monkeypatch
    ):
        # Force every served session to cluster with a different tau than
        # the offline reference: the final-view check must fire.
        from repro.serve import config as serve_config

        original = serve_config.SessionConfig.__post_init__

        def skewed(self):
            original(self)
            object.__setattr__(self, "tau", self.tau + 2)

        monkeypatch.setattr(
            serve_config.SessionConfig, "__post_init__", skewed
        )
        failures = oracle_serve(scenario, BACKEND)
        assert failures
        assert failures[0].oracle == "serve"

    def test_failure_describe_carries_the_coordinates(self):
        failure = OracleFailure("classify", "vectorgrid", 3, "probe went wrong")
        text = failure.describe()
        assert "classify" in text
        assert "vectorgrid" in text
        assert "stride 3" in text
        assert "probe went wrong" in text
        headless = OracleFailure("serve", "rtree", None, "boom")
        assert "stride" not in headless.describe()


class TestTieRuns:
    def test_time_based_runs_split_only_on_timestamp(self):
        scenario = generate_scenario(7)
        if not scenario.time_based:
            scenario = next(
                generate_scenario(s) for s in range(20)
                if generate_scenario(s).time_based
            )
        for run in _tie_runs(scenario):
            times = {scenario.points[i].time for i in run}
            assert len(times) == 1
            assert len(run) > 1

    def test_count_based_runs_respect_stride_blocks_and_tail_cut(self):
        scenario = next(
            generate_scenario(s)
            for s in range(20)
            if not generate_scenario(s).time_based
        )
        tail_cut = len(scenario.points) - scenario.window
        for run in _tie_runs(scenario):
            assert len({scenario.points[i].time for i in run}) == 1
            assert len({i // scenario.stride for i in run}) == 1
            assert len({i < tail_cut for i in run}) == 1


class TestEnumerateFaultPoints:
    def test_small_run_covers_every_boundary_and_checkpoint(self):
        points = enumerate_fault_points(5, 2)
        assert {"kill_before_stride": 1} in points
        assert {"kill_before_stride": 4} in points
        assert {"kill_after_checkpoint": 2} in points
        assert {"kill_after_checkpoint": 4} in points
        assert {"kill_before_stride": 0} not in points
        assert {"kill_before_stride": 5} not in points

    def test_no_strides_no_faults(self):
        assert enumerate_fault_points(0, 2) == []

    def test_checkpointing_disabled_skips_checkpoint_kills(self):
        points = enumerate_fault_points(4, 0)
        assert all("kill_after_checkpoint" not in p for p in points)
        assert len(points) == 3
