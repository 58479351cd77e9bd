"""The paper's central claim, end to end: DISC == DBSCAN, always.

Randomized sliding-window streams are replayed into DISC (in every
Figure 8 arm on every index: MS-BFS and epoch probing each on and off),
IncDBSCAN and EXTRA-N; after every single stride all four must be
equivalent to from-scratch DBSCAN under the contract of DESIGN.md §3.4, and
every DISC's incremental bookkeeping must pass the invariant checker.
"""

import pytest

from repro.baselines.dbscan import SlidingDBSCAN
from repro.baselines.extran import ExtraN
from repro.baselines.incdbscan import IncrementalDBSCAN
from repro.common.config import WindowSpec
from repro.core.disc import DISC
from repro.datasets.maze import maze_stream
from repro.metrics.compare import assert_equivalent
from repro.runtime.invariants import check_state
from tests.conftest import (
    DISC_INDEXES,
    churn_with_noise,
    clustered_stream,
    disc_index,
    run_windowed,
)


def fig8_arms(eps, tau, index):
    """DISC on one index in each of Figure 8's four arms: MS-BFS and epoch
    probing, each on and off. Every arm's split checks run behind the seed
    certificate, so the invariant checker after every stride shows that
    anchor repair covers the border re-anchoring a certified check skips.
    """
    return [
        DISC(
            eps,
            tau,
            index=disc_index(index, eps),
            multi_starter=multi_starter,
            epoch_probing=epoch,
        )
        for multi_starter in (True, False)
        for epoch in (True, False)
    ]


def check_stream(methods, reference, points, spec, *, time_based=False):
    def checker(window):
        coords = {p.pid: p.coords for p in window}
        ref_snapshot = reference.snapshot()
        for method in methods:
            assert_equivalent(
                method.snapshot(), ref_snapshot, coords, reference.params
            )
            if isinstance(method, DISC):
                assert check_state(method) == []

    run_windowed(
        list(methods) + [reference], points, spec, checker, time_based=time_based
    )


class TestDiscEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams(self, seed):
        spec = WindowSpec(window=120, stride=30)
        points = clustered_stream(seed, 420)
        check_stream(
            [DISC(0.7, 4)], SlidingDBSCAN(0.7, 4), points, spec
        )

    @pytest.mark.parametrize(
        "multi_starter,epoch", [(True, False), (False, True), (False, False)]
    )
    def test_ablation_configs_stay_exact(self, multi_starter, epoch):
        spec = WindowSpec(window=100, stride=20)
        points = clustered_stream(42, 300)
        disc = DISC(0.7, 4, multi_starter=multi_starter, epoch_probing=epoch)
        check_stream([disc], SlidingDBSCAN(0.7, 4), points, spec)

    @pytest.mark.parametrize("stride", [10, 25, 50, 100])
    def test_stride_sizes(self, stride):
        spec = WindowSpec(window=100, stride=stride)
        points = clustered_stream(7, 350)
        check_stream([DISC(0.7, 4)], SlidingDBSCAN(0.7, 4), points, spec)

    @pytest.mark.parametrize("eps,tau", [(0.4, 2), (0.9, 6), (1.5, 10)])
    def test_threshold_combinations(self, eps, tau):
        spec = WindowSpec(window=120, stride=40)
        points = clustered_stream(11, 360)
        check_stream([DISC(eps, tau)], SlidingDBSCAN(eps, tau), points, spec)

    def test_three_dimensional(self):
        spec = WindowSpec(window=100, stride=25)
        points = clustered_stream(3, 300, dim=3)
        check_stream([DISC(0.9, 4)], SlidingDBSCAN(0.9, 4), points, spec)

    def test_pure_noise(self):
        spec = WindowSpec(window=80, stride=20)
        points = clustered_stream(5, 240, noise_fraction=1.0)
        check_stream([DISC(0.3, 5)], SlidingDBSCAN(0.3, 5), points, spec)

    def test_single_dense_blob(self):
        spec = WindowSpec(window=80, stride=20)
        points = clustered_stream(
            6, 240, centers=((0.0, 0.0),), noise_fraction=0.0
        )
        check_stream([DISC(0.7, 4)], SlidingDBSCAN(0.7, 4), points, spec)

    @pytest.mark.parametrize("index", DISC_INDEXES)
    def test_maze_stream(self, index):
        points, _ = maze_stream(600, seed=3)
        spec = WindowSpec(window=200, stride=50)
        check_stream(
            fig8_arms(0.6, 4, index), SlidingDBSCAN(0.6, 4), points, spec
        )

    @pytest.mark.parametrize("index", DISC_INDEXES)
    def test_churn_with_noise(self, index):
        spec = WindowSpec(window=90, stride=18)
        check_stream(
            fig8_arms(0.55, 3, index),
            SlidingDBSCAN(0.55, 3),
            churn_with_noise(9, 400),
            spec,
        )

    @pytest.mark.parametrize("index", DISC_INDEXES)
    def test_time_based_window(self, index):
        spec = WindowSpec(window=80.0, stride=20.0)
        check_stream(
            fig8_arms(0.7, 4, index),
            SlidingDBSCAN(0.7, 4),
            clustered_stream(22, 240),
            spec,
            time_based=True,
        )


class TestIncDBSCANEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_streams(self, seed):
        spec = WindowSpec(window=100, stride=25)
        points = clustered_stream(seed + 50, 300)
        check_stream(
            [IncrementalDBSCAN(0.7, 4)], SlidingDBSCAN(0.7, 4), points, spec
        )

    def test_matches_disc_events_free(self):
        # IncDBSCAN and DISC share the exactness contract on the same stream.
        spec = WindowSpec(window=100, stride=25)
        points = clustered_stream(99, 300)
        check_stream(
            [IncrementalDBSCAN(0.7, 4), DISC(0.7, 4)],
            SlidingDBSCAN(0.7, 4),
            points,
            spec,
        )


class TestExtraNEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_streams(self, seed):
        spec = WindowSpec(window=100, stride=25)
        points = clustered_stream(seed + 80, 300)
        check_stream(
            [ExtraN(0.7, 4, spec)], SlidingDBSCAN(0.7, 4), points, spec
        )

    def test_small_stride(self):
        spec = WindowSpec(window=60, stride=5)
        points = clustered_stream(81, 180)
        check_stream(
            [ExtraN(0.7, 4, spec)], SlidingDBSCAN(0.7, 4), points, spec
        )
