"""MS-BFS connectivity checks against networkx ground truth.

The core contract: for any seed set of cores, the number of connected
components reported (and the membership of fully traversed components) must
match the actual core graph — under every combination of the multi-starter
and epoch-probing flags.
"""

import math
import random

import networkx as nx
import pytest

from repro.common.config import ClusteringParams
from repro.common.points import StreamPoint
from repro.core.collect import collect
from repro.core.msbfs import check_connectivity
from repro.core.state import WindowState
from repro.core.store import WAS_CORE
from repro.index.rtree import RTree
from repro.observability.trace import StrideTrace
from tests.conftest import point_field

FLAG_GRID = [
    (True, True),
    (True, False),
    (False, True),
    (False, False),
]


def build_state(points, eps, tau):
    """Load points into a WindowState + RTree via the COLLECT machinery."""
    params = ClusteringParams(eps, tau)
    state = WindowState(params)
    index = RTree()
    stream = [StreamPoint(pid, coords, float(pid)) for pid, coords in points]
    collect(state, index, stream, ())
    return state, index


def core_graph(points, eps, tau):
    """The reference core graph as a networkx object."""
    graph = nx.Graph()
    counts = {
        pid: sum(
            1
            for _, other in points
            if sum((a - b) ** 2 for a, b in zip(coords, other)) <= eps * eps
        )
        for pid, coords in points
    }
    cores = {pid for pid, n in counts.items() if n >= tau}
    graph.add_nodes_from(cores)
    coords_of = dict(points)
    for pid in cores:
        for qid in cores:
            if pid < qid:
                dist_sq = sum(
                    (a - b) ** 2 for a, b in zip(coords_of[pid], coords_of[qid])
                )
                if dist_sq <= eps * eps:
                    graph.add_edge(pid, qid)
    return graph, cores


def random_points(seed, n, span=6.0):
    rng = random.Random(seed)
    return [
        (i, (rng.uniform(0, span), rng.uniform(0, span))) for i in range(n)
    ]


class TestConnectivity:
    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_empty_seed_set(self, multi_starter, epoch):
        state, index = build_state(random_points(0, 30), 1.0, 3)
        result = check_connectivity(
            index, state, [], multi_starter=multi_starter, epoch_probing=epoch
        )
        assert result.num_components == 0
        assert result.connected

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_single_seed(self, multi_starter, epoch):
        points = [(0, (0.0, 0.0)), (1, (0.5, 0.0)), (2, (1.0, 0.0))]
        state, index = build_state(points, 0.6, 2)
        result = check_connectivity(
            index, state, [0], multi_starter=multi_starter, epoch_probing=epoch
        )
        assert result.num_components == 1

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, multi_starter, epoch, seed):
        points = random_points(seed, 60)
        eps, tau = 0.9, 3
        state, index = build_state(points, eps, tau)
        graph, cores = core_graph(points, eps, tau)
        if len(cores) < 4:
            pytest.skip("degenerate instance")
        rng = random.Random(seed + 100)
        seeds = rng.sample(sorted(cores), min(6, len(cores)))
        result = check_connectivity(
            index,
            state,
            seeds,
            multi_starter=multi_starter,
            epoch_probing=epoch,
        )
        want = len({frozenset(nx.node_connected_component(graph, s)) for s in seeds})
        assert result.num_components == want

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_two_far_components(self, multi_starter, epoch):
        left = [(i, (0.1 * i, 0.0)) for i in range(10)]
        right = [(100 + i, (100.0 + 0.1 * i, 0.0)) for i in range(10)]
        state, index = build_state(left + right, 0.5, 3)
        result = check_connectivity(
            index,
            state,
            [0, 100],
            multi_starter=multi_starter,
            epoch_probing=epoch,
        )
        assert result.num_components == 2
        # One side was exhausted; the other is the surviving search.
        exhausted_members = {pid for comp in result.exhausted for pid in comp}
        survivor_members = set(result.survivor)
        all_cores = {
            pid for pid, _ in left + right if point_field(state, "n_eps", pid) >= 3
        }
        assert exhausted_members <= all_cores
        assert survivor_members <= all_cores
        assert not (exhausted_members & survivor_members)

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_exhausted_components_are_complete(self, multi_starter, epoch):
        # Three well-separated chains; seeds in all three.
        chains = []
        for c, offset in enumerate((0.0, 50.0, 100.0)):
            chains.extend(
                (c * 100 + i, (offset + 0.3 * i, 0.0)) for i in range(8)
            )
        eps, tau = 0.5, 2
        state, index = build_state(chains, eps, tau)
        graph, cores = core_graph(chains, eps, tau)
        result = check_connectivity(
            index,
            state,
            [0, 100, 200],
            multi_starter=multi_starter,
            epoch_probing=epoch,
        )
        assert result.num_components == 3
        for component in result.exhausted:
            want = nx.node_connected_component(graph, component[0])
            assert set(component) == set(want)

    def test_on_border_sees_non_cores(self):
        # A core chain with one dangling border point.
        points = [(0, (0.0, 0.0)), (1, (0.4, 0.0)), (2, (0.8, 0.0)),
                  (3, (0.8, 0.45))]
        state, index = build_state(points, 0.5, 3)
        assert point_field(state, "n_eps", 3) < 3
        touched = []
        check_connectivity(
            index,
            state,
            [0, 2],
            on_border=lambda border, core: touched.append((border, core)),
        )
        assert any(border == 3 for border, _ in touched)

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_duplicate_seeds_collapse(self, multi_starter, epoch):
        points = [(i, (0.3 * i, 0.0)) for i in range(10)]
        state, index = build_state(points, 0.5, 2)
        result = check_connectivity(
            index,
            state,
            [0, 0, 5, 5],
            multi_starter=multi_starter,
            epoch_probing=epoch,
        )
        assert result.num_components == 1


class TestSeedCertificate:
    """Seeds that are eps-adjacent among themselves settle the check alone."""

    @staticmethod
    def run(points, seeds, multi_starter, epoch, eps=0.5, tau=2):
        state, index = build_state(points, eps, tau)
        trace = StrideTrace(0)
        before = index.stats.range_searches
        borders = []
        result = check_connectivity(
            index,
            state,
            seeds,
            multi_starter=multi_starter,
            epoch_probing=epoch,
            on_border=lambda border, core: borders.append(border),
            trace=trace,
        )
        return result, index.stats.range_searches - before, trace.counters, index

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_chained_seeds_are_certified_without_a_search(self, multi_starter, epoch):
        # A core chain with spacing 0.3 < eps; seeds 2, 3, 4 chain directly
        # (2~3~4), though 2 and 4 are 0.6 apart.
        points = [(i, (0.3 * i, 0.0)) for i in range(8)]
        result, searches, counters, index = self.run(
            points, [4, 2, 3], multi_starter, epoch
        )
        assert result.connected and result.num_components == 1
        assert result.exhausted == []
        assert sorted(result.survivor) == [2, 3, 4]
        assert searches == 0
        assert counters.certified_checks == 1
        assert counters.msbfs_expansions == 0
        assert index._tick == 0  # no epoch was opened

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_separate_seed_groups_run_the_search(self, multi_starter, epoch):
        # Two adjacent seed pairs, one per component, 50 apart.
        left = [(i, (0.3 * i, 0.0)) for i in range(6)]
        right = [(100 + i, (50.0 + 0.3 * i, 0.0)) for i in range(6)]
        result, searches, counters, _ = self.run(
            left + right, [0, 1, 100, 101], multi_starter, epoch
        )
        assert result.num_components == 2
        assert counters.certified_checks == 0
        assert counters.msbfs_expansions > 0
        assert searches == counters.msbfs_expansions

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_seeds_joined_through_a_non_seed_core_run_the_search(
        self, multi_starter, epoch
    ):
        # Seeds 0 and 4 are 1.2 apart; only the chain's inner cores join them.
        points = [(i, (0.3 * i, 0.0)) for i in range(5)]
        result, searches, counters, _ = self.run(
            points, [0, 4], multi_starter, epoch
        )
        assert result.connected and result.num_components == 1
        assert counters.certified_checks == 0
        assert counters.msbfs_expansions > 0
        assert searches == counters.msbfs_expansions


class TestCollectComponent:
    """Two retro classes carving one old cluster: the kept-id conflict."""

    def test_conflict_path_is_exercised_by_multiclass_split(self):
        # White-box: the end-of-stride claim settlement must actually run a
        # disambiguating connectivity check on the canonical two-cuts
        # instance (and report the extra split it finds).
        import repro.core.cluster as cluster_mod
        from repro.common.points import StreamPoint
        from repro.core.disc import DISC

        calls = []
        original = cluster_mod._settle_claims

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result)
            return result

        cluster_mod._settle_claims = spy
        try:
            pts = [StreamPoint(i, (i * 0.9, 0.0), 0.0) for i in range(8)]
            disc = DISC(1.0, 2)
            disc.advance(pts, ())
            disc.advance((), [pts[2], pts[5]])
        finally:
            cluster_mod._settle_claims = original
        # Settlement runs once per stride; whether it must intervene depends
        # on which fragments the per-class checks happened to exhaust. The
        # hard guarantee — three distinct ids — is asserted either way.
        assert calls, "claim settlement never ran"
        assert disc.snapshot().num_clusters == 3
        assert len(set(disc.labels().values())) == 3

    def test_settle_claims_relabels_contested_id(self):
        # Direct unit test of the conflict branch: two far-apart components
        # both claiming cluster id 7 must end up with distinct ids.
        from repro.core.cluster import _settle_claims

        points = [(i, (0.3 * i, 0.0)) for i in range(6)]
        points += [(100 + i, (50.0 + 0.3 * i, 0.0)) for i in range(6)]
        state, index = build_state(points, 0.5, 2)
        slots = state.store.live_slots()
        state.store.cid[slots] = 7
        state.store.flags[slots] |= WAS_CORE
        kept = {7: [0, 100]}
        events = _settle_claims(
            state,
            index,
            kept,
            {7},
            multi_starter=True,
            epoch_probing=True,
            on_border=None,
        )
        assert len(events) == 1
        left = state.cids.find(point_field(state, "cid", 0))
        right = state.cids.find(point_field(state, "cid", 100))
        assert left != right

    def test_settle_claims_keeps_connected_claimants(self):
        from repro.core.cluster import _settle_claims

        points = [(i, (0.3 * i, 0.0)) for i in range(12)]
        state, index = build_state(points, 0.5, 2)
        slots = state.store.live_slots()
        state.store.cid[slots] = 7
        state.store.flags[slots] |= WAS_CORE
        kept = {7: [0, 11]}
        events = _settle_claims(
            state,
            index,
            kept,
            {7},
            multi_starter=True,
            epoch_probing=True,
            on_border=None,
        )
        assert events == []
        assert state.cids.find(point_field(state, "cid", 0)) == state.cids.find(
            point_field(state, "cid", 11)
        )


class TestExhaustedGroupRevival:
    """Regression: contact with an already-exhausted group must revive it.

    With ``multi_starter=False`` the classic arm runs each seed's BFS to
    exhaustion before the next one starts.  A later seed whose expansion
    touches a core owned by an exhausted group used to pick that dead root
    as the union winner and crash on its already-deleted queue (KeyError).
    The fix keeps exhausted groups addressable and revives one on contact.
    """

    # Component X: a core chain.  Pid 3 sits within eps of X's edge but is
    # not core itself (n_eps = 2 < tau), so as a *seed* it starts its own
    # group which only discovers X after X's group has been exhausted.
    # Component Y is far away and supplies the surviving group.
    POINTS = [
        (0, (0.0, 0.0)),
        (1, (0.25, 0.0)),
        (2, (0.5, 0.0)),
        (3, (0.95, 0.0)),
        (100, (50.0, 0.0)),
        (101, (50.25, 0.0)),
        (102, (50.5, 0.0)),
    ]
    SEEDS = [0, 3, 100, 102]

    def _check(self, epoch):
        state, index = build_state(self.POINTS, 0.5, 3)
        return check_connectivity(
            index, state, self.SEEDS, multi_starter=False, epoch_probing=epoch
        )

    @pytest.mark.parametrize("epoch", [True, False])
    def test_late_contact_with_exhausted_group_does_not_crash(self, epoch):
        result = self._check(epoch)  # pre-fix: KeyError when epoch is off
        assert sorted(result.survivor) == [100, 101, 102]
        exhausted = {pid for comp in result.exhausted for pid in comp}
        assert {0, 1, 2} <= exhausted
        assert result.num_components == len(result.exhausted) + 1

    def test_revived_component_is_complete(self):
        # With epoch probing off, pid 3's expansion re-discovers X's cores,
        # so its group merges back into the revived X component.
        result = self._check(epoch=False)
        assert result.num_components == 2
        assert [sorted(comp) for comp in result.exhausted] == [[0, 1, 2, 3]]

    def test_epoch_probing_filters_the_late_contact(self):
        # With epoch probing on, X's cores were already visited when pid 3
        # expands, so the late group exhausts alone instead of merging.
        result = self._check(epoch=True)
        assert result.num_components == 3


class TestAdversarialMergeOrders:
    """Randomised seed orders (cores and non-cores) never crash either arm.

    Stress for the rotation-starvation guard and the exhausted-group
    revival path: many seeds per component, shuffled so that merges hit
    groups in unpredictable states, over chain / grid / ring geometries.
    """

    @staticmethod
    def geometries():
        chain = [(i, (i * 0.4, 0.0)) for i in range(12)]
        grid = [
            (r * 5 + c, (c * 0.45, r * 0.45))
            for r in range(5)
            for c in range(5)
        ]
        ring = [
            (i, (3.0 + 2.0 * math.cos(i * 0.5236),
                 3.0 + 2.0 * math.sin(i * 0.5236)))
            for i in range(12)
        ]
        two_blobs = chain + [(100 + i, (20.0 + i * 0.4, 0.0)) for i in range(8)]
        return [chain, grid, ring, two_blobs]

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_shuffled_mixed_seeds_never_crash(self, multi_starter, epoch):
        for geom_id, points in enumerate(self.geometries()):
            graph, cores = core_graph(points, 0.5, 3)
            for trial in range(12):
                rng = random.Random(1000 * geom_id + trial)
                pool = [pid for pid, _ in points]
                k = rng.randint(2, min(8, len(pool)))
                seeds = rng.sample(pool, k)
                rng.shuffle(seeds)
                state, index = build_state(points, 0.5, 3)
                result = check_connectivity(
                    index,
                    state,
                    seeds,
                    multi_starter=multi_starter,
                    epoch_probing=epoch,
                )
                assert result.num_components == len(result.exhausted) + 1
                # Exhausted components and the survivor partition what was
                # reached: no pid appears twice.
                reached = list(result.survivor)
                for comp in result.exhausted:
                    reached.extend(comp)
                assert len(reached) == len(set(reached))

    @pytest.mark.parametrize("multi_starter,epoch", FLAG_GRID)
    def test_core_only_shuffles_match_networkx(self, multi_starter, epoch):
        for geom_id, points in enumerate(self.geometries()):
            graph, cores = core_graph(points, 0.5, 3)
            if not cores:
                continue
            for trial in range(8):
                rng = random.Random(7000 + 1000 * geom_id + trial)
                k = rng.randint(1, min(8, len(cores)))
                seeds = rng.sample(sorted(cores), k)
                rng.shuffle(seeds)
                expected = {
                    frozenset(nx.node_connected_component(graph, s))
                    for s in seeds
                }
                state, index = build_state(points, 0.5, 3)
                result = check_connectivity(
                    index,
                    state,
                    seeds,
                    multi_starter=multi_starter,
                    epoch_probing=epoch,
                )
                assert result.num_components == len(expected)
