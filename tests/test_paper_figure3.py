"""The paper's Figure 3 / Examples 1-2 scenario, encoded geometrically.

Construction (eps = 1.0, tau = 4; the paper's figure with its exact sets,
adapted to explicit coordinates — adjacency verified numerically below):

- an *ex-core chain* on y=0: B, D, P2, F, K at unit spacing;
- a *minimal-bonding chain* on y=0.9: A, C, E, G, H at unit spacing, each
  vertically adjacent to the ex-core below (A~B, C~D, E~P2, G~F, H~K);
- borders P1 (adjacent to B only) and P3 (adjacent to K only), plus helper
  borders A_h, H_h giving the chain ends their fourth neighbour and E_h
  keeping E at core density when P2 exits.

When P1, P3 and P2 exit together:

- B and K lose their border neighbour, D and F lose core P2: all four are
  demoted — together with exited P2 that is exactly five ex-cores;
- they form ONE retro-reachability class (B~D~P2~F~K at unit spacing), so
  DISC computes R^- with exactly five range searches and runs exactly one
  connectivity check (Theorem 1's consolidation — IncDBSCAN would run one
  per deletion);
- the minimal bonding cores are {A, C, E, G, H} — E qualifies through the
  *deleted* ex-core P2, exercising the rule that exited ex-cores stay in the
  index until CLUSTER finishes;
- M^- is density-connected (the chain), so the cluster SHRINKS: no split,
  same cluster id, demoted ex-cores become borders of it.
"""

import math

import pytest

from repro.baselines.dbscan import SlidingDBSCAN
from repro.common.points import StreamPoint
from repro.common.snapshot import Category
from repro.core.disc import DISC
from repro.core.events import EvolutionKind
from repro.metrics.compare import assert_equivalent
from repro.observability.sinks import InMemorySink
from repro.observability.trace import Tracer

EPS = 1.0
TAU = 4

POSITIONS = {
    # ex-core chain
    "B": (0.0, 0.0),
    "D": (1.0, 0.0),
    "P2": (2.0, 0.0),
    "F": (3.0, 0.0),
    "K": (4.0, 0.0),
    # minimal bonding chain (cores in both windows)
    "A": (0.0, 0.9),
    "C": (1.0, 0.9),
    "E": (2.0, 0.9),
    "G": (3.0, 0.9),
    "H": (4.0, 0.9),
    # exiting borders
    "P1": (-0.45, -0.6),
    "P3": (4.45, -0.6),
    # helper borders completing the chain ends' neighbourhoods, plus E_h
    # keeping E at core density once its neighbour P2 exits
    "A_h": (-0.7, 1.3),
    "H_h": (4.7, 1.3),
    "E_h": (2.0, 1.9),
}
PIDS = {name: i for i, name in enumerate(POSITIONS)}
EXITING = ("P1", "P3", "P2")
EXPECTED_EX_CORES = {"B", "D", "F", "K", "P2"}
EXPECTED_BONDING = {"A", "C", "E", "G", "H"}


def point(name):
    return StreamPoint(PIDS[name], POSITIONS[name], 0.0)


def window_points(exclude=()):
    return [point(name) for name in POSITIONS if name not in exclude]


def adjacency(name):
    mine = POSITIONS[name]
    return {
        other
        for other, coords in POSITIONS.items()
        if other != name and math.dist(mine, coords) <= EPS
    }


class TestGeometryMatchesTheStory:
    """Numeric verification that the layout encodes the intended figure."""

    def test_exiting_borders_have_one_core_neighbour(self):
        assert adjacency("P1") == {"B"}
        assert adjacency("P3") == {"K"}

    def test_ex_chain_neighbourhoods(self):
        assert adjacency("B") == {"P1", "D", "A"}
        assert adjacency("D") == {"B", "P2", "C"}
        assert adjacency("P2") == {"D", "F", "E"}
        assert adjacency("F") == {"P2", "K", "G"}
        assert adjacency("K") == {"F", "P3", "H"}

    def test_bonding_chain_neighbourhoods(self):
        assert adjacency("A") == {"A_h", "C", "B"}
        assert adjacency("C") == {"A", "E", "D"}
        assert adjacency("E") == {"C", "G", "P2", "E_h"}
        assert adjacency("G") == {"E", "H", "F"}
        assert adjacency("H") == {"G", "H_h", "K"}

    def test_initial_categories(self):
        disc = DISC(EPS, TAU)
        disc.advance(window_points(), ())
        snapshot = disc.snapshot()
        for name in EXPECTED_EX_CORES | EXPECTED_BONDING:
            assert snapshot.category_of(PIDS[name]) is Category.CORE, name
        for name in ("P1", "P3", "A_h", "H_h", "E_h"):
            assert snapshot.category_of(PIDS[name]) is Category.BORDER, name
        assert snapshot.num_clusters == 1


class TestFigure3Stride:
    def run_stride(self, **disc_kwargs):
        disc = DISC(EPS, TAU, **disc_kwargs)
        disc.advance(window_points(), ())
        before = disc.stats.snapshot()
        summary = disc.advance((), [point(name) for name in EXITING])
        searches = disc.stats.range_searches - before.range_searches
        return disc, summary, searches

    def test_search_count_arithmetic(self):
        """Example 2's accounting, adapted to this geometry.

        COLLECT spends one search per exiting point (3). The retro phase
        scans each ex-core exactly once (5) — the consolidation step — but
        reads exited P2's ball from COLLECT's search instead of searching
        again. The bonding cores A, C, E, G, H form a chain with unit
        spacing, within eps of each other, so their check is settled by
        their own adjacency and spends no expansion (the paper's MS-BFS
        would spend at most five); no anchor repairs are needed. DBSCAN's
        rule (one search per window point, Example 1) would already spend
        14.
        """
        sink = InMemorySink()
        _, _, searches = self.run_stride(tracer=Tracer(sink))
        counters = sink.records[-1].counters
        assert counters.reused_balls == 1
        assert counters.certified_checks == counters.connectivity_checks == 1
        assert 3 + 5 <= searches + counters.reused_balls <= 3 + 5 + 5
        assert searches == 3 + 5 - 1
        assert searches < len(POSITIONS)

    def test_five_ex_cores_one_class(self):
        _, summary, _ = self.run_stride()
        assert summary.num_ex_cores == 5
        assert summary.num_neo_cores == 0
        # One retro class -> exactly one evolution event.
        assert len(summary.events) == 1

    def test_shrink_not_split(self):
        disc, summary, _ = self.run_stride()
        assert summary.events[0].kind is EvolutionKind.SHRINK
        assert disc.snapshot().num_clusters == 1

    def test_cluster_id_is_preserved(self):
        disc = DISC(EPS, TAU)
        disc.advance(window_points(), ())
        cid_before = disc.labels()[PIDS["E"]]
        disc.advance((), [point(name) for name in EXITING])
        assert disc.labels()[PIDS["E"]] == cid_before

    def test_demoted_ex_cores_become_borders(self):
        disc, _, _ = self.run_stride()
        snapshot = disc.snapshot()
        for name in ("B", "D", "F", "K"):
            assert snapshot.category_of(PIDS[name]) is Category.BORDER, name
        for name in EXPECTED_BONDING:
            assert snapshot.category_of(PIDS[name]) is Category.CORE, name

    @pytest.mark.parametrize(
        "multi_starter,epoch", [(True, True), (True, False),
                                (False, True), (False, False)]
    )
    def test_exactness_in_all_configurations(self, multi_starter, epoch):
        disc, _, _ = self.run_stride(
            multi_starter=multi_starter, epoch_probing=epoch
        )
        reference = SlidingDBSCAN(EPS, TAU)
        remaining = window_points(exclude=EXITING)
        reference.advance(remaining, ())
        coords = {p.pid: p.coords for p in remaining}
        assert_equivalent(
            disc.snapshot(), reference.snapshot(), coords, disc.params
        )


class TestReverseStride:
    """Re-inserting the exited points mirrors the story with neo-cores."""

    def test_reinsertion_expands_back(self):
        disc = DISC(EPS, TAU)
        disc.advance(window_points(), ())
        cid_before = disc.labels()[PIDS["E"]]
        disc.advance((), [point(name) for name in EXITING])
        summary = disc.advance([point(name) for name in EXITING], ())
        # B, D, F, K regain core status; P2 becomes a core again: all five
        # are neo-cores in one nascent class extending the old cluster.
        assert summary.num_neo_cores == 5
        assert len(summary.events) == 1
        assert summary.events[0].kind is EvolutionKind.EXPAND
        assert disc.snapshot().num_clusters == 1
        assert disc.labels()[PIDS["E"]] == cid_before
        assert disc.labels()[PIDS["B"]] == cid_before

    def test_roundtrip_restores_categories(self):
        disc = DISC(EPS, TAU)
        disc.advance(window_points(), ())
        original = {
            pid: disc.snapshot().category_of(pid) for pid in PIDS.values()
        }
        disc.advance((), [point(name) for name in EXITING])
        disc.advance([point(name) for name in EXITING], ())
        snapshot = disc.snapshot()
        assert {
            pid: snapshot.category_of(pid) for pid in PIDS.values()
        } == original
