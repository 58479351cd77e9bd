"""Every backend, the served QUERY and the R-tree's prune agree on eps.

"q is within eps of p" means ``math.dist(p, q) <= eps``
(:func:`repro.common.distance.within_eps`). These cases once got different
answers depending on where they were asked:

- two points whose squared sum is within ``eps * eps`` but whose
  ``math.dist`` exceeds eps formed a cluster on ``linear`` and
  ``vectorgrid`` and were noise on ``rtree`` and ``grid``; QUERY by
  coordinates disagreed with QUERY by pid on an ``rtree`` tenant;
- a point at exactly eps from the query centre, at its leaf's corner, was
  pruned with its subtree by a squared MBR bound that rounded up;
- two points at exactly eps across two boundaries of the numpy grid's
  eps-sided cells sat outside each other's 3^d stencil.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.common.distance import within_eps
from repro.common.points import StreamPoint
from repro.core.disc import DISC
from repro.index import RTree, available_indexes
from repro.serve import SessionConfig
from repro.serve.server import dispatch
from repro.serve.service import ClusterService
from tests.conftest import DISC_INDEXES, disc_index

EPS, TAU = 0.05, 2
P1 = (7.078621924830589, 8.192821811677478)
P2 = (7.041362443758528, 8.226164443100938)
# A third point a fifth of the way from P1 away from P2: P1 becomes a core.
P0 = (P1[0] + 0.2 * (P1[0] - P2[0]), P1[1] + 0.2 * (P1[1] - P2[1]))

PAIR = [StreamPoint(1, P1, 1.0), StreamPoint(2, P2, 2.0)]
TRIO = [StreamPoint(0, P0, 0.0), *PAIR]
# At exactly eps across two cell boundaries of an eps-sided grid: 0.05 + 1e-18
# rounds to 0.05, but floor(x / eps) puts the points in cells 1 and -1.
STRADDLE = [StreamPoint(3, (0.05, 3.0), 3.0), StreamPoint(4, (-1e-18, 3.0), 4.0)]


def offline_labels(backend: str, points) -> dict[int, tuple[int, str]]:
    disc = DISC(EPS, TAU, index=disc_index(backend, EPS))
    disc.advance(points, [])
    snapshot = disc.snapshot()
    return {
        pid: (snapshot.label_of(pid), category.value)
        for pid, category in snapshot.categories.items()
    }


def served_queries(backend: str, points) -> dict[int, tuple[int, int]]:
    """``pid -> (QUERY pid label, QUERY coords label)`` on one tenant."""

    async def scenario():
        service = ClusterService()
        config = SessionConfig(
            eps=EPS, tau=TAU, window=len(points), stride=len(points), index=backend
        )
        session = service.open("t", config)
        await session.offer(points)
        await session.drain(flush_tail=True)
        answers = {}
        for point in points:
            by_pid = await dispatch(
                service, {"op": "QUERY", "session": "t", "pid": point.pid}
            )
            by_coords = await dispatch(
                service, {"op": "QUERY", "session": "t", "coords": list(point.coords)}
            )
            answers[point.pid] = (by_pid["label"], by_coords["label"])
        await service.shutdown()
        return answers

    return asyncio.run(scenario())


def test_the_pair_sits_just_outside_eps():
    # The squared sum says inside, math.dist says outside.
    dx, dy = P1[0] - P2[0], P1[1] - P2[1]
    assert dx * dx + dy * dy <= EPS * EPS
    assert not within_eps(P1, P2, EPS)
    assert within_eps(P0, P1, EPS) and not within_eps(P0, P2, EPS)


def test_the_straddling_pair_sits_at_eps_two_cells_apart():
    a, b = (point.coords for point in STRADDLE)
    assert math.dist(a, b) == EPS
    assert math.floor(a[0] / EPS) - math.floor(b[0] / EPS) == 2


CASES = {
    "pair": (PAIR, {1: (-1, "noise"), 2: (-1, "noise")}),
    "pair-with-core": (TRIO, {0: (0, "core"), 1: (0, "core"), 2: (-1, "noise")}),
    "straddle": (STRADDLE, {3: (0, "core"), 4: (0, "core")}),
}


@pytest.mark.parametrize("case", CASES)
def test_every_backend_labels_alike(case):
    points, expected = CASES[case]
    for backend in DISC_INDEXES:
        assert offline_labels(backend, points) == expected, backend


@pytest.mark.parametrize("points", [case[0] for case in CASES.values()], ids=list(CASES))
@pytest.mark.parametrize("backend", available_indexes())
def test_query_by_coords_agrees_with_query_by_pid(backend, points):
    for pid, (by_pid, by_coords) in served_queries(backend, points).items():
        assert by_pid == by_coords, f"point {pid}"


class TestRTreeCornerPoint:
    """A point at its leaf's corner, exactly eps from the query centre."""

    P = (7.299609681685842, 0.8218336202360986)
    C = (7.291750581831156, 0.7724551375794386)

    @pytest.fixture
    def tree(self):
        tree = RTree()
        tree.insert(0, self.P)
        for i in range(1, 41):
            tree.insert(i, (self.P[0] + 0.001 * i, self.P[1] + 0.001 * i))
        return tree

    def centres(self):
        """C and its neighbours a few ulps away on either axis."""
        for kx in range(-2, 3):
            for ky in range(-2, 3):
                x, y = self.C
                for _ in range(abs(kx)):
                    x = math.nextafter(x, math.copysign(math.inf, kx))
                for _ in range(abs(ky)):
                    y = math.nextafter(y, math.copysign(math.inf, ky))
                yield (x, y)

    def test_ball_holds_p_exactly_when_within_eps(self, tree):
        assert math.dist(self.P, self.C) == EPS
        assert within_eps(self.P, self.C, EPS)
        for centre in self.centres():
            want = within_eps(self.P, centre, EPS)
            assert (0 in {pid for pid, _ in tree.ball(centre, EPS)}) == want, centre
            assert (0 in set(tree.ball_pids(centre, EPS).tolist())) == want, centre

    def test_probe_holds_p_exactly_when_within_eps(self, tree):
        for centre in self.centres():
            tick = tree.new_tick()
            got = {pid for pid, _ in tree.ball_unvisited(centre, EPS, tick)}
            assert (0 in got) == within_eps(self.P, centre, EPS), centre
        tree.check_invariants()

    def test_the_answer_does_not_depend_on_the_tree_shape(self, tree):
        # Inserting the centre itself reshapes the tree around it.
        before = np.sort(tree.ball_pids(self.C, EPS))
        tree.insert(99, self.C)
        after = np.sort(tree.ball_pids(self.C, EPS))
        assert after.tolist() == sorted([*before.tolist(), 99])
