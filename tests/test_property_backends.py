"""Property test: DISC equals DBSCAN on *every* index it is tested on.

The flagship theorem test in ``test_property_based.py`` runs DISC on its
default R-tree. This file re-asserts the same end-to-end contract
(``assert_equivalent``: identical core partition, valid border anchors) with
the substrate swapped out (every registry backend, and a ``GridIndex``
instance), on random streams, windows and thresholds — so a backend can only
be registered if DISC stays exact on it, with the probing knobs on (epoch
probes where the index declares them) and off.
"""

import pytest
from hypothesis import given, settings

from repro.baselines.dbscan import SlidingDBSCAN
from repro.core.disc import DISC
from repro.metrics.compare import assert_equivalent
from repro.window.sliding import SlidingWindow

from tests.conftest import DISC_INDEXES, disc_index
from tests.test_property_based import stream_scenarios


@pytest.mark.parametrize("backend", DISC_INDEXES)
class TestEveryBackendIsExact:
    @settings(max_examples=10, deadline=None)
    @given(scenario=stream_scenarios())
    def test_disc_equals_dbscan(self, backend, scenario):
        points, spec, eps, tau = scenario
        disc = DISC(eps, tau, index=disc_index(backend, eps))
        reference = SlidingDBSCAN(eps, tau)
        window = []
        for delta_in, delta_out in SlidingWindow(spec).slides(points):
            disc.advance(delta_in, delta_out)
            reference.advance(delta_in, delta_out)
            out_ids = {p.pid for p in delta_out}
            window = [p for p in window if p.pid not in out_ids] + list(delta_in)
            coords = {p.pid: p.coords for p in window}
            assert_equivalent(
                disc.snapshot(), reference.snapshot(), coords, disc.params
            )

    @settings(max_examples=6, deadline=None)
    @given(scenario=stream_scenarios())
    def test_exact_with_probing_knobs_off(self, backend, scenario):
        """The ablation knobs change work done, never the clustering."""
        points, spec, eps, tau = scenario
        disc = DISC(
            eps,
            tau,
            index=disc_index(backend, eps),
            multi_starter=False,
            epoch_probing=False,
        )
        reference = SlidingDBSCAN(eps, tau)
        window = []
        for delta_in, delta_out in SlidingWindow(spec).slides(points):
            disc.advance(delta_in, delta_out)
            reference.advance(delta_in, delta_out)
            out_ids = {p.pid for p in delta_out}
            window = [p for p in window if p.pid not in out_ids] + list(delta_in)
            coords = {p.pid: p.coords for p in window}
            assert_equivalent(
                disc.snapshot(), reference.snapshot(), coords, disc.params
            )
