"""The paper's range-search accounting (Fig. 7), checked at every stride.

DISC issues exactly one range search per inserted and per deleted point
(COLLECT), one per ex-core and per neo-core (CLUSTER's class scans), one per
MS-BFS expansion, and one per border whose anchor needs repairing. The
index's own ``range_searches`` counter must add up to that ledger on every
index and in every MS-BFS / epoch-probing arm.
"""

import pytest

import repro.core.disc as disc_mod
from repro.common.config import WindowSpec
from repro.core.disc import DISC
from repro.observability.sinks import InMemorySink
from repro.observability.trace import Tracer
from repro.window.sliding import SlidingWindow
from tests.conftest import DISC_INDEXES, churn_with_noise, disc_index

ARMS = [(True, True), (True, False), (False, True), (False, False)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("multi_starter,epoch_probing", ARMS)
@pytest.mark.parametrize("index", DISC_INDEXES)
def test_range_searches_match_the_ledger(
    monkeypatch, index, multi_starter, epoch_probing, seed
):
    repairs: list[int] = []

    def counting_repair(state, idx):
        spent = original(state, idx)
        repairs.append(spent)
        return spent

    original = disc_mod.repair_anchors
    monkeypatch.setattr(disc_mod, "repair_anchors", counting_repair)
    sink = InMemorySink()
    disc = DISC(
        0.55,
        3,
        index=disc_index(index, 0.55),
        multi_starter=multi_starter,
        epoch_probing=epoch_probing,
        tracer=Tracer(sink),
    )
    slides = SlidingWindow(WindowSpec(window=90, stride=18)).slides(
        churn_with_noise(seed, 400)
    )
    for delta_in, delta_out in slides:
        disc.advance(delta_in, delta_out)
        trace = sink.records[-1]
        c = trace.counters
        ledger = (
            c.num_inserted
            + c.num_deleted
            + c.ex_cores
            + c.neo_cores
            + c.msbfs_expansions
            + repairs[-1]
        )
        assert trace.index.range_searches == ledger, f"stride {trace.stride}"
    assert len(sink.records) == len(repairs) > 20
