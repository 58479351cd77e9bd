"""The paper's range-search accounting (Fig. 7), checked at every stride.

The paper's Algorithm 2 spends one range search per inserted and per
deleted point (COLLECT), one per ex-core and per neo-core (CLUSTER's class
scans), one per MS-BFS expansion, and one per border whose anchor needs
repairing. DISC reads the scan balls of departing ex-cores and arriving
neo-cores from COLLECT's searches instead of searching again, so the
index's own ``range_searches`` counter plus the trace's ``reused_balls``
must add up to that ledger on every index and in every MS-BFS /
epoch-probing arm.
"""

import pytest

import repro.core.cluster as cluster_mod
import repro.core.disc as disc_mod
from repro.common.config import WindowSpec
from repro.core.disc import DISC
from repro.core.store import DELETED
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
        assert trace.index.range_searches + c.reused_balls == ledger, (
            f"stride {trace.stride}"
        )
    assert len(sink.records) == len(repairs) > 20


@pytest.mark.parametrize("index", DISC_INDEXES)
def test_reused_balls_equal_fresh_searches(monkeypatch, index):
    """Every ball COLLECT hands to a CLUSTER phase is, as a set, the ball a
    search at that phase would return, once DELETED rows are dropped."""
    reused = {"ex": 0, "neo": 0}
    original = cluster_mod._scan_plan

    def checking_plan(store, idx, pids, known, eps, tau, trace):
        for pid in set(pids) & set(known):
            fresh = idx.ball_pids(store.coords[store.slot_of(pid)].tolist(), eps)

            def kept(ball, pid=pid):
                return {
                    q
                    for q in ball.tolist()
                    if q != pid and not store.flags[store.slot_of(q)] & DELETED
                }

            assert kept(known[pid]) == kept(fresh), pid
            assert pid not in known[pid].tolist()
            phase = "ex" if store.flags[store.slot_of(pid)] & DELETED else "neo"
            reused[phase] += 1
        return original(store, idx, pids, known, eps, tau, trace)

    monkeypatch.setattr(cluster_mod, "_scan_plan", checking_plan)
    disc = DISC(0.55, 3, index=disc_index(index, 0.55))
    slides = SlidingWindow(WindowSpec(window=90, stride=18)).slides(
        churn_with_noise(3, 400)
    )
    for delta_in, delta_out in slides:
        disc.advance(delta_in, delta_out)
    assert reused["ex"] > 20 and reused["neo"] > 20
