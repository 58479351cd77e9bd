"""The COLLECT step (paper Algorithm 1).

COLLECT brings every ``n_eps`` count up to date for one window advance,
removes exiting points from the index (except ex-cores, which must stay
visible to the CLUSTER step), inserts entering points, and identifies the two
sets that drive all cluster evolution: *ex-cores* and *neo-cores*.

It operates on the :class:`~repro.core.store.PointStore` columns with
whole-stride batched updates (one ``np.add.at`` over every neighbour
occurrence of the stride). The batched update rules below are the order-free
closed forms of Algorithm 1's sequential per-point loop:

* ``n_eps``/``c_core`` decrements commute, and a departing point's counters
  are zeroed regardless, so departures apply as one flat scatter-add
  followed by a batch zero of the departures themselves.
* An affected point's anchor ends the departure phase ``None`` iff its core
  count hit zero or its anchor itself departed — anchors always reference
  ``was_core`` points, so the per-occurrence ``anchor == departing pid``
  test reduces to membership in the departing ex-core set.
* Anchor-repair candidacy is evaluated on the post-phase state; the
  difference against per-occurrence evaluation is provably washed out by
  the filters in :func:`~repro.core.cluster.repair_anchors` (members that
  differ are either re-anchored by the nascent pass or filtered before the
  repair search).
* A new point's ``n_eps`` is ``1 + |live old neighbours| + |fellow
  arrivals within eps|`` — the sequential later-arrival-counts-the-pair
  rule sums to exactly this, whatever the insertion order.

COLLECT also hands CLUSTER the balls it searched that CLUSTER would
otherwise search again (:attr:`CollectResult.balls`):

* an arrival's ball, searched after the arrivals went in, is its neo-core
  scan ball: from then until the neo-core phase the index only loses
  ``C_out``, whose rows are ``DELETED`` and drop out of every scan mask;
* a departing ex-core's departure ball, plus the arrivals whose balls hold
  it, is its ex-core scan ball: in between, the index loses the non-core
  exits (``DELETED`` and not ``WAS_CORE``, so inert in every ex-core mask)
  and gains the arrivals, and ``math.dist`` is symmetric, so an arrival
  within eps of the departing point finds it in its own ball.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import StreamOrderError
from repro.common.points import StreamPoint
from repro.core.state import WindowState
from repro.core.store import DELETED, NO_ID, WAS_CORE, PointStore


@dataclass
class CollectResult:
    """What COLLECT hands to the CLUSTER step."""

    ex_cores: list[int] = field(default_factory=list)
    neo_cores: list[int] = field(default_factory=list)
    c_out: list[int] = field(default_factory=list)  # ex-cores in delta_out
    deleted_ids: list[int] = field(default_factory=list)  # all of delta_out
    # Scan balls CLUSTER need not search again, centre excluded, for every
    # arrival and every point of c_out; the phase that reads one pops it.
    balls: dict[int, np.ndarray] = field(default_factory=dict)


def collect(
    state: WindowState,
    index,
    delta_in: Sequence[StreamPoint],
    delta_out: Sequence[StreamPoint],
    *,
    trace=None,
) -> CollectResult:
    """Run COLLECT for one stride; returns ex-cores, neo-cores and C_out.

    One range search is executed per point in ``delta_out`` and per point in
    ``delta_in`` — exactly the paper's accounting — but each delta is issued
    as a *single* batched ``ball_many_pids`` call, so backends with
    vectorized or bulk machinery amortise work across the whole stride.
    Alongside the ``n_eps`` updates of Algorithm 1, the same searches
    maintain each point's core neighbour count ``c_core`` (the border
    bookkeeping of DESIGN.md §3.3), and their balls go on to CLUSTER.
    """
    store = state.store
    params = state.params
    eps = params.eps
    tau = params.tau
    result = CollectResult()
    touched: set[int] = set()

    _validate_deltas(store, delta_in, delta_out)

    # --- departures (Algorithm 1, lines 2-7) -------------------------------
    out_pids = [sp.pid for sp in delta_out]
    out_slots = store.slots_of(out_pids)
    out_balls = (
        index.ball_many_pids(store.coords[out_slots].tolist(), eps)
        if out_pids
        else []
    )
    out_was_core = (store.flags[out_slots] & WAS_CORE) != 0
    non_core_exits: list[int] = []
    # Flatten every departure ball into one occurrence array (self excluded);
    # wc occurrences — neighbours of a departing *ex-core* — additionally
    # drive the c_core/anchor bookkeeping.
    occ_parts: list[np.ndarray] = []
    wc_parts: list[np.ndarray] = []
    for i, ball in enumerate(out_balls):
        pid_i = out_pids[i]
        others = ball[ball != pid_i]
        occ_parts.append(others)
        if out_was_core[i]:
            # Ex-cores linger in the index until CLUSTER finishes (line 3).
            result.c_out.append(pid_i)
            wc_parts.append(others)
        else:
            non_core_exits.append(pid_i)
    result.deleted_ids = out_pids
    exits = np.asarray(result.c_out, dtype=np.int64)
    flat_q = (
        np.concatenate(occ_parts) if occ_parts else np.empty(0, dtype=np.int64)
    )
    if len(flat_q):
        np.subtract.at(store.n_eps, store.slots_of(flat_q.tolist()), 1)
        touched.update(flat_q.tolist())
    flat_wc_q = (
        np.concatenate(wc_parts) if wc_parts else np.empty(0, dtype=np.int64)
    )
    wc_slots = (
        store.slots_of(flat_wc_q.tolist())
        if len(flat_wc_q)
        else np.empty(0, dtype=np.int64)
    )
    if len(wc_slots):
        np.subtract.at(store.c_core, wc_slots, 1)
    # Departing rows are out of the window from here on: flagged, zeroed.
    store.mark_deleted(out_slots)
    touched.difference_update(out_pids)
    if len(wc_slots):
        affected = np.unique(wc_slots)
        affected = affected[(store.flags[affected] & DELETED) == 0]
        if len(affected):
            # Anchor invalidation, order-free closed form: the anchor departed
            # (anchors always point at was_core points) or no core remains.
            nulled = np.isin(store.anchor[affected], exits) | (
                store.c_core[affected] == 0
            )
            store.anchor[affected[nulled]] = NO_ID
            needs_repair = (
                (store.c_core[affected] > 0)
                & (store.anchor[affected] == NO_ID)
                & (store.n_eps[affected] < tau)
            )
            state.repair.update(store.pid[affected[needs_repair]].tolist())
    index.delete_many(non_core_exits)

    # --- arrivals (Algorithm 1, lines 8-12) --------------------------------
    in_pids = [sp.pid for sp in delta_in]
    in_coords = [tuple(sp.coords) for sp in delta_in]
    new_slots = store.bulk_insert(in_pids, in_coords, [sp.time for sp in delta_in])
    index.insert_many(list(zip(in_pids, in_coords)))
    in_balls = index.ball_many_pids(in_coords, eps) if in_pids else []
    # (departing ex-core, arrival) pairs within eps of each other.
    exit_hits = arrival_hits = np.empty(0, dtype=np.int64)
    if in_pids:
        n = len(in_pids)
        in_arr = np.fromiter(in_pids, dtype=np.int64, count=n)
        # One flat occurrence array over every arrival ball (self excluded),
        # with an owner index per occurrence; everything downstream is
        # order-free aggregation over (owner, neighbour) pairs.
        parts: list[np.ndarray] = []
        lens = np.empty(n, dtype=np.int64)
        for i, ball in enumerate(in_balls):
            others = ball[ball != in_pids[i]]
            parts.append(others)
            lens[i] = len(others)
        result.balls = dict(zip(in_pids, parts))
        flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        owners = np.repeat(np.arange(n), lens)
        is_arrival = np.isin(flat, in_arr)
        fellows = np.bincount(owners[is_arrival], minlength=n)
        old_flat = flat[~is_arrival]
        old_owners = owners[~is_arrival]
        old_slots = (
            store.slots_of(old_flat.tolist())
            if len(old_flat)
            else np.empty(0, dtype=np.int64)
        )
        # Lingering exited ex-cores are still in the index: skip them.
        live = (store.flags[old_slots] & DELETED) == 0
        live_slots = old_slots[live]
        live_owners = old_owners[live]
        exit_hits = old_flat[~live]
        arrival_hits = in_arr[old_owners[~live]]
        n_eps_new = 1 + fellows + np.bincount(live_owners, minlength=n)
        # q is a core of the previous window still present; whether it
        # survives as a core is settled by CLUSTER.
        wc = (store.flags[live_slots] & WAS_CORE) != 0
        c_core_new = np.bincount(live_owners[wc], minlength=n)
        # Lowest-pid core, not first-in-ball-order: ball traversal order
        # depends on index shape, which differs after a checkpoint restore;
        # the anchor choice must not.
        anchor_new = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(anchor_new, live_owners[wc], store.pid[live_slots[wc]])
        anchor_new[c_core_new == 0] = NO_ID
        store.n_eps[new_slots] = n_eps_new
        store.c_core[new_slots] = c_core_new
        store.anchor[new_slots] = anchor_new
        if len(live_slots):
            np.add.at(store.n_eps, live_slots, 1)
            touched.update(store.pid[live_slots].tolist())
        touched.update(in_pids)
    if len(exits):
        result.balls.update(_exit_balls(exits, wc_parts, exit_hits, arrival_hits))

    # --- classify the flips (Algorithm 1, line 13) -------------------------
    ordered = sorted(touched)
    if ordered:
        t_slots = store.slots_of(ordered)
        flags = store.flags[t_slots]
        live = (flags & DELETED) == 0
        is_core = store.n_eps[t_slots] >= tau
        was_core = (flags & WAS_CORE) != 0
        t_arr = np.asarray(ordered, dtype=np.int64)
        result.ex_cores = t_arr[live & was_core & ~is_core].tolist()
        result.neo_cores = t_arr[live & is_core & ~was_core].tolist()
    result.ex_cores.extend(result.c_out)
    if trace is not None:
        trace.counters.collect_touched = len(touched)
    return result


def _exit_balls(
    exits: np.ndarray,
    departure_balls: list[np.ndarray],
    exit_hits: np.ndarray,
    arrival_hits: np.ndarray,
) -> dict[int, np.ndarray]:
    """Each departing ex-core's ball as CLUSTER's ex-core phase sees it.

    That is its departure ball (centre excluded; ``departure_balls`` runs
    parallel to ``exits``) plus the arrivals paired with it in
    ``exit_hits``/``arrival_hits`` — the lingering exits that the arrivals'
    balls hold. Both kinds are keyed by the exit's position and grouped
    with one stable sort, departure neighbours first.
    """
    if not len(exit_hits):
        return dict(zip(exits.tolist(), departure_balls))
    m = len(exits)
    sorter = np.argsort(exits)
    keys = np.concatenate(
        (
            np.repeat(np.arange(m), [len(ball) for ball in departure_balls]),
            sorter[np.searchsorted(exits, exit_hits, sorter=sorter)],
        )
    )
    values = np.concatenate((*departure_balls, arrival_hits))
    values = values[np.argsort(keys, kind="stable")]
    ends = np.cumsum(np.bincount(keys, minlength=m)).tolist()
    return {
        pid: values[lo:hi] for pid, lo, hi in zip(exits.tolist(), [0, *ends], ends)
    }


def _validate_deltas(
    store: PointStore,
    delta_in: Sequence[StreamPoint],
    delta_out: Sequence[StreamPoint],
) -> None:
    """Reject malformed deltas *before* any state is mutated.

    COLLECT mutates counts, labels and the index as it goes; validating up
    front keeps ``advance`` atomic — a rejected stride leaves the clusterer
    exactly as it was, so callers can catch :class:`StreamOrderError` and
    continue.
    """
    out_ids: set[int] = set()
    for sp in delta_out:
        slot = store.get_slot(sp.pid)
        if slot is None or (store.flags[slot] & DELETED):
            raise StreamOrderError(f"cannot delete {sp.pid}: not in the window")
        if sp.pid in out_ids:
            raise StreamOrderError(f"point {sp.pid} deleted twice in one stride")
        out_ids.add(sp.pid)
    in_ids: set[int] = set()
    for sp in delta_in:
        if sp.pid in store:
            raise StreamOrderError(
                f"cannot insert {sp.pid}: id already in window"
            )
        if sp.pid in in_ids:
            raise StreamOrderError(
                f"point {sp.pid} inserted twice in one stride"
            )
        in_ids.add(sp.pid)
