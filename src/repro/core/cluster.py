"""The CLUSTER step (paper Algorithm 2).

Ex-cores are consolidated into retro-reachability classes; one representative
per class computes the minimal bonding cores ``M^-`` and a single
connectivity check decides split / shrink / dissipate for the whole class
(Theorem 1). Neo-cores are consolidated into nascent-reachability classes
whose ``M^+`` label multiset decides merge / expand / emerge — no
connectivity check needed, just label inspection.

Every ex-core and every neo-core is scanned exactly once across the whole
step; those scans double as the maintenance pass for the border bookkeeping
(``c_core`` and anchors, Section V of the paper). A scan reads a range
search of its own, except for the departing ex-cores and the arriving
neo-cores, whose balls COLLECT has already searched
(:attr:`~repro.core.collect.CollectResult.balls`).

Each range search result is processed as masked column operations over the
ball's slot array in the :class:`~repro.core.store.PointStore` instead of
one lookup per neighbour; the breadth-first traversal order itself is
untouched. Because every ex-core and neo-core is scanned exactly once per
phase, and the quantities that classify a neighbour (index membership, the
``DELETED``/``WAS_CORE`` flags and ``n_eps``) are all static within a phase
— the BFS only mutates ``c_core``, anchors and cluster ids — each phase
prefetches every scan ball it was not handed with one batched
``ball_many_pids`` call and gathers the classification masks of all of them
in one shot (:func:`_scan_plan`). All order-sensitive iteration (class
seeds, claim settlement, bonding-root unions, repair scans) runs in sorted
order, so cluster-id assignment never depends on set-iteration internals.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.events import EvolutionEvent, EvolutionKind
from repro.core.msbfs import check_connectivity
from repro.core.state import WindowState
from repro.core.store import DELETED, NO_ID, WAS_CORE


def _make_on_border(state: WindowState):
    """Border-anchor refresh callback for MS-BFS passes (Section V)."""
    store = state.store
    flags = store.flags
    slot_of = store._slot_of

    def on_border(border_pid: int, core_pid: int) -> None:
        slot = slot_of[border_pid]
        if flags[slot] & DELETED:
            return
        store.anchor[slot] = core_pid
        state.repair.discard(border_pid)

    return on_border


def _scan_plan(
    store, index, pids, known: dict, eps: float, tau: int, trace
) -> dict:
    """Prefetch the scan balls of one CLUSTER phase in a single batched call.

    Maps each pid to its ball with the center filtered out, the ball's slot
    array, and the static classification masks (see :func:`_plan_entries`).
    A pid in ``known`` (COLLECT's balls, centre excluded) takes its ball
    from there, popping it; only the other pids are searched, in one
    ``ball_many_pids`` call. A handed-over ball may hold rows that are
    ``DELETED`` by now, which every scan mask drops. Sound because within
    one phase the index membership, the ``DELETED``/``WAS_CORE`` flags and
    ``n_eps`` never change (the BFS mutates only ``c_core``, anchors and
    cluster ids), and every member of ``pids`` is scanned exactly once by
    the sequential loop — so one ``ball_many_pids`` over the deduplicated
    set leaves the index-stats ledger identical to per-pop :meth:`ball`
    calls.
    """
    order = sorted(set(pids))
    if not order:
        return {}
    missing = [pid for pid in order if pid not in known]
    searched = iter(
        index.ball_many_pids(store.coords[store.slots_of(missing)].tolist(), eps)
        if missing
        else ()
    )
    if trace is not None:
        trace.counters.reused_balls += len(order) - len(missing)
    spans: list[tuple[int, list[int], int]] = []
    flat: list[int] = []
    for pid in order:
        ball = known.pop(pid, None)
        if ball is None:
            ball = next(searched)
            ball = ball[ball != pid]
        qids = ball.tolist()
        spans.append((pid, qids, len(flat)))
        flat.extend(qids)
    flat_slots = store.slots_of(flat) if flat else np.empty(0, dtype=np.int64)
    return _plan_entries(store, tau, spans, flat_slots)


def _plan_entries(store, tau: int, spans, flat_slots) -> dict:
    """Slice one phase's flat classification masks into per-pid plan entries.

    Every mask the scan bodies consume is derived here, once, over the
    whole phase's concatenated balls — the per-expansion cost is then just
    slicing views.
    """
    flags = store.flags[flat_slots]
    deleted = (flags & DELETED) != 0
    was_core = (flags & WAS_CORE) != 0
    live = ~deleted
    live_core = live & (store.n_eps[flat_slots] >= tau)
    border = live ^ live_core  # live but not currently core
    m_plus = live_core & was_core  # cores in both windows
    fellow = live_core ^ m_plus  # cores only in the new window
    retro_ext = was_core & ~live_core  # fellow ex-cores (incl. exited)
    plan = {}
    for pid, qids, lo in spans:
        sl = slice(lo, lo + len(qids))
        plan[pid] = (
            qids,
            flat_slots[sl],
            live[sl],
            live_core[sl],
            border[sl],
            m_plus[sl],
            fellow[sl],
            retro_ext[sl],
        )
    return plan


def _scan_entry(store, index, pid: int, slot: int, eps: float, tau: int, plan: dict):
    """A plan entry, or an equivalent one built on the fly for a pid the
    phase discovered outside the prefetch set (defensive: classification is
    static within the phase, so both routes agree)."""
    entry = plan.get(pid)
    if entry is not None:
        return entry
    ball = index.ball_pids(store.coords[slot].tolist(), eps)
    qids = ball[ball != pid].tolist()
    slots = store.slots_of(qids) if qids else np.empty(0, dtype=np.int64)
    return _plan_entries(store, tau, [(pid, qids, 0)], slots)[pid]


def _ordered_classes(pids: list[int]):
    """Yield (seed, remaining-set) pairs in ascending-pid order.

    Class consolidation consumes members from ``remaining`` as the BFS
    reaches them; seeding in sorted order (rather than ``set.pop``) makes
    class enumeration — and therefore fresh-cluster-id assignment —
    independent of set-iteration internals, so the same stream always
    produces byte-identical output.
    """
    remaining = set(pids)
    for seed in sorted(remaining):
        if seed not in remaining:
            continue
        remaining.discard(seed)
        yield seed, remaining


def process_ex_cores(
    state: WindowState,
    index,
    ex_cores: list[int],
    balls: dict,
    *,
    multi_starter: bool = True,
    epoch_probing: bool = True,
    trace=None,
) -> list[EvolutionEvent]:
    """Handle cluster evolution caused by ex-cores (Algorithm 2, lines 1-7).

    ``balls`` is COLLECT's :attr:`~repro.core.collect.CollectResult.balls`;
    the departing ex-cores' scans read theirs from it instead of searching.
    Returns one event per retro-reachability class. When ``trace`` (a
    :class:`~repro.observability.trace.StrideTrace`) is given, it accumulates
    the retro-class count, the Theorem-1 savings (ex-cores consolidated into
    a class beyond its representative, each of which would have cost its own
    connectivity check), and the checks actually issued.
    """
    params = state.params
    eps = params.eps
    tau = params.tau
    store = state.store
    events: list[EvolutionEvent] = []
    on_border = _make_on_border(state)

    # Old cluster ids retained this stride, mapped to representative cores of
    # the components that kept them. Needed because several retro classes may
    # carve the *same* old cluster: each class's check sees only its own
    # fragments (Lemma 2 is per-class), so without reconciliation two
    # disconnected fragments could both retain the old id. Claims are
    # recorded here; ids actually at risk — fragmentation of a cluster always
    # makes some split survivor claim it, so only ids in ``split_claimed``
    # can be contested — are settled once at the end by a single connectivity
    # check over the claimants.
    kept: dict[int, list[int]] = {}
    split_claimed: set[int] = set()
    plan = _scan_plan(store, index, ex_cores, balls, eps, tau, trace)

    for seed, remaining in _ordered_classes(ex_cores):
        # Breadth-first enumeration of the retro-reachability class R^-(seed);
        # the same searches collect the minimal bonding cores M^-(seed).
        retro = {seed}
        queue: deque[int] = deque([seed])
        bonding: list[int] = []
        bonding_seen: set[int] = set()
        # The cluster id the class belonged to, read off the first member
        # still carrying one (exited ex-cores keep theirs until purged, so a
        # cluster that left the window whole is covered too); a dissipating
        # class is this id's last trace, and _resolve_ex_class retires the
        # id with it.
        class_cid: int | None = None
        while queue:
            class_cid = _retro_scan(
                state,
                store,
                index,
                queue.popleft(),
                eps,
                tau,
                retro,
                remaining,
                queue,
                bonding,
                bonding_seen,
                class_cid,
                plan,
            )

        if trace is not None:
            trace.counters.retro_classes += 1
            # Theorem 1: the whole class shares one check; every member
            # beyond the representative is a check a naive IncDBSCAN-style
            # deletion pass would have issued.
            trace.counters.theorem1_skips += len(retro) - 1
        events.append(
            _resolve_ex_class(
                state,
                index,
                seed,
                bonding,
                kept,
                split_claimed,
                class_cid,
                multi_starter=multi_starter,
                epoch_probing=epoch_probing,
                on_border=on_border,
                trace=trace,
            )
        )
    events.extend(
        _settle_claims(
            state,
            index,
            kept,
            split_claimed,
            multi_starter=multi_starter,
            epoch_probing=epoch_probing,
            on_border=on_border,
            trace=trace,
        )
    )
    return events


def _retro_scan(
    state: WindowState,
    store,
    index,
    rid: int,
    eps: float,
    tau: int,
    retro: set[int],
    remaining: set[int],
    queue: deque,
    bonding: list[int],
    bonding_seen: set[int],
    class_cid: int | None,
    plan: dict,
) -> int | None:
    """One retro-BFS expansion as masked column ops; returns ``class_cid``.

    Sequencing note: within one ball the per-neighbour effects of a
    sequential loop are independent of each other (each neighbour's
    counter, its own anchor, and append-order-preserving set insertions), so
    splitting the ball into phase-ordered batch operations — extend class,
    collect bonding, decrement ``c_core``, invalidate anchors, then anchor
    the demoted core itself — is exact.
    """
    r_slot = store.slot_of(rid)
    raw_cid = int(store.cid[r_slot])
    if class_cid is None and raw_cid != NO_ID:
        class_cid = state.cids.find(raw_cid)
    r_in_window = not (store.flags[r_slot] & DELETED)
    if r_in_window:
        # Demoted this stride: it no longer carries a core cid, and any old
        # anchor value is meaningless.
        store.cid[r_slot] = NO_ID
        store.anchor[r_slot] = NO_ID
    qids, slots, live, live_core, border, _m_plus, _fellow, retro_ext = _scan_entry(
        store, index, rid, r_slot, eps, tau, plan
    )
    if not qids:
        if r_in_window and store.c_core[r_slot] > 0:
            state.repair.add(rid)
        return class_cid
    # Extend the retro class: lingering exited ex-cores and in-window
    # ex-cores alike, preserving ball order for the BFS queue.
    for j in retro_ext.nonzero()[0]:
        qid = qids[j]
        if qid not in retro:
            retro.add(qid)
            remaining.discard(qid)
            queue.append(qid)
    # Cores in both windows adjacent to R^-: the M^- members, in ball order.
    for j in _m_plus.nonzero()[0]:
        qid = qids[j]
        if qid not in bonding_seen:
            bonding_seen.add(qid)
            bonding.append(qid)
    if r_in_window:
        # rid lost core status: its neighbours lose a core neighbour.
        # (Exited ex-cores were already accounted for during COLLECT.)
        store.c_core[slots[live]] -= 1
        nc_slots = slots[border]
        if len(nc_slots):
            nulled = (store.anchor[nc_slots] == rid) | (store.c_core[nc_slots] == 0)
            store.anchor[nc_slots[nulled]] = NO_ID
            needs_repair = (store.c_core[nc_slots] > 0) & (
                store.anchor[nc_slots] == NO_ID
            )
            if needs_repair.any():
                state.repair.update(store.pid[nc_slots[needs_repair]].tolist())
        # The demoted ex-core itself may become a border: first live core in
        # ball order, exactly as the sequential loop assigns it.
        anchor_candidates = live_core.nonzero()[0]
        if len(anchor_candidates):
            store.anchor[r_slot] = qids[int(anchor_candidates[0])]
        elif store.c_core[r_slot] > 0:
            state.repair.add(rid)
    return class_cid


def _claim(state: WindowState, kept: dict[int, list[int]], rep: int) -> int:
    """Record that ``rep``'s component retains its current cluster id."""
    store = state.store
    cid = state.cids.find(int(store.cid[store.slot_of(rep)]))
    kept.setdefault(cid, []).append(rep)
    return cid


def _settle_claims(
    state: WindowState,
    index,
    kept: dict[int, list[int]],
    split_claimed: set[int],
    *,
    multi_starter: bool,
    epoch_probing: bool,
    on_border,
    trace=None,
) -> list[EvolutionEvent]:
    """Ensure each retained cluster id labels exactly one component.

    Only ids claimed by at least one *split survivor* can be contested: if
    an old cluster fragmented, the class spanning two of its fragments saw a
    disconnected ``M^-`` and split, and its survivor claimed the id. For each
    such id with two or more claimants, one connectivity check over the
    claimant representatives decides: all connected (the common case — the
    check meets in the middle and exits early) means the shared id is
    legitimate; otherwise the exhausted components are fragments that must
    take fresh ids. Returns the extra split events this produces.
    """
    store = state.store
    tau = state.params.tau
    events: list[EvolutionEvent] = []
    for cid in sorted(split_claimed):
        reps = kept.get(cid, ())
        live = []
        seen: set[int] = set()
        for rep in reps:
            slot = store.get_slot(rep)
            if (
                slot is not None
                and not (store.flags[slot] & DELETED)
                and store.n_eps[slot] >= tau
                and state.cids.find(int(store.cid[slot])) == cid
                and rep not in seen
            ):
                seen.add(rep)
                live.append(rep)
        if len(live) < 2:
            continue
        if trace is not None:
            trace.counters.connectivity_checks += 1
        result = check_connectivity(
            index,
            state,
            live,
            multi_starter=multi_starter,
            epoch_probing=epoch_probing,
            on_border=on_border,
            trace=trace,
        )
        if result.connected:
            continue
        new_cids = []
        for component in result.exhausted:
            fresh = state.cids.make()
            new_cids.append(fresh)
            state.set_cids(component, fresh)
        events.append(
            EvolutionEvent(EvolutionKind.SPLIT, (cid, *new_cids), trigger=live[0])
        )
    return events


def _resolve_ex_class(
    state: WindowState,
    index,
    seed: int,
    bonding: list[int],
    kept: dict[int, list[int]],
    split_claimed: set[int],
    class_cid: int | None,
    *,
    multi_starter: bool,
    epoch_probing: bool,
    on_border,
    trace=None,
) -> EvolutionEvent:
    """Decide split / shrink / dissipate for one retro class."""
    if not bonding:
        # No bonding cores: the retro class was the entire connected core
        # component, so nothing alive references its cluster id any more.
        # Retire the id so the union-find forest does not keep its whole
        # merge lineage pinned until the next compaction.
        if class_cid is not None:
            state.cids.retire(class_cid)
        return EvolutionEvent(EvolutionKind.DISSIPATE, trigger=seed)
    if len(bonding) == 1:
        cid = _claim(state, kept, bonding[0])
        return EvolutionEvent(EvolutionKind.SHRINK, (cid,), trigger=seed)

    if trace is not None:
        trace.counters.connectivity_checks += 1
    result = check_connectivity(
        index,
        state,
        bonding,
        multi_starter=multi_starter,
        epoch_probing=epoch_probing,
        on_border=on_border,
        trace=trace,
    )
    if result.connected:
        cid = _claim(state, kept, bonding[0])
        return EvolutionEvent(EvolutionKind.SHRINK, (cid,), trigger=seed)

    # Split: each fully traversed component becomes a new cluster; the
    # surviving search's component claims the old cluster id, subject to the
    # end-of-stride reconciliation in _settle_claims (DESIGN.md §3.2, §3.4).
    new_cids = []
    for component in result.exhausted:
        cid = state.cids.make()
        new_cids.append(cid)
        kept[cid] = [component[0]]
        state.set_cids(component, cid)
    survivor_cid = _claim(state, kept, result.survivor[0])
    split_claimed.add(survivor_cid)
    return EvolutionEvent(
        EvolutionKind.SPLIT, (survivor_cid, *new_cids), trigger=seed
    )


def process_neo_cores(
    state: WindowState, index, neo_cores: list[int], balls: dict, *, trace=None
) -> list[EvolutionEvent]:
    """Handle cluster evolution caused by neo-cores (Algorithm 2, lines 9-13).

    ``balls`` is COLLECT's :attr:`~repro.core.collect.CollectResult.balls`;
    the arriving neo-cores' scans read theirs from it instead of searching.
    Returns one event per nascent-reachability class. Unlike ex-cores, no
    connectivity check is needed: the labels of ``M^+`` decide everything.
    """
    params = state.params
    eps = params.eps
    tau = params.tau
    cids = state.cids
    store = state.store
    events: list[EvolutionEvent] = []
    plan = _scan_plan(store, index, neo_cores, balls, eps, tau, trace)

    for seed, remaining in _ordered_classes(neo_cores):
        if trace is not None:
            trace.counters.nascent_classes += 1
        group = [seed]
        seen = {seed}
        queue: deque[int] = deque([seed])
        bonding_roots: set[int] = set()
        while queue:
            _nascent_scan(
                state,
                store,
                index,
                queue.popleft(),
                eps,
                tau,
                seen,
                remaining,
                queue,
                group,
                bonding_roots,
                plan,
            )

        if not bonding_roots:
            cid = cids.make()
            kind = EvolutionKind.EMERGE
        elif len(bonding_roots) == 1:
            cid = next(iter(bonding_roots))
            kind = EvolutionKind.EXPAND
        else:
            # Sorted union order: merged-root identity must not depend on
            # set-iteration internals (see _ordered_classes).
            roots = iter(sorted(bonding_roots))
            cid = next(roots)
            for other in roots:
                cid = cids.union(cid, other)
            kind = EvolutionKind.MERGE
        group_slots = store.slots_of(group)
        store.cid[group_slots] = cid
        store.anchor[group_slots] = NO_ID  # cores do not use anchors
        state.repair.difference_update(group)
        events.append(EvolutionEvent(kind, (cids.find(cid),), trigger=seed))
    return events


def _nascent_scan(
    state: WindowState,
    store,
    index,
    sid: int,
    eps: float,
    tau: int,
    seen: set[int],
    remaining: set[int],
    queue: deque,
    group: list[int],
    bonding_roots: set[int],
    plan: dict,
) -> None:
    """One nascent-BFS expansion as masked column ops."""
    cids = state.cids
    s_slot = store.slot_of(sid)
    raw = int(store.cid[s_slot])
    if raw != NO_ID:
        # Pre-assigned by a split relabel earlier this stride; fold it in so
        # the final assignment stays consistent.
        bonding_roots.add(cids.find(raw))
    qids, slots, live, _live_core, border, m_plus, fellow, _retro_ext = _scan_entry(
        store, index, sid, s_slot, eps, tau, plan
    )
    if not qids:
        return
    # sid gained core status: neighbours gain a core neighbour.
    store.c_core[slots[live]] += 1
    # Borders without an anchor adopt sid and leave the repair set.
    nc_slots = slots[border]
    if len(nc_slots):
        adopt = nc_slots[store.anchor[nc_slots] == NO_ID]
        if len(adopt):
            store.anchor[adopt] = sid
            state.repair.difference_update(store.pid[adopt].tolist())
    # Cores in both windows: the M^+ members; read their labels.
    m_slots = slots[m_plus]
    if len(m_slots):
        raw_cids = store.cid[m_slots]
        assert not np.any(raw_cids == NO_ID), "old core lacks a cid"
        for c in set(raw_cids.tolist()):
            bonding_roots.add(cids.find(c))
    # Fellow neo-cores extend the nascent class, in ball order.
    for j in fellow.nonzero()[0]:
        qid = qids[j]
        if qid not in seen:
            seen.add(qid)
            remaining.discard(qid)
            queue.append(qid)
            group.append(qid)


def repair_anchors(state: WindowState, index) -> int:
    """Re-anchor borders whose anchor core vanished (Section V, last resort).

    Each repair costs one range search; the searches are mutation-free, so
    the whole repair set is issued as one batched ``ball_many_pids`` call.
    Returns the number of searches spent. The repair set is scanned in
    sorted order so the pending list — and with it the index-stats ledger —
    never depends on set-iteration internals.
    """
    store = state.store
    eps = state.params.eps
    tau = state.params.tau
    pending_pids: list[int] = []
    pending_slots: list[int] = []
    for pid in sorted(state.repair):
        slot = store.get_slot(pid)
        if slot is None or (store.flags[slot] & DELETED):
            continue
        if store.n_eps[slot] >= tau or store.c_core[slot] <= 0:
            continue  # became a core, or is plain noise: no anchor needed
        anchor = int(store.anchor[slot])
        if anchor != NO_ID:
            a_slot = store.get_slot(anchor)
            if (
                a_slot is not None
                and not (store.flags[a_slot] & DELETED)
                and store.n_eps[a_slot] >= tau
            ):
                continue  # anchor is still a live core
        store.anchor[slot] = NO_ID
        pending_pids.append(pid)
        pending_slots.append(slot)
    balls = (
        index.ball_many_pids(
            store.coords[np.asarray(pending_slots, dtype=np.int64)].tolist(), eps
        )
        if pending_pids
        else []
    )
    for pid, slot, neighbours in zip(pending_pids, pending_slots, balls):
        qids = neighbours[neighbours != pid]
        best = NO_ID
        if len(qids):
            slots = store.slots_of(qids.tolist())
            core = ((store.flags[slots] & DELETED) == 0) & (store.n_eps[slots] >= tau)
            if core.any():
                # Lowest-pid core, not first-in-ball-order: ball traversal
                # order depends on index shape, which differs after a
                # checkpoint restore; the repaired anchor must not.
                best = int(store.pid[slots[core]].min())
        assert best != NO_ID, (
            f"border {pid} has c_core={int(store.c_core[slot])} "
            "but no core neighbour"
        )
        store.anchor[slot] = best
    state.repair.clear()
    return len(pending_pids)
