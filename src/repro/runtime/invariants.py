"""Debug-mode consistency checks over DISC's incremental state.

DISC's exactness rests on three structural invariants that an incremental
bug (or a bad restore) would silently violate long before the output looks
obviously wrong:

- **n_eps consistency** — every live point's cached neighbour count equals
  what the spatial index actually reports for its epsilon-ball;
- **anchor validity** — every border point's anchor names a live core
  within epsilon (the channel through which borders resolve a cluster id);
- **cid-forest acyclicity** — the union-find parent map contains no cycle,
  so ``find`` terminates and every core's cluster id resolves.

:func:`check_state` reports violations as human-readable strings.
:func:`rebuild` is the graceful degradation path: re-cluster the current
window from scratch (same parameters, same index backend), trading one
expensive stride for a state that is correct by construction. The
:class:`~repro.runtime.supervisor.Supervisor` invokes both when running
with ``check_invariants=True`` and logs a warning instead of carrying the
corruption forward.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.points import StreamPoint
from repro.core.disc import DISC
from repro.core.store import DELETED, NO_ID

MAX_REPORTED = 8


def check_state(disc: DISC) -> list[str]:
    """Return violation descriptions for ``disc``'s current state ([] = ok)."""
    violations: list[str] = []
    state = disc.state
    store = state.store
    eps, tau = disc.params.eps, disc.params.tau
    slots = store.live_slots()
    slots = slots[(store.flags[slots] & DELETED) == 0]
    pids = store.pid[slots].tolist()
    coords = store.coords[slots].tolist()
    n_eps = store.n_eps[slots]

    # n_eps consistency, batched through the index's hot-path layer.
    counts = np.array(
        [len(ball) for ball in disc.index.ball_many_pids(coords, eps)],
        dtype=np.int64,
    )
    for i in np.flatnonzero(n_eps != counts).tolist():
        violations.append(
            f"n_eps mismatch for point {pids[i]}: cached {int(n_eps[i])}, "
            f"index reports {int(counts[i])}"
        )

    # Border anchors point at live cores within epsilon.
    border = (n_eps < tau) & (store.c_core[slots] > 0)
    for i in np.flatnonzero(border).tolist():
        pid = pids[i]
        anchor = int(store.anchor[slots[i]])
        if anchor == NO_ID:
            violations.append(f"border {pid} has no anchor")
            continue
        a_slot = store.get_slot(anchor)
        if a_slot is None or store.flags[a_slot] & DELETED:
            violations.append(f"border {pid} anchored to absent point {anchor}")
        elif store.n_eps[a_slot] < tau:
            violations.append(f"border {pid} anchored to non-core {anchor}")
        elif math.dist(coords[i], store.coords[a_slot].tolist()) > eps:
            violations.append(
                f"border {pid} anchored to out-of-range core {anchor}"
            )

    violations.extend(_forest_cycles(state.cids._parent))

    if len(violations) > MAX_REPORTED:
        extra = len(violations) - MAX_REPORTED
        violations = violations[:MAX_REPORTED]
        violations.append(f"... and {extra} more violations")
    return violations


def _forest_cycles(parent: dict[int, int]) -> list[str]:
    """Detect cycles in a union-find parent map without mutating it."""
    verdict: dict[int, bool] = {}  # id -> participates in a cycle
    for start in parent:
        path = []
        node = start
        while node not in verdict and parent.get(node, node) != node:
            if node in path:
                loop = path[path.index(node):]
                for member in loop:
                    verdict[member] = True
                break
            path.append(node)
            node = parent[node]
        on_cycle = verdict.get(node, False)
        for member in path:
            verdict.setdefault(member, on_cycle)
    cycles = sorted(pid for pid, bad in verdict.items() if bad)
    if not cycles:
        return []
    return [f"cid forest contains a cycle through ids {cycles[:MAX_REPORTED]}"]


def rebuild(disc: DISC) -> DISC:
    """Re-cluster the current window from scratch with the same config.

    The fresh instance is DBSCAN-correct by construction. Cluster ids are
    freshly minted, so incremental lineage (event continuity) is lost — the
    documented price of recovering from a corrupted state.
    """
    fresh = DISC(
        disc.params.eps,
        disc.params.tau,
        index=disc.params.index,
        multi_starter=disc.multi_starter,
        epoch_probing=disc.epoch_probing,
    )
    store = disc.state.store
    slots = store.live_slots()
    slots = slots[(store.flags[slots] & DELETED) == 0]
    points = [
        StreamPoint(pid, tuple(row), time)
        for pid, row, time in zip(
            store.pid[slots].tolist(),
            store.coords[slots].tolist(),
            store.time[slots].tolist(),
        )
    ]
    fresh.advance(points, ())
    # Attached only after the bulk re-insert so the trace keeps its
    # one-record-per-stream-stride shape.
    fresh.tracer = disc.tracer
    return fresh
