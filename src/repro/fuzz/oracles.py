"""The oracle matrix: every way a generated stream can prove us wrong.

Each oracle is a pure function ``(scenario, backend) -> [OracleFailure]``
running the scenario through one registry backend and checking one
correctness contract:

- ``equivalence`` — DISC's incremental result per stride is equivalent to a
  fresh DBSCAN re-cluster of the window (the paper's Theorem 1, via
  :func:`repro.metrics.compare.assert_equivalent`). The reference always
  runs on the ``linear`` backend, so a backend that decides "within eps"
  differently from the others fails here;
- ``permutation`` — reordering points that share a timestamp (within one
  stride block, for count-based windows) never changes the clustering;
- ``classify`` — ad-hoc classification answers are invariant under the
  row order of the view's core columns (the tie-break contract of
  :meth:`repro.serve.session.SessionView.classify`), and classifying the
  coordinates of any point in the window answers noise exactly when that
  point is noise;
- ``checkpoint`` — kill the supervised run at sampled fault points
  (:func:`repro.runtime.chaos.enumerate_fault_points`), resume from the
  store, and every observable stride — and the final state — is
  byte-identical to the uninterrupted run;
- ``serve`` — an in-process :class:`~repro.serve.service.ClusterService`
  session over the same stream matches the offline run: final view,
  ``AS_OF(stride)`` at every retained stride, and ``AS_OF(time=t)``
  resolving by the at-or-before contract (exact stamps, duplicate stamps,
  midpoints, pre-floor errors).

Oracles never raise on a finding — they return failures so the harness can
shrink and archive them. Determinism: any sampling inside an oracle is
seeded from the scenario's own seed.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.baselines.dbscan import SlidingDBSCAN
from repro.common.config import WindowSpec
from repro.common.points import StreamPoint
from repro.common.snapshot import CATEGORY_NAMES, Clustering
from repro.core.disc import DISC
from repro.fuzz.scenarios import Scenario
from repro.metrics.compare import EquivalenceError, assert_equivalent
from repro.runtime.chaos import ChaosKill, ChaosMonkey, enumerate_fault_points
from repro.runtime.supervisor import Supervisor
from repro.serve.session import SessionView
from repro.window.sliding import materialize_slides

#: Checkpoint cadence used by the checkpoint and serve oracles — small, so
#: short scenarios still cross several checkpoint boundaries.
CHECKPOINT_EVERY = 2
#: Archive cadence of the serve oracle's tenant (sparse, so most AS_OF
#: answers exercise delta replay rather than a direct snapshot load).
ARCHIVE_EVERY = 3
#: Fault points sampled per scenario by the checkpoint oracle.
MAX_FAULT_POINTS = 6
#: Independent reshuffles tried by the permutation oracle.
PERMUTATION_ROUNDS = 2
#: Distinct stamps probed by the serve oracle's time-travel checks.
MAX_TIME_PROBES = 12
#: The backend every other backend's DISC is checked against.
REFERENCE_BACKEND = "linear"


@dataclass
class OracleFailure:
    """One refuted check: which oracle, where, and what went wrong."""

    oracle: str
    backend: str
    stride: int | None
    detail: str

    def describe(self) -> str:
        where = "" if self.stride is None else f" stride {self.stride}"
        return f"[{self.oracle}/{self.backend}{where}] {self.detail}"


def _spec(scenario: Scenario) -> WindowSpec:
    return WindowSpec(window=scenario.window, stride=scenario.stride)


def _membership(clustering: Clustering) -> dict[int, tuple[int, str]]:
    """Canonical per-point view: pid -> (label, category), noise as -1."""
    names = CATEGORY_NAMES[clustering.cat].tolist()
    return dict(zip(clustering.pid.tolist(), zip(clustering.label.tolist(), names)))


def _canon(clustering: Clustering) -> tuple[bytes, ...]:
    """Exact (not just equivalent) form, for byte-identity checks."""
    return tuple(c.tobytes() for c in (clustering.pid, clustering.label, clustering.cat))


def _slide(coords: dict, delta_in, delta_out) -> None:
    """Apply one stride's deltas to a ``pid -> coords`` window map."""
    for point in delta_out:
        coords.pop(point.pid, None)
    for point in delta_in:
        coords[point.pid] = tuple(point.coords)


def _diff(a: dict, b: dict, limit: int = 4) -> str:
    keys = sorted(set(a) | set(b))
    deltas = [
        f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in keys
        if a.get(key) != b.get(key)
    ]
    extra = f" (+{len(deltas) - limit} more)" if len(deltas) > limit else ""
    return "; ".join(deltas[:limit]) + extra


# ------------------------------------------------------------- equivalence


def oracle_equivalence(scenario: Scenario, backend: str) -> list[OracleFailure]:
    """DISC per stride ≡ fresh DBSCAN re-cluster of the same window.

    The DBSCAN reference runs on :data:`REFERENCE_BACKEND` whatever
    ``backend`` DISC runs on, so backends are checked against each other
    as well as against Theorem 1.
    """
    failures: list[OracleFailure] = []
    disc = DISC(scenario.eps, scenario.tau, index=backend)
    reference = SlidingDBSCAN(scenario.eps, scenario.tau, index=REFERENCE_BACKEND)
    coords: dict[int, tuple[float, ...]] = {}
    slides = materialize_slides(scenario.points, _spec(scenario), scenario.time_based)
    for stride, (delta_in, delta_out) in enumerate(slides):
        disc.advance(delta_in, delta_out)
        reference.advance(delta_in, delta_out)
        _slide(coords, delta_in, delta_out)
        try:
            assert_equivalent(
                disc.snapshot(), reference.snapshot(), coords, disc.params
            )
        except EquivalenceError as exc:
            failures.append(
                OracleFailure("equivalence", backend, stride, str(exc))
            )
            break  # downstream strides inherit the divergence
    return failures


# ------------------------------------------------------------- permutation


def _tie_runs(scenario: Scenario) -> list[list[int]]:
    """Index runs that may be legally reordered.

    Points sharing a timestamp are indistinguishable to a time-based
    window. Under a count-based window a point's arrival position also
    decides window membership, so a run must not straddle any position
    where some stride's window begins or ends. With ``window`` a multiple
    of ``stride`` those cuts are the stride boundaries — plus ``N -
    window``, the start of the final window when the stream ends on a
    partial batch (``finish`` then expires a partial prefix of the oldest
    block, so order inside that block is load-bearing).
    """
    tail_cut = len(scenario.points) - scenario.window
    runs: list[list[int]] = []
    current: list[int] = []
    for i, point in enumerate(scenario.points):
        same_time = current and scenario.points[current[-1]].time == point.time
        same_block = scenario.time_based or (
            current
            and current[-1] // scenario.stride == i // scenario.stride
            and (current[-1] < tail_cut) == (i < tail_cut)
        )
        if same_time and same_block:
            current.append(i)
        else:
            if len(current) > 1:
                runs.append(current)
            current = [i]
    if len(current) > 1:
        runs.append(current)
    return runs


def oracle_permutation(scenario: Scenario, backend: str) -> list[OracleFailure]:
    """Shuffling within-timestamp runs never changes any stride's result."""
    runs = _tie_runs(scenario)
    if not runs:
        return []
    spec = _spec(scenario)
    baseline: list[Clustering] = []
    coords_per_stride: list[dict[int, tuple[float, ...]]] = []
    disc = DISC(scenario.eps, scenario.tau, index=backend)
    coords: dict[int, tuple[float, ...]] = {}
    for delta_in, delta_out in materialize_slides(
        scenario.points, spec, scenario.time_based
    ):
        disc.advance(delta_in, delta_out)
        _slide(coords, delta_in, delta_out)
        baseline.append(disc.snapshot())
        coords_per_stride.append(dict(coords))

    rng = random.Random(scenario.seed ^ 0x5EED)
    failures: list[OracleFailure] = []
    for round_no in range(PERMUTATION_ROUNDS):
        order = list(range(len(scenario.points)))
        for run in runs:
            shuffled = list(run)
            rng.shuffle(shuffled)
            for slot, src in zip(run, shuffled):
                order[slot] = src
        permuted = [scenario.points[i] for i in order]
        other = DISC(scenario.eps, scenario.tau, index=backend)
        for stride, (delta_in, delta_out) in enumerate(
            materialize_slides(permuted, spec, scenario.time_based)
        ):
            other.advance(delta_in, delta_out)
            if stride >= len(baseline):
                failures.append(
                    OracleFailure(
                        "permutation",
                        backend,
                        stride,
                        f"round {round_no}: permuted stream closed stride "
                        f"{stride}, baseline only has {len(baseline)}",
                    )
                )
                return failures
            try:
                assert_equivalent(
                    baseline[stride],
                    other.snapshot(),
                    coords_per_stride[stride],
                    other.params,
                )
            except EquivalenceError as exc:
                failures.append(
                    OracleFailure(
                        "permutation",
                        backend,
                        stride,
                        f"round {round_no}: {exc}",
                    )
                )
                return failures
    return failures


# --------------------------------------------------------------- classify


def oracle_classify(scenario: Scenario, backend: str) -> list[OracleFailure]:
    """Ad-hoc classification is invariant to the row order of the core
    columns, and calls a window point's coordinates noise exactly when the
    point is noise."""
    disc = DISC(scenario.eps, scenario.tau, index=backend)
    rng = random.Random(scenario.seed ^ 0xC1A55)
    coords: dict[int, tuple[float, ...]] = {}
    for stride, (delta_in, delta_out) in enumerate(
        materialize_slides(scenario.points, _spec(scenario), scenario.time_based)
    ):
        disc.advance(delta_in, delta_out)
        _slide(coords, delta_in, delta_out)
        base = SessionView.from_state(stride, disc.snapshot(), disc.state)
        detail = _core_order_dependence(scenario, base, rng) or _noise_mismatch(
            base, coords
        )
        if detail:
            return [OracleFailure("classify", backend, stride, detail)]
    return []


def _core_order_dependence(scenario: Scenario, base: SessionView, rng) -> str:
    """The first probe whose answer changes with the core row order."""
    n_cores = len(base.core_pids)
    if n_cores < 2:
        return ""
    columns = (base.core_pids, base.core_coords, base.core_labels)
    shuffled = list(range(n_cores))
    rng.shuffle(shuffled)
    views = [base] + [
        SessionView(
            base.stride, base.clustering, base.eps, *(c[order] for c in columns)
        )
        for order in (slice(None, None, -1), shuffled)
    ]
    for probe in scenario.probes:
        answers = [view.classify(probe) for view in views]
        for answer in answers[1:]:
            if answer != answers[0]:
                return (
                    f"probe {probe}: core-order-dependent answer "
                    f"({_diff(answers[0], answer)})"
                )
    return ""


def _noise_mismatch(view: SessionView, coords: dict[int, tuple[float, ...]]) -> str:
    """The first window point that classify and the clustering disagree on
    being noise."""
    noise = Clustering.NOISE_ID
    for pid in sorted(coords):
        is_noise = view.clustering.label_of(pid) == noise
        if (view.classify(coords[pid])["label"] == noise) != is_noise:
            return (
                f"point {pid} at {coords[pid]} is "
                f"{'noise' if is_noise else 'clustered'}, but classify by "
                f"its coordinates says {'clustered' if is_noise else 'noise'}"
            )
    return ""


# -------------------------------------------------------------- checkpoint


def _drive(
    supervisor: Supervisor,
    points: list[StreamPoint],
    *,
    resume: bool | str = False,
    into: dict[int, tuple] | None = None,
) -> dict[int, tuple]:
    """Push the stream through; return ``{stride index: exact snapshot}``.

    A :class:`ChaosKill` mid-feed propagates — and loses that feed call's
    strides, exactly as a real crash would — but everything recorded before
    it survives in ``into`` when the caller passed one.
    """
    recorded: dict[int, tuple] = {} if into is None else into
    offset = supervisor.begin(resume=resume)
    for item in points[offset:]:
        base = supervisor.stride
        for i, (snapshot, _) in enumerate(supervisor.feed(item)):
            recorded[base + i] = _canon(snapshot)
    base = supervisor.stride
    for i, (snapshot, _) in enumerate(supervisor.finish()):
        recorded[base + i] = _canon(snapshot)
    return recorded


def oracle_checkpoint(scenario: Scenario, backend: str) -> list[OracleFailure]:
    """Kill/resume at sampled fault points reproduces the uninterrupted run."""
    failures: list[OracleFailure] = []

    def supervisor(store, hooks=None):
        return Supervisor(
            scenario.eps,
            scenario.tau,
            _spec(scenario),
            store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            index=backend,
            time_based=scenario.time_based,
            hooks=hooks,
        )

    with tempfile.TemporaryDirectory(prefix="fuzz-ckpt-") as tmp:
        baseline = _drive(supervisor(str(Path(tmp) / "base")), scenario.points)
    if not baseline:
        return []
    n_strides = max(baseline) + 1
    faults = enumerate_fault_points(n_strides, CHECKPOINT_EVERY)
    rng = random.Random(scenario.seed ^ 0xFA17)
    if len(faults) > MAX_FAULT_POINTS:
        faults = sorted(
            rng.sample(faults, MAX_FAULT_POINTS),
            key=lambda f: sorted(f.items()),
        )
    for fault in faults:
        label = ", ".join(f"{k}={v}" for k, v in sorted(fault.items()))
        with tempfile.TemporaryDirectory(prefix="fuzz-ckpt-") as tmp:
            recorded: dict[int, tuple] = {}
            survivor = supervisor(tmp, hooks=ChaosMonkey(**fault))
            try:
                # The monkey may never fire (fault site past the run's end);
                # the uninterrupted result must still match the baseline.
                _drive(survivor, scenario.points, into=recorded)
            except ChaosKill:
                survivor = supervisor(tmp)
                _drive(survivor, scenario.points, resume="auto", into=recorded)
            bad = [
                stride
                for stride, canon in recorded.items()
                if baseline.get(stride) != canon
            ]
            if bad:
                failures.append(
                    OracleFailure(
                        "checkpoint",
                        backend,
                        min(bad),
                        f"{label}: resumed stride diverges from baseline",
                    )
                )
                continue
            # Strides closed inside the crashing feed call are lost to both
            # runs (the checkpoint already covers them), so the end-state
            # contract is checked on the survivor's live snapshot.
            if _canon(survivor.snapshot()) != baseline[n_strides - 1]:
                failures.append(
                    OracleFailure(
                        "checkpoint",
                        backend,
                        n_strides - 1,
                        f"{label}: final resumed state diverges from the "
                        "uninterrupted run",
                    )
                )
    return failures


# ------------------------------------------------------------------- serve


def oracle_serve(scenario: Scenario, backend: str) -> list[OracleFailure]:
    """A served tenant over the same stream matches the offline run.

    Checks the final published view, ``AS_OF(k)`` for every retained
    stride, and ``AS_OF(time=t)`` against an independently computed
    at-or-before resolution over the journal stamps.
    """
    return asyncio.run(_serve_check(scenario, backend))


async def _serve_check(scenario: Scenario, backend: str) -> list[OracleFailure]:
    from repro.api import cluster_stream
    from repro.serve.config import SessionConfig
    from repro.serve.protocol import ServeError
    from repro.serve.service import ClusterService

    offline = [
        _membership(snapshot)
        for snapshot, _ in cluster_stream(
            scenario.points,
            _spec(scenario),
            scenario.eps,
            scenario.tau,
            time_based=scenario.time_based,
            index=backend,
        )
    ]
    failures: list[OracleFailure] = []
    with tempfile.TemporaryDirectory(prefix="fuzz-serve-") as tmp:
        service = ClusterService(data_dir=tmp)
        config = SessionConfig(
            eps=scenario.eps,
            tau=scenario.tau,
            window=scenario.window,
            stride=scenario.stride,
            time_based=scenario.time_based,
            index=backend,
            checkpoint_every=CHECKPOINT_EVERY,
            journal=True,
            archive_every=ARCHIVE_EVERY,
        )
        session = service.open("fuzz", config)
        try:
            await session.offer(scenario.points)
            await session.drain(flush_tail=True)
            if session.failed is not None:
                failures.append(
                    OracleFailure(
                        "serve", backend, None, f"session failed: {session.failed}"
                    )
                )
                return failures

            view = session.view
            if view.stride != len(offline) - 1:
                failures.append(
                    OracleFailure(
                        "serve",
                        backend,
                        view.stride,
                        f"served {view.stride + 1} strides, offline closed "
                        f"{len(offline)}",
                    )
                )
                return failures
            if offline and _membership(view.clustering) != offline[-1]:
                failures.append(
                    OracleFailure(
                        "serve",
                        backend,
                        view.stride,
                        "final served view != offline final state: "
                        + _diff(_membership(view.clustering), offline[-1]),
                    )
                )

            # AS_OF(stride) at every retained stride.
            for stride in range(len(offline)):
                try:
                    payload = session.as_of(stride=stride)
                except ServeError as exc:
                    failures.append(
                        OracleFailure(
                            "serve", backend, stride, f"AS_OF({stride}): {exc}"
                        )
                    )
                    break
                got = _payload_membership(payload)
                if got != offline[stride]:
                    failures.append(
                        OracleFailure(
                            "serve",
                            backend,
                            stride,
                            f"AS_OF({stride}) != offline state: "
                            + _diff(got, offline[stride]),
                        )
                    )
                    break

            failures.extend(_time_travel_check(scenario, backend, session, offline))
        finally:
            await service.shutdown()
    return failures


def _payload_membership(payload: dict) -> dict[int, tuple[int, str]]:
    """AS_OF wire payload -> the canonical per-point map (noise has no label)."""
    labels = payload["labels"]
    return {
        int(pid): (labels.get(pid, Clustering.NOISE_ID), cat)
        for pid, cat in payload["categories"].items()
    }


def _time_travel_check(
    scenario: Scenario, backend: str, session, offline: list[dict]
) -> list[OracleFailure]:
    """AS_OF(time=t) resolves by the at-or-before contract, independently."""
    from repro.serve.protocol import ServeError

    records, _head, _floor = session.events(0)
    stamps = [
        (record["stride"], record["time"])
        for record in records
        if record.get("time") is not None
    ]
    if not stamps:
        return []

    def expected_stride(t: float) -> int | None:
        best = None
        for stride, stamp in stamps:
            if stamp <= t:
                best = stride
        return best

    distinct = sorted({stamp for _, stamp in stamps})
    if len(distinct) > MAX_TIME_PROBES:
        rng = random.Random(scenario.seed ^ 0x7153)
        distinct = sorted(rng.sample(distinct, MAX_TIME_PROBES))
    queries = list(distinct)
    queries.extend(
        (a + b) / 2.0 for a, b in zip(distinct, distinct[1:]) if a != b
    )
    failures: list[OracleFailure] = []
    for t in queries:
        want = expected_stride(t)
        try:
            payload = session.as_of(time=t)
        except ServeError as exc:
            failures.append(
                OracleFailure(
                    "serve",
                    backend,
                    want,
                    f"AS_OF(time={t}) raised {exc} but stride {want} is "
                    "at-or-before it",
                )
            )
            return failures
        if payload["stride"] != want:
            failures.append(
                OracleFailure(
                    "serve",
                    backend,
                    want,
                    f"AS_OF(time={t}) resolved to stride {payload['stride']}, "
                    f"at-or-before contract says {want}",
                )
            )
            return failures
        got = _payload_membership(payload)
        if want is not None and want < len(offline) and got != offline[want]:
            failures.append(
                OracleFailure(
                    "serve",
                    backend,
                    want,
                    f"AS_OF(time={t}) state != offline stride {want}: "
                    + _diff(got, offline[want]),
                )
            )
            return failures
    # Pre-floor time must be a clean error, not a wrong answer.
    before = min(stamp for _, stamp in stamps) - 1.0
    try:
        payload = session.as_of(time=before)
    except ServeError:
        pass
    else:
        failures.append(
            OracleFailure(
                "serve",
                backend,
                None,
                f"AS_OF(time={before}) predates every stamp but answered "
                f"stride {payload['stride']}",
            )
        )
    return failures


#: Oracle registry: name -> callable(scenario, backend) -> [OracleFailure].
ORACLES: dict[str, Callable[[Scenario, str], list[OracleFailure]]] = {
    "equivalence": oracle_equivalence,
    "permutation": oracle_permutation,
    "classify": oracle_classify,
    "checkpoint": oracle_checkpoint,
    "serve": oracle_serve,
}
