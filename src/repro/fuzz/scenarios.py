"""Seeded generator of adversarial streams, and the case-file codec.

A :class:`Scenario` is one self-contained fuzz input: clustering
parameters, a window specification, the stream itself, and a handful of
ad-hoc *probe* coordinates for the classify oracle. Scenarios come from
:func:`generate_scenario`, which composes the stream features where past
PRs actually found their bugs:

- **timestamp ties** — runs of points sharing one stamp (permutation
  invariance, duplicate journal stamps for time travel);
- **exact-eps geometry** — pairs and chains spaced at exactly ``eps``,
  probing the ``<=`` boundary every backend must agree on;
- **eps edges** — off-grid pairs at ``eps`` on which a squared-sum test
  and ``math.dist`` disagree, so a backend, the served classify or a
  reference that decides "within eps" its own way splits from the rest;
- **burst / eviction cliffs** — a window-sized burst at one stamp that
  later expires in a single stride;
- **empty and singleton strides** — time gaps longer than the stride (one
  arriving point then closes *several* strides at once, all journaled
  under the same stamp);
- **pid reuse after expiry** — an id returns at new coordinates once its
  previous life has provably left the window;
- **merge/split chains** — bridges between blobs that arrive and expire,
  driving the evolution-event machinery.

Everything is drawn from a single ``random.Random(seed)``; coordinates
other than the eps edges' snap to a 0.25 grid so distances of symmetric
constructions are *exact* in binary floating point (an equidistant probe
really is equidistant).

The case-file format is JSONL: a header object (parameters, the failure
that produced the case) followed by one ``{"pid", "coords", "time"}``
object per stream point — the same point schema ``repro.datasets.io``
reads, so a case stream is easy to eyeball with ``jq``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.common.canonical import canonical_json
from repro.common.errors import ReproError
from repro.common.points import StreamPoint

CASE_FORMAT = 1

#: Feature names the generator can compose (header metadata + test hooks).
FEATURES = (
    "blob",
    "eps_chain",
    "bridge",
    "burst",
    "gap",
    "singleton",
    "pid_reuse",
    "eps_edge",
)

#: Candidate pairs drawn per eps edge before settling for one the two
#: tests agree on (in ``EDGE_BOX``, 1 in 80 to 1 in 230 disagrees).
EDGE_TRIES = 2000
#: Where eps edges start, as ``(x range, y range)``: right of every other
#: feature, whose points all stay on the 0.25 grid.
EDGE_BOX = ((40.0, 56.0), (4.0, 36.0))


class CaseError(ReproError):
    """A case file could not be parsed or round-tripped."""


@dataclass
class Scenario:
    """One fuzz input: parameters, stream, and classify probes."""

    name: str
    seed: int
    eps: float
    tau: int
    window: int
    stride: int
    time_based: bool
    points: list[StreamPoint] = field(default_factory=list)
    probes: list[tuple[float, ...]] = field(default_factory=list)
    features: list[str] = field(default_factory=list)

    def with_points(self, points: list[StreamPoint]) -> "Scenario":
        """A copy carrying ``points`` (the shrinker's edit primitive)."""
        return replace(self, points=list(points))

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.points)} points, "
            f"eps={self.eps} tau={self.tau} "
            f"window={self.window}/{self.stride}"
            f"{' time-based' if self.time_based else ''}, "
            f"features={'+'.join(self.features) or 'none'}"
        )


def _snap(value: float) -> float:
    """Snap to the 0.25 grid — exact in binary floating point."""
    return round(value * 4) / 4.0


def _edge_pair(rng: random.Random, eps: float):
    """An off-grid pair ``(p, q)`` at ``eps`` and the unit step from q to p.

    Drawn until ``math.dist(p, q) <= eps`` and the squared sum
    ``dx * dx + dy * dy <= eps * eps`` give different answers, so a
    backend deciding either way lands on the wrong side of the others.
    """
    for _ in range(EDGE_TRIES):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        step = (math.cos(angle), math.sin(angle))
        p = (rng.uniform(*EDGE_BOX[0]), rng.uniform(*EDGE_BOX[1]))
        q = (p[0] - eps * step[0], p[1] - eps * step[1])
        dx, dy = p[0] - q[0], p[1] - q[1]
        if (dx * dx + dy * dy <= eps * eps) != (math.dist(p, q) <= eps):
            break
    return p, q, step


class _StreamBuilder:
    """Tracks pids, timestamps, and provable expiry for safe composition."""

    def __init__(self, rng: random.Random, window: int, stride: int, time_based: bool):
        self.rng = rng
        self.window = window
        self.stride = stride
        self.time_based = time_based
        self.points: list[StreamPoint] = []
        self.now = 0.0
        self._next_pid = 0
        self._births: list[tuple[int, float, int]] = []  # (pid, time, index)

    def tick(self, steps: float = 1.0) -> None:
        self.now += steps

    def emit(self, coords: tuple[float, ...], *, tie: bool = False, reuse_pid: int | None = None) -> int:
        """Append one point; ``tie`` repeats the current stamp."""
        if not tie:
            self.tick()
        pid = reuse_pid if reuse_pid is not None else self._next_pid
        if reuse_pid is None:
            self._next_pid += 1
        self.points.append(StreamPoint(pid, tuple(coords), self.now))
        self._births.append((pid, self.now, len(self.points) - 1))
        return pid

    def expired_pid(self) -> int | None:
        """A pid provably out of the window (and out of any pending batch).

        Conservative on both window models: count-based, the point must be
        ``window + 2*stride`` arrivals in the past; time-based, its stamp
        must trail ``now`` by more than ``window + 2*stride``.
        """
        margin = self.window + 2 * self.stride
        live = {p.pid for p in self.points[-margin:]} if not self.time_based else None
        for pid, born, index in self._births:
            if self.time_based:
                if self.now - born > margin:
                    newest = max(b for q, b, _ in self._births if q == pid)
                    if self.now - newest > margin:
                        return pid
            else:
                if len(self.points) - index > margin and pid not in live:
                    return pid
        return None


def generate_scenario(seed: int, *, name: str | None = None) -> Scenario:
    """Compose one adversarial scenario, fully determined by ``seed``."""
    rng = random.Random(seed)
    eps = rng.choice((0.5, 0.75, 1.0))
    tau = rng.choice((2, 3, 3, 4))
    stride = rng.choice((3, 4, 5, 6))
    window = stride * rng.choice((3, 4, 5))
    time_based = rng.random() < 0.5
    builder = _StreamBuilder(rng, window, stride, time_based)
    features: list[str] = []
    probes: list[tuple[float, ...]] = []

    # Cluster centres live on a coarse grid, far enough apart that blobs
    # only interact through the bridges we build on purpose.
    centres = [
        (_snap(x), _snap(y))
        for x, y in rng.sample(
            [(cx * 8.0, cy * 8.0) for cx in range(1, 5) for cy in range(1, 5)], 4
        )
    ]

    def blob(centre, count, tie_run=0):
        for i in range(count):
            dx = _snap(rng.uniform(-eps / 2, eps / 2))
            dy = _snap(rng.uniform(-eps / 2, eps / 2))
            builder.emit((centre[0] + dx, centre[1] + dy), tie=(0 < i <= tie_run))

    episodes = rng.randint(8, 14)
    for _ in range(episodes):
        feature = rng.choice(FEATURES)
        if feature == "blob":
            centre = rng.choice(centres)
            blob(centre, rng.randint(tau + 1, tau + 4), tie_run=rng.randint(0, 3))
        elif feature == "eps_chain":
            # Points spaced at *exactly* eps: every hop sits on the <= eps
            # boundary, so core counts flip if any backend is off by one ulp.
            centre = rng.choice(centres)
            length = rng.randint(2, tau + 2)
            for i in range(length):
                builder.emit(
                    (centre[0] + i * eps, centre[1]), tie=rng.random() < 0.4
                )
            probes.append((centre[0] + length * eps, centre[1]))
        elif feature == "bridge":
            a, b = rng.sample(centres, 2)
            hops = max(
                2, int(max(abs(b[0] - a[0]), abs(b[1] - a[1])) / max(eps / 2, 0.25))
            )
            for i in range(1, hops):
                t = i / hops
                builder.emit(
                    (
                        _snap(a[0] + (b[0] - a[0]) * t),
                        _snap(a[1] + (b[1] - a[1]) * t),
                    ),
                    tie=rng.random() < 0.3,
                )
        elif feature == "burst":
            centre = rng.choice(centres)
            blob(centre, builder.window // 2, tie_run=builder.window // 2)
        elif feature == "gap":
            builder.tick(builder.window + 2 * builder.stride)
        elif feature == "singleton":
            builder.tick(builder.stride + 1)
            builder.emit((_snap(rng.uniform(30, 38)), _snap(rng.uniform(30, 38))))
            builder.tick(builder.stride + 1)
        elif feature == "eps_edge":
            # p gets tau - 1 neighbours on the far side from q, so it is a
            # core whatever q does; q is then p's border or noise,
            # depending only on how "within eps" is decided.
            p, q, step = _edge_pair(rng, eps)
            builder.emit(p)
            for k in range(1, tau):
                builder.emit(
                    (p[0] + k * eps / 8 * step[0], p[1] + k * eps / 8 * step[1]),
                    tie=rng.random() < 0.3,
                )
            builder.emit(q, tie=rng.random() < 0.3)
        elif feature == "pid_reuse":
            pid = builder.expired_pid()
            centre = rng.choice(centres)
            builder.emit(
                (centre[0] + _snap(rng.uniform(-1, 1)), centre[1]),
                reuse_pid=pid,
            )
            if pid is None:
                continue  # nothing expired yet; emitted as a fresh pid anyway
        if feature in FEATURES and feature not in features:
            features.append(feature)

    # Classify probes: exact midpoints between centre pairs (equidistant
    # cores — the tie-break trap), plus one far-away noise probe.
    for a, b in zip(centres, centres[1:]):
        probes.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
    probes.append((200.0, 200.0))

    return Scenario(
        name=name or f"seed-{seed}",
        seed=seed,
        eps=eps,
        tau=tau,
        window=window,
        stride=stride,
        time_based=time_based,
        points=builder.points,
        probes=probes,
        features=features,
    )


def scenarios_from_seed(seed: int, count: int) -> list[Scenario]:
    """``count`` scenarios derived from one master seed (stable sub-seeds)."""
    return [
        generate_scenario(seed * 1_000 + i, name=f"seed-{seed}.{i}")
        for i in range(count)
    ]


# ------------------------------------------------------------------ case IO


def save_case(path: str | Path, scenario: Scenario, meta: dict | None = None) -> Path:
    """Write a replayable JSONL case file (header line + one point per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "case": CASE_FORMAT,
        "name": scenario.name,
        "seed": scenario.seed,
        "eps": scenario.eps,
        "tau": scenario.tau,
        "window": scenario.window,
        "stride": scenario.stride,
        "time_based": scenario.time_based,
        "probes": [list(p) for p in scenario.probes],
        "features": list(scenario.features),
    }
    if meta:
        header["meta"] = meta
    rows = [header] + [
        {"pid": point.pid, "coords": list(point.coords), "time": point.time}
        for point in scenario.points
    ]
    path.write_bytes(b"".join(canonical_json(row) + b"\n" for row in rows))
    return path


def load_case(path: str | Path) -> tuple[Scenario, dict]:
    """Read a case file back into ``(scenario, meta)``."""
    path = Path(path)
    try:
        lines = [
            line for line in path.read_text(encoding="utf-8").splitlines() if line
        ]
        header = json.loads(lines[0])
    except (OSError, ValueError, IndexError) as exc:
        raise CaseError(f"unreadable case file {path}: {exc}") from exc
    if header.get("case") != CASE_FORMAT:
        raise CaseError(
            f"{path} is not a fuzz case file (header {header.get('case')!r})"
        )
    try:
        points = []
        for line in lines[1:]:
            row = json.loads(line)
            points.append(
                StreamPoint(
                    int(row["pid"]),
                    tuple(float(c) for c in row["coords"]),
                    float(row.get("time", 0.0)),
                )
            )
        scenario = Scenario(
            name=str(header.get("name", path.stem)),
            seed=int(header.get("seed", 0)),
            eps=float(header["eps"]),
            tau=int(header["tau"]),
            window=int(header["window"]),
            stride=int(header["stride"]),
            time_based=bool(header.get("time_based", False)),
            points=points,
            probes=[tuple(p) for p in header.get("probes", [])],
            features=list(header.get("features", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CaseError(f"malformed case file {path}: {exc}") from exc
    return scenario, dict(header.get("meta", {}))
