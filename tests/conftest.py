"""Shared test fixtures and stream-building helpers."""

from __future__ import annotations

import random

import pytest

from repro.common.config import ClusteringParams, WindowSpec
from repro.common.points import StreamPoint
from repro.index import GridIndex, available_indexes

#: Every index DISC is held exact on, by test id: the registry's backends by
#: name, and ``grid``, the grid baselines' ``GridIndex``, handed to DISC as an
#: instance. It is the one index here with neither epochs nor ids-only
#: queries of its own, so DISC probes it through the base-class fallbacks.
DISC_INDEXES = (*available_indexes(), "grid")


def disc_index(name: str, eps: float):
    """DISC's ``index=`` argument for a :data:`DISC_INDEXES` id."""
    return GridIndex(eps) if name == "grid" else name


def clustered_stream(
    seed: int,
    n_points: int,
    *,
    dim: int = 2,
    centers=((0.0, 0.0), (3.0, 3.0), (6.0, 0.0), (3.0, -3.0)),
    spread: float = 0.5,
    noise_fraction: float = 0.2,
    start_id: int = 0,
) -> list[StreamPoint]:
    """Deterministic blob-plus-noise stream used across the test suite."""
    rng = random.Random(seed)
    points = []
    for i in range(n_points):
        if rng.random() < noise_fraction:
            coords = tuple(rng.uniform(-2.0, 8.0) for _ in range(dim))
        else:
            center = rng.choice(centers)
            coords = tuple(
                (center[d] if d < len(center) else 0.0) + rng.gauss(0.0, spread)
                for d in range(dim)
            )
        pid = start_id + i
        points.append(StreamPoint(pid, coords, float(pid)))
    return points


def churn_with_noise(seed: int, n: int) -> list[StreamPoint]:
    """Three tight blobs on a line under 30% uniform noise."""
    rng = random.Random(seed)
    points = []
    for i in range(n):
        if rng.random() < 0.3:
            coords = (rng.uniform(-2.0, 8.0), rng.uniform(-2.0, 8.0))
        else:
            cx = rng.choice([0.0, 3.0, 6.0])
            coords = (cx + rng.gauss(0, 0.4), rng.gauss(0, 0.4))
        points.append(StreamPoint(i, coords, float(i)))
    return points


def point_field(state, name: str, pid: int):
    """``state.store.<name>`` at ``pid``'s row, as a plain Python value."""
    store = state.store
    return getattr(store, name)[store.slot_of(pid)].tolist()


def run_windowed(
    methods, points, spec: WindowSpec, checker=None, *, time_based: bool = False
):
    """Feed ``points`` through ``spec`` into every method in lockstep.

    ``checker(window_points)`` is invoked after every slide with the live
    window contents, letting tests compare the methods stride by stride.
    """
    from repro.window.sliding import SlidingWindow

    window: list[StreamPoint] = []
    for delta_in, delta_out in SlidingWindow(spec, time_based).slides(points):
        window.extend(delta_in)
        out_ids = {sp.pid for sp in delta_out}
        window = [sp for sp in window if sp.pid not in out_ids]
        for method in methods:
            method.advance(delta_in, delta_out)
        if checker is not None:
            checker(window)


@pytest.fixture
def params() -> ClusteringParams:
    return ClusteringParams(eps=0.7, tau=4)


@pytest.fixture
def spec() -> WindowSpec:
    return WindowSpec(window=100, stride=25)
