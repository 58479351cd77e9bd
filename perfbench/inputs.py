"""The benchmark job's input stream, made from ``--seed``.

The DTG city (its roads and congestion hotspots) comes from a fixed layout
seed, because the layout alone moves the cost of a stride by tens of
percent from one city to the next. ``--seed`` then picks one of the eight
symmetries of the square city, which map roads onto roads, and shuffles
the points inside every stride. Different seeds thus give different
streams whose strides hold the same amount of work, and runs with
different seeds can be compared.
"""

from __future__ import annotations

import random


def _symmetry(index: int, size: float):
    """One of the eight maps of ``[0, size]^2`` onto itself."""
    swap, flip_x, flip_y = index & 4, index & 2, index & 1

    def apply(coords):
        x, y = coords
        if swap:
            x, y = y, x
        return (size - x if flip_x else x, size - y if flip_y else y)

    return apply


def job_stream(job: dict, n_points: int, seed: int) -> list:
    """``n_points`` stream points of the benchmark job for ``seed``."""
    from repro.common.points import StreamPoint
    from repro.datasets.dtg import dtg_stream

    points = dtg_stream(n_points, seed=job["layout_seed"], city_size=job["city_size"])
    rng = random.Random(seed)
    move = _symmetry(seed % 8, job["city_size"])
    stride = job["stride"]
    for lo in range(0, n_points, stride):
        block = [p.coords for p in points[lo : lo + stride]]
        rng.shuffle(block)
        for pid, coords in enumerate(block, start=lo):
            points[pid] = StreamPoint(pid, move(coords), float(pid))
    return points
