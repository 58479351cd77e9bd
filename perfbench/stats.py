"""Pure measurement helpers: the percentile rule and open-loop latencies."""

from __future__ import annotations

#: A named percentile needs at least this many samples ranked beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def samples_beyond(n: int, q: int) -> int:
    """How many of ``n`` ranked samples lie beyond the ``q``-th percentile."""
    return n * (100 - q) // 100


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples rank beyond it: p50 needs 20 samples, p90 100, p99 1000.
    """
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q} needs at least {MIN_BEYOND} samples beyond it; "
            f"{n} samples give {samples_beyond(n, q)}"
        )
    return interpolate(sorted(values), q)


def interpolate(ordered, q: float) -> float:
    """Linearly interpolated percentile of an already sorted sequence."""
    h = (len(ordered) - 1) * q / 100.0
    lo = int(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)


def open_loop_latencies(due, arrivals) -> list[float]:
    """Latency of every open-loop request, timed from its scheduled send.

    ``due[i]`` is when request ``i`` was scheduled and ``arrivals[i]`` when
    its reply arrived (``None``: never). Timing from the schedule rather
    than the actual send counts the wait a stalled reply imposes on the
    requests queued behind it. A missing reply is an error, never a
    silently dropped sample.
    """
    if len(due) != len(arrivals):
        raise ValueError(f"{len(due)} requests but {len(arrivals)} replies")
    missing = [i for i, t in enumerate(arrivals) if t is None]
    if missing:
        raise ValueError(f"{len(missing)} replies missing, first at {missing[0]}")
    return [t - d for d, t in zip(due, arrivals)]


def schedule(start: float, count: int, interval: float) -> list[float]:
    """Due times of ``count`` evenly spaced open-loop sends."""
    return [start + i * interval for i in range(count)]
