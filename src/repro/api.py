"""High-level convenience API for the common streaming workflow.

Most users want exactly this loop: slice a stream by a sliding window, feed
each slide to DISC, and look at the snapshot per advance.
:func:`cluster_stream` packages it as a generator; :func:`cluster_static`
is the one-shot (no window) case.

When any resilience option is given — a checkpoint directory, ``resume``,
or an input-fault policy — :func:`cluster_stream` routes the run through
the :class:`~repro.runtime.supervisor.Supervisor` so crashes can be resumed
with byte-identical results and malformed input is handled by policy
instead of by luck. See ``docs/operations.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.common.config import WindowSpec
from repro.common.errors import ConfigurationError
from repro.common.points import StreamPoint
from repro.common.snapshot import Clustering
from repro.core.disc import DISC
from repro.core.events import StrideSummary
from repro.index.base import NeighborIndex
from repro.window.sliding import SlidingWindow


def cluster_stream(
    points: Iterable[StreamPoint],
    spec: WindowSpec,
    eps: float,
    tau: int,
    *,
    time_based: bool = False,
    clusterer=None,
    index: str | NeighborIndex | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 16,
    resume: bool | str = False,
    on_malformed: str | None = None,
    dead_letter=None,
    stats=None,
    hooks=None,
    tracer=None,
) -> Iterator[tuple[Clustering, StrideSummary]]:
    """Cluster a stream under a sliding window, yielding per-stride results.

    Args:
        points: the stream, in arrival order.
        spec: window/stride sizes (counts, or durations if ``time_based``).
        eps, tau: DBSCAN thresholds (ignored when ``clusterer`` is given).
        time_based: interpret the spec as durations over point timestamps.
        clusterer: optional pre-built clusterer to drive instead of DISC.
        index: spatial-index backend for the default DISC clusterer — a
            registry name (see ``repro.index.registry``) or a ready
            :class:`~repro.index.base.NeighborIndex`. Ignored when
            ``clusterer`` is given.
        checkpoint_dir: directory for durable checkpoints; enables the
            resilient runtime (requires ``index`` to be a name or None).
        checkpoint_every: strides between checkpoints.
        resume: ``True`` to restore the latest checkpoint from
            ``checkpoint_dir`` (error when none), ``"auto"`` to resume only
            when one exists. Pass the stream from the beginning — the
            runtime skips what the checkpoint already covers.
        on_malformed: input-fault policy, ``"strict"`` / ``"skip"`` /
            ``"clamp"`` (see ``repro.runtime.policies``). ``None`` keeps
            the legacy unguarded path unless checkpointing is requested.
        dead_letter: optional
            :class:`~repro.runtime.policies.DeadLetterSink`.
        stats: optional :class:`~repro.runtime.stats.RuntimeStats` to fill.
        hooks: optional :class:`~repro.runtime.chaos.RuntimeHooks`.
        tracer: optional :class:`~repro.observability.trace.Tracer`; when
            given, the driven DISC emits one stride trace per advance
            (incompatible with ``clusterer=``, which the caller instruments
            directly).

    Yields:
        ``(snapshot, summary)`` after every window advance.

    Example:
        >>> from repro.api import cluster_stream
        >>> from repro.common.config import WindowSpec
        >>> from repro.datasets.synthetic import blob_stream
        >>> stream = blob_stream(300, [(0.0, 0.0), (5.0, 5.0)], seed=1)
        >>> results = list(
        ...     cluster_stream(stream, WindowSpec(100, 50), eps=0.8, tau=4)
        ... )
        >>> len(results)
        6
        >>> results[-1][0].num_clusters
        2
    """
    resilient = (
        checkpoint_dir is not None
        or bool(resume)
        or on_malformed is not None
        or dead_letter is not None
        or stats is not None
        or hooks is not None
    )
    if clusterer is not None and tracer is not None:
        raise ConfigurationError(
            "tracer= instruments the DISC built here; attach a tracer to "
            "your own clusterer directly instead of passing both"
        )
    if resilient:
        if clusterer is not None:
            raise ConfigurationError(
                "the resilient runtime drives DISC itself; "
                "clusterer= cannot be combined with checkpoint/resume/"
                "on_malformed options"
            )
        if index is not None and not isinstance(index, str):
            raise ConfigurationError(
                "the resilient runtime needs a registry index name (or "
                f"None) so checkpoints can be restored; got {index!r}"
            )
        from repro.runtime.supervisor import Supervisor

        supervisor = Supervisor(
            eps,
            tau,
            spec,
            store=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            index=index,
            time_based=time_based,
            policy=on_malformed if on_malformed is not None else "strict",
            dead_letter=dead_letter,
            stats=stats,
            hooks=hooks,
            tracer=tracer,
        )
        yield from supervisor.run(points, resume=resume)
        return
    method = (
        clusterer
        if clusterer is not None
        else DISC(eps, tau, index=index, tracer=tracer)
    )
    for delta_in, delta_out in SlidingWindow(spec, time_based).slides(points):
        summary = method.advance(delta_in, delta_out)
        if summary is None:
            summary = StrideSummary(
                num_inserted=len(delta_in), num_deleted=len(delta_out)
            )
        yield method.snapshot(), summary


def cluster_static(
    points: Iterable[StreamPoint],
    eps: float,
    tau: int,
    *,
    index: str | NeighborIndex | None = None,
) -> Clustering:
    """One-shot DBSCAN clustering of a finite point set (no window).

    Args:
        points: the finite point set.
        eps, tau: DBSCAN thresholds.
        index: spatial-index backend (name or instance); defaults to the
            R-tree.

    Example:
        >>> from repro.api import cluster_static
        >>> from repro.datasets.synthetic import blob_stream
        >>> snap = cluster_static(
        ...     blob_stream(200, [(0.0, 0.0), (6.0, 6.0)], seed=2), 0.8, 4
        ... )
        >>> snap.num_clusters
        2
    """
    method = DISC(eps, tau, index=index)
    method.advance(list(points), ())
    return method.snapshot()
