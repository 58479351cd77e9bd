"""The resilient driver: checkpointed, fault-policed stream clustering.

A :class:`Supervisor` owns one logical streaming run end to end: it vets
every incoming record through an :class:`~repro.runtime.policies.InputGuard`,
slices the admitted points with a checkpointable
:class:`~repro.window.sliding.WindowCursor`, advances a
:class:`~repro.core.disc.DISC` per stride, and every ``checkpoint_every``
strides persists the *complete* run state — clusterer, window cursor, guard
watermark, counters, and the stream offset — through a durable
:class:`~repro.runtime.store.CheckpointStore`.

The stride is the transaction boundary (the paper's Algorithms 1–2 make a
window advance atomic), so recovery is exact: on resume the supervisor
restores the last checkpoint, skips the ``stream_offset`` records the
checkpoint already accounts for, and replays only the partial stride that
was in flight when the process died. The resumed run's snapshots are
byte-identical to an uninterrupted run over the same stream — the property
``tests/test_runtime_recovery.py`` proves at every stride boundary on every
registered index backend.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Iterable, Iterator

from repro.common.config import WindowSpec
from repro.common.errors import ConfigurationError
from repro.common.points import StreamPoint
from repro.common.snapshot import Clustering
from repro.core import checkpoint as core_checkpoint
from repro.core.checkpoint import CheckpointError
from repro.core.disc import DISC
from repro.core.events import StrideSummary
from repro.datasets.io import MalformedRecord
from repro.runtime.chaos import RuntimeHooks
from repro.runtime.invariants import check_state, rebuild
from repro.runtime.policies import DeadLetterSink, FaultPolicy, InputGuard
from repro.runtime.stats import RuntimeStats
from repro.runtime.store import CheckpointStore

logger = logging.getLogger("repro.runtime")

PAYLOAD_VERSION = 1


class Supervisor:
    """Checkpointing, fault-tolerant driver for a DISC streaming run.

    Args:
        eps, tau: DBSCAN thresholds.
        spec: window/stride sizes.
        store: a :class:`CheckpointStore`, a directory path to create one
            in, or ``None`` to run without durability.
        checkpoint_every: strides between checkpoints (>= 1).
        index: spatial-index backend *name* from the registry (or ``None``
            for the default). Instances are rejected when a store is
            configured — a checkpoint must be able to name its backend.
        multi_starter, epoch_probing: DISC ablation knobs.
        time_based: interpret ``spec`` as durations over timestamps.
        policy: input-fault policy (``strict`` / ``skip`` / ``clamp``).
        dead_letter: sink for rejected records (default: in-memory).
        stats: counters object to use; a fresh one is created when omitted.
        hooks: :class:`~repro.runtime.chaos.RuntimeHooks` for observation
            or fault injection.
        tracer: optional :class:`~repro.observability.trace.Tracer`; the
            supervised DISC emits one stride trace per advance, across fresh
            starts and checkpoint restores alike. Tracer state is *not*
            checkpointed — a resumed run's trace starts at stride 0 of the
            resumed process.
        check_invariants: after every stride, verify n_eps consistency,
            anchor validity and cid-forest acyclicity; on violation log a
            warning and degrade to a full re-cluster of the window instead
            of carrying corrupted state forward. Debug-mode: it makes every
            stride cost a full pass over the window.
    """

    def __init__(
        self,
        eps: float,
        tau: int,
        spec: WindowSpec,
        *,
        store: CheckpointStore | str | None = None,
        checkpoint_every: int = 16,
        index: str | None = None,
        multi_starter: bool = True,
        epoch_probing: bool = True,
        time_based: bool = False,
        policy: FaultPolicy | str = FaultPolicy.STRICT,
        dead_letter: DeadLetterSink | None = None,
        stats: RuntimeStats | None = None,
        hooks: RuntimeHooks | None = None,
        check_invariants: bool = False,
        tracer=None,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if store is not None and index is not None and not isinstance(index, str):
            raise ConfigurationError(
                "a checkpointed run needs a registry index *name* (or None); "
                f"got {index!r} — instances cannot be restored from disk"
            )
        self.eps = eps
        self.tau = tau
        self.spec = spec
        self.store = (
            CheckpointStore(store) if isinstance(store, (str,)) or hasattr(store, "__fspath__")
            else store
        )
        self.checkpoint_every = checkpoint_every
        self.index = index
        self.multi_starter = multi_starter
        self.epoch_probing = epoch_probing
        self.time_based = time_based
        self.stats = stats if stats is not None else RuntimeStats()
        self.dead_letter = dead_letter if dead_letter is not None else DeadLetterSink()
        self.guard = InputGuard(policy, self.stats, self.dead_letter)
        self.hooks = hooks if hooks is not None else RuntimeHooks()
        self.check_invariants = check_invariants
        self.tracer = tracer

        self.clusterer: DISC | None = None
        self.stride = 0  # next stride index to process
        self._cursor = None  # WindowCursor once begin() has run
        self._since_checkpoint = 0

    # -------------------------------------------------------------- lifecycle

    def begin(self, *, resume: bool | str = False) -> int:
        """Initialise (or restore) the run; return the stream offset to skip.

        This is the push-style entry point: after ``begin`` the caller feeds
        raw stream items one at a time through :meth:`feed` and flushes the
        tail with :meth:`finish`. :meth:`run` is the pull-style wrapper over
        exactly these three calls, so both driving styles produce
        byte-identical stride sequences.

        Args:
            resume: ``False`` starts fresh; ``True`` restores the latest
                checkpoint (raising :class:`CheckpointError` when there is
                none); ``"auto"`` resumes when a checkpoint exists and
                starts fresh otherwise.

        Returns:
            The number of leading raw stream items the restored checkpoint
            already accounts for — the caller must skip (or not re-send)
            that prefix. ``0`` on a fresh start.
        """
        from repro.window.sliding import WindowCursor

        if resume:
            restored = self._try_restore(
                required=resume is not False and resume != "auto"
            )
        else:
            restored = None
        if restored is not None:
            self._cursor, stream_offset = restored
        else:
            self.clusterer = DISC(
                self.eps,
                self.tau,
                index=self.index,
                multi_starter=self.multi_starter,
                epoch_probing=self.epoch_probing,
                tracer=self.tracer,
            )
            self._cursor = WindowCursor(self.spec, self.time_based)
            self.stride = 0
            stream_offset = 0
        self._since_checkpoint = 0
        return stream_offset

    def feed(
        self, item: StreamPoint | MalformedRecord
    ) -> list[tuple[Clustering, StrideSummary]]:
        """Push one raw stream item; return the stride results it closed.

        Most items close no stride (empty list); an item that completes one
        or more slides returns one ``(snapshot, summary)`` pair per advance.
        Periodic checkpointing happens here, after the closing strides, so
        the push path checkpoints at exactly the same boundaries as
        :meth:`run`. It runs :meth:`steps` to the end.
        """
        results: list[tuple[Clustering, StrideSummary]] = []
        for step in self.steps(item):
            if step:
                results = step
        return results

    def steps(
        self, item: StreamPoint | MalformedRecord
    ) -> Iterator[list[tuple[Clustering, StrideSummary]]]:
        """:meth:`feed` one item as a generator of steps a caller may pause
        between.

        An item that closes no stride yields nothing. One that closes a
        stride yields twice: ``[]`` once the guard admitted it and the
        cursor sliced it, before any stride runs; then the closed strides'
        results, after their ``after_stride`` hooks. A due checkpoint runs
        when the generator is resumed past that, in one piece, and ends it.
        """
        if self._cursor is None:
            raise ConfigurationError("call begin() before feed()")
        point = self.guard.admit(item)
        if point is None:
            return
        slides = self._cursor.feed(point)
        if not slides:
            return
        yield []
        results = [self._advance(di, do) for di, do in slides]
        self._since_checkpoint += len(slides)
        yield results
        if self._since_checkpoint >= self.checkpoint_every:
            self._checkpoint(self._cursor)
            self._since_checkpoint = 0

    def finish(self) -> list[tuple[Clustering, StrideSummary]]:
        """Flush the trailing partial batch and take the closing checkpoint."""
        if self._cursor is None:
            raise ConfigurationError("call begin() before finish()")
        tail = self._cursor.finish()
        results = []
        if tail is not None:
            results.append(self._advance(*tail))
            self._since_checkpoint += 1
        if self.store is not None and self._since_checkpoint:
            self._checkpoint(self._cursor)
            self._since_checkpoint = 0
        return results

    def final_checkpoint(self):
        """Unconditionally persist the current run state; return the path.

        Unlike the periodic checkpoints inside :meth:`feed`, this captures
        the state *right now* — including a partially filled batch — so a
        serving layer can drain a session (stop admitting, flush its queue)
        and then make the drain durable. A run resumed from this checkpoint
        replays zero points: the stored ``stream_offset`` covers every item
        the guard has seen. No-op (returns ``None``) without a store or
        before any stream has been started.
        """
        if self.store is None or self._cursor is None or self.clusterer is None:
            return None
        path = self._checkpoint(self._cursor)
        self._since_checkpoint = 0
        return path

    def run(
        self,
        points: Iterable[StreamPoint | MalformedRecord],
        *,
        resume: bool | str = False,
    ) -> Iterator[tuple[Clustering, StrideSummary]]:
        """Drive the stream, yielding ``(snapshot, summary)`` per stride.

        Args:
            points: the raw stream *from the beginning* — on resume the
                supervisor skips the prefix its checkpoint already covers,
                so the caller re-supplies the same source and only the
                partial stride in flight at the crash is replayed.
            resume: ``False`` starts fresh; ``True`` restores the latest
                checkpoint (raising :class:`CheckpointError` when there is
                none); ``"auto"`` resumes when a checkpoint exists and
                starts fresh otherwise.
        """
        stream_offset = self.begin(resume=resume)
        if stream_offset:
            points = itertools.islice(iter(points), stream_offset, None)
        for item in points:
            yield from self.feed(item)
        yield from self.finish()

    def snapshot(self) -> Clustering:
        """Current clustering of the supervised run."""
        if self.clusterer is None:
            raise ConfigurationError("supervisor has not processed any stream yet")
        return self.clusterer.snapshot()

    # -------------------------------------------------------------- internals

    def _advance(
        self,
        delta_in: list[StreamPoint],
        delta_out: list[StreamPoint],
    ) -> tuple[Clustering, StrideSummary]:
        self.hooks.before_stride(self.stride)
        summary = self.clusterer.advance(delta_in, delta_out)
        if summary is None:  # pragma: no cover - DISC always returns one
            summary = StrideSummary(
                num_inserted=len(delta_in), num_deleted=len(delta_out)
            )
        self.stride += 1
        self.stats.strides += 1
        if self.check_invariants:
            self._verify_or_rebuild()
        # One snapshot per stride, shared by the hooks and the caller.
        clustering = self.clusterer.snapshot()
        self.hooks.after_stride(self.stride - 1, summary, clustering)
        return clustering, summary

    def _verify_or_rebuild(self) -> None:
        violations = check_state(self.clusterer)
        if not violations:
            return
        self.stats.invariant_failures += 1
        self.stats.rebuilds += 1
        logger.warning(
            "stride %d: DISC state failed invariant checks (%s); "
            "degrading to a full re-cluster of the current window",
            self.stride - 1,
            "; ".join(violations),
        )
        self.clusterer = rebuild(self.clusterer)

    def _checkpoint(self, cursor):
        if self.store is None:
            return None
        payload = {
            "payload_version": PAYLOAD_VERSION,
            "stride": self.stride,
            "stream_offset": self.stats.points_seen,
            "time_based": self.time_based,
            "disc": core_checkpoint.to_checkpoint(self.clusterer),
            "cursor": cursor.export_state(),
            "guard": self.guard.export_state(),
            "stats": self.stats.as_dict(),
        }
        self.hooks.before_checkpoint(self.stride)
        path = self.store.save(self.stride, payload)
        self.stats.checkpoints_written += 1
        self.hooks.after_checkpoint(self.stride, path)
        return path

    def _try_restore(self, required: bool):
        """Restore from the latest checkpoint; return (cursor, offset) or None."""
        from repro.window.sliding import WindowCursor

        if self.store is None:
            raise ConfigurationError("cannot resume: no checkpoint store configured")
        try:
            stride, payload = self.store.latest()
        except CheckpointError:
            if required:
                raise
            return None
        version = payload.get("payload_version")
        if version != PAYLOAD_VERSION:
            raise CheckpointError(
                f"unsupported runtime checkpoint payload version {version!r}"
            )
        try:
            self.clusterer = core_checkpoint.from_checkpoint(payload["disc"])
            # The checkpoint does not carry tracer state; re-attach ours so
            # a resumed run keeps emitting.
            self.clusterer.tracer = self.tracer
            cursor = WindowCursor.from_state(payload["cursor"])
            self.guard.restore_state(payload["guard"])
            self.stats.restore(payload["stats"])
            stream_offset = int(payload["stream_offset"])
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed runtime checkpoint: {exc}") from exc
        self.stride = int(payload["stride"])
        if stride != self.stride:  # pragma: no cover - store/payload skew
            raise CheckpointError(
                f"checkpoint stride mismatch: file says {stride}, "
                f"payload says {self.stride}"
            )
        self.stats.resumes += 1
        self.stats.resumed_at_stride = self.stride
        logger.info(
            "resumed from checkpoint at stride %d (stream offset %d)",
            self.stride,
            stream_offset,
        )
        return cursor, stream_offset
