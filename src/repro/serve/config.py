"""Per-tenant session configuration for the serving layer.

A :class:`SessionConfig` is everything needed to (re)build one tenant's
pipeline: the clustering thresholds, the window specification, the index
backend *name* (instances cannot be resumed from disk), the input-fault
policy, and the ingest-side admission controls. It round-trips through JSON
(:meth:`SessionConfig.as_dict` / :meth:`SessionConfig.from_dict`) because the
service persists it next to the tenant's checkpoints so a restarted server
can resurrect every session without the client re-sending its ``OPEN``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.common.errors import ConfigurationError
from repro.index.registry import check_backend
from repro.runtime.wal import FSYNC_POLICIES

#: Admission-control policies applied when producers outrun the stride loop.
#:
#: - ``block``: the ``INGEST`` reply is withheld until queue space frees up —
#:   classic backpressure propagated to the producer over TCP.
#: - ``shed-oldest``: the oldest queued (not yet clustered) point is dropped
#:   to make room; the reply reports how many were shed.
#: - ``reject``: new points are refused while the queue is full; the reply
#:   reports how many were rejected so the producer can retry.
BACKPRESSURE_POLICIES = ("block", "shed-oldest", "reject")


@dataclass(frozen=True)
class SessionConfig:
    """Everything defining one tenant's pipeline and admission behaviour.

    Args:
        eps, tau: DBSCAN thresholds.
        window, stride: sliding-window sizes (counts, or durations when
            ``time_based``).
        time_based: interpret the window spec as durations over timestamps.
        index: spatial-index backend name from the registry, or ``None``
            for the default.
        on_malformed: input-fault policy (``strict`` / ``skip`` / ``clamp``).
        backpressure: one of :data:`BACKPRESSURE_POLICIES`.
        queue_limit: bounded ingest-queue capacity (points).
        checkpoint_every: strides between durable checkpoints.
        wal: journal every admitted item to a per-tenant write-ahead log
            before acknowledging it (requires the ``block`` policy — the
            shedding policies drop items *after* the ack, so the journal
            could not mirror the fed sequence).
        wal_fsync: WAL durability policy
            (:data:`repro.runtime.wal.FSYNC_POLICIES`).
        wal_fsync_every: records per fsync under ``every_n``.
        wal_fsync_interval_s: seconds between fsyncs under ``interval``.
        wal_segment_bytes: WAL segment rotation threshold.
        journal: record every stride's evolution events + membership delta
            to a per-tenant CDC journal (the feed behind ``SUBSCRIBE`` /
            ``EVENTS``). Works under any backpressure policy — it journals
            *derived* strides, not admissions.
        journal_fsync: journal durability policy
            (:data:`repro.runtime.wal.FSYNC_POLICIES`). Under ``always``
            a stride's events are durable before its ingest ack leaves.
        journal_segment_bytes: journal segment rotation threshold.
        journal_retention: strides of CDC history to retain (``0`` =
            unbounded). Compaction runs at checkpoint boundaries and never
            cuts history an archive snapshot still needs for delta replay.
        archive_every: strides between full membership snapshots for
            ``AS_OF`` time travel (``0`` disables; requires ``journal``).
    """

    eps: float
    tau: int
    window: int
    stride: int
    time_based: bool = False
    index: str | None = None
    on_malformed: str = "strict"
    backpressure: str = "block"
    queue_limit: int = 2048
    checkpoint_every: int = 16
    wal: bool = False
    wal_fsync: str = "always"
    wal_fsync_every: int = 64
    wal_fsync_interval_s: float = 0.05
    wal_segment_bytes: int = 4 * 1024 * 1024
    journal: bool = False
    journal_fsync: str = "always"
    journal_segment_bytes: int = 1 * 1024 * 1024
    journal_retention: int = 0
    archive_every: int = 0

    def __post_init__(self) -> None:
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"unknown backpressure policy {self.backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        if self.on_malformed not in ("strict", "skip", "clamp"):
            raise ConfigurationError(
                f"unknown input-fault policy {self.on_malformed!r}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.index is not None:
            if not isinstance(self.index, str):
                raise ConfigurationError(
                    "a served session needs a registry index *name* (or None) "
                    f"so checkpoints can be restored; got {self.index!r}"
                )
            check_backend(self.index)
        if self.wal_fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown WAL fsync policy {self.wal_fsync!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if self.wal_fsync_every < 1:
            raise ConfigurationError(
                f"wal_fsync_every must be >= 1, got {self.wal_fsync_every}"
            )
        if self.wal_segment_bytes < 1:
            raise ConfigurationError(
                f"wal_segment_bytes must be >= 1, got {self.wal_segment_bytes}"
            )
        if self.wal and self.backpressure != "block":
            raise ConfigurationError(
                "the write-ahead log requires the 'block' backpressure "
                "policy: shed-oldest/reject drop items after they were "
                f"acknowledged, so a journal under {self.backpressure!r} "
                "could not guarantee ACK => durable (see docs/serving.md)"
            )
        if self.journal_fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown journal fsync policy {self.journal_fsync!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if self.journal_segment_bytes < 1:
            raise ConfigurationError(
                "journal_segment_bytes must be >= 1, "
                f"got {self.journal_segment_bytes}"
            )
        if self.journal_retention < 0:
            raise ConfigurationError(
                f"journal_retention must be >= 0, got {self.journal_retention}"
            )
        if self.archive_every < 0:
            raise ConfigurationError(
                f"archive_every must be >= 0, got {self.archive_every}"
            )
        if self.archive_every > 0 and not self.journal:
            raise ConfigurationError(
                "archive_every requires the evolution journal: AS_OF "
                "answers replay journal deltas between snapshots"
            )

    def as_dict(self) -> dict:
        """JSON-friendly form (session metadata / ``OPEN`` payload)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionConfig":
        """Rebuild a config from :meth:`as_dict` output; validates fields."""
        try:
            return cls(
                eps=float(payload["eps"]),
                tau=int(payload["tau"]),
                window=int(payload["window"]),
                stride=int(payload["stride"]),
                time_based=bool(payload.get("time_based", False)),
                index=payload.get("index"),
                on_malformed=str(payload.get("on_malformed", "strict")),
                backpressure=str(payload.get("backpressure", "block")),
                queue_limit=int(payload.get("queue_limit", 2048)),
                checkpoint_every=int(payload.get("checkpoint_every", 16)),
                wal=bool(payload.get("wal", False)),
                wal_fsync=str(payload.get("wal_fsync", "always")),
                wal_fsync_every=int(payload.get("wal_fsync_every", 64)),
                wal_fsync_interval_s=float(
                    payload.get("wal_fsync_interval_s", 0.05)
                ),
                wal_segment_bytes=int(
                    payload.get("wal_segment_bytes", 4 * 1024 * 1024)
                ),
                journal=bool(payload.get("journal", False)),
                journal_fsync=str(payload.get("journal_fsync", "always")),
                journal_segment_bytes=int(
                    payload.get("journal_segment_bytes", 1 * 1024 * 1024)
                ),
                journal_retention=int(payload.get("journal_retention", 0)),
                archive_every=int(payload.get("archive_every", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed session config: {exc}") from exc
