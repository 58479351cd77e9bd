"""Configuration dataclasses shared by all clusterers and drivers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ClusteringParams:
    """The two DBSCAN-family thresholds, plus the chosen index substrate.

    Attributes:
        eps: distance threshold (the paper's epsilon). A point q is an
            epsilon-neighbour of p when ``math.dist(p, q) <= eps``
            (:func:`repro.common.distance.within_eps`).
        tau: density threshold (the paper's tau, a.k.a. MinPts). A point is a
            core when its epsilon-neighbourhood, *including itself*, holds at
            least ``tau`` points — matching COLLECT, which initialises
            ``n_eps(p) = 1`` on insertion.
        index: registry name of the spatial-index backend the clusterer
            should run on (see ``repro.index.registry``), or ``None`` to let
            the clusterer use its default (the R-tree) or an injected index
            instance of no registered class. DISC records the name of an
            injected instance's backend here. Recorded so a configuration
            round-trips the substrate choice alongside the thresholds.
    """

    eps: float
    tau: int
    index: str | None = None

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ConfigurationError(f"eps must be positive, got {self.eps}")
        if self.tau < 1:
            raise ConfigurationError(f"tau must be >= 1, got {self.tau}")
        if self.index is not None and (
            not isinstance(self.index, str) or not self.index
        ):
            raise ConfigurationError(
                f"index must be a backend name or None, got {self.index!r}"
            )


@dataclass(frozen=True)
class WindowSpec:
    """A sliding-window specification.

    Under the count-based model ``window`` and ``stride`` are numbers of data
    points; under the time-based model they are durations in the stream's
    timestamp unit. The clustering algorithms are agnostic to which model
    produced the per-stride deltas (Section II-B of the paper).
    """

    window: int
    stride: int

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if self.stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {self.stride}")
        if self.stride > self.window:
            raise ConfigurationError(
                f"stride ({self.stride}) must not exceed window ({self.window})"
            )

    @property
    def strides_per_window(self) -> int:
        """Number of whole strides fitting in one window (EXTRA-N's m)."""
        return self.window // self.stride

    @property
    def stride_ratio(self) -> float:
        """Stride as a fraction of the window (the x-axis of Figs. 4 and 7b)."""
        return self.stride / self.window
