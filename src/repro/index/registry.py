"""String-keyed registry of spatial-index backends.

Every layer that used to hard-code an index class — ``DISC``, the baselines,
the CLI, the substrate benches — now resolves backends through this module,
so adding a backend (a sharded grid, an ANN wrapper) is one
:func:`register_index` call away from being selectable everywhere.

A factory receives the keyword arguments ``eps``, ``dim`` and ``stats`` and
may ignore any of them: the R-tree and linear scan are parameter-free, while
the grid backends are tuned to one epsilon (and build their cell stencils
lazily when ``dim`` is ``None``, learning the dimensionality from the first
inserted point).

:func:`make_index` is the single resolution point. It accepts any of:

- a registry name (``"rtree"``, ``"linear"``, ``"grid"``, ``"vectorgrid"``);
- a ready :class:`~repro.index.base.NeighborIndex` instance (returned as-is);
- a zero-argument callable building an index.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.common.errors import ConfigurationError
from repro.index.base import NeighborIndex
from repro.index.epochs import with_epochs
from repro.index.grid import GridIndex
from repro.index.linear import LinearScanIndex
from repro.index.rtree import RTree
from repro.index.stats import IndexStats
from repro.index.vectorgrid import VectorGridIndex

#: A backend factory: ``factory(eps=..., dim=..., stats=...) -> NeighborIndex``.
IndexFactory = Callable[..., NeighborIndex]

DEFAULT_INDEX = "rtree"

_REGISTRY: dict[str, IndexFactory] = {}


def register_index(name: str, factory: IndexFactory, *, replace: bool = False) -> None:
    """Register a backend factory under ``name``.

    Args:
        name: registry key, lowercase by convention.
        factory: callable accepting ``eps``, ``dim`` and ``stats`` keywords.
        replace: allow overwriting an existing entry.
    """
    if not replace and name in _REGISTRY:
        raise ConfigurationError(f"index backend {name!r} is already registered")
    _REGISTRY[name] = factory


def available_indexes() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_index(
    spec: str | NeighborIndex | Callable[[], object] | None,
    *,
    eps: float | None = None,
    dim: int | None = None,
    stats: IndexStats | None = None,
) -> NeighborIndex:
    """Resolve an index spec into a ready backend.

    Args:
        spec: a registry name, a pre-built index (returned unchanged), a
            zero-argument factory, or ``None`` for the default
            (:data:`DEFAULT_INDEX`).
        eps: epsilon the index will serve; required by grid backends.
        dim: point dimensionality if already known; grid backends finish
            their stencils lazily when omitted.
        stats: optional shared counters for the new index.
    """
    if spec is None:
        spec = DEFAULT_INDEX
    if isinstance(spec, NeighborIndex):
        return spec
    if isinstance(spec, str):
        try:
            factory = _REGISTRY[spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown index backend {spec!r}; "
                f"registered: {', '.join(available_indexes())}"
            ) from None
        return factory(eps=eps, dim=dim, stats=stats)
    if callable(spec):
        index = spec()
        if not isinstance(index, NeighborIndex):
            raise ConfigurationError(
                f"index factory returned {type(index).__name__}, "
                "which is not a NeighborIndex"
            )
        return index
    raise ConfigurationError(f"cannot build an index from {spec!r}")


def resolve_index(
    spec: str | NeighborIndex | Callable[[], object] | None,
    *,
    eps: float | None = None,
    dim: int | None = None,
    epoch_probing: bool = False,
) -> NeighborIndex:
    """Resolve a clusterer's ``index=`` argument into a ready backend.

    :func:`make_index`, plus: when ``epoch_probing`` is requested a backend
    without native epochs is wrapped in
    :class:`~repro.index.epochs.EpochAdapter` so probing works everywhere.
    """
    backend = make_index(spec, eps=eps, dim=dim)
    if epoch_probing:
        backend = with_epochs(backend)
    return backend


def _require_eps(eps: float | None, name: str) -> float:
    if eps is None:
        raise ConfigurationError(
            f"index backend {name!r} is tuned to one epsilon; pass eps"
        )
    return eps


register_index("rtree", lambda eps=None, dim=None, stats=None: RTree(stats=stats))
register_index(
    "linear", lambda eps=None, dim=None, stats=None: LinearScanIndex(stats=stats)
)
register_index(
    "grid",
    lambda eps=None, dim=None, stats=None: GridIndex(
        _require_eps(eps, "grid"), dim=dim, stats=stats
    ),
)
register_index(
    "vectorgrid",
    lambda eps=None, dim=None, stats=None: VectorGridIndex(
        _require_eps(eps, "vectorgrid"), dim=dim, stats=stats
    ),
)
