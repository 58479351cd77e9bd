"""The index backends DISC and the exact baselines run on, by name.

One fixed table maps each name to a constructor that takes the epsilon the
index will serve: the R-tree and the linear scan ignore it, the numpy grid
sizes its cells by it. ``DISC``, the baselines and the CLI resolve backends
through :func:`make_index`; served session configs and checkpoints check
their backend name with :func:`check_backend` before anything is built.
:func:`make_index` accepts:

- a backend name (``"linear"``, ``"rtree"``, ``"vectorgrid"``);
- a ready :class:`~repro.index.base.NeighborIndex` instance (returned as-is);
- ``None`` for the default (:data:`DEFAULT_INDEX`).
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.index.base import NeighborIndex
from repro.index.linear import LinearScanIndex
from repro.index.rtree import RTree
from repro.index.vectorgrid import VectorGridIndex

DEFAULT_INDEX = "rtree"

_BACKENDS = {
    "linear": lambda eps: LinearScanIndex(),
    "rtree": lambda eps: RTree(),
    "vectorgrid": VectorGridIndex,
}
_CLASSES = {LinearScanIndex: "linear", RTree: "rtree", VectorGridIndex: "vectorgrid"}


def available_indexes() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def check_backend(name: object) -> None:
    """Raise ConfigurationError, listing the backends, unless ``name`` is one."""
    if not (isinstance(name, str) and name in _BACKENDS):
        raise ConfigurationError(
            f"unknown index backend {name!r}; "
            f"registered: {', '.join(available_indexes())}"
        )


def backend_name(index: NeighborIndex) -> str | None:
    """The name of the backend ``index`` is an instance of, or ``None``
    when its class is no registered backend's (a subclass included)."""
    return _CLASSES.get(type(index))


def make_index(spec: str | NeighborIndex | None, *, eps: float) -> NeighborIndex:
    """Resolve an index spec into a ready backend.

    Args:
        spec: a backend name, a pre-built index (returned unchanged), or
            ``None`` for :data:`DEFAULT_INDEX`.
        eps: the epsilon the index will serve.
    """
    if spec is None:
        spec = DEFAULT_INDEX
    if isinstance(spec, NeighborIndex):
        return spec
    check_backend(spec)
    return _BACKENDS[spec](eps)
