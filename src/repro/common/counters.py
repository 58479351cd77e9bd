"""Counter groups: dataclasses whose fields are the exported counter names.

A counter group declares its counters once, as dataclass fields with zero
defaults. Everything else is derived from that declaration: the JSON block
(:meth:`CounterGroup.as_dict`), copies and per-stride differences, and the
trace schema, Prometheus series and report lines of
:mod:`repro.observability`. A group is also a read-only mapping from field
name to value, in declaration order, so exporters read every group alike.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields, replace


class CounterGroup(Mapping):
    """Base of a ``@dataclass`` of counters (ints, or floats such as ratios).

    Field metadata may carry extra JSON-Schema bounds for the trace schema,
    e.g. ``{"maximum": 1}`` for a ratio.
    """

    def __getitem__(self, name: str):
        if name not in self.__dataclass_fields__:
            raise KeyError(name)
        return getattr(self, name)

    def __iter__(self):
        return iter(self.__dataclass_fields__)

    def __len__(self) -> int:
        return len(self.__dataclass_fields__)

    def as_dict(self) -> dict:
        """JSON-friendly form, in declaration order."""
        return dict(self)

    def snapshot(self):
        """An independent copy of the current values."""
        return replace(self)

    def reset(self) -> None:
        """Set every counter back to its default."""
        for field in fields(self):
            setattr(self, field.name, field.default)

    def __add__(self, other):
        return type(self)(**{name: self[name] + other[name] for name in self})

    def __sub__(self, other):
        return type(self)(**{name: self[name] - other[name] for name in self})
