"""In-memory span recorder and the wrappers the traced run installs.

A span records a name, its start and end, the span that was open when it
started (its parent), and a unit-of-work id shared by everything one
request or one stride does: the frame ``id`` for requests, the stride index
for writer work. Children inherit the parent's unit. The open span travels
in a :class:`contextvars.ContextVar`, so spans opened by different asyncio
tasks never adopt each other. Spans stay in memory and are written once,
by :meth:`SpanRecorder.dump`, at exit.

A layer's self time is its span time minus the time its child spans cover
(:func:`self_times`). A call that re-enters the layer it is already in
records no span of its own, so one layer's time is never counted twice.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time

#: Index methods the core calls to query and maintain the window.
INDEX_METHODS = (
    "ball",
    "ball_many",
    "ball_pids",
    "ball_many_pids",
    "ball_unvisited",
    "insert",
    "insert_many",
    "delete",
    "delete_many",
)


class SpanRecorder:
    """Collects spans as ``[name, start, end, parent, unit, tag, layer]`` rows.

    ``parent`` is the parent's row index, ``end`` stays ``None`` while the
    span is open, and ``layer`` is the part of ``name`` before the colon.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._open = contextvars.ContextVar("perfbench_open_span", default=None)

    def _opener(self, name: str, root: bool, unit):
        """The span-opening step both wrappers share.

        The returned function opens a span for one call and returns
        ``(row, token)``, or ``None`` when the call re-enters the layer of
        the span already open.
        """
        layer = name.rpartition(":")[0]
        spans, clock, open_var = self.spans, self.clock, self._open

        def open_span(args):
            parent = None if root else open_var.get()
            if parent is None:
                inherited = None
            elif spans[parent][6] == layer:
                return None
            else:
                inherited = spans[parent][4]
            row = [name, None, None, parent, unit(args) if unit else inherited, None, layer]
            token = open_var.set(len(spans))
            spans.append(row)
            row[1] = clock()
            return row, token

        return open_span

    def wrap(self, name: str, fn, *, root: bool = False, unit=None, tag=None):
        """Wrap a plain function so every call records a span.

        ``name`` is ``"<layer>:<call>"``; ``root`` starts a new span tree
        whatever is open. ``unit(args)`` gives the call's unit of work
        (default: the parent's) and ``tag(args, result)`` a value to keep.
        """
        open_span, clock, open_var = self._opener(name, root, unit), self.clock, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = open_span(args)
            if opened is None:
                return fn(*args, **kwargs)
            row, token = opened
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                open_var.reset(token)
            if tag is not None:
                row[5] = tag(args, result)
            return result

        return wrapper

    def wrap_async(self, name: str, fn, *, root: bool = False, unit=None, tag=None):
        """:meth:`wrap` for a coroutine function; the span ends when it returns."""
        open_span, clock, open_var = self._opener(name, root, unit), self.clock, self._open

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            opened = open_span(args)
            if opened is None:
                return await fn(*args, **kwargs)
            row, token = opened
            try:
                result = await fn(*args, **kwargs)
            finally:
                row[2] = clock()
                open_var.reset(token)
            if tag is not None:
                row[5] = tag(args, result)
            return result

        return wrapper

    def dump(self, path, **extra) -> None:
        """Write the spans (and any extra measurements) as one JSON file."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": self.spans, **extra}, out, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged first, so the result never goes negative. A span still open
    (``end`` is ``None``) has self time 0 and covers nothing.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for row in spans:
        parent = row[3]
        if parent is not None and row[2] is not None:
            children.setdefault(parent, []).append((row[1], row[2]))
    result = []
    for index, row in enumerate(spans):
        start, end = row[1], row[2]
        if end is None:
            result.append(0.0)
            continue
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


class Patcher:
    """Replaces attributes and puts every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(current)``."""
        own = vars(owner)
        self._saved.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def undo(self) -> None:
        for owner, attr, had, original in reversed(self._saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def instrument_core(recorder: SpanRecorder, patcher: Patcher, index_classes) -> None:
    """Wrap DISC's layers: the calls ``repro.core.disc`` makes by name,
    ``check_connectivity`` where ``repro.core.cluster`` looks it up, the
    index classes' query/insert/delete methods, ``DISC.snapshot`` and the
    window-state upkeep at the end of a stride."""
    from repro.core import cluster as cluster_mod
    from repro.core import disc as disc_mod
    from repro.core.state import WindowState

    wrap = recorder.wrap
    advances = itertools.count()  # the stride index of an offline run
    patcher.patch(
        disc_mod.DISC,
        "advance",
        lambda fn: wrap("core.disc:advance", fn, unit=lambda args: next(advances)),
    )
    for attr, name in (
        ("collect", "core.collect:collect"),
        ("process_ex_cores", "core.cluster.split:process_ex_cores"),
        ("process_neo_cores", "core.cluster.merge:process_neo_cores"),
        ("repair_anchors", "core.state.maintenance:repair_anchors"),
    ):
        patcher.patch(disc_mod, attr, lambda fn, name=name: wrap(name, fn))
    patcher.patch(
        cluster_mod,
        "check_connectivity",
        lambda fn: wrap("core.msbfs:check_connectivity", fn),
    )
    patcher.patch(
        disc_mod.DISC, "snapshot", lambda fn: wrap("core.state.snapshot:snapshot", fn)
    )
    for owner, attr in ((disc_mod.DISC, "_advance_generation"), (WindowState, "compact_cids")):
        patcher.patch(owner, attr, lambda fn, attr=attr: wrap(f"core.state.maintenance:{attr}", fn))
    for cls in index_classes:
        for attr in INDEX_METHODS:
            if hasattr(cls, attr):
                patcher.patch(
                    cls, attr, lambda fn, attr=attr: wrap(f"index:{attr}", fn)
                )


def instrument_serving(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap the runtime, query and serve layers of a ``repro serve`` process."""
    from repro.core import checkpoint
    from repro.query.journal import EvolutionJournal
    from repro.runtime.store import CheckpointStore
    from repro.runtime.supervisor import Supervisor
    from repro.runtime.wal import WriteAheadLog
    from repro.serve import protocol, server, session

    wrap, wrap_async = recorder.wrap, recorder.wrap_async
    patcher.patch(
        Supervisor,
        "feed",
        lambda fn: wrap(
            "runtime.supervisor:feed",
            fn,
            root=True,
            unit=lambda args: args[0].stride,
            tag=lambda args, result: len(result),
        ),
    )
    plain = (
        (WriteAheadLog, "append", "runtime.wal.append:append"),
        (WriteAheadLog, "commit", "runtime.wal.commit:commit"),
        (CheckpointStore, "save", "runtime.store.save:save"),
        (checkpoint, "to_checkpoint", "runtime.store.to_checkpoint:to_checkpoint"),
        (session, "stride_record", "query.journal.record:stride_record"),
        (EvolutionJournal, "publish", "query.journal.publish:publish"),
        (protocol, "decode_frame", "serve.protocol.decode:decode_frame"),
        (protocol, "decode_points", "serve.protocol.decode:decode_points"),
        (protocol, "encode_frame", "serve.protocol.encode:encode_frame"),
        (session.SessionView, "classify", "serve.session.classify:classify"),
        (session.SessionView, "membership", "serve.session.membership:membership"),
    )
    for owner, attr, name in plain:
        patcher.patch(owner, attr, lambda fn, name=name: wrap(name, fn))
    # Writer work outside feed: the view publish and the journal commit
    # before a push. Both run in the writer task, so they are roots.
    patcher.patch(
        session.TenantSession,
        "_publish",
        lambda fn: wrap("serve.session.publish:_publish", fn, root=True),
    )
    patcher.patch(
        EvolutionJournal,
        "commit",
        lambda fn: wrap("query.journal.commit:commit", fn, root=True),
    )
    patcher.patch(
        session.TenantSession,
        "offer",
        lambda fn: wrap_async("serve.session.offer:offer", fn),
    )
    patcher.patch(
        server,
        "dispatch",
        lambda fn: wrap_async(
            "serve.server.dispatch:dispatch",
            fn,
            root=True,
            unit=lambda args: args[1].get("id"),
            tag=lambda args, result: args[1].get("op"),
        ),
    )
