"""Start ``repro serve`` the way the benchmark runs it.

Usage::

    python -m perfbench.launcher [--spans-out spans.json] -- serve --port 0 ...

The arguments after ``--`` are the ``repro`` command line; the launcher
parses them with the CLI's own parser and calls
:func:`repro.serve.server.main` unchanged, with two changes around it.

``os.fsync`` does what it does on tmpfs: it checks its descriptor and
returns, with nothing to write back. The durable workload's data dir is
meant to sit on tmpfs, so that a shared disk's latency, which varies with
other tenants' I/O, stays out of the figures; the benchmark may write only
inside its checkout, so the launcher gives that directory tmpfs's fsync.
Every fsync call stays on the program's path and in its counters.

``SIGUSR1`` installs the span wrappers (core, index, runtime, query and
serve), attaches an in-memory ``Tracer`` to every live DISC and starts a
loop-lag probe; ``SIGUSR2`` takes them all out again. Spans, probe samples
and the tracer counters are written to ``--spans-out``, when given, once,
when the server exits.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
import weakref

from perfbench.spans import Patcher, SpanRecorder, instrument_core, instrument_serving

#: Interval of the loop-lag probe's sleeps.
PROBE_INTERVAL_S = 0.005


def tmpfs_fsync(fd: int) -> None:
    """``os.fsync`` as on tmpfs: a bad descriptor still raises."""
    os.fstat(fd)


class TracedServer:
    """Owns the recorder and turns tracing on and off inside the server loop."""

    def __init__(self) -> None:
        from repro.core.disc import DISC

        self.recorder = SpanRecorder()
        self.patcher = Patcher()
        self.discs = weakref.WeakSet()
        self.tracers = []
        self.lag_ms: list[float] = []
        self._probe = None
        init = DISC.__init__

        def tracking_init(disc, *args, **kwargs):
            init(disc, *args, **kwargs)
            self.discs.add(disc)

        DISC.__init__ = tracking_init

    def on(self) -> None:
        if self._probe is not None:
            return
        from repro.observability.trace import Tracer

        classes = {type(disc.index) for disc in self.discs}
        instrument_core(self.recorder, self.patcher, classes)
        instrument_serving(self.recorder, self.patcher)
        for disc in self.discs:
            disc.tracer = Tracer()
            self.tracers.append(disc.tracer)
        self._probe = asyncio.get_running_loop().create_task(self._lag_probe())

    def off(self) -> None:
        if self._probe is None:
            return
        self._probe.cancel()
        self._probe = None
        self.patcher.undo()
        for disc in self.discs:
            disc.tracer = None

    async def _lag_probe(self) -> None:
        clock = self.recorder.clock
        while True:
            before = clock()
            await asyncio.sleep(PROBE_INTERVAL_S)
            self.lag_ms.append((clock() - before - PROBE_INTERVAL_S) * 1e3)

    def counters(self) -> dict:
        """Sum of the DISC tracers' algorithm counters and IndexStats deltas."""
        total: dict[str, int] = {"strides": 0}
        for tracer in self.tracers:
            agg = tracer.aggregate
            total["strides"] += agg.strides
            for name, value in {**agg.counters, **agg.index.as_dict()}.items():
                total[name] = total.get(name, 0) + value
        return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] else args.repro_args

    from repro.cli import build_parser
    from repro.serve import server

    traced = TracedServer()
    run_server = server.run_server

    async def run_server_with_toggles(*a, **kw):
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGUSR1, traced.on)
        loop.add_signal_handler(signal.SIGUSR2, traced.off)
        try:
            await run_server(*a, **kw)
        finally:
            traced.off()

    server.run_server = run_server_with_toggles
    os.fsync = tmpfs_fsync
    code = server.main(build_parser().parse_args(repro_args))
    if args.spans_out:
        traced.recorder.dump(
            args.spans_out,
            lag_ms=traced.lag_ms,
            counters=traced.counters(),
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
