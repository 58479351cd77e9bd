"""A speed probe that rescales offline times to one reference speed, and a
monitor that keeps the CPUs of a served run awake.

The cores a run gets are shared with other work and do not keep one speed:
a fixed loop's time flips between levels up to 1.7x apart and stays on each
for seconds to minutes, which moves a run's median stride time by a fifth
or more from one run to the next whatever the program does. So every
offline sample is paired with :func:`probe`, a fixed pure-Python loop
timed in the same process right around it, and reported as :func:`rescale`
gives it: the time it would have taken on a core that runs the probe in
:data:`REFERENCE_S`. The probe is the benchmark's own code, so no change
to the program moves it.

A served run is timed from outside and unscaled: its latencies are mostly
wake-ups of the server and of the generator, which do not follow the
probe. What moves them is whether a virtual CPU was halted when the
wake-up came, which costs the host's scheduling delay: runs of the same
code read ack p50s of 1.1 or 2.1 ms, with nothing in between. A
:class:`Monitor` keeps every CPU busy at idle priority for the whole run,
so no request ever waits for a halted CPU, and times the probe while it
does, for the provenance line.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

#: Steps of the fixed loop.
STEPS = 4000
#: The probe's time on a 2.1 GHz Xeon core at its faster level.
REFERENCE_S = 0.36e-3


def _loop() -> int:
    table: dict[int, int] = {}
    for i in range(STEPS):
        table[i & 255] = table.get(i & 255, 0) + i
    return len(table)


def probe(repeats: int = 2) -> float:
    """The fastest of ``repeats`` timings of the fixed loop, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def rescale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_S / probe_s


class Monitor:
    """Run the probe back to back on every CPU, one process each, until
    :meth:`stop`; use as a context manager so no process outlives it.

    Each process runs at ``SCHED_IDLE`` priority, so the program preempts it
    the moment it has work, and its CPU never idles. A CPU of ``None`` is
    probed wherever the process runs.
    """

    def __init__(self, cpus) -> None:
        self._procs = []
        try:
            for cpu in cpus:
                arg = str(-1 if cpu is None else cpu)
                self._procs.append(
                    subprocess.Popen(
                        [sys.executable, "-I", os.path.abspath(__file__), arg],
                        stdout=subprocess.PIPE,
                    )
                )
        except BaseException:
            self.kill()
            raise

    def __enter__(self) -> "Monitor":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()

    def stop(self) -> list[float]:
        """End every probe process; each CPU's median probe time."""
        try:
            for proc in self._procs:
                proc.send_signal(signal.SIGTERM)
            return [
                statistics.median(json.loads(proc.communicate(timeout=30)[0]))
                for proc in self._procs
            ]
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill and reap whatever probe process is still running."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        self._procs = []


def _watch(cpu: int) -> None:
    """A :class:`Monitor` process: probe until SIGTERM, then print the times."""
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    times = []
    while not stopped:
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    json.dump(times, sys.stdout)


if __name__ == "__main__":
    _watch(int(sys.argv[1]))
