"""A host-speed sampler: a fixed memory-bound loop, timed in short
slices next to a run, that measures how fast the host runs the
program's kind of work at the moment.

The program's query and set-up work is pointer chasing over hundreds of
megabytes of Python objects, and on a shared host its CPU time per
answer swings with the other tenants' use of caches and memory: by up
to a factor of two within minutes.  Each slice does the same kind of
work -- a random walk over a shuffled million-entry list and lookups in
a half-million-entry dict -- in a fixed amount.  The sampler never
calls the program, so a change to the program cannot move it.

``run.py`` keeps one sampler process running from before the first boot
to the end of the measured phase, one slice every ``PERIOD`` seconds
(about a tenth of one CPU).  It divides the set-up time by the median
slice time during the boots over ``REFERENCE_SECONDS``, and the phase's
CPU times by the same ratio during the phase (multiplies its rate by
it): the figures are then expressed at the speed the host had when the
reference was taken.

    python3 perfbench/probe.py    # time ten slices, print their median
"""

from __future__ import annotations

import json
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: About the median slice time on a 2-core virtual machine (Python 3.11)
#: in a quiet period of its host.
REFERENCE_SECONDS = 0.035
#: Seconds from the start of one slice to the start of the next.
PERIOD = 0.5

_SIZE = 1 << 20
_STEPS = 1 << 16
_LOOKUPS = 1 << 14


class _Loop:
    def __init__(self) -> None:
        rng = random.Random(1)
        self.walk = list(range(_SIZE))
        rng.shuffle(self.walk)
        self.table = {i * 7919: i for i in range(_SIZE // 2)}
        self.keys = [rng.randrange(_SIZE // 2) * 7919 for _ in range(_LOOKUPS)]
        self.at = 0

    def slice_seconds(self) -> float:
        """Thread CPU seconds of one fixed slice; the walk continues
        where the previous slice left it, so no slice finds its data in
        the cache."""
        walk, table = self.walk, self.table
        began = time.thread_time()
        at = self.at
        for _ in range(_STEPS):
            at = walk[at]
        total = 0
        for key in self.keys:
            total += table[key]
        self.at = at
        return time.thread_time() - began


def _serve() -> None:
    """Child side: build the data, say so, then time one slice per
    period until standard input closes; print ``(start, seconds)`` of
    every slice.  ``perf_counter`` is the system's monotonic clock, so
    the parent can compare the start times with its own."""
    import gc

    loop = _Loop()
    gc.disable()
    print("ready", flush=True)
    slices = []
    while True:
        began = time.perf_counter()
        slices.append((began, loop.slice_seconds()))
        wait = max(0.0, PERIOD - (time.perf_counter() - began))
        if select.select([sys.stdin], [], [], wait)[0]:
            break
    print(json.dumps(slices), flush=True)


class HostSampler:
    """Runs the sampler in a child process while the ``with`` body runs;
    ``slowdown(start, end)`` is then the median time of the slices that
    started in that interval over the reference."""

    def __init__(self) -> None:
        self.slices = []

    def __enter__(self) -> "HostSampler":
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if self._child.stdout.readline().strip() != "ready":
            self._child.kill()
            self._child.wait()
            raise RuntimeError("host sampler failed to start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._child.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
            raise
        self.slices = json.loads(out.splitlines()[-1]) if out.strip() else []
        if not self.slices and exc[0] is None:
            raise RuntimeError("host sampler returned no slices")

    def slowdown(self, start: float, end: float) -> tuple:
        """``(factor, slices)`` over ``[start, end]`` (``perf_counter``
        times); all slices when none started in it."""
        inside = [t for began, t in self.slices if start <= began <= end]
        inside = inside or [t for _, t in self.slices]
        return statistics.median(inside) / REFERENCE_SECONDS, len(inside)


if __name__ == "__main__":
    if "--serve" in sys.argv:
        _serve()
    else:
        loop = _Loop()
        print(statistics.median(loop.slice_seconds() for _ in range(10)))
