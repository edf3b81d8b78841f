"""Load generation: closed-loop readers and an open-loop updater.

All load comes from one asyncio loop.  Each reader sends its next query
only after the previous answer arrived (closed loop), so a slower
server receives less load.  The updater sends delta ``i`` at
``start + i / rate`` whether or not earlier updates finished (open
loop), so the number of updates in a run does not depend on how fast
the readers go.  An update's latency runs from its scheduled send time
to the publication of its epoch, so a backlog shows up as latency.

Each query is also charged the CPU time the server spent on it: the
thread CPU time of every call the server hands to a thread pool while
answering it (:class:`MeteredLoop`).  Thread CPU time counts only the
time a thread ran, so unlike wall-clock latency it does not grow when
the host takes the virtual CPUs away or when the other reader holds
the interpreter lock.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import random
import resource
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

#: Queries each reader sends before the measured phase starts.
WARMUP_PER_CLIENT = 2
#: Peak RSS is read when the phase has this many answers (or at its end,
#: if it has fewer), on a pool of distinct queries and on a repeating
#: one.  A peak read at the end of a fixed-time phase would grow with
#: throughput -- the servers cache every distinct answer, and the oracle
#: keeps every evaluated one -- so a faster program, or a faster host,
#: would look like a fatter one.  On the repeating pool the read comes
#: after the first epochs have been published and persisted.
RSS_AT_ANSWERS = {True: 64, False: 1000}


#: The CPU-time cell of the request the current task is sending: a list
#: that collects one entry per thread-pool call made on its behalf.
_REQUEST_CPU: contextvars.ContextVar = contextvars.ContextVar("request_cpu", default=None)


def _metered(cell: list, func, *args):
    began = time.thread_time()
    try:
        return func(*args)
    finally:
        cell.append(time.thread_time() - began)


class MeteredLoop(asyncio.SelectorEventLoop):
    """An event loop that charges thread-pool work to the request whose
    task submitted it.  ``run_in_executor`` is called synchronously from
    the submitting task, so the task's context names the request."""

    def run_in_executor(self, executor, func, *args):
        cell = _REQUEST_CPU.get()
        if cell is not None:
            func = functools.partial(_metered, cell, func)
        return super().run_in_executor(executor, func, *args)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class PhaseResult:
    latencies: List[float] = field(default_factory=list)
    #: ``(server CPU seconds, evaluated)`` of every answer; ``evaluated``
    #: is false for answers served from the server's cache
    #: or shared with a concurrent identical request.
    query_cpu: List[tuple] = field(default_factory=list)
    #: ``(pool index, epoch, edge_matches)`` of every answer.
    observations: List[tuple] = field(default_factory=list)
    query_errors: Dict[str, int] = field(default_factory=dict)
    update_latencies: List[float] = field(default_factory=list)
    update_late: List[float] = field(default_factory=list)
    update_errors: Dict[str, int] = field(default_factory=dict)
    #: epoch id -> the delta that produced it.
    epoch_deltas: Dict[int, object] = field(default_factory=dict)
    elapsed: float = 0.0
    #: Process CPU seconds (every thread) over the same interval.
    cpu_elapsed: float = 0.0
    updates_sent: int = 0
    peak_rss_mb: float = 0.0

    @property
    def queries_attempted(self) -> int:
        return len(self.latencies) + sum(self.query_errors.values())

    @property
    def failed(self) -> int:
        return sum(self.query_errors.values()) + sum(self.update_errors.values())


class QueryStream:
    """Which pool entry each reader sends next.

    Distinct pools hand out each entry once, in order, across all
    readers; repeating pools are drawn from uniformly, per reader, with
    a reader-specific seeded RNG."""

    def __init__(self, streams, seed: int) -> None:
        self.pool = streams.pool
        self.distinct = streams.distinct
        self.cursor = 0
        self.seed = seed
        self.rngs: Dict[int, random.Random] = {}

    def next_index(self, client: int) -> int:
        if self.distinct:
            if self.cursor >= len(self.pool):
                raise RuntimeError("query pool exhausted; enlarge it in inputs.py")
            self.cursor += 1
            return self.cursor - 1
        rng = self.rngs.setdefault(client, random.Random(self.seed * 1009 + client))
        return rng.randrange(len(self.pool))


async def warmup(server, stream: QueryStream, clients: int) -> None:
    async def one(client):
        for _ in range(WARMUP_PER_CLIENT):
            await server.query(stream.pool[stream.next_index(client)])

    await asyncio.gather(*(one(c) for c in range(clients)))


async def run_phase(server, stream: QueryStream, clients: int, seconds: float,
                    spans, deltas=(), rate: float = 0.0) -> PhaseResult:
    """Drive ``server`` for ``seconds``; readers stop at the deadline and
    their in-flight queries complete; every scheduled update is awaited."""
    result = PhaseResult()
    with spans.span("loadgen.phase") as root:
        root_id = root["id"] if root is not None else None
        start = perf_counter()
        cpu_start = time.process_time()
        deadline = start + seconds

        async def reader(client):
            sent = 0
            while perf_counter() < deadline:
                index = stream.next_index(client)
                cpu = []
                token = _REQUEST_CPU.set(cpu)
                began = perf_counter()
                try:
                    with spans.span("loadgen.query", request=f"c{client}.{sent}",
                                    parent=root_id):
                        answer = await server.query(stream.pool[index])
                except Exception as err:  # counted, never fatal to the run
                    name = type(err).__name__
                    result.query_errors[name] = result.query_errors.get(name, 0) + 1
                else:
                    result.latencies.append(perf_counter() - began)
                    result.query_cpu.append(
                        (sum(cpu), not (answer.cache_hit or answer.coalesced))
                    )
                    result.observations.append(
                        (index, answer.epoch, answer.result.edge_matches)
                    )
                    if len(result.latencies) == RSS_AT_ANSWERS[stream.distinct]:
                        result.peak_rss_mb = peak_rss_mb()
                finally:
                    _REQUEST_CPU.reset(token)
                sent += 1

        async def send_update(number, due):
            result.update_late.append(perf_counter() - due)
            try:
                with spans.span("loadgen.update", request=f"u{number}", parent=root_id):
                    outcome = await server.update(deltas[number])
            except Exception as err:
                name = type(err).__name__
                result.update_errors[name] = result.update_errors.get(name, 0) + 1
            else:
                result.update_latencies.append(perf_counter() - due)
                result.epoch_deltas[outcome.epoch] = deltas[number]

        async def updater():
            tasks = []
            count = int(seconds * rate)
            if count > len(deltas):
                raise RuntimeError("delta stream exhausted; enlarge it in inputs.py")
            for number in range(count):
                due = start + number / rate
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.create_task(send_update(number, due)))
            result.updates_sent = len(tasks)
            await asyncio.gather(*tasks)

        update_task = asyncio.create_task(updater()) if rate else None
        await asyncio.gather(*(reader(c) for c in range(clients)))
        result.elapsed = perf_counter() - start
        result.cpu_elapsed = time.process_time() - cpu_start
        if not result.peak_rss_mb:
            result.peak_rss_mb = peak_rss_mb()
        if update_task is not None:
            await update_task
    return result
