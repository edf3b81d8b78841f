"""The three workloads: how each one boots the program from its input
files, what its clients send, and how its answers are checked.

Each workload's ``setup`` is exactly the program work ``setup_s``
measures: reading (or ingesting) the input files, freezing or loading
the graph, materializing views, attaching maintenance and
``QueryServer.start()``.  Every step runs inside a benchmark-side span
named after the layer it calls into.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import inputs as inp

#: Serving configuration shared by every workload.
MAX_INFLIGHT = 2
CLIENTS = 2
#: Deltas per second sent by the ``citation-rw`` updater (open loop).
UPDATE_RATE = 0.5


@dataclass
class Deployment:
    """A started server plus what the benchmark needs to drive it."""

    server: object
    engine: object
    persist: Optional[Path] = None
    ingest: Optional[object] = None


@dataclass
class Streams:
    """Per-run request streams, all derived from the seed."""

    pool: List[object]
    distinct: bool
    deltas: List[object] = field(default_factory=list)
    replay: List[object] = field(default_factory=list)


class Workload:
    name = ""
    why = ""
    #: Answers checked against the reference engines per run: a fixed,
    #: seed-derived sample, since the dict engines take a second or
    #: more per query at these sizes.
    oracle_sample = 3
    writes = False

    def __init__(self, seed: int, inputs: Path, work: Path) -> None:
        self.seed = seed
        self.inputs = inputs
        self.work = work

    # -- streams -------------------------------------------------------
    def streams(self) -> Streams:
        pool = inp.read_queries(self.inputs / "queries.json")
        live, replay = pool[: -inp.REPLAY_QUERIES], pool[-inp.REPLAY_QUERIES:]
        return Streams(pool=live, distinct=True, replay=replay)

    # -- setup ---------------------------------------------------------
    async def setup(self, spans) -> Deployment:
        raise NotImplementedError

    async def _start(self, spans, engine, **server_kw) -> object:
        from repro.serve import QueryServer

        server = QueryServer(engine, max_inflight=MAX_INFLIGHT, **server_kw)
        with spans.span("serve.start"):
            await server.start()
        return server

    def reference_graph(self, deployment):
        """The oracle's ``DataGraph``.  Read-only workloads reuse the
        graph the engine read from the input file, which nothing
        mutates; the serving path evaluates on its frozen snapshot."""
        return deployment.engine.graph

    def reference_answer(self, query, graph):
        from repro.simulation import match

        return match(query, graph).edge_matches


class _JsonGraphWorkload(Workload):
    """Graph and views from JSON files; views materialized at boot."""

    async def setup(self, spans) -> Deployment:
        from repro.engine import QueryEngine
        from repro.graph.io import read_graph
        from repro.views.io import read_viewset

        with spans.span("graph.read"):
            graph = read_graph(self.inputs / "graph.json")
            views = read_viewset(self.inputs / "views.json")
        with spans.span("engine.boot"):
            engine = QueryEngine(views, graph=graph)
        with spans.span("graph.freeze"):
            engine.snapshot()
        with spans.span("views.materialize"):
            engine.materialize_views(views.names())
        server = await self._start(spans, engine)
        return Deployment(server, engine)


class AmazonMatchJoin(_JsonGraphWorkload):
    name = "amazon-matchjoin"
    why = ("distinct view-contained Amazon queries answered by containment "
           "plus MatchJoin over extensions; no query repeats, so no cache hits")


class CitationRW(Workload):
    name = "citation-rw"
    why = ("uniform readers over 500 queries that fit the answer cache, while an "
           "open-loop updater publishes and persists an epoch per 20-edge delta every 2 s")
    writes = True
    oracle_sample = 8

    def streams(self) -> Streams:
        pool = inp.read_queries(self.inputs / "queries.json")
        deltas = inp.read_deltas(self.inputs / "deltas.json")
        return Streams(pool=pool, distinct=False, deltas=deltas)

    async def setup(self, spans) -> Deployment:
        from repro.engine import QueryEngine
        from repro.graph.io import read_graph
        from repro.views.io import read_viewset
        from repro.views.maintenance import IncrementalViewSet

        persist = self.work / "persist"
        with spans.span("graph.read"):
            graph = read_graph(self.inputs / "graph.json")
            views = read_viewset(self.inputs / "views.json")
        with spans.span("views.tracker_build"):
            tracker = IncrementalViewSet(views.definitions(), graph)
        with spans.span("engine.boot"):
            engine = QueryEngine(views, graph=graph, planner="adaptive")
        with spans.span("views.attach"):
            engine.attach_maintenance(tracker)
        server = await self._start(spans, engine, persist_path=str(persist))
        return Deployment(server, engine, persist=persist)

    def reference_graph(self, deployment):
        """A fresh read of the input graph: the engine's copy has moved
        on with the update stream."""
        from repro.graph.io import read_graph

        return read_graph(self.inputs / "graph.json")


class SnapDirect(Workload):
    name = "snap-direct"
    why = ("random 3-5 node patterns evaluated directly on an ingested, "
           "mmapped 4-shard snapshot with no views: bypasses core and views")

    async def setup(self, spans) -> Deployment:
        from repro.engine import QueryEngine
        from repro.graph.ingest import ingest_snapshot
        from repro.graph.io import read_snap_edges
        from repro.graph.snapshot import SnapshotStore

        target = self.work / "snapshot"
        with spans.span("graph.ingest"):
            report = ingest_snapshot(
                read_snap_edges(self.inputs / "edges.txt"),
                target,
                num_shards=inp.SNAP_SHARDS,
                labeler=inp.snap_labeler,
                overwrite=True,
            )
        with spans.span("graph.snapshot_load"):
            loaded = SnapshotStore.load(target)
        with spans.span("engine.boot"):
            engine = QueryEngine(loaded.viewset(), snapshot_path=loaded)
        server = await self._start(spans, engine)
        return Deployment(server, engine, ingest=report)

    def reference_graph(self, deployment):
        from repro.graph.io import graph_from_edges, read_snap_edges

        return graph_from_edges(
            read_snap_edges(self.inputs / "edges.txt"), labeler=inp.snap_labeler
        )


WORKLOADS = {cls.name: cls for cls in (AmazonMatchJoin, CitationRW, SnapDirect)}


def reset_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def check_answers(workload: Workload, deployment, pool, observations, epoch_deltas, seed: int):
    """Compare served answers with the dict reference engines.

    ``observations`` are ``(pool index, epoch, edge_matches)`` triples.
    Answers served from one epoch for one query must all agree; a fixed
    seed-derived sample of ``(query, epoch)`` keys, half with nonempty
    answers, is then compared with
    ``match`` on the reference graph *of the epoch
    that served it*, rebuilt by replaying the epoch's deltas onto a
    ``DataGraph`` read from the input files.

    Returns ``(checked, mismatches)``; mismatches describe each failure.
    """
    by_key: Dict[tuple, object] = {}
    mismatches = []
    for index, epoch, answer in observations:
        key = (index, epoch)
        seen = by_key.setdefault(key, answer)
        if seen is not answer and seen != answer:
            mismatches.append(f"query {index} got two answers in epoch {epoch}")
    # Half the sample from nonempty answers and half from empty ones (as
    # far as each exists), so a bug that only adds or only drops pairs
    # cannot hide in whichever kind happens to dominate.
    rng = random.Random(seed)
    nonempty = sorted(k for k, pairs in by_key.items() if any(pairs.values()))
    empty = sorted(k for k, pairs in by_key.items() if not any(pairs.values()))
    want = min(workload.oracle_sample, len(by_key))
    take = min(len(nonempty), max(want - len(empty), (want + 1) // 2))
    sample = rng.sample(nonempty, take) + rng.sample(empty, want - take)
    sample.sort(key=lambda k: (k[1], k[0]))
    graph = workload.reference_graph(deployment)
    applied = 0
    for index, epoch in sample:
        while applied < epoch:
            applied += 1
            graph.apply_delta(epoch_deltas[applied])
        expected = workload.reference_answer(pool[index], graph)
        if expected != by_key[(index, epoch)]:
            mismatches.append(f"query {index} epoch {epoch}: answer differs from reference")
    return len(sample), mismatches
