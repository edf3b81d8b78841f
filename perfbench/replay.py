"""The traced run's serial layer replay.

After the live phase, the run replays a query stream (and, on the
writing workload, a delta stream) one call at a time through the public
entry points of each layer, each call inside its own span:

* ``engine.plan`` / ``engine.execute`` -- the engine path a server
  request takes;
* ``core.contain`` -- containment plus minimal selection, as planning
  runs it;
* ``core.matchjoin`` -- the view-join kernel over the materialized
  extensions (contained queries only);
* ``simulation.match`` -- direct evaluation on the workload's snapshot
  (the paper's baseline);
* ``engine.apply_delta``, ``engine.checkpoint``,
  ``graph.snapshot_save`` and ``graph.snapshot_load`` -- one epoch's
  maintenance and persistence.

Spans of one replayed request share a request id; each layer's figure
is the median self time of its spans.
"""

from __future__ import annotations

import random
from pathlib import Path

#: Queries the writing workload replays, and a delta after every few.
RW_REPLAY_QUERIES = 24
RW_QUERIES_PER_DELTA = 6


def _dir_bytes(path: Path, prefix: str = "") -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir()
               if p.is_file() and p.name.startswith(prefix))


def replay(workload, deployment, streams, spans, delta_offset: int) -> dict:
    """Run the serial replay; returns counts gathered along the way."""
    from repro.core import match_join, minimal_views
    from repro.engine.plan import HYBRID, MATCHJOIN
    from repro.graph.snapshot import SnapshotStore
    from repro.simulation import match

    engine = deployment.engine
    views = engine.views

    if workload.writes:
        rng = random.Random(workload.seed * 7 + 5)
        queries = rng.choices(streams.pool, k=RW_REPLAY_QUERIES)
        deltas = streams.deltas[delta_offset:]
    else:
        queries = streams.replay
        deltas = []

    result_pairs = []
    snapshot_bytes = []
    extension_bytes = []
    probe = workload.work / "replay-snapshot"

    def persist():
        with spans.span("engine.checkpoint"):
            checkpoint = engine.checkpoint()
        with spans.span("graph.snapshot_save"):
            SnapshotStore.save(probe, checkpoint.snapshot,
                               views=checkpoint.extensions, overwrite=True)
        snapshot_bytes.append(_dir_bytes(probe))
        extension_bytes.append(_dir_bytes(probe, "view-"))

    for number, query in enumerate(queries):
        with spans.span("replay.query", request=f"r{number}"):
            with spans.span("engine.plan"):
                plan = engine.plan(query)
            with spans.span("engine.execute"):
                result = engine.execute(plan)
            result_pairs.append(result.result_size)
            snapshot = engine.snapshot()
            with spans.span("core.contain"):
                containment = minimal_views(query, views)
            if plan.strategy in (MATCHJOIN, HYBRID) and containment.holds:
                extensions = views.extensions()
                with spans.span("core.matchjoin"):
                    match_join(query, containment, extensions)
            with spans.span("simulation.match"):
                match(query, snapshot)
        if deltas and (number + 1) % RW_QUERIES_PER_DELTA == 0:
            delta = deltas.pop(0)
            with spans.span("replay.update", request=f"d{number}"):
                with spans.span("engine.apply_delta"):
                    engine.apply_delta(delta)
                persist()
    with spans.span("replay.persist", request="persist"):
        persist()
        with spans.span("graph.snapshot_load"):
            SnapshotStore.load(probe)
    return {
        "replay_queries": len(queries),
        "result_pairs": result_pairs,
        "snapshot_bytes": snapshot_bytes[-1],
        "extension_bytes": extension_bytes[-1],
    }
