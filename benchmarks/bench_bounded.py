"""Compact bounded backend vs. the mutable dict backend.

Not a paper figure -- this benchmarks the PR that threads bounded
patterns (Section VI) through the compact snapshot stack.  Both
backends answer the same synthetic bounded workload (the Fig. 8(l)
graph family with the 22-view suite promoted to edge bound 2):

* **BMatch** -- direct bounded evaluation of each query on ``G``: the
  dict backend's per-node BFS loops vs. the frozen snapshot's id-space
  engine (label-index seeding, level-synchronous reverse/forward BFS
  over CSR rows);
* **BMatchJoin** -- view-based bounded evaluation from extensions
  materialized on the respective backend: node-key pair sets filtered
  through the node-key ``I(V)`` vs. snapshot-bound id-space payloads
  whose distance index rides the extension's pair rows.

``test_bounded_speedup_over_dict`` asserts the headline claim -- the
compact backend answers the combined BMatch + BMatchJoin workload at
least 2x faster than the dict backend -- and
``test_backend_equivalence`` that both backends return identical
results, so the fast path can never silently drift.  Equivalence is
checked unconditionally at every scale; the wall-clock assertion skips
at smoke scales (CI runs this module at scale 0 for correctness only,
following the ``bench_sharded`` convention -- shared runners are too
noisy for timing ratios).  Freezing/materialization happens outside
every timed region (the snapshot is built once and serves the whole
batch, exactly how ``QueryEngine`` uses it).
"""

from time import perf_counter

import pytest

from repro.bench import workloads
from repro.core.bounded.bminimal import bounded_minimal_views
from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.simulation import bounded_match
from repro.views.storage import ViewSet

from common import once

#: Pattern sizes of the batch (a slice of the paper's Fig. 8 axes).
SIZES = [(4, 4), (4, 6), (4, 8), (6, 6), (6, 9), (8, 8)]

#: Edge bound of the promoted view suite (the paper's default k = 2).
BOUND = 2


@pytest.fixture(scope="module")
def workload(scale):
    graph, views = workloads.synthetic_bounded(
        max(1500, int(5000 * scale)), BOUND
    )
    frozen = graph.freeze()
    compact_views = ViewSet(list(views))
    compact_views.materialize(frozen)
    queries = [
        workloads.pick_query(views, n, m, graph=graph, tag=f"bounded{i}")
        for i, (n, m) in enumerate(SIZES)
    ]
    containments = [bounded_minimal_views(query, views) for query in queries]
    return graph, frozen, views, compact_views, queries, containments


def _run_bmatch(graph, queries):
    return [bounded_match(query, graph) for query in queries]


def _run_bmatchjoin(views, queries, containments):
    return [
        bounded_match_join(query, containment, views)
        for query, containment in zip(queries, containments)
    ]


def test_dict_bmatch(benchmark, workload):
    graph, _, _, _, queries, _ = workload
    once(benchmark, _run_bmatch, graph, queries)


def test_compact_bmatch(benchmark, workload):
    _, frozen, _, _, queries, _ = workload
    once(benchmark, _run_bmatch, frozen, queries)


def test_dict_bmatchjoin(benchmark, workload):
    _, _, views, _, queries, containments = workload
    once(benchmark, _run_bmatchjoin, views, queries, containments)


def test_compact_bmatchjoin(benchmark, workload):
    _, _, _, compact_views, queries, containments = workload
    once(benchmark, _run_bmatchjoin, compact_views, queries, containments)


def _timed(fn, *args):
    started = perf_counter()
    result = fn(*args)
    return perf_counter() - started, result


def test_backend_equivalence(workload):
    """Same answers on both backends, and (Theorem 9) BMatchJoin agrees
    with direct bounded evaluation -- checked at every scale."""
    graph, frozen, views, compact_views, queries, containments = workload
    dict_match = _run_bmatch(graph, queries)
    compact_match = _run_bmatch(frozen, queries)
    dict_join = _run_bmatchjoin(views, queries, containments)
    compact_join = _run_bmatchjoin(compact_views, queries, containments)
    for a, b, c, d in zip(dict_match, compact_match, dict_join, compact_join):
        assert a == b
        assert c == d
        assert c.edge_matches == a.edge_matches


def test_bounded_speedup_over_dict(workload, scale):
    """Acceptance check: compact BMatch + BMatchJoin >= 2x dict backend."""
    if scale < 0.25:
        pytest.skip("smoke scale: timing ratios are noise-bound on CI")
    graph, frozen, views, compact_views, queries, containments = workload

    # min-of-3 per leg to de-noise millisecond-scale runs.
    dict_time = min(
        _timed(_run_bmatch, graph, queries)[0]
        + _timed(_run_bmatchjoin, views, queries, containments)[0]
        for _ in range(3)
    )
    compact_time = min(
        _timed(_run_bmatch, frozen, queries)[0]
        + _timed(_run_bmatchjoin, compact_views, queries, containments)[0]
        for _ in range(3)
    )
    assert dict_time >= 2 * compact_time, (
        f"dict {dict_time:.4f}s vs compact {compact_time:.4f}s "
        f"({dict_time / compact_time:.2f}x)"
    )
