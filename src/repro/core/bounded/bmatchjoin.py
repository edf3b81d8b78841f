"""BMatchJoin: answering bounded pattern queries using views (Section VI-A).

Identical in structure to MatchJoin with two bounded-specific twists:

* merged pairs come from *bounded* view extensions, whose match sets
  contain node pairs connected by paths (not necessarily edges); the
  auxiliary distance index ``I(V)`` maps every materialized pair to its
  actual distance in ``G``;
* a merged pair only enters ``Se`` when its ``I(V)`` distance respects
  the *query* edge's own bound ``fe(e)`` (a covering view edge may have
  a larger bound, so its extension can contain pairs that are too far
  apart for ``e``) -- this is the O(1)-per-pair distance check the
  paper describes for BMatchJoin.

The fixpoint afterwards is the same simulation-condition refinement as
MatchJoin, rank optimization included, for the
``O(|Qb||V(G)| + |V(G)|^2)`` bound of Theorem 9.

Like plain MatchJoin, the optimized engine has an **id-space path**:
when every extension the λ mapping references was materialized against
the same snapshot, the merge filters each payload's pair rows through
their per-pair ``I(V)`` distances and the fixpoint is MatchJoin's own
whole-edge sweep (:func:`repro.core.matchjoin.id_fixpoint`) -- no
node-key pair is touched until the final decode.  A query edge whose
bound dominates the covering view edge's bound (``fe(e') <= fe(e)``)
skips filtering entirely and shares the stored rows and key sets,
which is the common case for promoted view suites.  A missing payload
or a token mismatch falls back to the node-key path with identical
results.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple, Union

from repro.core.containment import Containment
from repro.core.matchjoin import (
    EdgeRows,
    _extensions_of,
    id_fixpoint,
    run_fixpoint,
    snapshot_refs,
    stored_rows,
)
from repro.errors import (
    NotContainedError,
    NotMaterializedError,
    UnsupportedPatternError,
)
from repro.graph.pattern import ANY, BoundedPattern, bound_le
from repro.obs.metrics import get_registry
from repro.simulation.result import MatchResult
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Node = Hashable
NodePair = Tuple[Node, Node]
Extensions = Mapping[str, MaterializedView]


def _check_bounded_inputs(
    query: BoundedPattern, containment: Containment, extensions: Extensions
) -> None:
    """Shared precondition checks for every BMatchJoin entry point."""
    if not containment.holds:
        raise NotContainedError(containment.uncovered)
    if query.isolated_nodes():
        raise UnsupportedPatternError(
            "pattern has isolated nodes; evaluate directly with "
            "bounded_match()"
        )
    for edge in query.edges():
        for view_name, _ in containment.mapping.get(edge, ()):
            if view_name not in extensions:
                raise NotMaterializedError(
                    f"extension for view {view_name!r} is required by λ "
                    "but was not provided"
                )


def _needs_distance_filter(
    extension: MaterializedView, view_edge: PEdge, bound
) -> bool:
    """Whether pairs of ``view_edge`` can exceed the query bound.

    No filter is needed when the query edge accepts any path (``*``),
    when the view is a simulation view (its pairs are data edges --
    distance exactly 1, and bounds are >= 1 by construction), or when
    the covering view edge's own bound is dominated by the query bound
    (every stored pair is within it a fortiori).
    """
    if bound is ANY:
        return False
    pattern = extension.definition.pattern
    if not isinstance(pattern, BoundedPattern):
        return False
    return not bound_le(pattern.bound(view_edge), bound)


def merge_initial_sets_bounded(
    query: BoundedPattern,
    containment: Containment,
    extensions: Extensions,
) -> Dict[PEdge, Set[NodePair]]:
    """Union the λ-image match sets, filtered through ``I(V)``."""
    _check_bounded_inputs(query, containment, extensions)
    initial: Dict[PEdge, Set[NodePair]] = {}
    for edge in query.edges():
        bound = query.bound(edge)
        merged: Set[NodePair] = set()
        for view_name, view_edge in containment.mapping.get(edge, ()):
            extension = extensions[view_name]
            pairs = extension.pairs_of(view_edge)
            if not _needs_distance_filter(extension, view_edge, bound):
                merged |= pairs
            else:
                merged.update(
                    pair for pair in pairs if extension.distance_of(pair) <= bound
                )
        initial[edge] = merged
    return initial


# ----------------------------------------------------------------------
# Id-space fast path: bound-filtered rows into the shared sweep
# ----------------------------------------------------------------------
def _id_bounded_match_join(
    query: BoundedPattern, containment: Containment, extensions: Extensions
) -> Optional[MatchResult]:
    """BMatchJoin in snapshot id space, or ``None`` to fall back.

    Engages under the same rule as MatchJoin's id-space path
    (:func:`repro.core.matchjoin.snapshot_refs`: one snapshot token
    behind every λ reference).  A reference whose view-edge bound the
    query bound dominates hands its stored rows and key sets to
    :func:`~repro.core.matchjoin.id_fixpoint` untouched; any other keeps
    the pair rows whose ``I(V)`` distance (``pairs_dist``, carried by
    every bounded payload) is within the query edge's bound -- one
    O(1) check per pair, decoding nothing.
    """
    found = snapshot_refs(query, containment, extensions)
    if found is None:
        return None
    refs, nodes = found
    rows: Dict[PEdge, List[EdgeRows]] = {}
    for edge, infos in refs.items():
        bound = query.bound(edge)
        edge_rows: List[EdgeRows] = []
        for extension, payload, view_edge in infos:
            if not _needs_distance_filter(extension, view_edge, bound):
                edge_rows.append(stored_rows(extension, payload, view_edge))
                continue
            src, tgt = payload.pair_rows(view_edge)
            keep = [d <= bound for d in payload.dist_row(view_edge)]
            kept_src = list(compress(src, keep))
            kept_tgt = list(compress(tgt, keep))
            edge_rows.append(
                (kept_src, kept_tgt, frozenset(kept_src), frozenset(kept_tgt), None)
            )
        rows[edge] = edge_rows
    return id_fixpoint(query, rows, nodes)


def bounded_match_join(
    query: BoundedPattern,
    containment: Containment,
    extensions: Union[Extensions, ViewSet],
    optimized: bool = True,
) -> MatchResult:
    """Evaluate ``Qb`` from bounded view extensions only (BMatchJoin).

    Mirrors :func:`repro.core.matchjoin.match_join`; see there for the
    parameter contract.  ``extensions`` must come from *bounded* view
    definitions so that the distance index is present (simulation views
    promoted to bound-1 edges also work: their pairs are edges, distance
    1).

    When every referenced extension was materialized against the same
    snapshot (a frozen :class:`~repro.graph.compact.CompactGraph` or a
    :class:`~repro.shard.sharded.ShardedGraph`), the optimized engine
    runs entirely in the snapshot's integer-id space, bound-filtering
    through the payloads' per-pair distances (see
    :func:`_id_bounded_match_join`); the result is identical either
    way.  Each call counts in ``repro_matchjoin_total{path}`` exactly
    like :func:`~repro.core.matchjoin.match_join`.
    """
    if not isinstance(query, BoundedPattern):
        raise TypeError(
            "bounded_match_join expects a BoundedPattern; use match_join "
            "for plain patterns"
        )
    resolved = _extensions_of(extensions)
    _check_bounded_inputs(query, containment, resolved)
    result = None
    if optimized:
        result = _id_bounded_match_join(query, containment, resolved)
    path = "id" if result is not None else "dict" if optimized else "naive"
    get_registry().counter("repro_matchjoin_total", path=path).inc()
    if result is not None:
        return result
    initial = merge_initial_sets_bounded(query, containment, resolved)
    result = run_fixpoint(query, initial, optimized=optimized)
    return result if result is not None else MatchResult.empty()
