"""MatchJoin: answering pattern queries using views (Section III, Fig. 2).

Given ``Qs ⊑ V`` with mapping λ and the materialized extensions
``V(G)``, MatchJoin computes ``Qs(G)`` without accessing ``G``:

1. initialize each pattern edge's match set as the union of the match
   sets of its λ-images (taken from the extensions);
2. run a fixpoint that removes invalid matches: a pair ``(v, v')`` in
   ``Se`` for ``e = (u, u')`` survives only while ``v`` has, for every
   out-edge of ``u``, some remaining pair, and likewise ``v'`` for the
   out-edges of ``u'`` (the simulation conditions of Section II-A).

Three fixpoint engines are provided:

* the **id-space** engine (:func:`id_fixpoint`) runs whenever every
  extension λ references carries a pair-row payload from the same
  snapshot (:class:`~repro.views.flatpack.FlatExtension`): whole-edge
  sweeps over the raw id rows with batch set-ops.  BMatchJoin runs the
  same function on bound-filtered rows.
* the **optimized** dict engine (``optimized=True`` on extensions
  materialized from a mutable graph) uses per-(edge, source) witness
  counters with an invalidation worklist processed in ascending SCC
  *rank* order -- the bottom-up strategy of Section III.  Lemma 2's
  guarantee holds: on DAG patterns every match set is visited at most
  once.  Its total cost is ``O(|Qs||V(G)| + |V(G)|^2)`` (Theorem 1(2)).
* the **naive** engine (``optimized=False``) is the literal Fig. 2
  loop: scan all edges until a full pass makes no change.  It exists so
  Exp-2 (Fig. 8(f)) can measure the optimization, exactly like the
  paper's ``MatchJoin_nopt``.

The two dict engines are the reference oracle the id-space engine is
property-tested against.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple, Union

from repro.core.containment import Containment
from repro.errors import NotContainedError, NotMaterializedError, UnsupportedPatternError
from repro.graph.pattern import Pattern
from repro.graph.scc import node_ranks
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.simulation.result import MatchResult
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView

log = logging.getLogger(__name__)

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Node = Hashable
NodePair = Tuple[Node, Node]
Extensions = Mapping[str, MaterializedView]


def _check_inputs(
    query: Pattern, containment: Containment, extensions: Extensions
) -> None:
    """Shared precondition checks for every MatchJoin entry point."""
    if not containment.holds:
        raise NotContainedError(containment.uncovered)
    if query.isolated_nodes():
        raise UnsupportedPatternError(
            "pattern has isolated nodes; view extensions store edges, so "
            "evaluate such patterns directly with match()"
        )
    for edge in query.edges():
        for view_name, _ in containment.mapping.get(edge, ()):
            if view_name not in extensions:
                raise NotMaterializedError(
                    f"extension for view {view_name!r} is required by λ "
                    "but was not provided"
                )


def merge_initial_sets(
    query: Pattern,
    containment: Containment,
    extensions: Extensions,
) -> Dict[PEdge, Set[NodePair]]:
    """Fig. 2 lines 1-4: ``Se := ∪_{e' ∈ λ(e)} Se'`` from the extensions."""
    _check_inputs(query, containment, extensions)
    initial: Dict[PEdge, Set[NodePair]] = {}
    for edge in query.edges():
        refs = containment.mapping.get(edge, ())
        merged: Set[NodePair] = set()
        for view_name, view_edge in refs:
            merged |= extensions[view_name].pairs_of(view_edge)
        initial[edge] = merged
    return initial


# ----------------------------------------------------------------------
# Optimized fixpoint: witness counters + rank-ordered worklist
# ----------------------------------------------------------------------
def _fixpoint_ranked(
    query: Pattern, sets: Dict[PEdge, Set[NodePair]]
) -> Optional[Dict[PEdge, Dict[Node, Set[Node]]]]:
    """Refine ``sets`` to the simulation fixpoint, bottom-up.

    Returns per-edge ``{source: {targets}}`` adjacency, or ``None`` when
    some match set empties (no match, Fig. 2 line 11).
    """
    edges = query.edges()
    by_source: Dict[PEdge, Dict[Node, Set[Node]]] = {}
    by_target: Dict[PEdge, Dict[Node, Set[Node]]] = {}
    for edge in edges:
        source_index: Dict[Node, Set[Node]] = {}
        target_index: Dict[Node, Set[Node]] = {}
        for v, w in sets[edge]:
            source_index.setdefault(v, set()).add(w)
            target_index.setdefault(w, set()).add(v)
        if not source_index:
            return None
        by_source[edge] = source_index
        by_target[edge] = target_index
    return _refine_indexes(query, by_source, by_target)


def _refine_indexes(
    query: Pattern,
    by_source: Dict[PEdge, Dict[Node, Set[Node]]],
    by_target: Dict[PEdge, Dict[Node, Set[Node]]],
) -> Optional[Dict[PEdge, Dict[Node, Set[Node]]]]:
    """The rank-ordered worklist refinement over pre-grouped indexes.

    This is the node-key engine only (the oracle the id-space sweep of
    :func:`id_fixpoint` is tested against).  Mutates the indexes in
    place; every inner set must be owned by the caller.
    """
    # Candidate pools and validity.  A candidate v of pattern node u is
    # valid while every out-edge of u still has a pair sourced at v,
    # i.e. v lies in the intersection of the source-index key sets of
    # u's out-edges (all indexed sets are nonempty at this point).
    candidates: Dict[PNode, Set[Node]] = {}
    for u in query.nodes():
        pool: Set[Node] = set()
        for edge in query.out_edges(u):
            pool.update(by_source[edge])
        for edge in query.in_edges(u):
            pool.update(by_target[edge])
        candidates[u] = pool

    ranks = node_ranks(query)
    counter = 0
    heap: List[Tuple[int, int, PNode, Node]] = []
    invalidated: Dict[PNode, Set[Node]] = {u: set() for u in query.nodes()}
    # Seed with invalid candidates, lowest rank first (bottom-up).
    for u in sorted(query.nodes(), key=lambda n: ranks[n]):
        alive: Optional[Set[Node]] = None
        for edge in query.out_edges(u):
            keys = by_source[edge].keys()
            alive = set(keys) if alive is None else alive.intersection(keys)
        doomed = candidates[u] - alive if alive is not None else set()
        for v in doomed:
            invalidated[u].add(v)
            heapq.heappush(heap, (ranks[u], counter, u, v))
            counter += 1

    while heap:
        _, _, u, v = heapq.heappop(heap)
        # Remove v's outgoing pairs (v is no longer a match of u).
        for edge in query.out_edges(u):
            targets = by_source[edge].pop(v, None)
            if targets is None:
                continue
            for w in targets:
                sources = by_target[edge].get(w)
                if sources is not None:
                    sources.discard(v)
                    if not sources:
                        del by_target[edge][w]
            if not by_source[edge]:
                return None
        # Remove v's incoming pairs and propagate to the sources.
        for edge in query.in_edges(u):
            w_source_u = edge[0]
            sources = by_target[edge].pop(v, None)
            if sources is None:
                continue
            for y in sources:
                remaining = by_source[edge].get(y)
                if remaining is None:
                    continue
                remaining.discard(v)
                if not remaining:
                    del by_source[edge][y]
                    if not by_source[edge]:
                        return None
                    if y not in invalidated[w_source_u]:
                        invalidated[w_source_u].add(y)
                        heapq.heappush(
                            heap, (ranks[w_source_u], counter, w_source_u, y)
                        )
                        counter += 1
    return by_source


# ----------------------------------------------------------------------
# Id-space fast path: whole-edge sweeps over extension pair rows
# ----------------------------------------------------------------------
#: One λ reference as the sweep consumes it: ``(src row, tgt row,
#: src-key frozenset, tgt-key frozenset, stored)``.  ``stored`` is the
#: ``(extension, payload, view edge)`` whose stored node-key sets equal
#: the rows (unfiltered references), or ``None`` for rows a caller
#: filtered (BMatchJoin's bound check), which always package by decode.
EdgeRows = Tuple[object, object, frozenset, frozenset, Optional[tuple]]


def snapshot_refs(query: Pattern, containment: Containment, extensions: Extensions):
    """``(refs, nodes)``: per query edge, its λ references as
    ``(extension, payload, view edge)`` triples, plus the snapshot's
    id -> key decode table -- or ``None`` when the id-space path must
    fall back to the dict engine: a referenced extension carries no
    id-space payload (materialized on a mutable graph), payloads come
    from different snapshots (ids must never mix), or λ references
    nothing.
    """
    token = None
    nodes = None
    refs: Dict[PEdge, List[Tuple[MaterializedView, object, PEdge]]] = {}
    for edge in query.edges():
        infos = []
        for view_name, view_edge in containment.mapping.get(edge, ()):
            extension = extensions[view_name]
            payload = extension.compact
            if payload is None:
                return None
            if token is None:
                token = payload.token
                nodes = payload.nodes
            elif payload.token != token:
                return None
            infos.append((extension, payload, view_edge))
        refs[edge] = infos
    return (refs, nodes) if token is not None else None


def stored_rows(extension: MaterializedView, payload, view_edge: PEdge) -> EdgeRows:
    """The unfiltered :data:`EdgeRows` of one λ reference: the payload's
    raw rows and stored key sets, nothing copied."""
    src, tgt = payload.pair_rows(view_edge)
    return (
        src,
        tgt,
        payload.src_keys[view_edge],
        payload.tgt_keys[view_edge],
        (extension, payload, view_edge),
    )


def _id_match_join(
    query: Pattern, containment: Containment, extensions: Extensions
) -> Optional[MatchResult]:
    """MatchJoin in snapshot id space, or ``None`` to fall back (see
    :func:`snapshot_refs`)."""
    found = snapshot_refs(query, containment, extensions)
    if found is None:
        return None
    refs, nodes = found
    rows = {
        edge: [stored_rows(*info) for info in infos]
        for edge, infos in refs.items()
    }
    return id_fixpoint(query, rows, nodes)


def id_fixpoint(
    query: Pattern, rows: Dict[PEdge, List[EdgeRows]], nodes
) -> MatchResult:
    """The id-space MatchJoin fixpoint, as whole-edge row sweeps.

    ``rows`` maps every query edge to the :data:`EdgeRows` of its λ
    images (Fig. 2 lines 1-4: the merged ``Se`` is their union);
    ``nodes`` is the snapshot's id -> key decode table.  Shared by
    MatchJoin and BMatchJoin, which differ only in the rows they hand
    in.  Everything the fixpoint touches is a batch set-op: candidate
    pools are C-level intersections of the per-edge key frozensets,
    refinement re-derives an edge's live sources in **one comprehension
    pass over its raw ``(src, tgt)`` rows** (no grouped ``{id: set}``
    index is ever built), and untouched edges package by unioning the
    stored node-key sets with zero id decodes.  The sweep recomputes
    from scratch instead of decrementing witness counters, trading
    worst-case increments for straight C-speed passes -- the right
    trade for the serving regime, where extensions are large and
    queries converge in a few rounds.  The fixpoint reached is the
    simulation refinement of Fig. 2, so the result equals the dict
    engines' (the oracle).
    """
    # --- merge (Fig. 2 lines 1-4) on key sets only ---------------------
    edges = query.edges()
    src_keys: Dict[PEdge, frozenset] = {}
    tgt_keys: Dict[PEdge, frozenset] = {}
    for edge in edges:
        edge_rows = rows[edge]
        if not edge_rows:
            return MatchResult.empty()
        if len(edge_rows) == 1:
            sources, targets = edge_rows[0][2], edge_rows[0][3]
        else:
            sources = frozenset().union(*(r[2] for r in edge_rows))
            targets = frozenset().union(*(r[3] for r in edge_rows))
        if not sources:
            return MatchResult.empty()
        src_keys[edge] = sources
        tgt_keys[edge] = targets

    # --- candidate pools and seed (batch frozenset ops) ----------------
    valid: Dict[PNode, Set[int]] = {}
    in_edges: Dict[PNode, List[PEdge]] = {}
    for u in query.nodes():
        in_edges[u] = query.in_edges(u)
        outs = [src_keys[e] for e in query.out_edges(u)]
        if outs:
            # Simulation semantics: a candidate needs a stored pair on
            # *every* out-edge, so the pool is the src-key intersection.
            valid[u] = outs[0] if len(outs) == 1 else outs[0].intersection(
                *outs[1:]
            )
            if not valid[u]:
                return MatchResult.empty()
        else:
            # Sink nodes are only ever targets; their pool is the union
            # of the incoming images.
            ins = [tgt_keys[e] for e in in_edges[u]]
            valid[u] = ins[0] if len(ins) == 1 else ins[0].union(*ins[1:])

    # --- fixpoint: whole-edge sweeps over the rows ----------------------
    # An edge (u, u') needs a sweep only while some stored target is
    # outside valid(u'); the sweep recomputes, in one pass over the raw
    # rows, the set of sources that still have a live witness, and
    # shrinking valid(u) re-queues u's in-edges.  Sweep counts
    # aggregate in a local int and hit the registry once per call (the
    # overhead-budget discipline for hot kernels).
    sweeps = 0
    dirty = deque(edges)
    queued: Set[PEdge] = set(edges)
    while dirty:
        edge = dirty.popleft()
        queued.discard(edge)
        sweeps += 1
        u, u_prime = edge
        live_targets = valid[u_prime]
        if live_targets >= tgt_keys[edge]:
            continue  # every stored target is live: no source can die
        edge_rows = rows[edge]
        if len(edge_rows) == 1:
            src_row, tgt_row = edge_rows[0][0], edge_rows[0][1]
            alive = {
                v for v, w in zip(src_row, tgt_row) if w in live_targets
            }
        else:
            alive = set()
            for src_row, tgt_row, *_ in edge_rows:
                alive.update(
                    v for v, w in zip(src_row, tgt_row) if w in live_targets
                )
        candidates = valid[u]
        survivors = candidates & alive
        if len(survivors) == len(candidates):
            continue
        if not survivors:
            get_registry().counter(
                "repro_matchjoin_sweeps_total", path="id"
            ).inc(sweeps)
            return MatchResult.empty()
        valid[u] = survivors
        for affected in in_edges[u]:
            if affected not in queued:
                dirty.append(affected)
                queued.add(affected)
    get_registry().counter("repro_matchjoin_sweeps_total", path="id").inc(sweeps)

    # --- package: batch unions for untouched edges ---------------------
    decode = nodes.__getitem__
    node_matches: Dict[PNode, Set[Node]] = {u: set() for u in query.nodes()}
    edge_matches: Dict[PEdge, Set[NodePair]] = {}
    for edge in edges:
        u, u_prime = edge
        edge_rows = rows[edge]
        valid_src = valid[u]
        valid_tgt = valid[u_prime]
        stored = [r[4] for r in edge_rows]
        if (
            None not in stored
            and src_keys[edge] <= valid_src
            and tgt_keys[edge] <= valid_tgt
        ):
            # No endpoint candidate of this edge was refined away: every
            # stored pair survives, so the answer is the stored node-key
            # sets united wholesale -- no per-pair decode.
            edge_matches[edge] = set().union(
                *(ext.edge_matches[ve] for ext, _, ve in stored)
            )
            node_matches[u] = node_matches[u].union(
                *(p.src_nodes[ve] for _, p, ve in stored)
            )
            node_matches[u_prime] = node_matches[u_prime].union(
                *(p.tgt_nodes[ve] for _, p, ve in stored)
            )
            continue
        # Touched (or filtered) edge: one pass over the rows, decoding
        # only the pairs that survived.
        pairs: Set[NodePair] = set()
        for src_row, tgt_row, *_ in edge_rows:
            pairs.update(
                (decode(v), decode(w))
                for v, w in zip(src_row, tgt_row)
                if v in valid_src and w in valid_tgt
            )
        edge_matches[edge] = pairs
        node_matches[u].update(pair[0] for pair in pairs)
        node_matches[u_prime].update(pair[1] for pair in pairs)
    return MatchResult(node_matches, edge_matches)


# ----------------------------------------------------------------------
# Naive fixpoint: the literal Fig. 2 while-loop (MatchJoin_nopt)
# ----------------------------------------------------------------------
def _fixpoint_naive(
    query: Pattern, sets: Dict[PEdge, Set[NodePair]]
) -> Optional[Dict[PEdge, Dict[Node, Set[Node]]]]:
    edges = query.edges()
    current: Dict[PEdge, Set[NodePair]] = {e: set(sets[e]) for e in edges}
    if any(not current[e] for e in edges):
        return None
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        # Rebuild the source index from scratch every pass: no worklist,
        # no rank order -- each Se is revisited until a quiet pass.
        sources: Dict[PEdge, Set[Node]] = {
            e: {pair[0] for pair in current[e]} for e in edges
        }
        for edge in edges:
            u, u_prime = edge
            out_u = query.out_edges(u)
            out_u_prime = query.out_edges(u_prime)
            doomed: List[NodePair] = []
            for v, w in current[edge]:
                ok = all(v in sources[e1] for e1 in out_u) and all(
                    w in sources[e2] for e2 in out_u_prime
                )
                if not ok:
                    doomed.append((v, w))
            if doomed:
                current[edge] -= set(doomed)
                if not current[edge]:
                    get_registry().counter(
                        "repro_matchjoin_sweeps_total", path="naive"
                    ).inc(passes)
                    return None
                changed = True
    get_registry().counter(
        "repro_matchjoin_sweeps_total", path="naive"
    ).inc(passes)
    by_source: Dict[PEdge, Dict[Node, Set[Node]]] = {}
    for edge in edges:
        index: Dict[Node, Set[Node]] = {}
        for v, w in current[edge]:
            index.setdefault(v, set()).add(w)
        by_source[edge] = index
    return by_source


def run_fixpoint(
    query: Pattern,
    sets: Dict[PEdge, Set[NodePair]],
    optimized: bool = True,
) -> Optional[MatchResult]:
    """Run the chosen fixpoint engine and package the result."""
    engine = _fixpoint_ranked if optimized else _fixpoint_naive
    by_source = engine(query, sets)
    if by_source is None:
        return None
    edge_matches: Dict[PEdge, Set[NodePair]] = {}
    node_matches: Dict[PNode, Set[Node]] = {u: set() for u in query.nodes()}
    for edge, index in by_source.items():
        pairs = {(v, w) for v, targets in index.items() for w in targets}
        edge_matches[edge] = pairs
        u, u_prime = edge
        for v, w in pairs:
            node_matches[u].add(v)
            node_matches[u_prime].add(w)
    return MatchResult(node_matches, edge_matches)


def _extensions_of(views: Union[Extensions, ViewSet]) -> Extensions:
    if isinstance(views, ViewSet):
        return views.extensions()
    return views


def match_join(
    query: Pattern,
    containment: Containment,
    extensions: Union[Extensions, ViewSet],
    optimized: bool = True,
) -> MatchResult:
    """Evaluate ``Qs`` from view extensions only (algorithm MatchJoin).

    Parameters
    ----------
    query:
        The pattern query ``Qs``.
    containment:
        A holding :class:`Containment` for ``Qs`` against the views
        whose extensions are supplied (its λ guides the merge).
    extensions:
        ``{view name: MaterializedView}`` or a materialized
        :class:`ViewSet`.  The data graph itself is never consulted.
    optimized:
        Use the rank-ordered worklist engine (default) or the literal
        Fig. 2 loop (``MatchJoin_nopt``).

    Returns the unique maximum result ``{(e, Se)}``; empty when ``G``
    does not match ``Qs``.  Node match sets in the returned result are
    the nodes participating in edge matches (the paper's ``Qs(G)`` is
    the edge-level object).

    When every referenced extension was materialized against the same
    snapshot, the optimized engine runs in the snapshot's integer-id
    space (:func:`id_fixpoint`); the result is identical either way.
    ``repro_matchjoin_total{path}`` counts each call as ``id`` (the
    id-space sweep), ``dict`` (the node-key ranked engine) or
    ``naive``.
    """
    resolved = _extensions_of(extensions)
    _check_inputs(query, containment, resolved)
    reg = get_registry()
    if not optimized:
        reg.counter("repro_matchjoin_total", path="naive").inc()
        initial = merge_initial_sets(query, containment, resolved)
        result = run_fixpoint(query, initial, optimized=False)
        return result if result is not None else MatchResult.empty()
    with trace.span("matchjoin", edges=len(query.edges())) as mj_span:
        result = _id_match_join(query, containment, resolved)
        path = "id"
        if result is None:
            path = "dict"
            initial = merge_initial_sets(query, containment, resolved)
            result = run_fixpoint(query, initial, optimized=True)
            if result is None:
                result = MatchResult.empty()
        reg.counter("repro_matchjoin_total", path=path).inc()
        if mj_span is not None:
            mj_span.set(path=path)
        return result
