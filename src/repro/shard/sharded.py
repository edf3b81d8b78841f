"""The sharded graph backend: per-shard snapshots + cross-shard tables.

A :class:`ShardedGraph` is the in-process reproduction of a fragmented
graph deployment: the node set is split by a
:class:`~repro.shard.partitioner.Partition`, and each shard holds a
frozen :class:`~repro.graph.compact.CompactGraph` snapshot of

* its own nodes (labels, attributes, and their **complete**
  out-adjacency), and
* *ghost* copies of the foreign nodes its out-edges reach -- label and
  attribute data only, no out-edges of their own.

Because every node's full out-adjacency lives in exactly one shard, a
shard-local simulation fixpoint is exact up to the match status of its
ghosts; :mod:`repro.shard.psim` exploits this for partial-evaluation
matching, and :mod:`repro.shard.materialize` for per-shard parallel
view materialization.

Like :class:`CompactGraph`, a sharded graph is an immutable snapshot
with the full ``DataGraph``-compatible read API over original node
keys, so every generic engine (dual, strong, bounded, distance oracles)
runs on it unchanged.  It also mints a **composite id space**: every
owned node gets a dense global id (shard-major order), and each
shard carries a row translating its local snapshot ids -- ghosts
included -- to global ids.  The composite ``snapshot_token`` /
``node_table`` make merged extensions indistinguishable from
single-snapshot ones, so the MatchJoin id-space fast path engages
unchanged on views materialized shard-parallel.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.graph.compact import CompactGraph, _new_token
from repro.graph.digraph import DataGraph
from repro.shard.partitioner import Partition, make_partition

Node = Hashable
Edge = Tuple[Node, Node]


class ShardedGraph:
    """An immutable, partition-aligned snapshot of a :class:`DataGraph`.

    Parameters
    ----------
    graph:
        The source graph ``G``; read once at construction (like
        ``freeze()``, the sharded snapshot does not follow later
        mutations).
    partition:
        A :class:`Partition` of ``graph``, or ``None`` to hash-partition
        into ``num_shards`` shards here.
    num_shards / strategy:
        Used only when ``partition`` is ``None``.
    """

    __slots__ = (
        "partition",
        "_shards",
        "_own_counts",
        "_offsets",
        "_home",
        "_node_table",
        "_global_rows",
        "_ghost_ids",
        "_ghost_shards",
        "_bridges",
        "_cross_pred",
        "_label_nodes",
        "_num_edges",
        "snapshot_version",
        "snapshot_token",
        "extends_token",
    )

    def __init__(
        self,
        graph: DataGraph,
        partition: Optional[Partition] = None,
        num_shards: int = 2,
        strategy: str = "hash",
    ) -> None:
        if partition is None:
            partition = make_partition(graph, num_shards, strategy)
        self.partition = partition
        k = partition.num_shards

        # Per-shard local graphs: own nodes first (so local ids
        # 0..own-1 are internal), then ghosts picking up label/attr
        # copies; edges are the full out-adjacency of own nodes.
        locals_: List[DataGraph] = []
        for i in range(k):
            local = DataGraph()
            for node in partition.nodes_of(i):
                local.add_node(node, labels=graph.labels(node), attrs=graph.attrs(node))
            for node in partition.nodes_of(i):
                for target in graph.successors(node):
                    local.add_edge(node, target)
            for ghost in partition.ghosts_of(i):
                local.add_node(
                    ghost, labels=graph.labels(ghost), attrs=graph.attrs(ghost)
                )
            locals_.append(local)
        self._shards: Tuple[CompactGraph, ...] = tuple(
            local.freeze() for local in locals_
        )
        self._own_counts: Tuple[int, ...] = tuple(
            len(partition.nodes_of(i)) for i in range(k)
        )

        # Composite id space: global id = offset of home shard + local
        # id there (own nodes precede ghosts, so this is dense).
        offsets: List[int] = []
        total = 0
        for count in self._own_counts:
            offsets.append(total)
            total += count
        self._offsets: Tuple[int, ...] = tuple(offsets)
        self._home: Dict[Node, int] = partition.assignment
        node_table: List[Node] = []
        for i in range(k):
            node_table.extend(partition.nodes_of(i))
        self._node_table = node_table

        # Per-shard translation rows local id -> global id, defined for
        # ghosts too (a ghost's global id is its home shard's).
        global_rows: List[List[int]] = []
        ghost_ids: List[Dict[Node, int]] = []
        for i, snapshot in enumerate(self._shards):
            row: List[int] = []
            ghosts: Dict[Node, int] = {}
            own = self._own_counts[i]
            for local_id in range(snapshot.num_nodes):
                node = snapshot.node_of(local_id)
                home = self._home[node]
                row.append(self._offsets[home] + self._shards[home].id_of(node))
                if local_id >= own:
                    ghosts[node] = local_id
            global_rows.append(row)
            ghost_ids.append(ghosts)
        self._global_rows: Tuple[List[int], ...] = tuple(global_rows)
        self._ghost_ids: Tuple[Dict[Node, int], ...] = tuple(ghost_ids)

        # Reverse boundary tables: which shards hold a ghost of each
        # boundary node (the coordinator's re-run fanout), and the
        # cross-shard predecessors the home shard cannot see.
        ghost_shards: Dict[Node, List[int]] = {}
        for i, ghosts in enumerate(self._ghost_ids):
            for node in ghosts:
                ghost_shards.setdefault(node, []).append(i)
        self._ghost_shards: Dict[Node, Tuple[int, ...]] = {
            node: tuple(shards) for node, shards in ghost_shards.items()
        }
        # Boundary bridges: for each owner shard, one entry per holder
        # shard that ghosts any of its nodes -- the owner-local ids
        # exported there (as a frozenset, so the coordinator can
        # intersect a removal batch in one C call) plus the owner-local
        # -> holder-ghost id translation.  This is the exchange step's
        # hot path, so the whole indirection chain (node key, holder
        # list, holder's ghost id) is pre-resolved here.
        bridges: List[List[Tuple[int, FrozenSet[int], Dict[int, int]]]] = [
            [] for _ in range(k)
        ]
        for holder, ghosts in enumerate(self._ghost_ids):
            per_owner: Dict[int, Dict[int, int]] = {}
            for node, ghost_id in ghosts.items():
                owner = self._home[node]
                per_owner.setdefault(owner, {})[
                    self._shards[owner].id_of(node)
                ] = ghost_id
            for owner, mapping in per_owner.items():
                bridges[owner].append((holder, frozenset(mapping), mapping))
        self._bridges: Tuple[
            Tuple[Tuple[int, FrozenSet[int], Dict[int, int]], ...], ...
        ] = tuple(tuple(entries) for entries in bridges)
        cross_pred: Dict[Node, set] = {}
        for source, target in partition.cross_edges:
            cross_pred.setdefault(target, set()).add(source)
        self._cross_pred: Dict[Node, FrozenSet[Node]] = {
            node: frozenset(sources) for node, sources in cross_pred.items()
        }

        # Composite label index over owned nodes (shard ghosts would
        # double-count).
        label_nodes: Dict[str, List[Node]] = {}
        for node in node_table:
            for label in graph.labels(node):
                label_nodes.setdefault(label, []).append(node)
        self._label_nodes: Dict[str, Tuple[Node, ...]] = {
            label: tuple(nodes) for label, nodes in label_nodes.items()
        }

        self._num_edges = graph.num_edges
        self.snapshot_version = graph.version
        self.snapshot_token = _new_token()
        self.extends_token = None

    # ------------------------------------------------------------------
    # Delta refresh
    # ------------------------------------------------------------------
    def refreshed(self, graph: DataGraph, ops) -> "ShardedGraph":
        """A new sharded snapshot of ``graph`` built by patching this one.

        ``ops`` is the ordered edge-op batch (``(op, source, target)``
        triples, e.g. from
        :meth:`~repro.graph.digraph.DataGraph.edge_changes_since`)
        separating this snapshot from the current graph state; the
        caller guarantees the only other changes are brand-new nodes.

        Each op is routed to the shard *owning* its source (out-
        adjacency lives with the owner), and only those shards' frozen
        snapshots are rebuilt -- every other shard's
        :class:`CompactGraph` is reused by reference.  New nodes are
        assigned to the last shard, whose own nodes sit at the top of
        the composite id space, so **every pre-existing node keeps its
        composite global id**; the boundary tables (ghosts, bridges,
        cross-predecessors) are re-derived from the updated cut.  The
        result mints a fresh composite ``snapshot_token`` and records
        this snapshot's token in :attr:`extends_token`, so extensions
        of views an update did not touch can be re-stamped onto it and
        MatchJoin's id-space path re-engages immediately.
        """
        old_partition = self.partition
        k = old_partition.num_shards
        new_nodes = [node for node in graph.nodes() if node not in self._home]

        # --- partition bookkeeping -----------------------------------
        assignment = dict(old_partition.assignment)
        for node in new_nodes:
            assignment[node] = k - 1
        shards = list(old_partition._shards)
        if new_nodes:
            shards[k - 1] = shards[k - 1] + new_nodes
        # Net effect per edge (an edge may be deleted and re-inserted
        # within one batch; only its final state matters for the cut).
        final: Dict[Edge, str] = {}
        for op, source, target in ops:
            final[(source, target)] = op
        cross = [edge for edge in old_partition._cross if edge not in final]
        for edge, op in final.items():
            if op == "insert" and assignment[edge[0]] != assignment[edge[1]]:
                cross.append(edge)
        affected = {assignment[source] for _, source, _ in ops}
        if new_nodes:
            affected.add(k - 1)
        ghosts = list(old_partition._ghosts)
        for index in affected:
            ghosts[index] = frozenset(
                target
                for source, target in cross
                if assignment[source] == index
            )
        partition = Partition.__new__(Partition)
        partition.strategy = old_partition.strategy
        partition.num_shards = k
        partition._assignment = assignment
        partition._shards = shards
        partition._cross = tuple(cross)
        partition._ghosts = tuple(ghosts)
        partition._internal_edges = graph.num_edges - len(cross)
        partition._num_edges = graph.num_edges

        # --- per-shard snapshots: rebuild affected, reuse the rest ----
        new = ShardedGraph.__new__(ShardedGraph)
        new.partition = partition
        shard_snapshots = list(self._shards)
        for index in sorted(affected):
            local = DataGraph()
            for node in partition.nodes_of(index):
                local.add_node(
                    node, labels=graph.labels(node), attrs=graph.attrs(node)
                )
            for node in partition.nodes_of(index):
                for target in graph.successors(node):
                    local.add_edge(node, target)
            for ghost in partition.ghosts_of(index):
                local.add_node(
                    ghost, labels=graph.labels(ghost), attrs=graph.attrs(ghost)
                )
            # A shard whose segment is named stays named (ships as a
            # handle).
            shard_snapshots[index] = local.freeze(
                shared=self._shards[index].flat_store.backend != "bytes"
            )
        new._shards = tuple(shard_snapshots)
        new._own_counts = tuple(len(partition.nodes_of(i)) for i in range(k))

        # Only the last shard can have grown, so every offset -- and
        # with it every pre-existing composite id -- is unchanged.
        offsets: List[int] = []
        total = 0
        for count in new._own_counts:
            offsets.append(total)
            total += count
        new._offsets = tuple(offsets)
        new._home = assignment
        new._node_table = (
            self._node_table + new_nodes if new_nodes else self._node_table
        )

        global_rows = list(self._global_rows)
        ghost_ids = list(self._ghost_ids)
        for index in sorted(affected):
            snapshot = shard_snapshots[index]
            row: List[int] = []
            ghosts_of_shard: Dict[Node, int] = {}
            own = new._own_counts[index]
            for local_id in range(snapshot.num_nodes):
                node = snapshot.node_of(local_id)
                home = assignment[node]
                row.append(offsets[home] + shard_snapshots[home].id_of(node))
                if local_id >= own:
                    ghosts_of_shard[node] = local_id
            global_rows[index] = row
            ghost_ids[index] = ghosts_of_shard
        new._global_rows = tuple(global_rows)
        new._ghost_ids = tuple(ghost_ids)

        # Boundary tables are O(cut): re-derive them wholesale.
        ghost_shards: Dict[Node, List[int]] = {}
        for index, ghosts_of_shard in enumerate(new._ghost_ids):
            for node in ghosts_of_shard:
                ghost_shards.setdefault(node, []).append(index)
        new._ghost_shards = {
            node: tuple(holders) for node, holders in ghost_shards.items()
        }
        bridges: List[List[Tuple[int, FrozenSet[int], Dict[int, int]]]] = [
            [] for _ in range(k)
        ]
        for holder, ghosts_of_shard in enumerate(new._ghost_ids):
            per_owner: Dict[int, Dict[int, int]] = {}
            for node, ghost_id in ghosts_of_shard.items():
                owner = assignment[node]
                per_owner.setdefault(owner, {})[
                    shard_snapshots[owner].id_of(node)
                ] = ghost_id
            for owner, mapping in per_owner.items():
                bridges[owner].append((holder, frozenset(mapping), mapping))
        new._bridges = tuple(tuple(entries) for entries in bridges)
        cross_pred: Dict[Node, set] = {}
        for source, target in partition.cross_edges:
            cross_pred.setdefault(target, set()).add(source)
        new._cross_pred = {
            node: frozenset(sources) for node, sources in cross_pred.items()
        }

        labeled_new = [node for node in new_nodes if graph.labels(node)]
        if labeled_new:
            label_nodes = dict(self._label_nodes)
            for node in labeled_new:
                for label in graph.labels(node):
                    label_nodes[label] = label_nodes.get(label, ()) + (node,)
            new._label_nodes = label_nodes
        else:
            new._label_nodes = self._label_nodes

        new._num_edges = graph.num_edges
        new.snapshot_version = graph.version
        new.snapshot_token = _new_token()
        new.extends_token = self.snapshot_token
        return new

    def share(self) -> "ShardedGraph":
        """Re-home every shard's segment into shared memory.

        In place and idempotent.  Each per-shard
        :class:`~repro.graph.compact.CompactGraph` is replaced by its
        :meth:`~repro.graph.compact.CompactGraph.share` twin (same
        token, same version, identical in-process behavior), so
        pickling the sharded graph ships per-shard segment handles
        instead of adjacency bytes -- workers in a shard pool attach.
        The composite bookkeeping (boundary tables, translation rows)
        still pickles by value; shard adjacency is the bulk.  The
        backend survives :meth:`refreshed` (rebuilt shards are
        re-shared).
        """
        self._shards = tuple(shard.share() for shard in self._shards)
        return self

    # ------------------------------------------------------------------
    # Shard access (what psim / materialize drive)
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    @property
    def shards(self) -> Tuple[CompactGraph, ...]:
        """The per-shard frozen snapshots (own nodes + ghosts)."""
        return self._shards

    def shard(self, index: int) -> CompactGraph:
        return self._shards[index]

    def own_count(self, index: int) -> int:
        """Number of *owned* (non-ghost) nodes in shard ``index``; local
        ids below this are internal, at or above are ghosts."""
        return self._own_counts[index]

    def ghost_ids(self, index: int) -> Dict[Node, int]:
        """Shard ``index``'s ghosts as ``{node key: local id}``."""
        return self._ghost_ids[index]

    def ghost_shards(self, node: Node) -> Tuple[int, ...]:
        """The shards holding a ghost copy of ``node`` (may be empty)."""
        return self._ghost_shards.get(node, ())

    def bridges(
        self, index: int
    ) -> Tuple[Tuple[int, FrozenSet[int], Dict[int, int]], ...]:
        """Shard ``index``'s boundary bridges: one ``(holder shard,
        exported owner-local ids, owner-local -> ghost id map)`` per
        shard ghosting any of its nodes."""
        return self._bridges[index]

    def global_row(self, index: int) -> List[int]:
        """Shard ``index``'s local id -> composite global id table."""
        return self._global_rows[index]

    def owner_id(self, node: Node) -> Tuple[int, int]:
        """``(home shard, local id there)`` of an owned node."""
        home = self._home[node]
        return home, self._shards[home].id_of(node)

    @property
    def boundary_nodes(self) -> FrozenSet[Node]:
        """Nodes ghosted into at least one foreign shard."""
        return self.partition.boundary_nodes

    # ------------------------------------------------------------------
    # Composite id space (what extension payloads use)
    # ------------------------------------------------------------------
    def id_of(self, node: Node) -> int:
        """The composite global id of ``node`` (KeyError if absent)."""
        home = self._home[node]
        return self._offsets[home] + self._shards[home].id_of(node)

    def node_of(self, i: int) -> Node:
        """The original node key behind global id ``i``."""
        return self._node_table[i]

    @property
    def node_table(self) -> List[Node]:
        """The global id -> node key decode table (shared, do not
        mutate); shard-major, so ids are dense across shards."""
        return self._node_table

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def freeze(self) -> "ShardedGraph":
        """Sharded snapshots are already frozen; return ``self``."""
        return self

    @property
    def version(self) -> int:
        """Mutation-counter alias (see ``CompactGraph.version``): lets a
        reloaded sharded snapshot stand in for a live graph."""
        return self.snapshot_version

    # ------------------------------------------------------------------
    # DataGraph-compatible read API (original node keys)
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._home

    def __len__(self) -> int:
        return len(self._node_table)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._node_table)

    @property
    def num_nodes(self) -> int:
        return len(self._node_table)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G|`` in the paper: total number of nodes and edges."""
        return self.num_nodes + self._num_edges

    def nodes(self) -> Iterator[Node]:
        return iter(self._node_table)

    def edges(self) -> Iterator[Edge]:
        for i, snapshot in enumerate(self._shards):
            for local_id in range(self._own_counts[i]):
                source = snapshot.node_of(local_id)
                for j in snapshot.out_ids(local_id):
                    yield (source, snapshot.node_of(j))

    def has_edge(self, source: Node, target: Node) -> bool:
        home = self._home.get(source)
        if home is None:
            return False
        return self._shards[home].has_edge(source, target)

    def successors(self, node: Node) -> FrozenSet[Node]:
        # The home shard stores the full out-adjacency (ghost targets
        # keep their original keys), so this is one delegated lookup.
        return self._shards[self._home[node]].successors(node)

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        # In-adjacency is split: internal predecessors live in the home
        # shard, cross-shard ones in the boundary table.
        local = self._shards[self._home[node]].predecessors(node)
        cross = self._cross_pred.get(node)
        return local if cross is None else local | cross

    def out_degree(self, node: Node) -> int:
        return self._shards[self._home[node]].out_degree(node)

    def in_degree(self, node: Node) -> int:
        return len(self.predecessors(node))

    def labels(self, node: Node) -> FrozenSet[str]:
        return self._shards[self._home[node]].labels(node)

    def attrs(self, node: Node) -> Dict[str, Any]:
        return self._shards[self._home[node]].attrs(node)

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        """Yield all nodes carrying ``label`` (composite index lookup)."""
        return iter(self._label_nodes.get(label, ()))

    def label_index_stats(self) -> Dict[str, int]:
        """``{label: bucket size}`` over owned nodes."""
        return {label: len(nodes) for label, nodes in self._label_nodes.items()}

    # ------------------------------------------------------------------
    # Traversal helpers (same contract as DataGraph)
    # ------------------------------------------------------------------
    def descendants_within_ids(self, global_id: int, bound: int) -> Dict[int, int]:
        """``{composite global id: distance}`` for nonempty paths of
        length in ``[1, bound]`` from global id ``global_id``.

        Per-shard bounded BFS with **ghost-distance stitching**: each
        level expands over the CSR rows of the shard that *owns* the
        frontier node (the owner holds its complete out-adjacency), and
        reached ids translate through the per-shard global-id rows, so
        a path crossing a shard boundary continues in the target's home
        shard at the correct distance.  Ghost copies are never expanded
        (they carry no out-edges); their global ids already point at
        the owner's coordinates.
        """
        if bound < 1:
            return {}
        offsets = self._offsets
        shards = self._shards
        rows = self._global_rows
        home = bisect_right(offsets, global_id) - 1
        dist: Dict[int, int] = {}
        # Expansion frontier as (home shard, local id) pairs -- always
        # owner coordinates, so out_ids() sees the full out-adjacency.
        frontier: List[Tuple[int, int]] = [(home, global_id - offsets[home])]
        depth = 1
        while frontier:
            reached: set = set()
            for shard, local in frontier:
                row = rows[shard]
                for j in shards[shard].out_ids(local):
                    reached.add(row[j])
            reached.difference_update(dist)
            for g in reached:
                dist[g] = depth
            if depth >= bound:
                break
            frontier = [
                (s, g - offsets[s])
                for g in reached
                for s in (bisect_right(offsets, g) - 1,)
            ]
            depth += 1
        return dist

    def descendants_within(self, source: Node, bound: int) -> Dict[Node, int]:
        """Map each node reachable from ``source`` by a path of length in
        ``[1, bound]`` to its shortest such distance (per-shard BFS with
        ghost-distance stitching, see :meth:`descendants_within_ids`)."""
        table = self._node_table
        return {
            table[g]: d
            for g, d in self.descendants_within_ids(
                self.id_of(source), bound
            ).items()
        }

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(shards={self.num_shards}, nodes={self.num_nodes}, "
            f"edges={self._num_edges}, cut={self.partition.edge_cut}, "
            f"snapshot={self.snapshot_version})"
        )
