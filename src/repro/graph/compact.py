"""Immutable, read-optimized snapshots of data graphs.

A :class:`CompactGraph` is a frozen copy of a
:class:`~repro.graph.digraph.DataGraph` laid out as flat tables in one
:class:`~repro.graph.flatbuf.FlatStore` segment: nodes are renumbered to
dense integer ids ``0..n-1``, adjacency is a CSR pair per direction,
every node's labels are a row of an interned label table, and every
label maps to the sorted id slice of the nodes carrying it.  The
matching engines exploit this layout twice over:

* **seeding** -- candidate sets come straight from the label index
  instead of a full-node condition scan, the dominant cost of the
  ``O(|Qs||G|)`` term in the paper's simulation bound (Theorems 1-3 of
  conf_icde_FanWW14 assume exactly this kind of index);
* **refinement** -- witness counting intersects candidate sets with
  adjacency rows at C speed (``set.intersection`` over an id tuple)
  rather than chasing per-element hash lookups in Python.

Rows are decoded from the segment on first touch and cached per
process (``succ_rows[i]`` is a plain dict hit afterwards); the node key
table and the attribute table decode once per process into plain
lists.  Segment layout (``{table: (kind, offset, nbytes)}``)::

    succ_indptr / succ_indices          out-adjacency CSR (64-bit ids)
    pred_indptr / pred_indices          in-adjacency CSR
    label_row_indptr / _indices         per-node label slots
    bucket_indptr / bucket_indices      per-label sorted id buckets
    labels / label_slots                interned label table (pickled)
    nodes / attrs                       node keys, attribute dicts (pickled)

The build keeps the node keys and attribute dicts as plain lists and
leaves the ``nodes`` / ``attrs`` blobs out; :meth:`CompactGraph.packed_store`
adds them only when the segment leaves the process, so an in-process
snapshot never pickles a node key or an attribute value.

Where the segment lives is the snapshot's only backend choice.  A
snapshot is built into a plain in-process ``bytes`` segment;
:meth:`CompactGraph.share` (what ``DataGraph.freeze(shared=True)``
calls) copies it, packed, into the default *named* backend -- shared
memory, or whatever ``REPRO_FLAT_BACKEND`` selects -- and
:meth:`~repro.graph.snapshot.SnapshotStore.load` maps a saved one back
as a read-only ``file`` segment.  Pickling ships the packed store (its
bytes for a ``bytes`` segment, its name for ``shm`` / ``file``), the
refresh patch and a small meta tuple, so a process-pool worker
*attaches* rather than unpickling ``O(|G|)`` objects.

Snapshots are identified by two integers: :attr:`snapshot_version`, the
source graph's mutation counter at freeze time, and
:attr:`snapshot_token`, a random 64-bit id that is unique across
processes as well.  Together they let downstream caches (materialized
view extensions, the query engine) recognise that two id spaces are the
same and safely exchange raw integer ids; see
``MaterializedView.compact`` and the MatchJoin fast path.

A snapshot can also be *refreshed* (:meth:`CompactGraph.refreshed`)
after a batch of edge updates: the base segment is kept, the rebuilt
adjacency rows and appended nodes ride in a small *patch overlay*, the
decoded-row cache carries forward, and -- crucially -- every
pre-existing node keeps its dense id (new nodes append at the end).
The refreshed snapshot mints a fresh :attr:`snapshot_token` (its
*content* differs) but records the predecessor's token in
:attr:`extends_token`, which is the maintenance pipeline's licence to
re-stamp extensions of unchanged views onto the new token without
recomputing them.

The public read API mirrors :class:`DataGraph` (``nodes()``,
``successors``, ``labels``, ``descendants_within`` ...) over the
*original node keys*, so every generic engine -- plain, dual, strong and
bounded simulation -- runs on a snapshot unchanged.  The id-space API
(``out_ids``, ``label_ids``, ``node_of`` ...) is what the dedicated fast
paths use.
"""

from __future__ import annotations

import os
import pickle
from array import array
from functools import partial
from itertools import accumulate, chain, islice
from typing import Any, Dict, FrozenSet, Hashable, Iterator, List, Tuple

from repro.graph.flatbuf import FlatStore, resolve_backend

Node = Hashable
Edge = Tuple[Node, Node]

_dump = partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL)

#: The refresh patch of a snapshot that has none: rebuilt rows by id,
#: then the columns of nodes appended past the base segment.
_EMPTY_PATCH = {
    "succ": {}, "pred": {}, "nodes": [], "labels": [], "attrs": [], "buckets": {}
}


def _new_token() -> int:
    """A fresh snapshot token: 64 random bits, so tokens minted in
    *different* processes cannot collide either (extensions frozen on
    separate workers may meet in one MatchJoin call).  Tokens survive
    pickling -- they are plain ints -- so extensions shipped to pool
    workers still recognise each other's id space."""
    return int.from_bytes(os.urandom(8), "big") | 1


def _indptr(rows) -> array:
    return array("q", list(accumulate(map(len, rows), initial=0)))


def decode_nodes(store: FlatStore, appended) -> List[Node]:
    """The id -> node key table of a snapshot segment plus the keys its
    refresh patch appended (the base list is shared, do not mutate)."""
    base = store.obj("nodes")
    return base + list(appended) if appended else base


class _Decoded(dict):
    """``{key: value}`` (a node id or a label) decoded from the segment
    on first touch.

    A miss calls ``decode(key)`` once; afterwards ``table[key]`` is a
    plain C-level dict hit, so the hot loops index it like a list.
    """

    __slots__ = ("_decode",)

    def __init__(self, decode) -> None:
        super().__init__()
        self._decode = decode

    def __missing__(self, key):
        value = self[key] = self._decode(key)
        return value


def _row(indptr, indices, base: int, total: int, overrides, i: int) -> Tuple[int, ...]:
    # ``overrides`` holds the refresh patch's rebuilt rows; ids past the
    # base segment without one are appended nodes: no edges.
    row = overrides.get(i)
    if row is not None:
        return row
    if not 0 <= i < total:
        raise IndexError(i)
    if i < base:
        return tuple(indices[indptr[i] : indptr[i + 1]])
    return ()


def _label_row(
    indptr, indices, names, base: int, total: int, appended, interned, i: int
) -> FrozenSet[str]:
    if not 0 <= i < total:
        raise IndexError(i)
    if i >= base:
        return appended[i - base]
    slots = tuple(indices[indptr[i] : indptr[i + 1]])
    # Few distinct label sets exist; every node carrying one shares
    # one frozenset.
    labels = interned.get(slots)
    if labels is None:
        labels = interned[slots] = frozenset(map(names.__getitem__, slots))
    return labels


def _bucket(store: FlatStore, extra, label: str) -> Tuple[int, ...]:
    # Buckets are sorted id slices of one indices array; the patch's
    # appended ids exceed every base id, so concatenation stays sorted.
    slot = store.obj("label_slots").get(label)
    tail = tuple(extra.get(label, ()))
    if slot is None:
        if not tail:
            raise KeyError(label)
        return tail
    indptr = store.ints("bucket_indptr")
    return tuple(store.ints("bucket_indices")[indptr[slot] : indptr[slot + 1]]) + tail


class CompactGraph:
    """A frozen, integer-id, segment-backed snapshot of a :class:`DataGraph`.

    Build one with :meth:`DataGraph.freeze`, not directly.  The snapshot
    is immutable: there are no mutation methods, and the underlying
    tables are shared freely by everything derived from it.
    """

    __slots__ = (
        "_store",
        "_packed",
        "_patch",
        "_base",
        "_num_nodes",
        "_num_edges",
        "_nodes",
        "_ids",
        "_attrs",
        "_succ",
        "_pred",
        "_labels",
        "_label_ids",
        "_succ_sets",
        "_pred_sets",
        "snapshot_version",
        "snapshot_token",
        "extends_token",
    )

    def __init__(self, graph, version: int) -> None:
        nodes: List[Node] = list(graph.nodes())
        ids: Dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        to_id = ids.__getitem__
        if nodes == list(range(len(nodes))) and set(map(type, nodes)) <= {int}:
            # Keys 0..n-1 in order (every generated dataset) are their
            # own ids, so the CSR needs no per-edge lookup.
            edge_ids = chain.from_iterable
        else:
            def edge_ids(rows):
                return map(to_id, chain.from_iterable(rows))
        succ = list(map(graph.successors, nodes))
        pred = list(map(graph.predecessors, nodes))
        labels = list(map(graph.labels, nodes))
        names = sorted(set().union(*labels))
        slot_of = {label: k for k, label in enumerate(names)}
        slots = {row: sorted(map(slot_of.__getitem__, row)) for row in set(labels)}
        buckets = [sorted(map(to_id, graph.nodes_with_label(label))) for label in names]
        # array() fills from a list much faster than from an iterator.
        store = FlatStore.pack(
            arrays={
                "succ_indptr": _indptr(succ),
                "succ_indices": array("q", list(edge_ids(succ))),
                "pred_indptr": _indptr(pred),
                "pred_indices": array("q", list(edge_ids(pred))),
                "label_row_indptr": _indptr(labels),
                "label_row_indices": array(
                    "q", list(chain.from_iterable(map(slots.__getitem__, labels)))
                ),
                "bucket_indptr": _indptr(buckets),
                "bucket_indices": array("q", list(chain.from_iterable(buckets))),
            },
            # packed_store() adds the node key and attribute tables.
            blobs={"labels": _dump(tuple(names)), "label_slots": _dump(slot_of)},
            backend="bytes",
        )
        meta = (len(nodes), graph.num_edges, version, _new_token(), None)
        self._bind(store, None, meta)
        self._nodes = nodes
        self._ids = ids
        self._attrs = [dict(a) if a else {} for a in map(graph.attrs, nodes)]

    def _bind(self, store: FlatStore, patch, meta) -> None:
        """Point every table at ``store`` (+ ``patch``), nothing decoded."""
        num_nodes, num_edges, version, token, extends = meta
        p = patch or _EMPTY_PATCH
        base = len(store.ints("succ_indptr")) - 1
        self._store = store
        # One cell per base segment, shared along its refresh chain.
        self._packed = [store if "nodes" in store.header else None]
        self._patch = patch or None
        self._base = base
        self._num_nodes = num_nodes
        self._num_edges = num_edges
        self._nodes = None
        self._ids = None
        self._attrs = None
        self._succ = _Decoded(
            partial(
                _row,
                store.ints("succ_indptr"),
                store.ints("succ_indices"),
                base,
                num_nodes,
                p["succ"],
            )
        )
        self._pred = _Decoded(
            partial(
                _row,
                store.ints("pred_indptr"),
                store.ints("pred_indices"),
                base,
                num_nodes,
                p["pred"],
            )
        )
        self._labels = _Decoded(
            partial(
                _label_row,
                store.ints("label_row_indptr"),
                store.ints("label_row_indices"),
                store.obj("labels"),
                base,
                num_nodes,
                p["labels"],
                {},
            )
        )
        self._label_ids = _Decoded(partial(_bucket, store, p["buckets"]))
        # Node-key adjacency frozensets, built lazily for the generic
        # engines (dual/strong/bounded) that want set semantics.
        self._succ_sets: Dict[int, FrozenSet[Node]] = {}
        self._pred_sets: Dict[int, FrozenSet[Node]] = {}
        self.snapshot_version = version
        self.snapshot_token = token
        self.extends_token = extends

    def _meta(self) -> tuple:
        return (
            self._num_nodes,
            self._num_edges,
            self.snapshot_version,
            self.snapshot_token,
            self.extends_token,
        )

    def _adopt(self, old: "CompactGraph") -> None:
        """Carry ``old``'s decoded caches over (same ids, same rows)."""
        self._succ.update(old._succ)
        self._pred.update(old._pred)
        self._labels.update(old._labels)
        self._succ_sets.update(old._succ_sets)
        self._pred_sets.update(old._pred_sets)
        self._nodes = old._nodes
        self._ids = old._ids
        self._attrs = old._attrs

    # ------------------------------------------------------------------
    # Storage: backend, sharing, pickling, refresh
    # ------------------------------------------------------------------
    @property
    def flat_store(self) -> FlatStore:
        """The backing store (segment + table directory).  For a
        snapshot built in-process it lacks the node key and attribute
        tables; :meth:`packed_store` adds them."""
        return self._store

    def _node_tables(self) -> Dict[str, bytes]:
        """The pickled node key and attribute tables of the base
        segment, or ``{}`` when the segment already holds them."""
        if "nodes" in self._store.header:
            return {}
        base = self._base
        attrs = self._attr_table[:base]
        return {
            "nodes": _dump(self.node_table[:base]),
            "attrs": _dump(attrs) if any(attrs) else b"",
        }

    def packed_store(self) -> FlatStore:
        """The base store with every table packed in, node keys and
        attributes included: what a pickle ships and a save writes.

        A snapshot built in-process keeps its node keys and attribute
        dicts as plain lists, so only this pickles them (once per base
        segment, shared by its refresh chain); they must then be
        picklable.  A ``bytes`` segment is copied once to add them.
        """
        cell = self._packed
        if cell[0] is None:
            # Racing threads may each pack; every copy is equivalent.
            cell[0] = self._store.extended(self._node_tables(), "bytes")
        return cell[0]

    def share(self) -> "CompactGraph":
        """This snapshot with its segment in the default named backend.

        ``self`` when the segment is already named (``shm`` / ``file``),
        or already packed when the default backend is ``bytes``;
        otherwise a twin with the same token, patch and decoded caches
        over a packed copy of the segment, whose pickle is a handle
        instead of the table bytes.
        """
        if self._store.backend != "bytes":
            return self
        if resolve_backend() == "bytes":
            store = self.packed_store()
            if store is self._store:
                return self
        else:
            store = self._store.extended(self._node_tables())
        twin = CompactGraph.__new__(CompactGraph)
        twin._bind(store, self._patch, self._meta())
        twin._adopt(self)
        return twin

    def __reduce__(self):
        return (_attach_snapshot, (self.packed_store(), self._patch, self._meta()))

    def refreshed(self, graph, version: int, ops) -> "CompactGraph":
        """A new snapshot of ``graph`` built by patching this one.

        ``ops`` is the ordered edge-op batch (``(op, source, target)``
        triples) separating this snapshot from the current graph state;
        the caller (``DataGraph.freeze`` via the edge-op journal)
        guarantees the only other changes are appended nodes.  The
        result keeps this snapshot's segment and extends its patch
        overlay with the rebuilt adjacency rows and the appended nodes'
        columns; every pre-existing node keeps its id, and new nodes
        take the next ids in graph order -- so id-space consumers of
        this snapshot remain valid in the result (recorded via
        :attr:`extends_token`).  Decoded rows carry forward, so the cost
        is O(decoded rows) pointer copies plus the touched adjacency.

        One segment therefore serves the whole refresh chain.  When the
        patch stops being small against the base (more than
        ``max(64, base_nodes // 4)`` rows), the chain re-encodes into a
        fresh segment on the same kind of backend instead.
        """
        n_old = self._num_nodes
        appended = list(islice(graph.nodes(), n_old, None))
        ids = self._id_map
        if appended:
            ids = dict(ids)
            ids.update(zip(appended, range(n_old, n_old + len(appended))))
        to_id = ids.__getitem__
        fresh_succ = {
            to_id(node): tuple(map(to_id, graph.successors(node)))
            for node in {s for _, s, _ in ops}
        }
        fresh_pred = {
            to_id(node): tuple(map(to_id, graph.predecessors(node)))
            for node in {t for _, _, t in ops}
        }
        prev = self._patch or _EMPTY_PATCH
        new_labels = list(map(graph.labels, appended))
        new_attrs = [dict(a) if a else {} for a in map(graph.attrs, appended)]
        buckets = {label: list(bucket) for label, bucket in prev["buckets"].items()}
        for i, labels in enumerate(new_labels, start=n_old):
            for label in labels:
                # New ids exceed every old id, so appending keeps the
                # bucket sorted.
                buckets.setdefault(label, []).append(i)
        patch = {
            "succ": {**prev["succ"], **fresh_succ},
            "pred": {**prev["pred"], **fresh_pred},
            "nodes": prev["nodes"] + appended,
            "labels": prev["labels"] + new_labels,
            "attrs": prev["attrs"] + new_attrs,
            "buckets": {label: tuple(bucket) for label, bucket in buckets.items()},
        }
        patch_rows = len(patch["succ"]) + len(patch["pred"]) + len(patch["nodes"])
        if patch_rows > max(64, self._base // 4):
            # Re-encode: graph order is this snapshot's id order plus
            # the appended nodes, so ids stay stable.
            fresh = CompactGraph(graph, version)
            fresh.extends_token = self.snapshot_token
            return fresh.share() if self._store.backend != "bytes" else fresh
        new = CompactGraph.__new__(CompactGraph)
        meta = (
            n_old + len(appended),
            graph.num_edges,
            version,
            _new_token(),
            self.snapshot_token,
        )
        new._bind(self._store, patch, meta)
        new._packed = self._packed
        new._adopt(self)
        new._succ.update(fresh_succ)
        new._pred.update(fresh_pred)
        for i in fresh_succ:
            new._succ_sets.pop(i, None)
        for i in fresh_pred:
            new._pred_sets.pop(i, None)
        new._ids = ids
        if appended:
            new._nodes = self.node_table + appended
            if self._attrs is not None:
                new._attrs = self._attrs + new_attrs
        return new

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def freeze(self) -> "CompactGraph":
        """Snapshots are already frozen; return ``self`` (idempotence)."""
        return self

    @property
    def version(self) -> int:
        """Mutation-counter alias: a snapshot *is* its version (so a
        snapshot can stand in for a live graph, e.g. an engine booted
        from a saved snapshot directory, where ``graph.version ==
        snapshot.snapshot_version`` means "no refresh needed")."""
        return self.snapshot_version

    # ------------------------------------------------------------------
    # Decoded tables (once per process)
    # ------------------------------------------------------------------
    @property
    def node_table(self) -> List[Node]:
        """The id -> node key decode table (shared, do not mutate)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = decode_nodes(
                self._store, (self._patch or _EMPTY_PATCH)["nodes"]
            )
        return nodes

    @property
    def _id_map(self) -> Dict[Node, int]:
        ids = self._ids
        if ids is None:
            ids = self._ids = {node: i for i, node in enumerate(self.node_table)}
        return ids

    @property
    def _attr_table(self) -> List[Dict[str, Any]]:
        attrs = self._attrs
        if attrs is None:
            store = self._store
            appended = (self._patch or _EMPTY_PATCH)["attrs"]
            if store.header["attrs"][2]:
                base = store.obj("attrs")
            else:  # no node of the base segment carries attributes
                base = [{} for _ in range(self._base)]
            attrs = self._attrs = base + appended if appended else base
        return attrs

    # ------------------------------------------------------------------
    # Integer-id API (the fast paths)
    # ------------------------------------------------------------------
    def id_of(self, node: Node) -> int:
        """The dense id of ``node`` (KeyError if absent)."""
        return self._id_map[node]

    def node_of(self, i: int) -> Node:
        """The original node key behind id ``i``."""
        return self.node_table[i]

    def out_ids(self, i: int) -> Tuple[int, ...]:
        """Successor ids of node id ``i`` (the CSR row)."""
        return self._succ[i]

    def in_ids(self, i: int) -> Tuple[int, ...]:
        """Predecessor ids of node id ``i``."""
        return self._pred[i]

    @property
    def succ_rows(self) -> Dict[int, Tuple[int, ...]]:
        """All successor rows, indexed by id (shared, do not mutate)."""
        return self._succ

    @property
    def pred_rows(self) -> Dict[int, Tuple[int, ...]]:
        """All predecessor rows, indexed by id (shared, do not mutate)."""
        return self._pred

    def label_ids(self, label: str) -> Tuple[int, ...]:
        """Ids of every node carrying ``label`` (empty tuple if none)."""
        try:
            return self._label_ids[label]
        except KeyError:
            return ()

    def label_buckets(self) -> Dict[str, Tuple[int, ...]]:
        """``{label: sorted ids}`` for every label some node carries."""
        appended = (self._patch or _EMPTY_PATCH)["buckets"]
        return {
            label: self._label_ids[label]
            for label in chain(self._store.obj("labels"), appended)
        }

    def labels_of(self, i: int) -> FrozenSet[str]:
        """Label set of node id ``i``."""
        return self._labels[i]

    def attrs_of(self, i: int) -> Dict[str, Any]:
        """Attribute dict of node id ``i``."""
        return self._attr_table[i]

    def label_index_stats(self) -> Dict[str, int]:
        """``{label: bucket size}`` for every indexed label."""
        return {label: len(ids) for label, ids in self.label_buckets().items()}

    # ------------------------------------------------------------------
    # DataGraph-compatible read API (original node keys)
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._id_map

    def __len__(self) -> int:
        return self._num_nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self.node_table)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G|`` in the paper: total number of nodes and edges."""
        return self._num_nodes + self._num_edges

    def nodes(self) -> Iterator[Node]:
        return iter(self.node_table)

    def edges(self) -> Iterator[Edge]:
        nodes = self.node_table
        succ = self._succ
        for i in range(self._num_nodes):
            source = nodes[i]
            for j in succ[i]:
                yield (source, nodes[j])

    def has_edge(self, source: Node, target: Node) -> bool:
        ids = self._id_map
        i = ids.get(source)
        if i is None:
            return False
        j = ids.get(target)
        return j is not None and j in self._succ[i]

    def successors(self, node: Node) -> FrozenSet[Node]:
        i = self._id_map[node]
        cached = self._succ_sets.get(i)
        if cached is None:
            nodes = self.node_table
            cached = frozenset(map(nodes.__getitem__, self._succ[i]))
            self._succ_sets[i] = cached
        return cached

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        i = self._id_map[node]
        cached = self._pred_sets.get(i)
        if cached is None:
            nodes = self.node_table
            cached = frozenset(map(nodes.__getitem__, self._pred[i]))
            self._pred_sets[i] = cached
        return cached

    def out_degree(self, node: Node) -> int:
        return len(self._succ[self._id_map[node]])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[self._id_map[node]])

    def labels(self, node: Node) -> FrozenSet[str]:
        return self._labels[self._id_map[node]]

    def attrs(self, node: Node) -> Dict[str, Any]:
        return self._attr_table[self._id_map[node]]

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        """Yield all nodes carrying ``label`` (index lookup, O(bucket))."""
        nodes = self.node_table
        return (nodes[i] for i in self.label_ids(label))

    # ------------------------------------------------------------------
    # Id-space traversal primitives (the bounded fast paths)
    # ------------------------------------------------------------------
    def descendants_within_ids(self, i: int, bound: int) -> Dict[int, int]:
        """``{id: distance}`` for every node reachable from id ``i`` by a
        nonempty path of length in ``[1, bound]`` (shortest distances).

        Level-synchronous BFS over the CSR rows: each frontier expands
        with C-level ``set.update`` against adjacency tuples, which is
        what makes the bounded engines competitive on snapshots.
        """
        if bound < 1:
            return {}
        succ = self._succ
        dist: Dict[int, int] = {}
        frontier = set(succ[i])
        depth = 1
        while frontier:
            dist.update(dict.fromkeys(frontier, depth))
            if depth >= bound:
                break
            frontier = set().union(
                *map(succ.__getitem__, frontier)
            ).difference(dist)
            depth += 1
        return dist

    def reachable_ids(self, i: int) -> set:
        """All ids reachable from id ``i`` by a nonempty path."""
        succ = self._succ
        seen: set = set()
        stack = list(succ[i])
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            stack.extend(succ[j])
        return seen

    def reverse_within_ids(self, targets, bound: int) -> set:
        """Ids with a nonempty path of length <= ``bound`` *into* any of
        the target ids -- the multi-source reverse bounded BFS at the
        heart of the BMatch refinement, in id space."""
        pred = self._pred
        seen: set = set()
        frontier = set().union(*map(pred.__getitem__, targets))
        depth = 1
        while frontier:
            seen |= frontier
            if depth >= bound:
                break
            frontier = set().union(
                *map(pred.__getitem__, frontier)
            ).difference(seen)
            depth += 1
        return seen

    def reverse_reachable_ids(self, targets) -> set:
        """Ids with *any* nonempty path into any of the target ids."""
        pred = self._pred
        seen: set = set()
        stack: List[int] = []
        for t in targets:
            stack.extend(pred[t])
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            stack.extend(pred[j])
        return seen

    # ------------------------------------------------------------------
    # Traversal helpers (same contract as DataGraph)
    # ------------------------------------------------------------------
    def descendants_within(self, source: Node, bound: int) -> Dict[Node, int]:
        """Map each node reachable from ``source`` by a path of length in
        ``[1, bound]`` to its shortest such distance (id-space BFS)."""
        nodes = self.node_table
        return {
            nodes[i]: d
            for i, d in self.descendants_within_ids(
                self._id_map[source], bound
            ).items()
        }

    def __repr__(self) -> str:
        return (
            f"CompactGraph(nodes={self._num_nodes}, edges={self._num_edges}, "
            f"snapshot={self.snapshot_version}, backend={self._store.backend})"
        )


def _attach_snapshot(store: FlatStore, patch, meta) -> CompactGraph:
    """Rebuild a snapshot from its pickle or a saved segment: attach the
    store and decode lazily."""
    graph = CompactGraph.__new__(CompactGraph)
    graph._bind(store, patch, meta)
    return graph
