"""Id-space view extensions: one pair-row payload per snapshot-bound ``V(G)``.

Materializing a view against a frozen snapshot -- a
:class:`~repro.graph.compact.CompactGraph` on any segment backend or a
:class:`~repro.shard.sharded.ShardedGraph` -- attaches a
:class:`FlatExtension` to the materialized view: the same match sets
in the snapshot's integer-id space, stored as

* one :class:`~repro.graph.flatbuf.FlatStore` holding, per view edge,
  parallel ``pairs_src`` / ``pairs_tgt`` id rows (a ``pairs_indptr``
  CSR over view edges), and for bounded views ``pairs_dist``: the
  minimized ``I(V)`` distance of every pair row;
* per-edge **key and node frozensets** (``src_keys``, ``tgt_keys``,
  ``src_nodes``, ``tgt_nodes``), decoded from the rows on first use,
  that the id-space MatchJoin sweep
  (:func:`repro.core.matchjoin.id_fixpoint`) combines with batch
  set-ops.

Where the store lives follows the snapshot: against a snapshot whose
segment is named (``shm`` / ``file``) it is a named segment
(``REPRO_FLAT_BACKEND``, shared memory by default), so pickling ships a
segment handle and a process-pool worker attaches instead of
deserializing; against a ``bytes``-backed or sharded snapshot it is an
in-process ``bytes`` segment (no ``/dev/shm`` entry), whose pickle
carries the raw rows and the node table by value.  Against a named
snapshot the id -> node key decode table is referenced, not copied: the
snapshot's own store stands in for it, so when a payload carrying the
snapshot and twenty extensions goes through one ``pickle.dumps``, the
node table ships exactly once.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.graph.compact import decode_nodes
from repro.graph.flatbuf import FlatStore
from repro.simulation.compact_engine import IdEdgeMatches

PEdge = Tuple[Hashable, Hashable]
Node = Hashable
NodePair = Tuple[Node, Node]


class _PerEdgeLazy(dict):
    """``{view edge: <structure>}`` decoded per edge on first access."""

    __slots__ = ("_payload", "_kind")

    def __init__(self, payload: "FlatExtension", kind: str) -> None:
        super().__init__()
        self._payload = payload
        self._kind = kind

    def __missing__(self, edge):
        value = self._payload._build(self._kind, edge)
        dict.__setitem__(self, edge, value)
        return value

    def get(self, edge, default=None):
        try:
            return self[edge]
        except KeyError:
            return default

    def _ensure_all(self) -> None:
        for edge in self._payload.edge_order:
            self[edge]

    def __contains__(self, edge) -> bool:
        return edge in self._payload._index

    def __len__(self) -> int:
        return len(self._payload.edge_order)

    def __iter__(self):
        return iter(self._payload.edge_order)

    def keys(self):
        self._ensure_all()
        return dict.keys(self)

    def values(self):
        self._ensure_all()
        return dict.values(self)

    def items(self):
        self._ensure_all()
        return dict.items(self)

    def __eq__(self, other):
        self._ensure_all()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None


class _LazyDistances(dict):
    """The node-key distance index ``I(V)``, decoded from the pair rows
    on first use (``pairs_dist`` is already minimized per pair)."""

    __slots__ = ("_payload", "_ready")

    def __init__(self, payload: "FlatExtension") -> None:
        super().__init__()
        self._payload = payload
        self._ready = False

    def _ensure(self) -> None:
        if not self._ready:
            ints = self._payload.store.ints
            decode = self._payload.nodes.__getitem__
            self.update(
                ((decode(v), decode(w)), d)
                for v, w, d in zip(
                    ints("pairs_src"), ints("pairs_tgt"), ints("pairs_dist")
                )
            )
            self._ready = True

    def __missing__(self, key):
        if self._ready:
            raise KeyError(key)
        self._ensure()
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._ensure()
        return dict.get(self, key, default)

    def __contains__(self, key) -> bool:
        self._ensure()
        return dict.__contains__(self, key)

    def __len__(self) -> int:
        self._ensure()
        return dict.__len__(self)

    def __iter__(self):
        self._ensure()
        return dict.__iter__(self)

    def items(self):
        self._ensure()
        return dict.items(self)

    def values(self):
        self._ensure()
        return dict.values(self)

    def keys(self):
        self._ensure()
        return dict.keys(self)

    def __eq__(self, other):
        self._ensure()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None


class FlatExtension:
    """Id-space form of one extension, bound to one snapshot.

    Attributes
    ----------
    token / version:
        The owning snapshot's :attr:`snapshot_token` /
        :attr:`snapshot_version`.  Two extensions exchange raw ids only
        when their tokens agree.
    nodes:
        The id -> node key decode table of the snapshot.
    store / edge_order:
        The pair-row segment and the view edges in CSR order; see
        :meth:`pair_rows` and :meth:`dist_row`.
    bounded:
        Whether the rows carry ``pairs_dist`` (bounded views).
    src_keys / tgt_keys / src_nodes / tgt_nodes:
        ``{view edge: frozenset}`` of the source / target ids and their
        decoded node keys, built lazily per edge.

    Immutable once packed; :meth:`rebound` re-stamps provenance without
    touching the rows.
    """

    __slots__ = (
        "token",
        "version",
        "_nodes",
        "snap_store",
        "nodes_extra",
        "store",
        "edge_order",
        "bounded",
        "_index",
        "src_keys",
        "tgt_keys",
        "src_nodes",
        "tgt_nodes",
    )

    @classmethod
    def pack(
        cls,
        snapshot,
        id_matches: IdEdgeMatches,
        distances: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> "FlatExtension":
        """Pack grouped id-space match sets (and, for bounded views, the
        minimized id-space distance index) bound to ``snapshot``."""
        edge_order = list(id_matches)
        indptr = array("q", [0])
        src = array("q")
        tgt = array("q")
        dist = array("q") if distances is not None else None
        for edge in edge_order:
            for v, targets in id_matches[edge].items():
                src.extend(repeat(v, len(targets)))
                tgt.extend(targets)
                if dist is not None:
                    dist.extend([distances[v, w] for w in targets])
            indptr.append(len(src))
        arrays = {"pairs_indptr": indptr, "pairs_src": src, "pairs_tgt": tgt}
        if dist is not None:
            arrays["pairs_dist"] = dist
        backend = None if _named_store(snapshot) is not None else "bytes"
        store = FlatStore.pack(arrays=arrays, blobs={}, backend=backend)
        flat = cls._over(store, edge_order, dist is not None)
        flat._bind(snapshot)
        return flat

    @classmethod
    def _over(
        cls, store: FlatStore, edge_order: List[PEdge], bounded: bool
    ) -> "FlatExtension":
        flat = cls.__new__(cls)
        flat.store = store
        flat.edge_order = edge_order
        flat.bounded = bounded
        flat._index = {edge: k for k, edge in enumerate(edge_order)}
        flat.src_keys = _PerEdgeLazy(flat, "src_keys")
        flat.tgt_keys = _PerEdgeLazy(flat, "tgt_keys")
        flat.src_nodes = _PerEdgeLazy(flat, "src_nodes")
        flat.tgt_nodes = _PerEdgeLazy(flat, "tgt_nodes")
        return flat

    def _bind(self, snapshot) -> None:
        self.token = snapshot.snapshot_token
        self.version = snapshot.snapshot_version
        self._nodes = snapshot.node_table
        self.snap_store = _named_store(snapshot)
        if self.snap_store is not None:
            # Pickles reference the snapshot's segment for the node
            # table instead of copying it.
            patch = snapshot._patch
            self.nodes_extra = list(patch["nodes"]) if patch else []
        else:
            self.nodes_extra = None

    @property
    def nodes(self):
        """The id -> node key decode table of the snapshot (decoded from
        its segment on first use after an attach)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = decode_nodes(self.snap_store, self.nodes_extra)
        return nodes

    def _build(self, kind: str, edge: PEdge):
        if kind == "src_keys":
            return frozenset(self.pair_rows(edge)[0])
        if kind == "tgt_keys":
            return frozenset(self.pair_rows(edge)[1])
        decode = self.nodes.__getitem__
        if kind == "src_nodes":
            return frozenset(map(decode, self.src_keys[edge]))
        if kind == "tgt_nodes":
            return frozenset(map(decode, self.tgt_keys[edge]))
        if kind == "pairs":
            src, tgt = self.pair_rows(edge)
            return set(zip(map(decode, src), map(decode, tgt)))
        raise AssertionError(kind)

    def _span(self, view_edge: PEdge) -> Tuple[int, int]:
        k = self._index[view_edge]  # KeyError for foreign edges, as dicts do
        indptr = self.store.ints("pairs_indptr")
        return indptr[k], indptr[k + 1]

    def pair_rows(self, view_edge: PEdge):
        """The raw ``(src, tgt)`` id rows of one view edge: parallel
        zero-copy slices of the segment, nothing decoded or grouped."""
        lo, hi = self._span(view_edge)
        ints = self.store.ints
        return ints("pairs_src")[lo:hi], ints("pairs_tgt")[lo:hi]

    def dist_row(self, view_edge: PEdge):
        """The ``I(V)`` distance of each pair row of one view edge
        (bounded views only)."""
        lo, hi = self._span(view_edge)
        return self.store.ints("pairs_dist")[lo:hi]

    def rebound(self, snapshot) -> "FlatExtension":
        """The same rows re-stamped onto ``snapshot``.

        Valid only when ``snapshot`` *extends* this payload's id space
        -- i.e. it was refreshed from the snapshot this extension was
        materialized against (``snapshot.extends_token == self.token``),
        which guarantees every pre-existing node kept its id.  The
        maintenance pipeline uses this to keep the id-space MatchJoin
        engaged for views an update did not touch, at zero cost.
        """
        if getattr(snapshot, "extends_token", None) != self.token:
            raise ValueError(
                "snapshot does not extend this extension's id space; "
                "re-materialize or bind_extension() instead"
            )
        clone = FlatExtension.__new__(FlatExtension)
        for slot in FlatExtension.__slots__:
            setattr(clone, slot, getattr(self, slot))
        clone._bind(snapshot)
        return clone

    def __reduce__(self):
        return (
            _attach_extension,
            (
                self.store,
                self.edge_order,
                self.bounded,
                self.token,
                self.version,
                None if self.snap_store is not None else self._nodes,
                self.snap_store,
                self.nodes_extra,
            ),
        )


def _attach_extension(
    store: FlatStore,
    edge_order: List[PEdge],
    bounded: bool,
    token: int,
    version: int,
    nodes,
    snap_store: Optional[FlatStore] = None,
    nodes_extra: Optional[List[Node]] = None,
) -> FlatExtension:
    """Rebuild a payload from its pickle or from a saved view pack."""
    flat = FlatExtension._over(store, edge_order, bounded)
    flat.token = token
    flat.version = version
    flat.snap_store = snap_store
    flat.nodes_extra = nodes_extra
    flat._nodes = nodes
    return flat


def _named_store(snapshot) -> Optional[FlatStore]:
    """``snapshot``'s store when its segment is named (pickles as a
    handle), else ``None`` (``bytes``-backed or sharded snapshots)."""
    store = getattr(snapshot, "flat_store", None)
    return store if store is not None and store.backend != "bytes" else None


def lazy_edge_matches(payload: FlatExtension) -> Dict[PEdge, Set[NodePair]]:
    """Node-key match sets decoded per view edge on first access."""
    return _PerEdgeLazy(payload, "pairs")


def lazy_distances(payload: FlatExtension) -> Optional[Dict[NodePair, int]]:
    """The node-key ``I(V)`` decoded on first use (``None`` unless the
    payload is bounded)."""
    return _LazyDistances(payload) if payload.bounded else None
