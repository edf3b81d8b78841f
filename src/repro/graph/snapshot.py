"""Persistent snapshot directories: save/load mmap-backed graph state.

A :class:`~repro.graph.compact.CompactGraph` keeps its tables in one
flat segment -- but an in-process or shared-memory segment dies with
the process.  :class:`SnapshotStore` gives a snapshot a durable
sibling: :meth:`SnapshotStore.save` writes the snapshot's packed
segment (whatever its backend) and refresh patch into a *snapshot
directory* of sealed segment files (see :mod:`repro.graph.flatbuf` for
the on-disk format) plus a ``manifest.json``, and
:meth:`SnapshotStore.load` maps it back read-only via ``mmap`` as a
``file``-backed snapshot -- no edge list is re-read, no CSR is rebuilt,
and rows decode on first touch, so a reload touches only the pages a
query actually visits.

Directory layout::

    snapshot/
      manifest.json            # kind, counts, tokens, file map (written last)
      graph.seg                # compact: the snapshot's flat segment
      patch.pkl                # compact: refreshed() overlay (optional)
      shard-000.seg ...        # sharded: one sealed segment per shard
      patch-000.pkl ...        # sharded: per-shard patch overlays (optional)
      crosspred-000.pkl ...    # sharded: cross-shard predecessors by home shard
      view-000.seg/.pkl ...    # view payload packs (compact snapshots)
      view-000.view ...        # plain pickled views (sharded snapshots)

The manifest is written *last*, so a directory without one is never
mistaken for a valid snapshot (a crashed save leaves garbage, not a
half-snapshot).  Provenance survives the round trip: ``snapshot_token``
/ ``extends_token`` and any ``refreshed()`` patch overlay are persisted
verbatim, so a reloaded snapshot still rebinds extensions and engages
the MatchJoin id-space fast paths exactly like its in-memory origin.

Sharded snapshots reload with the composite bookkeeping rebuilt from
the per-shard node tables (O(V + boundary)); the cross-shard
predecessor table and the partition's cut-edge list stay on disk until
first touched (:class:`_LazyCrossPred` / :class:`_LazyCrossEdges`).
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import shutil
import tempfile
import time
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.graph.compact import CompactGraph, _attach_snapshot
from repro.graph.digraph import DataGraph
from repro.graph.flatbuf import FlatStore, verify_segment_file

log = logging.getLogger(__name__)

Node = Hashable

MANIFEST_NAME = "manifest.json"
SNAPSHOT_FORMAT = 2


class SnapshotError(ValueError):
    """A snapshot directory is missing, malformed, or would be
    clobbered without ``overwrite=True``."""


# ----------------------------------------------------------------------
# Lazy boundary tables (sharded reload)
# ----------------------------------------------------------------------
class _LazyCrossPred(dict):
    """``{node: frozenset(cross-shard predecessors)}`` loaded per home
    shard on first miss.

    A real ``dict`` subclass so ``predecessors()`` keeps its one
    ``get()`` call; a lookup for a node homed in shard ``i`` loads only
    ``crosspred-i.pkl``.  Whole-table iteration loads everything.
    """

    __slots__ = ("_dir", "_files", "_home", "_loaded")

    def __init__(self, dirpath: str, files: Dict[int, str], home: Dict[Node, int]):
        super().__init__()
        self._dir = dirpath
        self._files = files
        self._home = home
        self._loaded: set = set()

    def _load_for(self, node) -> None:
        shard = self._home.get(node)
        if shard is None or shard in self._loaded:
            return
        self._loaded.add(shard)
        fname = self._files.get(shard)
        if fname is not None:
            with open(os.path.join(self._dir, fname), "rb") as fh:
                self.update(pickle.load(fh))

    def _load_all(self) -> None:
        for shard, fname in self._files.items():
            if shard not in self._loaded:
                self._loaded.add(shard)
                with open(os.path.join(self._dir, fname), "rb") as fh:
                    self.update(pickle.load(fh))

    def __missing__(self, key):
        self._load_for(key)
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        raise KeyError(key)

    def get(self, key, default=None):
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        self._load_for(key)
        return dict.get(self, key, default)

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def items(self):
        self._load_all()
        return dict.items(self)

    def keys(self):
        self._load_all()
        return dict.keys(self)

    def values(self):
        self._load_all()
        return dict.values(self)

    def __iter__(self):
        self._load_all()
        return dict.__iter__(self)

    def __len__(self) -> int:
        self._load_all()
        return dict.__len__(self)


class _LazyCrossEdges:
    """The partition's cut-edge tuple, streamed from the cross-pred
    pickles only if something actually iterates it (``refreshed()``
    does; plain serving never will).  ``len()`` answers from the
    manifest without touching disk."""

    __slots__ = ("_dir", "_files", "_count", "_cache")

    def __init__(self, dirpath: str, files: Dict[int, str], count: int):
        self._dir = dirpath
        self._files = files
        self._count = count
        self._cache: Optional[Tuple[Tuple[Node, Node], ...]] = None

    def _load(self) -> Tuple[Tuple[Node, Node], ...]:
        edges = self._cache
        if edges is None:
            collected: List[Tuple[Node, Node]] = []
            for fname in self._files.values():
                with open(os.path.join(self._dir, fname), "rb") as fh:
                    group = pickle.load(fh)
                for target, sources in group.items():
                    collected.extend((source, target) for source in sources)
            edges = self._cache = tuple(collected)
        return edges

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Tuple[Node, Node]]:
        return iter(self._load())

    def __contains__(self, edge) -> bool:
        return edge in self._load()

    def __getitem__(self, index):
        return self._load()[index]


# ----------------------------------------------------------------------
# LoadedSnapshot
# ----------------------------------------------------------------------
class LoadedSnapshot:
    """The product of :meth:`SnapshotStore.load`.

    ``graph`` is a :class:`~repro.graph.compact.CompactGraph` or
    :class:`~repro.shard.sharded.ShardedGraph` whose segments are
    ``file``-backed (mmap); ``views`` maps view names to reloaded
    materialized views.  :meth:`viewset` assembles both into a ready
    :class:`~repro.views.storage.ViewSet`.
    """

    __slots__ = ("path", "graph", "views", "manifest")

    def __init__(self, path: str, graph, views: Dict[str, Any], manifest: dict):
        self.path = path
        self.graph = graph
        self.views = views
        self.manifest = manifest

    def viewset(self):
        """A ViewSet holding the persisted definitions and extensions."""
        from repro.views.storage import ViewSet

        views = ViewSet(view.definition for view in self.views.values())
        for view in self.views.values():
            views.set_extension(view)
        return views

    def __repr__(self) -> str:
        return (
            f"LoadedSnapshot({self.path!r}, kind={self.manifest.get('kind')!r}, "
            f"views={len(self.views)})"
        )


# ----------------------------------------------------------------------
# SnapshotStore
# ----------------------------------------------------------------------
class SnapshotStore:
    """Save/load/inspect persistent snapshot directories."""

    # -- save ----------------------------------------------------------
    @staticmethod
    def save(path, snapshot, views=None, overwrite: bool = False) -> dict:
        """Persist ``snapshot`` (and optionally its views) under ``path``.

        ``snapshot`` may be a live :class:`DataGraph` (frozen here), a
        :class:`CompactGraph` on any segment backend, or a
        :class:`~repro.shard.sharded.ShardedGraph`; each snapshot's
        packed segment and patch are written as they are.  ``views``
        is a ViewSet or ``{name: MaterializedView}`` mapping; views
        whose id-space payload is bound to this exact
        snapshot are saved as attachable segment files, everything else
        falls back to a plain pickle.

        With ``overwrite=True`` an existing snapshot is replaced via a
        sibling temp directory and rename swap, so readers never see a
        half-written directory.  Returns the manifest.
        """
        snapshot = _as_saveable(snapshot)
        extensions = _as_extensions(views)
        final = os.fspath(path)
        existing = os.path.isdir(final) and bool(os.listdir(final))
        if existing and not overwrite:
            raise SnapshotError(
                f"{final}: directory exists and is not empty "
                "(pass overwrite=True to replace it)"
            )
        if existing:
            parent = os.path.dirname(os.path.abspath(final)) or "."
            tmp = tempfile.mkdtemp(prefix=".snapshot-tmp-", dir=parent)
            try:
                manifest = _write_snapshot(tmp, snapshot, extensions)
                old = tmp + ".old"
                os.rename(final, old)
                os.rename(tmp, final)
                shutil.rmtree(old, ignore_errors=True)
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
            return manifest
        os.makedirs(final, exist_ok=True)
        return _write_snapshot(final, snapshot, extensions)

    # -- load ----------------------------------------------------------
    @staticmethod
    def load(path, verify: bool = False) -> LoadedSnapshot:
        """Reload a snapshot directory via read-only ``mmap``.

        Header structure and table-directory checksums are always
        validated; ``verify=True`` additionally CRCs every segment
        payload (reads all bytes -- use for integrity audits, not
        serving boots).  Raises :class:`SnapshotError` on a missing or
        malformed directory and
        :class:`~repro.graph.flatbuf.SegmentFormatError` on a corrupt
        segment file.
        """
        final = os.fspath(path)
        manifest = _read_manifest(final)
        kind = manifest.get("kind")
        if kind == "compact":
            graph = _load_compact(final, manifest, verify)
        elif kind == "sharded":
            graph = _load_sharded(final, manifest, verify)
        else:
            raise SnapshotError(f"{final}: unknown snapshot kind {kind!r}")
        views = _load_views(final, manifest, graph, verify)
        return LoadedSnapshot(final, graph, views, manifest)

    # -- info ----------------------------------------------------------
    @staticmethod
    def info(path, verify: bool = False) -> dict:
        """Manifest plus on-disk footprint, without attaching payloads.

        ``verify=True`` runs the full payload CRC pass over every
        segment file (still without mapping them).
        """
        final = os.fspath(path)
        manifest = _read_manifest(final)
        files: Dict[str, int] = {}
        total = 0
        for entry in sorted(os.listdir(final)):
            full = os.path.join(final, entry)
            if os.path.isfile(full):
                size = os.path.getsize(full)
                files[entry] = size
                total += size
                if verify and entry.endswith(".seg"):
                    verify_segment_file(full)
        return dict(manifest, path=final, files=files, on_disk_bytes=total)


def snapshot_on_disk_bytes(path) -> int:
    """Total byte footprint of a snapshot directory (0 if absent)."""
    final = os.fspath(path)
    if not os.path.isdir(final):
        return 0
    return sum(
        os.path.getsize(os.path.join(final, entry))
        for entry in os.listdir(final)
        if os.path.isfile(os.path.join(final, entry))
    )


# ----------------------------------------------------------------------
# Save internals
# ----------------------------------------------------------------------
def _as_saveable(snapshot):
    """Normalize any graph form into a segment-backed snapshot."""
    from repro.shard.sharded import ShardedGraph

    if isinstance(snapshot, DataGraph):
        snapshot = snapshot.freeze()
    if isinstance(snapshot, (CompactGraph, ShardedGraph)):
        return snapshot
    raise SnapshotError(
        f"cannot snapshot object of type {type(snapshot).__name__}"
    )


def _as_extensions(views) -> Dict[str, Any]:
    if views is None:
        return {}
    if hasattr(views, "extensions"):
        return views.extensions()
    return dict(views)


def _dump(obj, path) -> None:
    with open(path, "wb") as fh:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _write_snapshot(dirpath: str, snapshot, extensions: Dict[str, Any]) -> dict:
    from repro.shard.sharded import ShardedGraph

    if isinstance(snapshot, ShardedGraph):
        manifest = _write_sharded(dirpath, snapshot)
        flat_token = None  # sharded views have no attachable segment form
    else:
        manifest = _write_compact(dirpath, snapshot)
        flat_token = snapshot.snapshot_token
    manifest["views"] = _write_views(dirpath, snapshot, extensions, flat_token)
    manifest["format"] = SNAPSHOT_FORMAT
    manifest["created_at"] = time.time()
    tmp_manifest = os.path.join(dirpath, MANIFEST_NAME + ".tmp")
    with open(tmp_manifest, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp_manifest, os.path.join(dirpath, MANIFEST_NAME))
    return manifest


def _graph_meta(snapshot) -> dict:
    return {
        "nodes": snapshot.num_nodes,
        "edges": snapshot.num_edges,
        "snapshot_version": snapshot.snapshot_version,
        "snapshot_token": snapshot.snapshot_token,
        "extends_token": snapshot.extends_token,
    }


def _write_compact(dirpath: str, snapshot: CompactGraph) -> dict:
    files = {"segment": "graph.seg"}
    snapshot.packed_store().save(os.path.join(dirpath, "graph.seg"))
    if snapshot._patch:
        _dump(snapshot._patch, os.path.join(dirpath, "patch.pkl"))
        files["patch"] = "patch.pkl"
    return {"kind": "compact", "graph": _graph_meta(snapshot), "files": files}


def _write_sharded(dirpath: str, sharded) -> dict:
    k = sharded.num_shards
    shard_files: List[dict] = []
    for i, shard in enumerate(sharded._shards):
        seg = f"shard-{i:03d}.seg"
        shard.packed_store().save(os.path.join(dirpath, seg))
        entry = {
            "segment": seg,
            "meta": [
                shard.num_nodes,
                shard.num_edges,
                shard.snapshot_version,
                shard.snapshot_token,
                shard.extends_token,
            ],
        }
        if shard._patch:
            patch = f"patch-{i:03d}.pkl"
            _dump(shard._patch, os.path.join(dirpath, patch))
            entry["patch"] = patch
        shard_files.append(entry)
    # Cross-shard predecessors, grouped by the *target's* home shard so
    # a reload can fault in exactly the group a lookup needs.
    groups: List[Dict[Node, Any]] = [{} for _ in range(k)]
    for target, sources in sharded._cross_pred.items():
        groups[sharded._home[target]][target] = sources
    cross_files: Dict[str, str] = {}
    for i, group in enumerate(groups):
        if group:
            fname = f"crosspred-{i:03d}.pkl"
            _dump(group, os.path.join(dirpath, fname))
            cross_files[str(i)] = fname
    return {
        "kind": "sharded",
        "graph": _graph_meta(sharded),
        "shards": k,
        "strategy": sharded.partition.strategy,
        "own_counts": list(sharded._own_counts),
        "edge_cut": sharded.partition.edge_cut,
        "shard_files": shard_files,
        "cross_pred": cross_files,
    }


def _write_views(
    dirpath: str, snapshot, extensions: Dict[str, Any], flat_token
) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for idx, name in enumerate(sorted(extensions)):
        view = extensions[name]
        payload = getattr(view, "compact", None)
        definition = getattr(view, "definition", None)
        if definition is None:
            log.warning("snapshot save: view %r has no definition; skipped", name)
            continue
        if payload is not None and payload.token == flat_token:
            seg = f"view-{idx:03d}.seg"
            meta = f"view-{idx:03d}.pkl"
            payload.store.save(os.path.join(dirpath, seg))
            _dump(
                {
                    "definition": definition,
                    # The saved segment holds the base node keys; the
                    # saved patch, the appended ones.
                    "nodes_extra": (snapshot._patch or {}).get("nodes", []),
                    "edge_order": payload.edge_order,
                    "token": payload.token,
                    "version": payload.version,
                    "bounded": payload.bounded,
                },
                os.path.join(dirpath, meta),
            )
            out[name] = {"kind": "flat", "segment": seg, "meta": meta}
        else:
            fname = f"view-{idx:03d}.view"
            _dump(view, os.path.join(dirpath, fname))
            out[name] = {"kind": "pickle", "pickle": fname}
    return out


# ----------------------------------------------------------------------
# Load internals
# ----------------------------------------------------------------------
def _read_manifest(dirpath: str) -> dict:
    manifest_path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise SnapshotError(
            f"{dirpath}: not a snapshot directory (no {MANIFEST_NAME})"
        )
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"{dirpath}: unreadable manifest ({exc})") from exc
    fmt = manifest.get("format")
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{dirpath}: unsupported snapshot format {fmt!r} "
            f"(this build reads format {SNAPSHOT_FORMAT})"
        )
    return manifest


def _load_pickle(dirpath: str, fname: str):
    with open(os.path.join(dirpath, fname), "rb") as fh:
        return pickle.load(fh)


def _load_compact(dirpath: str, manifest: dict, verify: bool) -> CompactGraph:
    files = manifest["files"]
    store = FlatStore.open(os.path.join(dirpath, files["segment"]), verify=verify)
    patch = _load_pickle(dirpath, files["patch"]) if "patch" in files else None
    g = manifest["graph"]
    meta = (
        g["nodes"],
        g["edges"],
        g["snapshot_version"],
        g["snapshot_token"],
        g["extends_token"],
    )
    return _attach_snapshot(store, patch, meta)


def _load_sharded(dirpath: str, manifest: dict, verify: bool):
    from repro.shard.partitioner import Partition
    from repro.shard.sharded import ShardedGraph

    k = manifest["shards"]
    own_counts = list(manifest["own_counts"])
    shard_graphs: List[CompactGraph] = []
    for entry in manifest["shard_files"]:
        store = FlatStore.open(
            os.path.join(dirpath, entry["segment"]), verify=verify
        )
        patch = _load_pickle(dirpath, entry["patch"]) if "patch" in entry else None
        shard_graphs.append(_attach_snapshot(store, patch, tuple(entry["meta"])))

    # Composite bookkeeping, rebuilt from the decoded per-shard node
    # tables: own nodes first (local ids below own_count), ghosts after
    # -- the same invariant ShardedGraph.__init__ establishes.
    assignment: Dict[Node, int] = {}
    shard_nodes: List[List[Node]] = []
    ghost_sets: List[Any] = []
    node_table: List[Node] = []
    all_names: List[List[Node]] = []
    for i, snap in enumerate(shard_graphs):
        names = list(snap.node_table)
        own = own_counts[i]
        all_names.append(names)
        shard_nodes.append(names[:own])
        ghost_sets.append(frozenset(names[own:]))
        node_table.extend(names[:own])
        for node in names[:own]:
            assignment[node] = i

    g = manifest["graph"]
    cross_files = {int(i): fname for i, fname in manifest["cross_pred"].items()}
    partition = Partition.__new__(Partition)
    partition.strategy = manifest["strategy"]
    partition.num_shards = k
    partition._assignment = assignment
    partition._shards = shard_nodes
    partition._ghosts = tuple(ghost_sets)
    partition._num_edges = g["edges"]
    partition._internal_edges = g["edges"] - manifest["edge_cut"]
    partition._cross = _LazyCrossEdges(dirpath, cross_files, manifest["edge_cut"])

    new = ShardedGraph.__new__(ShardedGraph)
    new.partition = partition
    new._shards = tuple(shard_graphs)
    new._own_counts = tuple(own_counts)
    offsets: List[int] = []
    total = 0
    for count in own_counts:
        offsets.append(total)
        total += count
    new._offsets = tuple(offsets)
    new._home = assignment
    new._node_table = node_table

    global_rows: List[List[int]] = []
    ghost_ids: List[Dict[Node, int]] = []
    for i, snap in enumerate(shard_graphs):
        row: List[int] = []
        ghosts: Dict[Node, int] = {}
        own = own_counts[i]
        for local_id, node in enumerate(all_names[i]):
            home = assignment[node]
            row.append(offsets[home] + shard_graphs[home].id_of(node))
            if local_id >= own:
                ghosts[node] = local_id
        global_rows.append(row)
        ghost_ids.append(ghosts)
    new._global_rows = tuple(global_rows)
    new._ghost_ids = tuple(ghost_ids)

    ghost_shards: Dict[Node, List[int]] = {}
    for i, ghosts in enumerate(ghost_ids):
        for node in ghosts:
            ghost_shards.setdefault(node, []).append(i)
    new._ghost_shards = {
        node: tuple(holders) for node, holders in ghost_shards.items()
    }
    bridges: List[List[Tuple[int, Any, Dict[int, int]]]] = [[] for _ in range(k)]
    for holder, ghosts in enumerate(ghost_ids):
        per_owner: Dict[int, Dict[int, int]] = {}
        for node, ghost_id in ghosts.items():
            owner = assignment[node]
            per_owner.setdefault(owner, {})[
                shard_graphs[owner].id_of(node)
            ] = ghost_id
        for owner, mapping in per_owner.items():
            bridges[owner].append((holder, frozenset(mapping), mapping))
    new._bridges = tuple(tuple(entries) for entries in bridges)
    new._cross_pred = _LazyCrossPred(dirpath, cross_files, assignment)

    label_nodes: Dict[str, List[Node]] = {}
    for i, snap in enumerate(shard_graphs):
        own = own_counts[i]
        names = all_names[i]
        for label, bucket in snap.label_buckets().items():
            acc = label_nodes.setdefault(label, [])
            acc.extend(names[j] for j in bucket if j < own)
    new._label_nodes = {
        label: tuple(nodes) for label, nodes in label_nodes.items()
    }

    new._num_edges = g["edges"]
    new.snapshot_version = g["snapshot_version"]
    new.snapshot_token = g["snapshot_token"]
    new.extends_token = g["extends_token"]
    return new


def _load_views(dirpath: str, manifest: dict, graph, verify: bool) -> Dict[str, Any]:
    entries = manifest.get("views") or {}
    if not entries:
        return {}
    from repro.views.flatpack import _attach_extension
    from repro.views.view import _attach_view

    views: Dict[str, Any] = {}
    for name, entry in entries.items():
        if entry.get("kind") == "pickle":
            views[name] = _load_pickle(dirpath, entry["pickle"])
            continue
        store = FlatStore.open(
            os.path.join(dirpath, entry["segment"]), verify=verify
        )
        meta = _load_pickle(dirpath, entry["meta"])
        flat = _attach_extension(
            store,
            meta["edge_order"],
            meta["bounded"],
            meta["token"],
            meta["version"],
            None,
            graph.flat_store,
            meta["nodes_extra"],
        )
        views[name] = _attach_view(meta["definition"], flat)
    return views
