"""Graph substrate: data graphs, patterns, search conditions and SCC tools.

This subpackage provides everything the matching algorithms stand on:

* :class:`~repro.graph.digraph.DataGraph` -- a directed graph whose nodes
  carry label sets and attribute dictionaries (Section II-A of the paper),
  with an incrementally-maintained label index and a mutation version
  counter.
* :class:`~repro.graph.compact.CompactGraph` -- the immutable integer-id
  CSR snapshot produced by :meth:`DataGraph.freeze`, the read-optimized
  backend under batch serving; its tables live in one flat segment.
* :mod:`~repro.graph.conditions` -- node search conditions ``fv`` (plain
  labels or Boolean predicates as in Fig. 7) together with a sound
  implication test used by view-match computation.
* :class:`~repro.graph.pattern.Pattern` and
  :class:`~repro.graph.pattern.BoundedPattern` -- graph pattern queries
  ``Qs`` and bounded pattern queries ``Qb``.
* :mod:`~repro.graph.scc` -- Tarjan strongly connected components and the
  edge *ranks* driving the bottom-up MatchJoin optimization (Section III).
* :mod:`~repro.graph.io` -- serialization, including a SNAP edge-list
  reader for users who have the original datasets.
* :mod:`~repro.graph.flatbuf` -- flat-buffer storage (segments and
  stores) over pluggable segment backends (``shm`` | ``bytes`` | ``file``), the
  ``file`` backend being versioned, checksummed on-disk segments
  attached read-only via ``mmap``.
* :mod:`~repro.graph.snapshot` -- persistent snapshot directories:
  :class:`~repro.graph.snapshot.SnapshotStore` saves and reloads whole
  graphs (and their view catalogs) without rebuilding.
* :mod:`~repro.graph.ingest` -- streaming out-of-core ingest: build a
  sharded snapshot from an edge list of any size under a flat memory
  ceiling.
"""

from repro.graph.conditions import (
    AttributeCondition,
    Condition,
    Label,
    P,
    TrueCondition,
    implies,
)
from repro.graph.compact import CompactGraph
from repro.graph.digraph import DataGraph
from repro.graph.flatbuf import (
    FlatStore,
    SegmentFormatError,
    live_segment_names,
    verify_segment_file,
)
from repro.graph.ingest import IngestReport, ingest_snapshot
from repro.graph.pattern import ANY, BoundedPattern, Pattern
from repro.graph.snapshot import (
    LoadedSnapshot,
    SnapshotError,
    SnapshotStore,
)

__all__ = [
    "ANY",
    "AttributeCondition",
    "BoundedPattern",
    "CompactGraph",
    "Condition",
    "DataGraph",
    "FlatStore",
    "IngestReport",
    "Label",
    "LoadedSnapshot",
    "P",
    "Pattern",
    "SegmentFormatError",
    "SnapshotError",
    "SnapshotStore",
    "TrueCondition",
    "implies",
    "ingest_snapshot",
    "live_segment_names",
    "verify_segment_file",
]
