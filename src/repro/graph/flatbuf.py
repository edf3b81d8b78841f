"""Flat-buffer storage core: segments and the stores packed into them.

The paper's complexity bounds (Theorems 1-3 and the MatchJoin algorithm
of Section V) assume an indexed, array-addressable graph.  This module
is the storage under that: a :class:`FlatStore` packs named tables --
``array('q')`` integer columns (8-aligned, exposed as zero-copy
memoryviews) and opaque blobs (usually pickles, decoded at most once
per process) -- into **one byte segment** addressed by a small table
directory (``{table: (kind, offset, nbytes)}``).  Snapshots
(:class:`~repro.graph.compact.CompactGraph`) and view extensions
(:class:`~repro.views.flatpack.FlatExtension`) are both stores.

The segment's *backing* is pluggable -- a backend registry selects
between:

* ``shm`` -- :class:`multiprocessing.shared_memory.SharedMemory`, the
  default named backend wherever the platform provides it (zero-copy
  process fan-out);
* ``bytes`` -- a plain in-process ``bytearray`` (pickles ship the
  payload);
* ``file`` -- a **versioned on-disk segment** (fixed
  magic/version/checksum header, payload, then the pickled table
  directory as a trailer) attached read-only via ``mmap``, which is
  what makes snapshots durable: :meth:`FlatStore.save` writes one,
  :meth:`FlatStore.open` maps it back without rebuilding anything.

A store over a named segment (``shm`` / ``file``) pickles as *segment
name + table directory*: workers **attach** to the segment instead of
unpickling its contents, so ship cost is O(directory), not O(|G|).
:meth:`FlatStore.extended` copies a store, plus any added tables, into
another backend.

Segment lifecycle is deterministic and refcounted in-process:

* the *creator* process owns the segment; a ``weakref.finalize`` on the
  owning :class:`Segment` unlinks it when the last object referencing
  it is garbage collected (a snapshot refresh chain shares one segment,
  so the unlink happens when the last generation drops);
* *attachers* (pool workers) close their mapping but never unlink, and
  are unregistered from the ``resource_tracker`` immediately -- without
  that, every worker's tracker would try to unlink the segment at exit
  (the well-known "leaked shared_memory" spam) and could destroy it
  under the creator;
* an in-process **attach cache** keyed by segment name makes repeated
  attaches (a payload of many extensions sharing one snapshot segment)
  resolve to one mapping and one lazily-decoded blob cache.

``live_segment_names()`` exposes the creator-side registry so tests can
assert clean teardown.
"""

from __future__ import annotations

import logging
import mmap
import os
import pickle
import secrets
import struct
import tempfile
import threading
import weakref
import zlib
from array import array
from typing import Dict, List, Optional, Tuple

log = logging.getLogger(__name__)

try:  # pragma: no cover - platform probe
    from multiprocessing import resource_tracker, shared_memory

    _HAVE_SHM = True
except ImportError:  # pragma: no cover - exotic platforms
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]
    _HAVE_SHM = False

#: Prefix of every segment this module creates -- lets tests (and
#: operators) recognise our segments in ``/dev/shm``.
SEGMENT_PREFIX = "repro_flat_"

#: Environment switch selecting the segment backend (``shm`` | ``bytes``
#: | ``file``); unset picks shared memory where available.
BACKEND_ENV = "REPRO_FLAT_BACKEND"

#: Spool directory for env-selected ``file`` segments (defaults to the
#: system temp dir).  Persistent saves name their own paths and ignore it.
FILE_DIR_ENV = "REPRO_FLAT_DIR"

_ITEMSIZE = 8  # all integer tables are 64-bit ('q')

#: On-disk segment format: fixed little-endian header, then the payload
#: (8-aligned, offset == header size), then the pickled table directory
#: as a trailer (its length is only known after packing).  Fields:
#: magic, format version, flags (bit 0 = unsealed), payload bytes,
#: payload CRC32, directory CRC32, directory bytes.
SEGMENT_MAGIC = b"RFSEG\x00\x01\n"
SEGMENT_FORMAT_VERSION = 1
_FILE_HEADER = struct.Struct("<8sIIQIIQ")
_FILE_HEADER_SIZE = _FILE_HEADER.size  # 40: keeps the payload 8-aligned
_FLAG_UNSEALED = 1


class SegmentFormatError(ValueError):
    """An on-disk segment failed validation (bad magic, unsupported
    version, truncation, or checksum mismatch)."""


_BACKENDS = ("shm", "bytes", "file")


def resolve_backend(choice: Optional[str] = None) -> str:
    """The single backend-selection rule shared by create and attach.

    ``choice`` (or :data:`BACKEND_ENV` when ``None``) names one of
    ``shm`` | ``bytes`` | ``file``; unset and unrecognised values keep
    the historical default of shared memory, and ``shm`` quietly
    degrades to ``bytes`` on platforms without it.
    """
    if choice is None:
        choice = os.environ.get(BACKEND_ENV) or "shm"
    if choice not in _BACKENDS:
        choice = "shm"
    if choice == "shm" and not _HAVE_SHM:
        choice = "bytes"
    return choice


def _spool_dir() -> str:
    return os.environ.get(FILE_DIR_ENV) or tempfile.gettempdir()


# ----------------------------------------------------------------------
# Segment: one refcounted byte region (shared memory or plain bytes)
# ----------------------------------------------------------------------
_lock = threading.Lock()
#: Creator-side registry: name -> weakref to the owning Segment.  An
#: entry disappears when the segment is unlinked (finalizer or close).
_owned: Dict[str, "weakref.ref[Segment]"] = {}
#: Attach cache: name -> weakref to the attached Segment, so a payload
#: of many objects sharing one segment maps it exactly once per process.
_attached: Dict[str, "weakref.ref[Segment]"] = {}


def live_segment_names() -> List[str]:
    """Names of segments created by this process and not yet unlinked
    (test hook for the no-leak guarantee)."""
    with _lock:
        return [name for name, ref in _owned.items() if ref() is not None]


class Segment:
    """One byte region with deterministic, refcounted teardown.

    Created regions own their backing store: when the last Python
    reference drops (or :meth:`close` is called), shared memory is
    unlinked and spool files are deleted.  Attached regions only unmap
    and never delete (persistent segment files opened through
    :meth:`FlatStore.open` survive every attacher).  The plain
    ``bytes`` fallback needs no lifecycle at all but keeps the same
    interface, so every consumer is backend-agnostic.

    All three backends share one create/attach code path: the backend
    is picked by :func:`resolve_backend`, and the creator registry
    (``_owned``) and per-process attach cache (``_attached``) are keyed
    by the segment's name (its shm name or its file path) regardless of
    kind.
    """

    __slots__ = (
        "name",
        "nbytes",
        "kind",
        "_shm",
        "_bytes",
        "_mmap",
        "_path",
        "_finalizer",
        "__weakref__",
    )

    def __init__(self) -> None:  # use the factories below
        self.name: str = ""
        self.nbytes: int = 0
        self.kind: str = "bytes"
        self._shm = None
        self._bytes: Optional[bytearray] = None
        self._mmap: Optional[mmap.mmap] = None
        self._path: Optional[str] = None
        self._finalizer = None

    # -- factories -----------------------------------------------------
    @classmethod
    def create(cls, nbytes: int, backend: Optional[str] = None) -> "Segment":
        """A fresh writable segment of ``nbytes`` bytes (owned)."""
        segment = cls()
        segment.nbytes = nbytes
        segment.kind = resolve_backend(backend)
        token = SEGMENT_PREFIX + secrets.token_hex(8)
        if segment.kind == "shm":
            segment.name = token
            shm = shared_memory.SharedMemory(
                name=segment.name, create=True, size=max(1, nbytes)
            )
            segment._shm = shm
            segment._finalizer = weakref.finalize(
                segment, _destroy_shm, shm, segment.name
            )
        elif segment.kind == "file":
            path = os.path.join(_spool_dir(), token + ".seg")
            segment.name = path
            segment._path = path
            with open(path, "w+b") as fh:
                fh.write(
                    _FILE_HEADER.pack(
                        SEGMENT_MAGIC,
                        SEGMENT_FORMAT_VERSION,
                        _FLAG_UNSEALED,
                        nbytes,
                        0,
                        0,
                        0,
                    )
                )
                fh.truncate(_FILE_HEADER_SIZE + nbytes)
                segment._mmap = mmap.mmap(
                    fh.fileno(), _FILE_HEADER_SIZE + nbytes, access=mmap.ACCESS_WRITE
                )
            segment._finalizer = weakref.finalize(
                segment, _destroy_file, segment._mmap, path
            )
        else:
            segment._bytes = bytearray(nbytes)
            log.debug("%d-byte segment in process memory (bytes backend)", nbytes)
        if segment.name:
            with _lock:
                _owned[segment.name] = weakref.ref(segment)
        return segment

    @classmethod
    def attach(cls, name: str, nbytes: int, kind: str = "shm") -> "Segment":
        """Map an existing named segment (worker side, never deletes).

        ``name`` is the shm name or the segment file path; both go
        through the same cache lookups, so a payload of many objects
        sharing one segment maps it exactly once per process.
        """
        with _lock:
            cached = _attached.get(name)
            segment = cached() if cached is not None else None
            if segment is not None:
                return segment
            owned = _owned.get(name)
            segment = owned() if owned is not None else None
            if segment is not None:
                # Same process as the creator: share the mapping.
                return segment
        if kind == "file":
            segment = cls._attach_file(name, nbytes)
        else:
            segment = cls._attach_shm(name, nbytes)
        with _lock:
            _attached[name] = weakref.ref(segment)
        return segment

    @classmethod
    def _attach_shm(cls, name: str, nbytes: int) -> "Segment":
        if not _HAVE_SHM:  # pragma: no cover - guarded by handle kind
            raise RuntimeError("shared memory is unavailable on this platform")
        shm = shared_memory.SharedMemory(name=name)
        # Python's resource tracker registers *attachers* too (< 3.13)
        # and would unlink the segment when this worker exits; the
        # creator owns the unlink, so take this mapping off the books.
        try:  # pragma: no cover - tracker internals vary by version
            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
        segment = cls()
        segment.name = name
        segment.nbytes = nbytes
        segment.kind = "shm"
        segment._shm = shm
        segment._finalizer = weakref.finalize(segment, _close_shm, shm)
        return segment

    @classmethod
    def _attach_file(cls, path: str, nbytes: int) -> "Segment":
        payload_nbytes, _, _, _ = _read_segment_header(path)
        if nbytes >= 0 and nbytes != payload_nbytes:
            raise SegmentFormatError(
                f"{path}: payload is {payload_nbytes} bytes, handle expected {nbytes}"
            )
        with open(path, "rb") as fh:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        segment = cls()
        segment.name = path
        segment.nbytes = payload_nbytes
        segment.kind = "file"
        segment._mmap = mm
        segment._path = path
        segment._finalizer = weakref.finalize(segment, _close_mmap, mm)
        return segment

    @classmethod
    def wrap(cls, payload: bytes) -> "Segment":
        """Adopt a plain byte string (the unpickled fallback handle)."""
        segment = cls()
        segment.nbytes = len(payload)
        segment.kind = "bytes"
        segment._bytes = bytearray(payload)
        return segment

    # -- access --------------------------------------------------------
    @property
    def backend(self) -> str:
        return self.kind

    @property
    def buf(self) -> memoryview:
        if self._shm is not None:
            return self._shm.buf[: self.nbytes]
        if self._mmap is not None:
            return memoryview(self._mmap)[
                _FILE_HEADER_SIZE : _FILE_HEADER_SIZE + self.nbytes
            ]
        return memoryview(self._bytes)

    @property
    def on_disk_bytes(self) -> int:
        """File footprint (header + payload + directory); 0 unless the
        segment is file-backed."""
        if self._path is None:
            return 0
        try:
            return os.path.getsize(self._path)
        except OSError:  # pragma: no cover - racing deletion
            return 0

    def handle(self) -> Tuple[str, object]:
        """The picklable identity of this segment: ``("shm", name)`` or
        ``("file", path)`` for named backends, ``("bytes", payload)``
        for the fallback."""
        if self.kind == "bytes":
            return ("bytes", bytes(self._bytes))
        return (self.kind, self.name)

    @classmethod
    def from_handle(cls, kind: str, value, nbytes: int) -> "Segment":
        if kind in ("shm", "file"):
            return cls.attach(value, nbytes, kind)
        return cls.wrap(value)

    def seal(self, table_header: Dict[str, Tuple[str, int, int]]) -> None:
        """Finish a writable file segment: append the pickled table
        directory, compute checksums, and mark the header sealed.

        A no-op for ``shm``/``bytes`` backends, so :meth:`FlatStore.pack`
        can call it unconditionally.  Attaching an unsealed file raises
        :class:`SegmentFormatError` (the writer crashed mid-pack).
        """
        if self.kind != "file" or self._path is None:
            return
        dir_blob = pickle.dumps(table_header, protocol=pickle.HIGHEST_PROTOCOL)
        payload = self.buf
        header = _FILE_HEADER.pack(
            SEGMENT_MAGIC,
            SEGMENT_FORMAT_VERSION,
            0,
            self.nbytes,
            zlib.crc32(payload),
            zlib.crc32(dir_blob),
            len(dir_blob),
        )
        payload.release()
        with open(self._path, "ab") as fh:
            fh.write(dir_blob)
        self._mmap[:_FILE_HEADER_SIZE] = header
        self._mmap.flush()

    def close(self) -> None:
        """Tear down eagerly (idempotent): unlink/delete if owned, unmap."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._shm = None
        self._bytes = None
        self._mmap = None

    def __repr__(self) -> str:
        return f"Segment({self.name or '<bytes>'}, {self.nbytes}B, {self.backend})"


def _destroy_shm(shm, name: str) -> None:
    """Creator-side finalizer: unlink *then* unmap.

    Unlink first so the name disappears even if exported memoryviews
    (rows handed to long-lived results) keep the mapping alive; POSIX
    keeps the memory valid for existing maps after unlink.
    """
    with _lock:
        _owned.pop(name, None)
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - double close
        pass
    _close_shm(shm)


def _close_shm(shm) -> None:
    try:
        shm.close()
    except BufferError:
        # Exported row views are still alive, so the mapping must
        # outlive this handle.  Detach it (fd closed, mmap reference
        # dropped) so SharedMemory.__del__ does not retry the close and
        # raise unraisably; the map itself is reclaimed when the last
        # view dies or the process exits.
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            shm._fd = -1
        shm._mmap = None
        shm._buf = None


def _close_mmap(mm) -> None:
    try:
        mm.close()
    except BufferError:
        # Exported row views keep the mapping alive; it is reclaimed
        # when the last view dies or the process exits.
        pass


def _destroy_file(mm, path: str) -> None:
    """Creator-side finalizer for spool files: delete *then* unmap
    (POSIX keeps the pages valid for existing maps after unlink)."""
    with _lock:
        _owned.pop(path, None)
    try:
        os.unlink(path)
    except FileNotFoundError:  # pragma: no cover - double close
        pass
    _close_mmap(mm)


def _read_segment_header(path) -> Tuple[int, int, Dict[str, Tuple[str, int, int]], int]:
    """Validate a segment file's fixed header and table directory.

    Returns ``(payload_nbytes, payload_crc, table_header, file_size)``;
    raises :class:`SegmentFormatError` on any structural problem.  The
    payload CRC is *not* verified here -- that would force a full read
    of a file the caller is about to lazily mmap; use
    :func:`verify_segment_file` for the deep check.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            raw = fh.read(_FILE_HEADER_SIZE)
            if len(raw) < _FILE_HEADER_SIZE:
                raise SegmentFormatError(f"{path}: truncated segment header")
            magic, version, flags, payload_nbytes, payload_crc, dir_crc, dir_nbytes = (
                _FILE_HEADER.unpack(raw)
            )
            if magic != SEGMENT_MAGIC:
                raise SegmentFormatError(f"{path}: not a repro segment file (bad magic)")
            if version != SEGMENT_FORMAT_VERSION:
                raise SegmentFormatError(
                    f"{path}: unsupported segment format version {version} "
                    f"(this build reads version {SEGMENT_FORMAT_VERSION})"
                )
            if flags & _FLAG_UNSEALED:
                raise SegmentFormatError(
                    f"{path}: segment was never sealed (writer crashed mid-pack?)"
                )
            if size < _FILE_HEADER_SIZE + payload_nbytes + dir_nbytes:
                raise SegmentFormatError(
                    f"{path}: truncated segment ({size} bytes, header promises "
                    f"{_FILE_HEADER_SIZE + payload_nbytes + dir_nbytes})"
                )
            fh.seek(_FILE_HEADER_SIZE + payload_nbytes)
            dir_blob = fh.read(dir_nbytes)
        if zlib.crc32(dir_blob) != dir_crc:
            raise SegmentFormatError(f"{path}: table directory checksum mismatch")
        table_header = pickle.loads(dir_blob) if dir_nbytes else {}
    except OSError as exc:
        raise SegmentFormatError(f"{path}: cannot read segment file ({exc})") from exc
    return payload_nbytes, payload_crc, table_header, size


def verify_segment_file(path) -> int:
    """Deep-verify a segment file (full payload CRC pass).

    Returns the payload byte count; raises :class:`SegmentFormatError`
    on corruption.  Reads the file in chunks, so it never maps or holds
    the payload in memory.
    """
    path = os.fspath(path)
    payload_nbytes, payload_crc, _, _ = _read_segment_header(path)
    crc = 0
    remaining = payload_nbytes
    with open(path, "rb") as fh:
        fh.seek(_FILE_HEADER_SIZE)
        while remaining:
            chunk = fh.read(min(remaining, 4 << 20))
            if not chunk:  # pragma: no cover - length checked above
                raise SegmentFormatError(f"{path}: truncated segment payload")
            crc = zlib.crc32(chunk, crc)
            remaining -= len(chunk)
    if crc != payload_crc:
        raise SegmentFormatError(f"{path}: payload checksum mismatch")
    return payload_nbytes


def _release_views(arrays: Dict[str, memoryview]) -> None:
    for view in arrays.values():
        try:
            view.release()
        except (ValueError, BufferError):  # pragma: no cover
            pass
    arrays.clear()


# ----------------------------------------------------------------------
# FlatStore: named tables + blobs in one segment behind a small header
# ----------------------------------------------------------------------
class FlatStore:
    """Named flat tables packed into one :class:`Segment`.

    Two table kinds: ``"q"`` -- an ``array('q')`` of 64-bit ints,
    8-byte aligned, exposed as a zero-copy memoryview -- and ``"blob"``
    -- an opaque byte string (usually a pickle) decoded at most once
    per process via :meth:`obj`.

    The header (``{name: (kind, offset, nbytes)}``) is deliberately
    *not* written into the segment: it travels inside the pickle of
    whatever object owns the store, which is exactly the "ships segment
    names + header" contract -- a worker needs nothing but the pickle
    bytes to address every table.
    """

    __slots__ = ("segment", "header", "_arrays", "_objs", "__weakref__")

    def __init__(self, segment: Segment, header: Dict[str, Tuple[str, int, int]]):
        self.segment = segment
        self.header = header
        self._arrays: Dict[str, memoryview] = {}
        self._objs: Dict[str, object] = {}
        # Cached table views keep the mapping "exported"; release them
        # before the segment finalizer closes the mapping (finalizers
        # run LIFO, and this one is created after the segment's).
        weakref.finalize(self, _release_views, self._arrays)

    @classmethod
    def pack(
        cls,
        arrays: Dict[str, array],
        blobs: Dict[str, bytes],
        backend: Optional[str] = None,
    ) -> "FlatStore":
        """Lay the tables out in one fresh segment."""
        header: Dict[str, Tuple[str, int, int]] = {}
        offset = 0
        for name, arr in arrays.items():
            nbytes = len(arr) * _ITEMSIZE
            header[name] = ("q", offset, nbytes)
            offset += nbytes  # arrays first: offsets stay 8-aligned
        for name, blob in blobs.items():
            header[name] = ("blob", offset, len(blob))
            offset += len(blob)
        segment = Segment.create(offset, backend)
        buf = segment.buf
        for name, arr in arrays.items():
            _, start, nbytes = header[name]
            if nbytes:
                buf[start : start + nbytes] = memoryview(arr).cast("B")
        for name, blob in blobs.items():
            _, start, nbytes = header[name]
            if nbytes:
                buf[start : start + nbytes] = blob
        del buf
        segment.seal(header)
        return cls(segment, header)

    def extended(
        self, blobs: Dict[str, bytes], backend: Optional[str] = None
    ) -> "FlatStore":
        """A copy of this store plus the blob tables ``blobs`` in a fresh
        segment on ``backend`` (:func:`resolve_backend` rules); decoded
        blobs carry over."""
        arrays = {}
        old = {}
        for name, (kind, _, _) in self.header.items():
            if kind == "q":
                arrays[name] = self.ints(name)
            else:
                old[name] = self.blob(name)
        store = FlatStore.pack(arrays, {**old, **blobs}, backend)
        store._objs.update(self._objs)
        return store

    # -- durable segments ----------------------------------------------
    def save(self, path) -> int:
        """Write this store as a sealed segment file; returns the file
        size.  The table directory rides in the file (trailer), so
        :meth:`open` needs nothing but the path."""
        path = os.fspath(path)
        dir_blob = pickle.dumps(self.header, protocol=pickle.HIGHEST_PROTOCOL)
        payload = self.segment.buf
        header = _FILE_HEADER.pack(
            SEGMENT_MAGIC,
            SEGMENT_FORMAT_VERSION,
            0,
            self.segment.nbytes,
            zlib.crc32(payload),
            zlib.crc32(dir_blob),
            len(dir_blob),
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(dir_blob)
        payload.release()
        return os.path.getsize(path)

    @classmethod
    def open(cls, path, verify: bool = False) -> "FlatStore":
        """Attach a saved segment file read-only via ``mmap``.

        Header structure and directory checksum are always validated;
        ``verify=True`` additionally runs the full payload CRC pass
        (reads every byte -- skip it when you want lazy loading).
        Attaches are cached per process, like shm attaches.
        """
        path = os.fspath(path)
        if verify:
            verify_segment_file(path)
        _, _, table_header, _ = _read_segment_header(path)
        return _attach_store("file", path, -1, table_header)

    # -- pickling: segment handle + header, never the payload ----------
    def __reduce__(self):
        kind, value = self.segment.handle()
        return (_attach_store, (kind, value, self.segment.nbytes, self.header))

    # -- table access --------------------------------------------------
    def ints(self, name: str) -> memoryview:
        """Zero-copy 64-bit view of an integer table."""
        view = self._arrays.get(name)
        if view is None:
            _, start, nbytes = self.header[name]
            view = self.segment.buf[start : start + nbytes].cast("q")
            self._arrays[name] = view
        return view

    def blob(self, name: str) -> memoryview:
        _, start, nbytes = self.header[name]
        return self.segment.buf[start : start + nbytes]

    def obj(self, name: str):
        """Unpickle a blob table (memoized per process)."""
        value = self._objs.get(name)
        if value is None:
            value = pickle.loads(self.blob(name))
            self._objs[name] = value
        return value

    def table_bytes(self) -> Dict[str, int]:
        """Per-table byte footprint (the ``repro stats`` memory section)."""
        return {name: nbytes for name, (_, _, nbytes) in self.header.items()}

    @property
    def total_bytes(self) -> int:
        return self.segment.nbytes

    @property
    def backend(self) -> str:
        return self.segment.backend

    @property
    def on_disk_bytes(self) -> int:
        return self.segment.on_disk_bytes

    def __repr__(self) -> str:
        return (
            f"FlatStore({len(self.header)} tables, {self.total_bytes}B, "
            f"{self.backend})"
        )


#: Attach cache for stores: one FlatStore (and thus one decoded-blob
#: cache) per segment per process, however many payload objects
#: reference it.  Keyed by ``(kind, name)`` -- both named backends
#: (``shm`` and ``file``) share the code path.
_stores: Dict[Tuple[str, str], "weakref.ref[FlatStore]"] = {}


def _attach_store(kind, value, nbytes, header) -> FlatStore:
    key = (kind, value) if kind in ("shm", "file") else None
    if key is not None:
        with _lock:
            cached = _stores.get(key)
            store = cached() if cached is not None else None
        if store is not None:
            return store
    segment = Segment.from_handle(kind, value, nbytes)
    store = FlatStore(segment, header)
    if key is not None:
        with _lock:
            _stores[key] = weakref.ref(store)
    return store
