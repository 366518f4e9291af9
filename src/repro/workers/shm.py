"""A cross-process, mmap-backed read layer for the artifact cache.

One machine runs many repro processes — services, sweep drivers,
worker pools — all sharing one content-addressed
:class:`~repro.engine.cache.ArtifactCache` directory.  Each process
used to pay the full read-and-deserialize cost for every warm artifact
it touched.  This module adds a shared append-only segment (a plain
file, ``mmap``-ed by every attached process) that mirrors hot artifact
*texts* so a warm hit costs one in-memory lookup; the per-process
deserialized-object memo above it (see ``ArtifactCache``) then makes
repeats free.

Why a file + ``mmap`` rather than ``multiprocessing.shared_memory``:
the attaching processes are not related (services are exec'd
subprocesses, sweeps attach hours later), so POSIX-name lifetime
management and the resource tracker's unlink-on-exit semantics are
exactly the wrong tool.  A file under the cache root has the same
lifetime as the cache it accelerates, and the OS page cache makes the
mapping shared machine-wide.

Layout::

    header : magic(8) capacity(u64) cursor(u64)
    record : magic(4) digest(64, ascii hex) length(u32) crc32(u32) payload …
             (records are 8-byte aligned; ``cursor`` is the committed
             byte bound — readers never look past it)

Writers append under an ``fcntl`` file lock and publish by advancing
``cursor`` *last*, so a crashed writer leaves garbage past the cursor,
never inside it.  Readers validate record magic and CRC anyway: any
torn or corrupt state marks the segment unusable for this process and
every lookup falls back to the on-disk store.  The segment is an
accelerator, never an authority.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple

try:  # pragma: no cover - always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = ["DEFAULT_CAPACITY", "SharedArtifactSegment"]

_SEGMENT_MAGIC = b"RPROSHM1"
_RECORD_MAGIC = b"ra1\n"
_HEADER = struct.Struct("<8sQQ")  # magic, capacity, committed cursor
_CURSOR_OFFSET = 16
_RECORD = struct.Struct("<4s64sII")  # magic, hex digest, length, crc32
_DIGEST_LEN = 64
_HEX = frozenset(b"0123456789abcdef")

#: 64 MiB: roomy for every committed workload's artifact set while
#: staying a sparse file until actually written.
DEFAULT_CAPACITY = 64 * 1024 * 1024


def _aligned(size: int) -> int:
    return (size + 7) & ~7


class SharedArtifactSegment:
    """One process's view of the shared artifact segment.

    All methods are total: construction and lookups degrade to "not
    usable" / "not found" instead of raising, because the disk store
    behind this layer is always correct.  ``usable`` reports whether
    this process trusts the segment; it latches to ``False`` on the
    first sign of corruption.
    """

    def __init__(
        self,
        path: os.PathLike,
        capacity: int = DEFAULT_CAPACITY,
    ):
        self.path = Path(path)
        self.usable = False
        self.hits = 0
        self.published = 0
        self.rejected_full = 0
        self.corruption_detected = 0
        self._mmap: Optional[mmap.mmap] = None
        self._file = None
        self._index: Dict[str, Tuple[int, int, int]] = {}  # off, len, crc
        self._scanned = _HEADER.size
        self._capacity = capacity
        try:
            self._attach(capacity)
        except OSError:
            self.close()

    # ------------------------------------------------------------------
    def _attach(self, capacity: int) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a+b")
        self._lock()
        try:
            self._file.seek(0, os.SEEK_END)
            size = self._file.tell()
            if size == 0:
                header = _HEADER.pack(_SEGMENT_MAGIC, capacity, _HEADER.size)
                self._file.write(header)
                self._file.truncate(_HEADER.size + capacity)
                self._file.flush()
            else:
                self._file.seek(0)
                raw = self._file.read(_HEADER.size)
                if len(raw) < _HEADER.size:
                    self._note_corruption()
                    return
                magic, stored_capacity, _cursor = _HEADER.unpack(raw)
                if magic != _SEGMENT_MAGIC:
                    self._note_corruption()
                    return
                capacity = stored_capacity
                if size < _HEADER.size + capacity:
                    # Truncated segment: the map below would not cover
                    # the declared capacity.
                    self._note_corruption()
                    return
        finally:
            self._unlock()
        self._capacity = capacity
        self._mmap = mmap.mmap(self._file.fileno(), _HEADER.size + capacity)
        self.usable = True

    def _lock(self) -> None:
        if fcntl is not None and self._file is not None:
            fcntl.flock(self._file.fileno(), fcntl.LOCK_EX)

    def _unlock(self) -> None:
        if fcntl is not None and self._file is not None:
            fcntl.flock(self._file.fileno(), fcntl.LOCK_UN)

    def _note_corruption(self) -> None:
        self.corruption_detected += 1
        self.usable = False

    # ------------------------------------------------------------------
    def _cursor(self) -> int:
        assert self._mmap is not None
        return struct.unpack_from("<Q", self._mmap, _CURSOR_OFFSET)[0]

    def _set_cursor(self, value: int) -> None:
        assert self._mmap is not None
        struct.pack_into("<Q", self._mmap, _CURSOR_OFFSET, value)

    def _refresh(self) -> None:
        """Fold records committed by any process into the local index."""
        if not self.usable or self._mmap is None:
            return
        limit = _HEADER.size + self._capacity
        cursor = self._cursor()
        if cursor < _HEADER.size or cursor > limit:
            self._note_corruption()
            return
        position = self._scanned
        mm = self._mmap
        while position < cursor:
            if position + _RECORD.size > cursor:
                self._note_corruption()
                return
            magic, digest_raw, length, crc = _RECORD.unpack_from(mm, position)
            payload_offset = position + _RECORD.size
            if (
                magic != _RECORD_MAGIC
                or payload_offset + length > cursor
                or not _HEX.issuperset(digest_raw)
            ):
                self._note_corruption()
                return
            self._index[digest_raw.decode("ascii")] = (
                payload_offset,
                length,
                crc,
            )
            position = _aligned(payload_offset + length)
        self._scanned = position

    # ------------------------------------------------------------------
    def get_text(self, key_digest: str) -> Optional[str]:
        """The mirrored artifact text, or ``None`` (not here / not trusted)."""
        if not self.usable or self._mmap is None:
            return None
        if key_digest not in self._index:
            self._refresh()
        entry = self._index.get(key_digest)
        if entry is None:
            return None
        offset, length, crc = entry
        payload = self._mmap[offset : offset + length]
        if zlib.crc32(payload) != crc:
            # Torn or overwritten bytes inside the committed bound:
            # stop trusting the whole segment, the disk store is the
            # authority.
            self._note_corruption()
            return None
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError:
            self._note_corruption()
            return None
        self.hits += 1
        return text

    def put_text(self, key_digest: str, text: str) -> bool:
        """Mirror one artifact text; ``False`` when full/untrusted."""
        if not self.usable or self._mmap is None:
            return False
        if len(key_digest) != _DIGEST_LEN:
            return False
        payload = text.encode("utf-8")
        need = _aligned(_RECORD.size + len(payload))
        limit = _HEADER.size + self._capacity
        self._lock()
        try:
            cursor = self._cursor()
            if cursor < _HEADER.size or cursor > limit:
                self._note_corruption()
                return False
            if cursor + need > limit:
                self.rejected_full += 1
                return False
            _RECORD.pack_into(
                self._mmap,
                cursor,
                _RECORD_MAGIC,
                key_digest.encode("ascii"),
                len(payload),
                zlib.crc32(payload),
            )
            self._mmap[cursor + _RECORD.size : cursor + _RECORD.size + len(payload)] = (
                payload
            )
            # Publish last: the cursor is the commit point other
            # processes scan up to.
            self._set_cursor(cursor + need)
        except (OSError, ValueError):
            self._note_corruption()
            return False
        finally:
            self._unlock()
        self._index[key_digest] = (
            cursor + _RECORD.size,
            len(payload),
            zlib.crc32(payload),
        )
        self.published += 1
        return True

    def reset(self) -> None:
        """Rewind the committed cursor (cache ``clear()`` support).

        Readers attached before the reset may retain pre-reset index
        entries; this is a maintenance operation, not a concurrent one.
        """
        if not self.usable or self._mmap is None:
            return
        self._lock()
        try:
            self._set_cursor(_HEADER.size)
        finally:
            self._unlock()
        self._index.clear()
        self._scanned = _HEADER.size

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "usable": int(self.usable),
            "hits": self.hits,
            "published": self.published,
            "rejected_full": self.rejected_full,
            "corruption_detected": self.corruption_detected,
            "indexed": len(self._index),
        }

    def close(self) -> None:
        if self._mmap is not None:
            try:
                self._mmap.close()
            except (BufferError, ValueError):
                pass
            self._mmap = None
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        self.usable = False

    def __del__(self):  # pragma: no cover - GC ordering dependent
        self.close()
