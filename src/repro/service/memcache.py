"""Bounded in-memory LRU of answered value texts, keyed by request.

A repeated query is answered from the text the service sent the first
time, under :func:`request_key` (``kind`` plus the exact ``payload``
string): a hit costs one hash, no decode, engine call or serialize.
Texts are the engine's canonical serialization, the bytes the wire and
the on-disk :class:`~repro.engine.cache.ArtifactCache` carry, so no
decoded form is kept.  A payload equal in value but written differently
misses here and is answered by that disk cache, which stays the only
content address.  Only ``ok`` answers are stored.  The server's event
loop is the only caller, so no lock is taken.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Optional


def request_key(kind: str, payload_text: str) -> str:
    """The identity of one query request: ``kind`` plus its exact payload."""
    hasher = hashlib.sha256(kind.encode("utf-8"))
    hasher.update(b"\0")
    hasher.update(payload_text.encode("utf-8"))
    return hasher.hexdigest()


class MemCache:
    """An LRU of canonical value texts keyed by :func:`request_key`."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lru: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[str]:
        """The stored value text for a request key, or ``None``."""
        text = self._lru.get(key)
        if text is None:
            self.misses += 1
            return None
        self._lru.move_to_end(key)
        self.hits += 1
        return text

    def put(self, key: str, text: str) -> None:
        """Store a value text, evicting the least recently used beyond the bound."""
        self._lru[key] = text
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction accounting."""
        lookups = self.hits + self.misses
        return {
            "size": len(self._lru),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
        }
