"""Content-addressed on-disk artifact store.

Artifacts are addressed by the :func:`repro.engine.serialize.digest` of
their *job key* — a canonical description of the computation (kind +
inputs), not of the result.  A ``Chr² s`` subdivision or an ``R_A``
construction is therefore computed once per machine, ever: any later
process that asks for the same key gets the stored value back.

Layout (under the cache root, default ``~/.cache/repro-engine`` or
``$REPRO_CACHE_DIR``)::

    objects/<digest[:2]>/<digest>.json    one canonical-JSON artifact each

Writes are atomic (temp file + ``os.replace``), so concurrent engines
sharing a cache directory can only ever observe whole artifacts.
Corrupt or undecodable entries are treated as misses and overwritten.
The digest scheme version participates in every address, so bumping
``SCHEME_VERSION`` orphans (rather than corrupts) old entries — see
``docs/engine.md`` for the invalidation story.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Optional

from .serialize import SerializationError, deserialize, serialize

#: Sentinel distinguishing "no cached artifact" from a cached ``None``
#: (a solvability query's answer may legitimately be ``None``).
MISS = object()

_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-engine``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-engine"


class ArtifactCache:
    """A persistent, content-addressed store of engine artifacts."""

    persistent = True

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"

    # ------------------------------------------------------------------
    def _path(self, key_digest: str) -> Path:
        return self._objects / key_digest[:2] / f"{key_digest}.json"

    def get(self, key_digest: str) -> Any:
        """The stored artifact for a key digest, or :data:`MISS`."""
        path = self._path(key_digest)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return MISS
        try:
            value = deserialize(text)
        except (SerializationError, ValueError):
            self.misses += 1
            return MISS
        self.hits += 1
        return value

    def put(self, key_digest: str, value: Any) -> None:
        """Store an artifact atomically under its key digest."""
        path = self._path(key_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = serialize(value)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Stored artifacts: ``<digest>.json`` entries, not the temp file
        a writer killed mid-``put`` leaves behind."""
        return sum(
            1
            for entry in self._objects.glob("*/*.json")
            if not entry.name.startswith(".")
        )

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        removed = 0
        for entry in self._objects.glob("*/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class NullCache:
    """A cache that never stores anything (``--no-cache``)."""

    persistent = False

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return "NullCache()"

    def get(self, key_digest: str) -> Any:
        self.misses += 1
        return MISS

    def put(self, key_digest: str, value: Any) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0
