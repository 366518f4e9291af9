"""The service's text tier: bounds, accounting, and the disk tier behind it."""

from __future__ import annotations

import pytest

from repro.engine import ArtifactCache, Engine, JobSpec, digest, serialize
from repro.service import BackgroundServer, MemCache, ServiceClient
from repro.service.memcache import request_key


def test_put_get_round_trip():
    cache = MemCache()
    key = request_key("chr", serialize((2, 1)))
    assert cache.get(key) is None
    cache.put(key, '["tuple",[1,2,3]]')
    assert cache.get(key) == '["tuple",[1,2,3]]'
    assert cache.hits == 1
    assert cache.misses == 1


def test_request_key_covers_kind_and_exact_payload_text():
    payload = serialize((2, 1))
    assert request_key("chr", payload) == request_key("chr", payload)
    assert request_key("chr", payload) != request_key("classify", payload)
    # The separator keeps the kind/payload boundary in the key.
    assert request_key("ab", "c") != request_key("a", "bc")
    # Same value, different text: a different request.
    assert request_key("chr", payload) != request_key("chr", payload + " ")


def test_lru_eviction_order_and_accounting():
    cache = MemCache(max_entries=2)
    keys = [request_key("chr", str(i)) for i in range(3)]
    cache.put(keys[0], "a")
    cache.put(keys[1], "b")
    cache.get(keys[0])  # make key 0 most-recent; key 1 becomes LRU
    cache.put(keys[2], "c")  # evicts key 1
    assert cache.evictions == 1
    assert cache.get(keys[0]) == "a"
    assert cache.get(keys[2]) == "c"
    assert cache.get(keys[1]) is None
    assert len(cache) == 2


def test_stats_shape():
    cache = MemCache(max_entries=4)
    cache.get(request_key("chr", "nothing"))
    stats = cache.stats()
    assert set(stats) == {
        "size", "max_entries", "hits", "misses", "evictions", "hit_rate"
    }
    assert stats["misses"] == 1
    assert stats["hit_rate"] == 0.0
    assert stats["max_entries"] == 4


def test_max_entries_must_be_positive():
    with pytest.raises(ValueError):
        MemCache(max_entries=0)


# ----------------------------------------------------------------------
# The disk tier behind a server
# ----------------------------------------------------------------------
def _chr_answer(port: int):
    with ServiceClient(port=port) as client:
        return client.query_response("chr", (3, 1))


def test_backing_fallback_promotes_into_memory(tmp_path):
    """A restarted server answers from disk, then from its text tier."""
    expected = serialize(JobSpec("chr", (3, 1)).run())
    with BackgroundServer(Engine(cache=ArtifactCache(tmp_path))) as first:
        computed = _chr_answer(first.port)
    assert not computed["cache_hit"] and computed["value"] == expected

    engine = Engine(cache=ArtifactCache(tmp_path))
    with BackgroundServer(engine) as restarted:
        from_disk = _chr_answer(restarted.port)
        from_memory = _chr_answer(restarted.port)
        tier = restarted.server.memcache.stats()
    assert from_disk["cache_hit"] and from_disk["value"] == expected
    assert from_memory["cache_hit"] and from_memory["value"] == expected
    assert (tier["misses"], tier["hits"], tier["size"]) == (1, 1, 1)
    # The engine saw only the first ask: one disk hit, no computation.
    assert engine.stats()["hits"] == 1 and engine.stats()["misses"] == 0


def test_corrupt_backing_entry_is_a_full_miss_and_recovers(tmp_path):
    """A corrupt disk entry behind the server is recomputed and rewritten."""
    key_digest = digest(JobSpec("chr", (3, 1)).cache_key())
    with BackgroundServer(Engine(cache=ArtifactCache(tmp_path))) as first:
        expected = _chr_answer(first.port)["value"]
    path = ArtifactCache(tmp_path)._path(key_digest)
    path.write_text('["tuple",[1', encoding="utf-8")  # truncated

    engine = Engine(cache=ArtifactCache(tmp_path))
    with BackgroundServer(engine) as restarted:
        recomputed = _chr_answer(restarted.port)
    assert not recomputed["cache_hit"]
    assert recomputed["value"] == expected
    assert engine.stats()["misses"] == 1
    assert serialize(ArtifactCache(tmp_path).get(key_digest)) == expected
