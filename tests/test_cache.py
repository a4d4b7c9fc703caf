"""Tests for the content-addressed experiment result cache."""

import json
import os

import pytest

from repro.experiments.cache import (
    SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    cache_key,
    experiment_key,
)
from repro.ioutil import canonical_json


# -- keys -----------------------------------------------------------------


def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})


def test_cache_key_is_stable():
    assert cache_key("table1", {"scale": 1.0}, 1) == cache_key(
        "table1", {"scale": 1.0}, 1
    )


def test_cache_key_changes_with_every_component():
    base = cache_key("table1", {"scale": 1.0}, 1)
    assert cache_key("figure8", {"scale": 1.0}, 1) != base
    assert cache_key("table1", {"scale": 0.5}, 1) != base
    assert cache_key("table1", {"scale": 1.0}, 2) != base
    assert (
        cache_key("table1", {"scale": 1.0}, 1,
                  schema_version=SCHEMA_VERSION + 1)
        != base
    )


def test_cache_key_rejects_non_json_config():
    with pytest.raises(TypeError):
        cache_key("table1", {"callback": object()}, 1)


def test_experiment_key_covers_options_and_schema():
    base = experiment_key("faultsweep", scale=1.0, seed=1)
    assert experiment_key("faultsweep", scale=1.0, seed=1) == base
    assert (
        experiment_key("faultsweep", scale=1.0, seed=1,
                       options={"fault_rates": [0.0, 0.1]})
        != base
    )
    assert (
        experiment_key("faultsweep", scale=1.0, seed=1,
                       schema_version=SCHEMA_VERSION + 1)
        != base
    )


# -- storage --------------------------------------------------------------


def test_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache_key("table1", {"scale": 1.0}, 1)
    record = {"name": "table1", "report": "line one\nline two"}
    cache.put(key, record)
    assert cache.get(key) == record
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1


def test_absent_key_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.get(cache_key("table1", {}, 1)) is None
    assert cache.stats.misses == 1
    assert cache.stats.invalidated == 0


def test_entries_fan_out_into_subdirectories(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache_key("table1", {}, 1)
    cache.put(key, {"report": "r"})
    path = cache.entry_path(key)
    assert os.path.dirname(path) == str(tmp_path / key[:2])
    assert os.path.exists(path)


def test_corrupted_entry_is_miss_not_crash(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache_key("table1", {}, 1)
    cache.put(key, {"report": "good"})
    with open(cache.entry_path(key), "w") as handle:
        handle.write("{ not json at all")
    assert cache.get(key) is None
    assert cache.stats.invalidated == 1
    assert cache.stats.misses == 1
    # The bad entry is removed so the slot heals on the next store.
    assert not os.path.exists(cache.entry_path(key))
    cache.put(key, {"report": "good again"})
    assert cache.get(key) == {"report": "good again"}


def test_tampered_record_fails_digest_check(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache_key("table1", {}, 1)
    cache.put(key, {"report": "truth"})
    path = cache.entry_path(key)
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["record"]["report"] = "lies"
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    assert cache.get(key) is None
    assert cache.stats.invalidated == 1


def test_entry_filed_under_wrong_key_is_rejected(tmp_path):
    cache = ResultCache(str(tmp_path))
    key_a = cache_key("table1", {}, 1)
    key_b = cache_key("table1", {}, 2)
    cache.put(key_a, {"report": "for a"})
    os.makedirs(os.path.dirname(cache.entry_path(key_b)), exist_ok=True)
    with open(cache.entry_path(key_a)) as handle:
        blob = handle.read()
    with open(cache.entry_path(key_b), "w") as handle:
        handle.write(blob)
    assert cache.get(key_b) is None
    assert cache.stats.invalidated == 1
    assert cache.get(key_a) == {"report": "for a"}


def test_foreign_json_file_is_invalidated(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = cache_key("table1", {}, 1)
    os.makedirs(os.path.dirname(cache.entry_path(key)), exist_ok=True)
    with open(cache.entry_path(key), "w") as handle:
        json.dump({"some": "other tool's file"}, handle)
    assert cache.get(key) is None
    assert cache.stats.invalidated == 1


# -- accounting -----------------------------------------------------------


def test_stats_hit_rate_and_line():
    stats = CacheStats()
    assert stats.hit_rate == 0.0
    stats.hits = 3
    stats.misses = 1
    assert stats.hit_rate == 0.75
    line = stats.format_line()
    assert line.startswith("campaign cache: ")
    assert "hits=3" in line and "hit_rate=75.0%" in line


def test_stats_as_dict_round_numbers():
    cache_stats = CacheStats()
    cache_stats.hits = 1
    cache_stats.misses = 2
    as_dict = cache_stats.as_dict()
    assert as_dict["hits"] == 1
    assert as_dict["hit_rate"] == pytest.approx(0.3333, abs=1e-4)


# -- size cap / LRU eviction ----------------------------------------------


def _filled_cache(tmp_path, max_bytes, names, size=400):
    """A capped cache holding one entry per name, mtimes spaced 10s."""
    cache = ResultCache(str(tmp_path), max_bytes=max_bytes)
    keys = {}
    for offset, name in enumerate(names):
        key = cache_key(name, {}, 1)
        cache.put(key, {"name": name, "report": "r" * size})
        os.utime(cache.entry_path(key), (1000 + 10 * offset,) * 2)
        keys[name] = key
    return cache, keys


def test_eviction_keeps_cache_under_cap(tmp_path):
    probe = ResultCache(str(tmp_path / "probe"))
    probe.put(cache_key("probe", {}, 1), {"name": "p", "report": "r" * 400})
    entry_size = probe.total_bytes()

    cap = int(entry_size * 2.5)  # room for two entries, not three
    cache, keys = _filled_cache(tmp_path / "lru", cap, ["a", "b", "c"])
    assert cache.total_bytes() <= cap
    assert cache.stats.evicted == 1
    # Least-recently-used went first: "a" evicted, "b" and "c" kept.
    assert cache.get(keys["a"]) is None
    assert cache.get(keys["b"]) is not None
    assert cache.get(keys["c"]) is not None


def test_hits_touch_entries_and_protect_them_from_eviction(tmp_path):
    probe = ResultCache(str(tmp_path / "probe"))
    probe.put(cache_key("probe", {}, 1), {"name": "p", "report": "r" * 400})
    entry_size = probe.total_bytes()

    cap = int(entry_size * 2.5)
    cache, keys = _filled_cache(tmp_path / "lru", cap, ["a", "b"])
    # A hit refreshes "a"'s recency, so the *next* store evicts "b".
    assert cache.get(keys["a"]) is not None
    cache.put(cache_key("c", {}, 1), {"name": "c", "report": "r" * 400})
    assert cache.get(keys["b"]) is None
    assert cache.get(keys["a"]) is not None


def test_just_stored_entry_survives_a_pathologically_small_cap(tmp_path):
    cache = ResultCache(str(tmp_path), max_bytes=1)
    key = cache_key("only", {}, 1)
    cache.put(key, {"name": "only", "report": "r" * 400})
    # Over cap, but the entry we were just asked to remember stays.
    assert cache.get(key) is not None


def test_unbounded_cache_never_evicts(tmp_path):
    cache = ResultCache(str(tmp_path))
    for seed in range(8):
        cache.put(cache_key("x", {}, seed), {"name": "x", "report": "r" * 400})
    assert cache.stats.evicted == 0
    assert cache.total_bytes() > 0


def test_eviction_shows_in_stats_line_and_dict(tmp_path):
    probe = ResultCache(str(tmp_path / "probe"))
    probe.put(cache_key("probe", {}, 1), {"name": "p", "report": "r" * 400})
    cap = int(probe.total_bytes() * 1.5)
    cache, _ = _filled_cache(tmp_path / "lru", cap, ["a", "b"])
    assert cache.stats.as_dict()["evicted"] == 1
    assert "evicted=1" in cache.stats.format_line()


def test_nonpositive_cap_is_rejected():
    with pytest.raises(ValueError):
        ResultCache("unused", max_bytes=0)
