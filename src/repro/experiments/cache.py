"""Content-addressed cache of finished experiment results.

A paper campaign is a large cross product of configurations, and most
reruns repeat points that have not changed.  This cache makes such
reruns free: every task is addressed by a canonical hash of

* the **experiment id** (registry name),
* the **full configuration** (scale, extra options — anything that can
  change the result),
* the **seed**, and
* the **code-schema version** (:data:`SCHEMA_VERSION`, bumped whenever
  a code change legitimately alters results),

so any change to any of these produces a different key — stale results
can never be served.  Entries are self-verifying JSON files: the stored
record is accompanied by a SHA-256 digest of its canonical form, and a
sidecar-style envelope records the key and schema version.  Writes go
through :func:`repro.ioutil.atomic_write` (temp file + fsync +
``os.replace`` + directory fsync); a corrupted, truncated or mismatched
entry is treated as a **miss**, counted as an invalidation, and removed
— never a crash.

Accounting (hits / misses / stores / invalidations) is kept per
:class:`ResultCache` and surfaces in the campaign metrics report and on
the CLI's stderr summary line.
"""

import hashlib
import json
import os

from repro.ioutil import atomic_write, canonical_json

# Bump whenever experiment code changes in a way that alters results
# (new metrics, RNG stream changes, workload fixes).  Old entries then
# hash to different keys and are recomputed instead of served stale.
SCHEMA_VERSION = 1

_ENVELOPE_KIND = "lotterybus-result-cache"


def cache_key(experiment, config, seed, schema_version=SCHEMA_VERSION):
    """SHA-256 key addressing one (experiment, config, seed, schema).

    ``config`` must be JSON-representable; non-JSON configurations are
    a :class:`TypeError` at key time rather than a silent wrong hit.
    """
    blob = canonical_json(
        {
            "experiment": experiment,
            "config": config,
            "seed": seed,
            "schema": schema_version,
        }
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def experiment_key(name, scale=1.0, seed=1, options=None,
                   schema_version=SCHEMA_VERSION):
    """The campaign engine's key for one registry experiment task."""
    return cache_key(
        name,
        {"scale": scale, "options": dict(options or {})},
        seed,
        schema_version=schema_version,
    )


class CacheStats:
    """Hit/miss/store/invalidation/eviction counters for one cache."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0
        self.evicted = 0

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
            "evicted": self.evicted,
            "hit_rate": round(self.hit_rate, 4),
        }

    def format_line(self):
        """One grep-friendly line for progress streams and CI asserts."""
        return (
            "campaign cache: hits={} misses={} stores={} invalidated={} "
            "evicted={} hit_rate={:.1%}".format(
                self.hits, self.misses, self.stores, self.invalidated,
                self.evicted, self.hit_rate,
            )
        )

    def __repr__(self):
        return "CacheStats({})".format(self.format_line())


class ResultCache:
    """Content-addressed store of finished task records.

    :param directory: cache root; entries live in two-level fan-out
        subdirectories (``ab/abcdef….json``) so huge campaigns do not
        pile thousands of files into one directory.
    :param chaos: optional :class:`repro.chaos.ChaosInjector`; when
        given, freshly stored entries may be deliberately corrupted so
        chaos campaigns prove the self-verifying read path heals them.
    :param max_bytes: optional size cap on the cache directory; once the
        sum of entry sizes exceeds it, least-recently-*used* entries
        (mtime order — hits touch their entry) are evicted until the
        cache fits again.  ``None`` means unbounded (the historical
        behaviour).
    """

    def __init__(self, directory, chaos=None, max_bytes=None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 when given")
        self.directory = directory
        self.stats = CacheStats()
        self.chaos = chaos
        self.max_bytes = max_bytes
        self._total_bytes = None  # lazy; first cap check scans the dir
        os.makedirs(directory, exist_ok=True)

    def entry_path(self, key):
        return os.path.join(self.directory, key[:2], key + ".json")

    def get(self, key):
        """The record stored under ``key``, or ``None`` on a miss.

        Any defect — unreadable file, bad JSON, wrong envelope, digest
        mismatch — counts as an invalidation plus a miss, and the bad
        entry is deleted so the slot heals on the next store.
        """
        path = self.entry_path(key)
        try:
            with open(path, "r") as handle:
                envelope = json.load(handle)
        except OSError:
            self.stats.misses += 1
            return None
        except ValueError:
            self._invalidate(path)
            return None
        if not self._envelope_ok(envelope, key):
            self._invalidate(path)
            return None
        self.stats.hits += 1
        self._touch(path)
        return envelope["record"]

    def put(self, key, record):
        """Atomically store ``record`` (JSON-representable) under ``key``."""
        envelope = {
            "kind": _ENVELOPE_KIND,
            "schema": SCHEMA_VERSION,
            "key": key,
            "sha256": hashlib.sha256(
                canonical_json(record).encode("utf-8")
            ).hexdigest(),
            "record": record,
        }
        path = self.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        old_size = self._size_of(path)
        atomic_write(path, json.dumps(envelope, sort_keys=True))
        self.stats.stores += 1
        if self._total_bytes is not None:
            self._total_bytes += self._size_of(path) - old_size
        if self.chaos is not None:
            self.chaos.maybe_corrupt_cache_entry(path)
        self._evict_if_needed(keep=path)

    def _envelope_ok(self, envelope, key):
        if not isinstance(envelope, dict):
            return False
        if envelope.get("kind") != _ENVELOPE_KIND:
            return False
        if envelope.get("key") != key:
            return False
        if "record" not in envelope:
            return False
        digest = hashlib.sha256(
            canonical_json(envelope["record"]).encode("utf-8")
        ).hexdigest()
        return envelope.get("sha256") == digest

    def _invalidate(self, path):
        self.stats.invalidated += 1
        self.stats.misses += 1
        self._unlink(path)

    # -- size cap / LRU eviction ------------------------------------------

    def total_bytes(self):
        """Current sum of entry sizes (scans the directory once, then
        maintained incrementally across puts/evictions)."""
        if self._total_bytes is None:
            self._total_bytes = sum(
                size for _, _, size in self._entry_files()
            )
        return self._total_bytes

    def _entry_files(self):
        """All ``(path, mtime, size)`` entry triples under the root."""
        entries = []
        for dirpath, _, filenames in os.walk(self.directory):
            for filename in filenames:
                if not filename.endswith(".json"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    status = os.stat(path)
                except OSError:
                    continue  # raced with an unlink; it costs no bytes
                entries.append((path, status.st_mtime, status.st_size))
        return entries

    def _evict_if_needed(self, keep=None):
        """Evict least-recently-used entries until under ``max_bytes``.

        ``keep`` (the entry just stored) is never evicted — even a
        pathological cap smaller than one entry must not make the cache
        drop the result it was just asked to remember.
        """
        if self.max_bytes is None or self.total_bytes() <= self.max_bytes:
            return
        entries = sorted(self._entry_files(), key=lambda e: (e[1], e[0]))
        # Rebuild the total from the fresh scan; incremental accounting
        # drifts if another process shares the directory.
        self._total_bytes = sum(size for _, _, size in entries)
        for path, _, size in entries:
            if self._total_bytes <= self.max_bytes:
                break
            if keep is not None and os.path.abspath(path) == (
                os.path.abspath(keep)
            ):
                continue
            self._unlink(path)
            self.stats.evicted += 1
            self._total_bytes -= size

    @staticmethod
    def _size_of(path):
        try:
            return os.path.getsize(path)
        except OSError:
            return 0  # absent file: zero bytes toward the cap

    def _touch(self, path):
        try:
            os.utime(path, None)
        except OSError:
            pass  # LRU ordering degrades gracefully to store order

    def _unlink(self, path):
        try:
            os.unlink(path)
        except OSError:
            pass  # already gone (or unremovable): the read path heals it

    def __repr__(self):
        return "ResultCache({!r}, {})".format(
            self.directory, self.stats.format_line()
        )
