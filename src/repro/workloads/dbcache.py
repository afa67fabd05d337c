"""Process-local cache of constructed benchmark databases.

Building a synthetic database (data generation + ANALYZE) dominates the
cost of a small-scale experiment run.  Within one experiment module the
database is already built once and reused across algorithms; this cache
extends that reuse across *experiments sharing a worker process* — exactly
the situation the CLI runner (:mod:`repro.cli`) creates when it fans
experiment shards over a ``multiprocessing`` pool and several shards with
the same (workload, scale, index config) land on the same worker.

The cache is opt-in (:func:`enable`) because a long-lived interactive
process should not silently pin every database it ever built.  Reuse is
safe for the same reason per-experiment reuse already is: algorithm runs
treat the :class:`~repro.storage.database.Database` as read-only and keep
materialized temporaries private.

The cache is also **thread-safe**: the serving layer (:mod:`repro.serving`)
runs many worker threads in one process, and two of them asking for the
same database must not race to build it twice (wasted minutes of datagen)
or, worse, observe a half-registered entry.  A global lock serializes the
bookkeeping and a per-key build lock serializes construction, so exactly
one thread builds each (workload, scale, config) while later requesters
block until the built database is published — concurrent builds of
*different* keys still proceed in parallel.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.storage.database import Database, IndexConfig

_BUILDERS: dict[str, Callable[..., Database]] = {}

_CacheKey = tuple[str, float, IndexConfig]
_CACHE: dict[_CacheKey, Database] = {}
_ENABLED = False
#: Guards ``_CACHE`` / ``_ENABLED`` / ``_BUILD_LOCKS`` bookkeeping.
_LOCK = threading.Lock()
#: One lock per cache key, so one thread builds while the rest wait.
_BUILD_LOCKS: dict[_CacheKey, threading.Lock] = {}


def _builders() -> dict[str, Callable[..., Database]]:
    if not _BUILDERS:
        from repro.workloads.dsb import build_dsb_database
        from repro.workloads.imdb import build_imdb_database
        from repro.workloads.tpch import build_tpch_database
        _BUILDERS.update(imdb=build_imdb_database, tpch=build_tpch_database,
                         dsb=build_dsb_database)
    return _BUILDERS


def enable() -> None:
    """Turn on caching for this process (the pool-worker initializer)."""
    global _ENABLED
    with _LOCK:
        _ENABLED = True


def disable() -> None:
    """Turn caching off and drop every cached database."""
    global _ENABLED
    with _LOCK:
        _ENABLED = False
        _CACHE.clear()
        _BUILD_LOCKS.clear()


def build(workload: str, scale: float, index_config: IndexConfig) -> Database:
    """Build (or reuse) the ``workload`` database at ``scale``.

    ``workload`` is one of ``"imdb"``, ``"tpch"``, ``"dsb"``.  Without
    :func:`enable` this is a plain passthrough to the underlying builder.
    Safe to call from many threads: concurrent first-builds of the same key
    are serialized behind a per-key lock, so every caller receives the same
    instance.
    """
    builder = _builders()[workload]
    key = (workload, float(scale), index_config)
    with _LOCK:
        if not _ENABLED:
            build_lock = None
        else:
            if key in _CACHE:
                return _CACHE[key]
            build_lock = _BUILD_LOCKS.setdefault(key, threading.Lock())
    if build_lock is None:
        return builder(scale=scale, index_config=index_config)
    with build_lock:
        # Double-check under the build lock: the winner of the race
        # published the database while this thread waited.
        with _LOCK:
            if key in _CACHE:
                return _CACHE[key]
        database = builder(scale=scale, index_config=index_config)
        with _LOCK:
            # disable() may have raced the build; publish only while enabled
            # so a cleared cache is not silently repopulated.
            if _ENABLED:
                _CACHE[key] = database
        return database
